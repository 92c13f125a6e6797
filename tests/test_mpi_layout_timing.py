"""Tests for timed datatype handling and the layout cache's effect."""

import pytest

from repro.config import ExperimentConfig, HarnessCfg, ProtocolCfg, SchemeCfg, WorkloadCfg
from repro.datatypes import DOUBLE, FLOAT, Indexed, Vector
from repro.mpi import Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Category, Simulator


def _runtime(**protocol):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2)
    return sim, Runtime(
        sim, cluster, SCHEME_REGISTRY["GPU-Sync"], protocol=ProtocolCfg(**protocol)
    )


def _exchange_cfg(workload, dim, nbuffers, iterations, **protocol):
    return ExperimentConfig(
        workload=WorkloadCfg(name=workload, dim=dim, nbuffers=nbuffers),
        scheme=SchemeCfg(name="GPU-Sync"),
        protocol=ProtocolCfg(**protocol),
        harness=HarnessCfg(iterations=iterations, warmup=1, data_plane=False),
    )


def _drive(sim, gen):
    box = {}

    def proc():
        box["v"] = yield from gen

    sim.run(sim.process(proc()))
    return box["v"]


def test_first_use_charges_flatten_cost():
    sim, rt = _runtime()
    rank = rt.rank(0)
    dt = Vector(128, 2, 5, DOUBLE).commit()
    t0 = sim.now
    lay = _drive(sim, rank.resolve_layout_timed(dt, 1))
    expected = rt.flatten_base_cost + lay.num_blocks * rt.flatten_block_cost
    assert sim.now - t0 == pytest.approx(expected)
    flatten_spans = [s for s in rank.trace.spans if s.label == "flatten"]
    assert len(flatten_spans) == 1


def test_cache_hit_is_free():
    sim, rt = _runtime()
    rank = rt.rank(0)
    dt = Vector(128, 2, 5, DOUBLE).commit()
    _drive(sim, rank.resolve_layout_timed(dt, 1))
    t1 = sim.now
    _drive(sim, rank.resolve_layout_timed(Vector(128, 2, 5, DOUBLE).commit(), 1))
    assert sim.now == t1  # structural twin: hit, no charge


def test_cache_disabled_charges_every_time():
    sim, rt = _runtime(layout_cache_enabled=False)
    rank = rt.rank(0)
    dt = Vector(128, 2, 5, DOUBLE).commit()
    _drive(sim, rank.resolve_layout_timed(dt, 1))
    t1 = sim.now
    _drive(sim, rank.resolve_layout_timed(dt, 1))
    assert sim.now > t1


def _flatten_charges(rank):
    return [s for s in rank.trace.spans if s.label == "flatten"]


@pytest.mark.parametrize("enabled", [True, False], ids=["cache-on", "cache-off"])
def test_flatten_charged_once_per_key_or_every_message(enabled):
    """Structural twins and repeated messages hit one key: with the
    cache on it is charged once per (signature, count); off, on every
    message."""
    sim, rt = _runtime(layout_cache_enabled=enabled)
    rank = rt.rank(0)
    messages = [
        (Indexed([2, 1], [0, 5], FLOAT), 1),
        (Indexed([2, 1], [0, 5], FLOAT), 1),  # twin: same key
        (Indexed([2, 1], [0, 5], FLOAT), 2),  # new count: new key
        (Indexed([2, 1], [0, 6], FLOAT), 1),  # new displacements
    ]
    for dt, count in messages * 2:
        _drive(sim, rank.resolve_layout_timed(dt, count))
    assert len(_flatten_charges(rank)) == (3 if enabled else 8)


def test_raw_layout_never_charged():
    sim, rt = _runtime(layout_cache_enabled=False)
    rank = rt.rank(0)
    lay = Vector(128, 2, 5, DOUBLE).commit().flatten()
    _drive(sim, rank.resolve_layout_timed(lay, 1))
    assert sim.now == 0.0


def test_flatten_cost_scales_with_blocks():
    sim, rt = _runtime()
    rank = rt.rank(0)
    small = Vector(8, 2, 5, DOUBLE).commit()
    big = Vector(8192, 2, 5, DOUBLE).commit()
    t0 = sim.now
    _drive(sim, rank.resolve_layout_timed(small, 1))
    small_cost = sim.now - t0
    t1 = sim.now
    _drive(sim, rank.resolve_layout_timed(big, 1))
    big_cost = sim.now - t1
    assert big_cost > small_cost


def test_end_to_end_cache_effect_on_sparse_exchange():
    """Disabling the cache slows a sparse bulk exchange measurably and
    shows up in the SCHED bucket (flatten charges)."""
    from repro.bench import run_bulk_exchange

    on = run_bulk_exchange(_exchange_cfg("specfem3D_cm", 2000, 8, 2))
    off = run_bulk_exchange(
        _exchange_cfg("specfem3D_cm", 2000, 8, 2, layout_cache_enabled=False)
    )
    assert off.mean_latency > on.mean_latency * 1.05
    assert off.breakdown[Category.SCHED] > on.breakdown[Category.SCHED]


def test_warmup_absorbs_the_one_time_flatten():
    """With the cache on, steady-state iterations pay nothing: the
    post-warm-up latencies are iteration-identical."""
    from repro.bench import run_bulk_exchange

    r = run_bulk_exchange(_exchange_cfg("MILC", 16, 4, 3))
    assert max(r.latencies) - min(r.latencies) < 1e-9

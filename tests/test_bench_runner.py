"""Tests for the benchmark harness (runner + reports)."""

import numpy as np
import pytest

from repro.bench import (
    ExperimentResult,
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
    run_bulk_exchange,
    speedup_matrix,
)
from repro.bench import runner
from repro.config import (
    ExperimentConfig,
    FaultsCfg,
    HarnessCfg,
    ProtocolCfg,
    SchemeCfg,
    WorkloadCfg,
)
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Category


def _cfg(scheme="GPU-Sync", dim=32, nbuffers=4, **harness):
    return ExperimentConfig(
        workload=WorkloadCfg(name="NAS_MG", dim=dim, nbuffers=nbuffers),
        scheme=SchemeCfg(name=scheme),
        harness=HarnessCfg(**harness),
    )


@pytest.fixture(scope="module")
def results():
    return {
        name: run_bulk_exchange(_cfg(name, iterations=3, warmup=1))
        for name in ("GPU-Sync", "Proposed")
    }


def test_result_latencies_recorded(results):
    r = results["GPU-Sync"]
    assert len(r.latencies) == 3
    assert r.mean_latency > 0
    assert r.min_latency <= r.mean_latency
    assert r.scheme == "GPU-Sync"
    assert r.workload == "NAS_MG"
    assert r.system == "Lassen"
    assert r.message_bytes == 32 * 32 * 8


def test_iterations_are_deterministic(results):
    """The simulation is noise-free: steady-state iterations agree."""
    for r in results.values():
        assert max(r.latencies) - min(r.latencies) < 1e-9


def test_breakdown_sums_to_latency(results):
    for r in results.values():
        total = sum(r.breakdown.values())
        assert total == pytest.approx(r.mean_latency, rel=0.05)


def test_proposed_beats_sync(results):
    assert results["Proposed"].speedup_over(results["GPU-Sync"]) > 1.5


def test_proposed_lower_launch_and_sync(results):
    sync_bd = results["GPU-Sync"].breakdown
    prop_bd = results["Proposed"].breakdown
    assert prop_bd[Category.LAUNCH] < sync_bd[Category.LAUNCH]
    assert prop_bd[Category.SYNC] < sync_bd[Category.SYNC]


def test_scheduler_stats_captured(results):
    stats = results["Proposed"].scheduler_stats
    assert stats is not None
    assert stats.enqueued > 0


def test_data_plane_off_matches_timing():
    wet = run_bulk_exchange(_cfg(nbuffers=2, iterations=2, warmup=1))
    dry = run_bulk_exchange(
        _cfg(nbuffers=2, iterations=2, warmup=1, data_plane=False)
    )
    assert dry.mean_latency == pytest.approx(wet.mean_latency, rel=1e-9)


def test_runner_validation():
    with pytest.raises(ValueError):
        _cfg(dim=16, iterations=0)
    three_nodes = _cfg(dim=16).with_overrides({"system.nodes": 3})
    with pytest.raises(ValueError, match="exactly 2 ranks"):
        run_bulk_exchange(three_nodes)


def test_verification_detects_dropped_bytes(monkeypatch):
    """verify=True really checks: sabotage the unpack data plane and the
    harness must raise its corruption error."""
    import repro.bench.runner as runner_mod
    from repro.net.topology import Cluster as RealCluster

    class SabotagedCluster(RealCluster):
        def __init__(self, sim, system, nodes=2, ranks_per_node=1, functional=True):
            # Devices silently drop all byte movement while the harness
            # believes the data plane is live.
            super().__init__(sim, system, nodes, ranks_per_node, functional=False)

    monkeypatch.setattr(runner_mod, "Cluster", SabotagedCluster)
    with pytest.raises(AssertionError, match="corruption"):
        run_bulk_exchange(_cfg(dim=16, nbuffers=2, iterations=1, warmup=0))


def _payload_mask(layout, nbytes):
    mask = np.zeros(nbytes, dtype=bool)
    for offset, length in zip(layout.offsets.tolist(), layout.lengths.tolist()):
        mask[offset : offset + length] = True
    return mask


def _filled_send_buffers(monkeypatch, seed):
    """Run a small MILC exchange; the send buffers' bytes right after the fill."""
    filled = []
    real_fill = runner._fill_random

    def recording_fill(buffers, layout, rng):
        real_fill(buffers, layout, rng)
        filled.append((layout, [buf.data.copy() for buf in buffers]))

    monkeypatch.setattr(runner, "_fill_random", recording_fill)
    run_bulk_exchange(ExperimentConfig(
        workload=WorkloadCfg(name="MILC", dim=4, nbuffers=2),
        harness=HarnessCfg(iterations=1, warmup=0, seed=seed),
    ))
    ((layout, data),) = filled
    return layout, data


def test_fill_writes_only_payload_bytes_and_is_seeded(monkeypatch):
    layout, first = _filled_send_buffers(monkeypatch, seed=5)
    _, again = _filled_send_buffers(monkeypatch, seed=5)
    _, other = _filled_send_buffers(monkeypatch, seed=6)
    assert len(first) == 4  # two buffers on each of two ranks
    payload = _payload_mask(layout, len(first[0]))
    assert payload.sum() == layout.size < len(first[0])
    for data in first:
        assert not data[~payload].any()
        assert data[payload].any()
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])


@pytest.mark.parametrize("workload, dim, row_plan", [
    ("MILC", 4, True), ("specfem3D_oc", 200, False),
])
def test_verification_detects_one_flipped_payload_byte(monkeypatch, workload, dim, row_plan):
    """verify=True compares every payload byte, on either pack path."""
    from repro.gpu import kernels

    real_unpack = kernels.unpack_bytes

    def corrupting_unpack(packed, layout, dest, base_offset=0):
        out = real_unpack(packed, layout, dest, base_offset=base_offset)
        dest[int(layout.offsets[-1]) + base_offset] ^= 0xFF
        return out

    monkeypatch.setattr(kernels, "unpack_bytes", corrupting_unpack)
    cfg = ExperimentConfig(
        workload=WorkloadCfg(name=workload, dim=dim, nbuffers=2),
        harness=HarnessCfg(iterations=1, warmup=0),
    )
    spec = cfg.workload.resolve()
    layout = spec.datatype.flatten().replicate(spec.count)
    assert (layout.row_form is not None) == row_plan
    with pytest.raises(AssertionError, match="data corruption"):
        run_bulk_exchange(cfg)


# -- report formatting -------------------------------------------------------------


def _fake(scheme, latency):
    r = ExperimentResult(
        scheme=scheme, workload="w", system="s", nbuffers=4, dim=32
    )
    r.latencies = [latency]
    r.breakdown = {c: 0.0 for c in Category}
    r.breakdown[Category.PACK] = latency / 2
    r.breakdown[Category.COMM] = latency / 2
    return r


def test_format_latency_table():
    grid = {
        "A": {32: _fake("A", 1e-4), 64: _fake("A", 2e-4)},
        "B": {32: _fake("B", 2e-4)},
    }
    text = format_latency_table(grid, title="t", baseline="B")
    assert "100.00us" in text
    assert "speedup over B" in text
    assert "--" in text  # missing cell for B/64


def test_format_breakdown_table():
    text = format_breakdown_table([_fake("A", 1e-4)], title="bd")
    assert "pack" in text and "comm" in text
    assert "50.00us" in text


def test_speedup_matrix_and_table():
    grid = {
        "ref": {32: _fake("ref", 4e-4)},
        "fast": {32: _fake("fast", 1e-4)},
    }
    m = speedup_matrix(grid, "ref")
    assert m["fast"][32] == pytest.approx(4.0)
    assert m["ref"][32] == pytest.approx(1.0)
    text = format_speedup_table(grid, "ref", title="sp")
    assert "4.00x" in text


@pytest.mark.parametrize("faults", [None, "moderate"])
@pytest.mark.parametrize("data_plane", [True, False], ids=["data-plane", "dry"])
@pytest.mark.parametrize("scheme", sorted(SCHEME_REGISTRY))
def test_run_leaks_no_device_memory(monkeypatch, scheme, data_plane, faults):
    """Every device byte a run allocates (user buffers, barrier tokens,
    staging) is back on the ledger when ``run_bulk_exchange`` returns."""
    runtimes = []

    class RecordingRuntime(runner.Runtime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    monkeypatch.setattr(runner, "Runtime", RecordingRuntime)
    run_bulk_exchange(
        ExperimentConfig(
            workload=WorkloadCfg(name="specfem3D_cm", dim=200, nbuffers=4),
            scheme=SchemeCfg(name=scheme),
            protocol=ProtocolCfg(eager_threshold=0),
            faults=FaultsCfg(preset=faults, seed=3),
            harness=HarnessCfg(iterations=2, warmup=1, data_plane=data_plane),
        )
    )
    (runtime,) = runtimes
    for rank in runtime.ranks:
        memory = rank.device.memory
        assert memory.peak > 0
        assert memory.allocated == 0

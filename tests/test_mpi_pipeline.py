"""Tests for the host-staged pipeline rendezvous protocol."""

import numpy as np
import pytest

from repro.config import ProtocolCfg
from repro.datatypes import DOUBLE, Vector
from repro.mpi import PIPELINE, RPUT, Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator

BIG = Vector(64 * 1024, 1, 2, DOUBLE)  # 512 KB payload


def _one_way(system=LASSEN, dt=None, **protocol):
    sim = Simulator()
    cluster = Cluster(sim, system, nodes=2)
    rt = Runtime(
        sim, cluster, SCHEME_REGISTRY["GPU-Sync"], protocol=ProtocolCfg(**protocol)
    )
    dt = dt if dt is not None else Vector(64 * 1024, 1, 2, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf = r0.device.alloc(hi)
    sbuf.data[:] = np.random.default_rng(0).integers(0, 256, hi)
    rbuf = r1.device.alloc(hi)
    out = {}

    def sender():
        req = yield from r0.isend(sbuf, dt, 1, dest=1, tag=0)
        out["protocol"] = req.protocol
        yield from r0.waitall([req])

    def receiver():
        req = r1.irecv(rbuf, dt, 1, source=0, tag=0)
        yield from r1.waitall([req])

    p0, p1 = sim.process(sender()), sim.process(receiver())
    sim.run(sim.all_of([p0, p1]))
    idx = lay.gather_index()
    assert np.array_equal(rbuf.data[idx], sbuf.data[idx])
    return sim.now, out["protocol"]


def test_pipeline_selected_above_threshold():
    _t, proto = _one_way(host_staging_threshold=128 * 1024)
    assert proto == PIPELINE


def test_pipeline_not_selected_below_threshold():
    _t, proto = _one_way(host_staging_threshold=1 << 20)
    assert proto == RPUT


def test_pipeline_disabled_by_default():
    _t, proto = _one_way()
    assert proto == RPUT


def test_pipeline_delivers_bytes_exactly():
    _one_way(host_staging_threshold=1)  # assertion inside helper


def test_chunking_overlaps_stages():
    """Pipelined chunks beat one monolithic staged transfer."""
    t_mono, _ = _one_way(
        host_staging_threshold=1, pipeline_chunk_bytes=1 << 30
    )
    t_piped, _ = _one_way(
        host_staging_threshold=1, pipeline_chunk_bytes=128 * 1024
    )
    assert t_piped < t_mono


def test_tiny_chunks_pay_latency():
    """Far too many chunks cost more than a sensible chunk size."""
    t_sane, _ = _one_way(host_staging_threshold=1, pipeline_chunk_bytes=128 * 1024)
    t_tiny, _ = _one_way(host_staging_threshold=1, pipeline_chunk_bytes=4 * 1024)
    assert t_tiny > t_sane


def test_pipeline_slower_than_gpudirect_on_lassen():
    """On NVLink-attached Lassen, GPUDirect RPUT beats host staging —
    which is exactly why the pipeline is opt-in."""
    t_rput, _ = _one_way()
    t_pipe, _ = _one_way(host_staging_threshold=1)
    assert t_rput < t_pipe


def test_pipeline_chunk_validation():
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2)
    with pytest.raises(ValueError):
        Runtime(
            sim, cluster, SCHEME_REGISTRY["GPU-Sync"],
            protocol=ProtocolCfg(pipeline_chunk_bytes=0),
        )

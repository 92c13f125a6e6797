"""Tests for one-sided RMA (windows, Put/Get, fence)."""

import numpy as np
import pytest

from repro.config import ProtocolCfg
from repro.datatypes import DOUBLE, DataLayout, Vector
from repro.mpi import Runtime, create_windows
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator


def _setup(scheme="Proposed", nodes=2, ranks_per_node=1, win_bytes=4096, **protocol):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=nodes, ranks_per_node=ranks_per_node)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY[scheme], protocol=ProtocolCfg(**protocol))
    buffers = {r: rt.rank(r).device.alloc(win_bytes) for r in range(rt.size)}
    wins = create_windows(rt, buffers)
    return sim, rt, buffers, wins


def _run(sim, *programs):
    procs = [sim.process(p) for p in programs]
    sim.run(sim.all_of(procs))


DT = Vector(16, 2, 4, DOUBLE)


def test_put_noncontiguous_roundtrip():
    sim, rt, bufs, wins = _setup()
    dt = Vector(16, 2, 4, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    src = rt.rank(0).device.alloc(4096)
    src.data[:] = np.random.default_rng(2).integers(0, 256, 4096)

    def origin():
        yield from wins[0].put(src, dt, 1, target_rank=1)
        yield from wins[0].fence()

    def target():
        yield from wins[1].fence()

    _run(sim, origin(), target())
    idx = lay.gather_index()
    assert np.array_equal(bufs[1].data[idx], src.data[idx])


def test_put_with_distinct_target_type():
    """Gather a strided origin into a contiguous window region."""
    sim, rt, bufs, wins = _setup()
    dt = Vector(8, 2, 4, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    dense = DataLayout.contiguous(lay.size)
    src = rt.rank(0).device.alloc(4096, fill=7)

    def origin():
        yield from wins[0].put(src, dt, 1, 1, target_type=dense, target_offset=64)
        yield from wins[0].fence()

    def target():
        yield from wins[1].fence()

    _run(sim, origin(), target())
    assert (bufs[1].data[64 : 64 + lay.size] == 7).all()
    assert not bufs[1].data[:64].any()


def test_get_noncontiguous():
    sim, rt, bufs, wins = _setup()
    dt = Vector(16, 2, 4, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    bufs[1].data[:] = np.random.default_rng(5).integers(0, 256, bufs[1].nbytes)
    dst = rt.rank(0).device.alloc(4096)

    def origin():
        yield from wins[0].get(dst, dt, 1, target_rank=1)
        yield from wins[0].fence()

    def target():
        yield from wins[1].fence()

    _run(sim, origin(), target())
    idx = lay.gather_index()
    assert np.array_equal(dst.data[idx], bufs[1].data[idx])


def test_direct_ipc_window_zero_copy():
    """Intra-node windows with DirectIPC: the put fuses as a single
    load-store request — no staging, no wire."""
    sim, rt, bufs, wins = _setup(nodes=1, ranks_per_node=2, enable_direct_ipc=True)
    dt = Vector(16, 2, 4, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    src = rt.rank(0).device.alloc(4096, fill=9)

    def origin():
        yield from wins[0].put(src, dt, 1, target_rank=1)
        yield from wins[0].fence()

    def target():
        yield from wins[1].fence()

    _run(sim, origin(), target())
    idx = lay.gather_index()
    assert (bufs[1].data[idx] == 9).all()
    from repro.gpu import OpKind

    fused_kinds = [
        part.op.kind
        for plan in rt.rank(0).scheme.scheduler.plans
        for part in plan.requests
    ]
    assert OpKind.DIRECT_IPC in fused_kinds


def test_many_puts_one_epoch_fused():
    sim, rt, bufs, wins = _setup(win_bytes=1 << 16)
    dt = Vector(16, 2, 4, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    srcs = [rt.rank(0).device.alloc(1024, fill=i + 1) for i in range(4)]

    def origin():
        for i, s in enumerate(srcs):
            yield from wins[0].put(
                s, dt, 1, 1,
                target_type=DataLayout.contiguous(lay.size),
                target_offset=i * 1024,
            )
        yield from wins[0].fence()

    def target():
        yield from wins[1].fence()

    _run(sim, origin(), target())
    for i in range(4):
        assert (bufs[1].data[i * 1024 : i * 1024 + lay.size] == i + 1).all()
    assert wins[0].group.puts == 4
    # The four packs batched through the fusion scheduler.
    assert rt.rank(0).scheme.scheduler.stats.enqueued >= 4


def test_fence_epoch_recycles():
    sim, rt, bufs, wins = _setup()
    dt = Vector(4, 1, 2, DOUBLE).commit()
    src = rt.rank(0).device.alloc(256, fill=3)

    def origin():
        for _ in range(3):
            yield from wins[0].put(src, dt, 1, 1)
            yield from wins[0].fence()

    def target():
        for _ in range(3):
            yield from wins[1].fence()

    _run(sim, origin(), target())
    assert wins[0].group.epoch == 3
    assert not wins[0].group.epoch_ops


def test_rma_validation():
    sim, rt, bufs, wins = _setup()
    dt = Vector(4, 1, 2, DOUBLE).commit()
    src = rt.rank(0).device.alloc(256)

    def self_put():
        yield from wins[0].put(src, dt, 1, target_rank=0)

    p = sim.process(self_put())
    with pytest.raises(ValueError, match="self"):
        sim.run(p)

    def bad_target():
        yield from wins[0].put(src, dt, 1, target_rank=5)

    p2 = sim.process(bad_target())
    with pytest.raises(ValueError, match="outside window group"):
        sim.run(p2)

    def mismatched():
        yield from wins[0].put(
            src, dt, 1, 1, target_type=DataLayout.contiguous(8)
        )

    p3 = sim.process(mismatched())
    with pytest.raises(ValueError, match="disagree"):
        sim.run(p3)

    with pytest.raises(ValueError, match="every rank"):
        create_windows(rt, {0: bufs[0]})

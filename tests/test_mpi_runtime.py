"""Integration tests for the MPI-like runtime across protocols/schemes."""

import numpy as np
import pytest

from repro.config import ProtocolCfg
from repro.datatypes import DOUBLE, DataLayout, Vector
from repro.mpi import DIRECT, EAGER, RGET, RPUT, Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator


def make_runtime(scheme="GPU-Sync", nodes=2, ranks_per_node=1, protocol=ProtocolCfg()):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=nodes, ranks_per_node=ranks_per_node)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY[scheme], protocol=protocol)
    return sim, rt


def run_pair(sim, rt, prog0, prog1):
    p0 = sim.process(prog0)
    p1 = sim.process(prog1)
    sim.run(sim.all_of([p0, p1]))


def exchange(scheme="GPU-Sync", nbuf=4, datatype=None, count=1, protocol=ProtocolCfg()):
    """One-directional exchange rank0 -> rank1, returns (send, recv) buffers."""
    sim, rt = make_runtime(scheme, protocol=protocol)
    dt = datatype if datatype is not None else Vector(16, 2, 5, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, count)
    hi = int(lay.offsets[-1] + lay.lengths[-1]) + 8
    r0, r1 = rt.rank(0), rt.rank(1)
    sbufs = [r0.device.alloc(hi) for _ in range(nbuf)]
    rbufs = [r1.device.alloc(hi) for _ in range(nbuf)]
    rng = np.random.default_rng(7)
    for b in sbufs:
        b.data[:] = rng.integers(0, 256, b.nbytes)

    reqs_seen = {}

    def sender():
        reqs = []
        for i, b in enumerate(sbufs):
            req = yield from r0.isend(b, dt, count, dest=1, tag=i)
            reqs.append(req)
        reqs_seen["send"] = reqs
        yield from r0.waitall(reqs)

    def receiver():
        reqs = [r1.irecv(b, dt, count, source=0, tag=i) for i, b in enumerate(rbufs)]
        reqs_seen["recv"] = reqs
        yield from r1.waitall(reqs)

    run_pair(sim, rt, sender(), receiver())
    idx = lay.gather_index()
    for sb, rb in zip(sbufs, rbufs):
        assert np.array_equal(rb.data[idx], sb.data[idx])
    return sim, rt, reqs_seen


@pytest.mark.parametrize("scheme", list(SCHEME_REGISTRY))
def test_every_scheme_delivers_identical_bytes(scheme):
    exchange(scheme)


def test_eager_protocol_chosen_for_small():
    _sim, rt, reqs = exchange(datatype=Vector(4, 1, 3, DOUBLE).commit())
    assert all(r.protocol == EAGER for r in reqs["send"])


def test_rput_protocol_chosen_for_large():
    big = Vector(4096, 1, 3, DOUBLE).commit()  # 32 KB > eager threshold
    _sim, rt, reqs = exchange(datatype=big)
    assert all(r.protocol == RPUT for r in reqs["send"])


def test_rget_protocol_runs():
    big = Vector(4096, 1, 3, DOUBLE).commit()
    _sim, _rt, reqs = exchange(datatype=big, protocol=ProtocolCfg(rendezvous="rget"))
    assert all(r.protocol == RGET for r in reqs["send"])


@pytest.mark.parametrize("datatype, protocol", [
    (Vector(4, 1, 3, DOUBLE), ProtocolCfg()),
    (Vector(4096, 1, 3, DOUBLE), ProtocolCfg()),
    (Vector(4096, 1, 3, DOUBLE), ProtocolCfg(rendezvous="rget")),
    (DataLayout.contiguous(1024), ProtocolCfg()),
], ids=["eager", "rput", "rget", "contiguous"])
def test_delivered_payload_snapshot_is_dropped(datatype, protocol):
    """Once the bytes are in the receiver's buffer, its message record no
    longer holds the wire copy (records outlive a run in reference cycles)."""
    _sim, _rt, reqs = exchange(datatype=datatype, protocol=protocol)
    assert all(r.record is not None and r.record.payload is None for r in reqs["recv"])


def test_unknown_rendezvous_rejected():
    with pytest.raises(ValueError):
        make_runtime(protocol=ProtocolCfg(rendezvous="bogus"))


def test_eager_threshold_override():
    dt = Vector(4, 1, 3, DOUBLE).commit()  # 32 bytes
    _sim, _rt, reqs = exchange(datatype=dt, protocol=ProtocolCfg(eager_threshold=16))
    assert all(r.protocol == RPUT for r in reqs["send"])


def test_contiguous_send_skips_packing():
    dt = DataLayout.contiguous(1024)
    _sim, _rt, reqs = exchange(datatype=dt)
    assert all(r.op_handle is None for r in reqs["send"])
    assert all(r.staging is None for r in reqs["send"])


def test_unexpected_messages_delivered():
    """Receiver posts after the data has arrived."""
    sim, rt = make_runtime()
    dt = Vector(8, 1, 2, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf = r0.device.alloc(hi, fill=3)
    rbuf = r1.device.alloc(hi)

    def sender():
        req = yield from r0.isend(sbuf, dt, 1, dest=1, tag=9)
        yield from r0.waitall([req])

    def receiver():
        yield sim.timeout(1e-3)  # long after the eager payload landed
        assert r1.matching.unexpected_count == 1
        req = r1.irecv(rbuf, dt, 1, source=0, tag=9)
        yield from r1.waitall([req])

    run_pair(sim, rt, sender(), receiver())
    assert np.array_equal(rbuf.data[lay.gather_index()], sbuf.data[lay.gather_index()])


def test_bidirectional_exchange():
    sim, rt = make_runtime("Proposed")
    dt = Vector(32, 2, 5, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    bufs = {r: (rt.rank(r).device.alloc(hi, fill=r + 1), rt.rank(r).device.alloc(hi))
            for r in (0, 1)}

    def prog(me, peer):
        rank = rt.rank(me)
        sreq = yield from rank.isend(bufs[me][0], dt, 1, dest=peer, tag=0)
        rreq = rank.irecv(bufs[me][1], dt, 1, source=peer, tag=0)
        yield from rank.waitall([sreq, rreq])

    run_pair(sim, rt, prog(0, 1), prog(1, 0))
    idx = lay.gather_index()
    assert (bufs[0][1].data[idx] == 2).all()
    assert (bufs[1][1].data[idx] == 1).all()


def test_blocking_send_recv():
    sim, rt = make_runtime()
    dt = Vector(8, 1, 2, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    sbuf = rt.rank(0).device.alloc(hi, fill=9)
    rbuf = rt.rank(1).device.alloc(hi)

    def sender():
        yield from rt.rank(0).send(sbuf, dt, 1, dest=1)

    def receiver():
        yield from rt.rank(1).recv(rbuf, dt, 1, source=0)

    run_pair(sim, rt, sender(), receiver())
    assert (rbuf.data[lay.gather_index()] == 9).all()


def test_explicit_pack_unpack_algorithm1():
    """Algorithm 1: MPI_Pack / send packed / MPI_Unpack."""
    sim, rt = make_runtime()
    dt = Vector(16, 2, 4, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    src = r0.device.alloc(hi)
    src.data[:] = np.random.default_rng(1).integers(0, 256, hi)
    packed_s = r0.device.alloc(lay.size)
    packed_r = r1.device.alloc(lay.size)
    dst = r1.device.alloc(hi)

    def sender():
        n = yield from r0.pack(src, dt, 1, packed_s)
        assert n == lay.size
        yield from r0.send(packed_s, DataLayout.contiguous(lay.size), 1, dest=1)

    def receiver():
        yield from r1.recv(packed_r, DataLayout.contiguous(lay.size), 1, source=0)
        n = yield from r1.unpack(packed_r, dt, 1, dst)
        assert n == lay.size

    run_pair(sim, rt, sender(), receiver())
    idx = lay.gather_index()
    assert np.array_equal(dst.data[idx], src.data[idx])


def test_direct_ipc_intra_node():
    """Same-node transfer with DirectIPC enabled: zero-copy kernel."""
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=1, ranks_per_node=2)
    rt = Runtime(
        sim, cluster, SCHEME_REGISTRY["Proposed"],
        protocol=ProtocolCfg(enable_direct_ipc=True),
    )
    dt = Vector(16, 2, 4, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf = r0.device.alloc(hi, fill=5)
    rbuf = r1.device.alloc(hi)
    seen = {}

    def sender():
        req = yield from r0.isend(sbuf, dt, 1, dest=1, tag=0)
        seen["req"] = req
        yield from r0.waitall([req])

    def receiver():
        req = r1.irecv(rbuf, dt, 1, source=0, tag=0)
        yield from r1.waitall([req])

    run_pair(sim, rt, sender(), receiver())
    assert seen["req"].protocol == DIRECT
    assert seen["req"].staging is None  # no packing at all
    assert (rbuf.data[lay.gather_index()] == 5).all()


def test_layout_memo_reused():
    sim, rt = make_runtime()
    dt = Vector(8, 1, 2, DOUBLE).commit()
    lay1 = rt.rank(0).resolve_layout(dt, 2)
    lay2 = rt.rank(0).resolve_layout(Vector(8, 1, 2, DOUBLE).commit(), 2)
    assert lay1 is lay2


def test_count_replication_transfers_all_instances():
    exchange(datatype=Vector(4, 2, 5, DOUBLE).commit(), count=3)


def test_fusion_scheme_fuses_bulk_requests():
    sim, rt, _ = exchange("Proposed", nbuf=8)
    sched = rt.rank(0).scheme.scheduler
    assert sched.stats.enqueued == 8
    assert sched.stats.launches < 8  # actually fused
    assert sched.stats.fused_requests == 8


def test_isend_validates_destination():
    sim, rt = make_runtime()
    r0 = rt.rank(0)
    dt = Vector(4, 1, 2, DOUBLE).commit()
    buf = r0.device.alloc(dt.flatten().span)

    def bad_dest():
        yield from r0.isend(buf, dt, 1, dest=7)

    p = sim.process(bad_dest())
    with pytest.raises(ValueError, match="outside communicator"):
        sim.run(p)

    def self_send():
        yield from r0.isend(buf, dt, 1, dest=0)

    p2 = sim.process(self_send())
    with pytest.raises(ValueError, match="self-messaging"):
        sim.run(p2)


def test_isend_validates_buffer_bounds():
    sim, rt = make_runtime()
    r0 = rt.rank(0)
    dt = Vector(64, 1, 4, DOUBLE).commit()
    too_small = r0.device.alloc(16)

    def prog():
        yield from r0.isend(too_small, dt, 1, dest=1)

    p = sim.process(prog())
    with pytest.raises(ValueError, match="outside buffer"):
        sim.run(p)


def test_irecv_validates_source_and_buffer():
    _sim, rt = make_runtime()
    r0 = rt.rank(0)
    dt = Vector(4, 1, 2, DOUBLE).commit()
    buf = r0.device.alloc(dt.flatten().span)
    with pytest.raises(ValueError, match="outside communicator"):
        r0.irecv(buf, dt, 1, source=9)
    with pytest.raises(ValueError, match="outside buffer"):
        r0.irecv(r0.device.alloc(4), dt, 1, source=1)


def test_irecv_wildcard_source_allowed():
    from repro.mpi import ANY_SOURCE

    _sim, rt = make_runtime()
    r0 = rt.rank(0)
    dt = Vector(4, 1, 2, DOUBLE).commit()
    buf = r0.device.alloc(dt.flatten().span)
    req = r0.irecv(buf, dt, 1, source=ANY_SOURCE)
    assert not req.done

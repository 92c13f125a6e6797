"""Protocol-level unit tests: eager / RPUT / RGET timing semantics."""


from repro.config import ProtocolCfg
from repro.datatypes import DOUBLE, Vector
from repro.mpi import Runtime
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.sim import Simulator, us


def _setup(scheme="GPU-Sync", rendezvous="rput", eager_threshold=None):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2)
    rt = Runtime(
        sim, cluster, SCHEME_REGISTRY[scheme],
        protocol=ProtocolCfg(rendezvous=rendezvous, eager_threshold=eager_threshold),
    )
    return sim, rt


BIG = Vector(4096, 1, 3, DOUBLE)  # 32 KB -> rendezvous
SMALL = Vector(64, 1, 3, DOUBLE)  # 512 B -> eager


def _one_way(sim, rt, dt, send_delay=0.0, recv_delay=0.0):
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf = r0.device.alloc(hi, fill=7)
    rbuf = r1.device.alloc(hi)
    times = {}

    def sender():
        if send_delay:
            yield sim.timeout(send_delay)
        req = yield from r0.isend(sbuf, dt, 1, dest=1, tag=0)
        times["sreq"] = req
        yield from r0.waitall([req])
        times["send_done"] = sim.now

    def receiver():
        if recv_delay:
            yield sim.timeout(recv_delay)
        req = r1.irecv(rbuf, dt, 1, source=0, tag=0)
        times["rreq"] = req
        yield from r1.waitall([req])
        times["recv_done"] = sim.now

    p0, p1 = sim.process(sender()), sim.process(receiver())
    sim.run(sim.all_of([p0, p1]))
    assert (rbuf.data[lay.gather_index()] == 7).all()
    return times


def test_rput_cts_waits_for_match():
    """RPUT: with a late receiver, the payload cannot hit the wire
    before the receiver matches and CTSes — the sender stays pending
    for (at least) the receiver's delay."""
    sim, rt = _setup()
    delay = us(500)
    times = _one_way(sim, rt, Vector(4096, 1, 3, DOUBLE).commit(), recv_delay=delay)
    assert times["send_done"] >= delay


def test_eager_sender_completes_without_receiver():
    """Eager: the sender finishes as soon as the payload leaves,
    even if the receive is posted much later (unexpected queue)."""
    sim, rt = _setup()
    delay = us(500)
    times = _one_way(sim, rt, Vector(64, 1, 3, DOUBLE).commit(), recv_delay=delay)
    assert times["send_done"] < delay


def test_rget_sender_completes_on_fin():
    """RGET: the sender cannot retire before the receiver's pull
    completes (FIN round trip after the RDMA-READ)."""
    sim, rt = _setup(rendezvous="rget")
    dt = Vector(4096, 1, 3, DOUBLE).commit()
    times = _one_way(sim, rt, dt)
    assert times["sreq"].protocol == "rget"
    # Sender and receiver complete within a control latency of each
    # other (both gated on the same pull).
    assert abs(times["send_done"] - times["recv_done"]) < us(200)


def test_rput_overlaps_handshake_with_packing():
    """The §IV-B1 overlap: for equal conditions, RPUT's first-byte
    time is no later than RGET's, because the RTS/CTS handshake runs
    while the pack kernel executes."""
    lat = {}
    for proto in ("rput", "rget"):
        sim, rt = _setup(scheme="Proposed", rendezvous=proto)
        times = _one_way(sim, rt, Vector(8192, 1, 3, DOUBLE).commit())
        lat[proto] = times["recv_done"]
    assert lat["rput"] <= lat["rget"] + 1e-12


def test_eager_threshold_boundary():
    """Messages exactly at the threshold go eager; one byte over goes
    rendezvous."""
    sim, rt = _setup()
    at = rt.eager_threshold
    dt_at = Vector(at // 8, 1, 2, DOUBLE).commit()  # exactly threshold bytes
    times = _one_way(sim, rt, dt_at)
    assert times["sreq"].protocol == "eager"

    sim2, rt2 = _setup()
    dt_over = Vector(at // 8 + 1, 1, 2, DOUBLE).commit()
    times2 = _one_way(sim2, rt2, dt_over)
    assert times2["sreq"].protocol == "rput"


def test_send_staging_returned_to_pool():
    sim, rt = _setup()
    pool = rt.rank(0).staging_pool
    _one_way(sim, rt, Vector(4096, 1, 3, DOUBLE).commit())
    # The send staging buffer went back to the pool, not leaked.
    assert pool.cached_bytes >= BIG.size
    assert pool.misses == 1


def test_recv_staging_returned_to_pool():
    sim, rt = _setup()
    pool = rt.rank(1).staging_pool
    _one_way(sim, rt, Vector(4096, 1, 3, DOUBLE).commit())
    assert pool.cached_bytes >= BIG.size


def test_staging_pool_reused_across_messages():
    """The second message of the same size is a pool hit — no new
    allocation (the per-message cudaMalloc real runtimes avoid)."""
    sim, rt = _setup()
    dt = Vector(4096, 1, 3, DOUBLE).commit()
    _one_way(sim, rt, dt)
    pool0 = rt.rank(0).staging_pool
    allocs_before = rt.rank(0).device.memory.allocation_count
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf = r0.device.alloc(hi, fill=3)
    rbuf = r1.device.alloc(hi)

    def sender():
        yield from r0.send(sbuf, dt, 1, dest=1, tag=77)

    def receiver():
        yield from r1.recv(rbuf, dt, 1, source=0, tag=77)

    p0, p1 = sim.process(sender()), sim.process(receiver())
    sim.run(sim.all_of([p0, p1]))
    assert pool0.hits >= 1
    # Only the two user buffers were newly allocated.
    assert rt.rank(0).device.memory.allocation_count == allocs_before + 1


def test_wire_serialization_under_bulk():
    """Multiple rendezvous payloads share one link: total time is at
    least the serialized wire time of all payloads."""
    sim, rt = _setup()
    dt = Vector(65536, 1, 2, DOUBLE).commit()  # 512 KB each
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    r0, r1 = rt.rank(0), rt.rank(1)
    n = 4
    sbufs = [r0.device.alloc(hi) for _ in range(n)]
    rbufs = [r1.device.alloc(hi) for _ in range(n)]

    def sender():
        reqs = []
        for i, b in enumerate(sbufs):
            req = yield from r0.isend(b, dt, 1, dest=1, tag=i)
            reqs.append(req)
        yield from r0.waitall(reqs)

    def receiver():
        reqs = [r1.irecv(b, dt, 1, source=0, tag=i) for i, b in enumerate(rbufs)]
        yield from r1.waitall(reqs)

    p0, p1 = sim.process(sender()), sim.process(receiver())
    sim.run(sim.all_of([p0, p1]))
    wire_floor = n * lay.size / LASSEN.internode.bandwidth
    assert sim.now >= wire_floor

"""Tests for MPI_Test / Testall / Waitany / Waitsome semantics and the
progress wait behind every blocking completion call."""

import pytest

from repro.bench import run_bulk_exchange
from repro.config import (
    ExperimentConfig,
    FaultsCfg,
    HarnessCfg,
    ProtocolCfg,
    SchemeCfg,
    WorkloadCfg,
)
from repro.datatypes import DOUBLE, DataLayout, Vector
from repro.gpu.memory import GPUBuffer
from repro.mpi import Request, Runtime
from repro.mpi.communicator import Rank
from repro.net import Cluster, LASSEN
from repro.schemes import SCHEME_REGISTRY
from repro.schemes.base import PackingScheme
from repro.sim import Simulator, us


def _setup(scheme="Proposed"):
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2)
    rt = Runtime(sim, cluster, SCHEME_REGISTRY[scheme])
    dt = Vector(16, 2, 5, DOUBLE).commit()
    lay = rt.rank(0).resolve_layout(dt, 1)
    hi = int(lay.offsets[-1] + lay.lengths[-1])
    return sim, rt, dt, lay, hi


def test_test_advances_progress_and_reports():
    """For the fusion scheme, repeated MPI_Test is itself enough to
    flush the scheduler (the §IV-C sync point) and complete a send."""
    sim, rt, dt, lay, hi = _setup()
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf = r0.device.alloc(hi, fill=1)
    rbuf = r1.device.alloc(hi)
    log = {}

    def sender():
        req = yield from r0.isend(sbuf, dt, 1, dest=1, tag=0)
        log["immediately_done"] = yield from r0.test(req)
        while not (yield from r0.test(req)):
            yield sim.timeout(1e-6)
        log["finished_at"] = sim.now

    def receiver():
        req = r1.irecv(rbuf, dt, 1, source=0, tag=0)
        yield from r1.waitall([req])

    p0, p1 = sim.process(sender()), sim.process(receiver())
    sim.run(sim.all_of([p0, p1]))
    assert log["immediately_done"] is False
    assert log["finished_at"] > 0
    assert (rbuf.data[lay.gather_index()] == 1).all()


def test_testall_set_semantics():
    sim, rt, dt, lay, hi = _setup("GPU-Sync")
    r0, r1 = rt.rank(0), rt.rank(1)
    sbufs = [r0.device.alloc(hi, fill=i + 1) for i in range(3)]
    rbufs = [r1.device.alloc(hi) for _ in range(3)]

    def sender():
        reqs = []
        for i, b in enumerate(sbufs):
            req = yield from r0.isend(b, dt, 1, dest=1, tag=i)
            reqs.append(req)
        while not (yield from r0.testall(reqs)):
            yield sim.timeout(1e-6)

    def receiver():
        reqs = [r1.irecv(b, dt, 1, source=0, tag=i) for i, b in enumerate(rbufs)]
        while not (yield from r1.testall(reqs)):
            yield sim.timeout(1e-6)

    p0, p1 = sim.process(sender()), sim.process(receiver())
    sim.run(sim.all_of([p0, p1]))
    for i, rb in enumerate(rbufs):
        assert (rb.data[lay.gather_index()] == i + 1).all()


def test_waitany_returns_first_completion_index():
    sim, rt, dt, lay, hi = _setup("GPU-Sync")
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf = r0.device.alloc(hi, fill=9)
    rbufs = [r1.device.alloc(hi) for _ in range(2)]
    got = {}

    def sender():
        # Only tag 1 is ever sent; tag 0 stays pending.
        yield sim.timeout(5e-6)
        req = yield from r0.isend(sbuf, dt, 1, dest=1, tag=1)
        yield from r0.waitall([req])

    def receiver():
        never = r1.irecv(rbufs[0], dt, 1, source=0, tag=0)
        comes = r1.irecv(rbufs[1], dt, 1, source=0, tag=1)
        got["index"] = yield from r1.waitany([never, comes])
        got["never_done"] = never.done
        # Drain: cancel semantics are out of scope; complete the pair so
        # the simulation ends cleanly.
        req = yield from r1.isend(sbuf_r1, dt, 1, dest=0, tag=99)
        yield from r1.waitall([req])

    sbuf_r1 = r1.device.alloc(hi)

    def drain():
        req = r0.irecv(r0.device.alloc(hi), dt, 1, source=1, tag=99)
        yield from r0.waitall([req])

    p0, p1, p2 = sim.process(sender()), sim.process(receiver()), sim.process(drain())
    sim.run(sim.all_of([p0, p1, p2]))
    assert got["index"] == 1
    assert got["never_done"] is False


def test_waitsome_returns_all_completed():
    sim, rt, dt, lay, hi = _setup("GPU-Sync")
    r0, r1 = rt.rank(0), rt.rank(1)
    sbufs = [r0.device.alloc(hi, fill=5) for _ in range(2)]
    rbufs = [r1.device.alloc(hi) for _ in range(2)]
    got = {}

    def sender():
        reqs = []
        for i, b in enumerate(sbufs):
            req = yield from r0.isend(b, dt, 1, dest=1, tag=i)
            reqs.append(req)
        yield from r0.waitall(reqs)

    def receiver():
        reqs = [r1.irecv(b, dt, 1, source=0, tag=i) for i, b in enumerate(rbufs)]
        # Wait long enough that both have landed, then waitsome.
        yield sim.timeout(2e-3)
        got["done"] = yield from r1.waitsome(reqs)

    p0, p1 = sim.process(sender()), sim.process(receiver())
    sim.run(sim.all_of([p0, p1]))
    assert got["done"] == [0, 1]


def test_waitany_requires_requests():
    sim, rt, *_ = _setup("GPU-Sync")

    def proc():
        yield from rt.rank(0).waitany([])

    p = sim.process(proc())
    with pytest.raises(ValueError):
        sim.run(p)


# -- the progress wait ------------------------------------------------------------


class _FlushClock(PackingScheme):
    """A scheme that only records when each progress pass flushes.

    ``flush_cost`` makes the flush take simulated time, so an event can
    complete while the caller is flushing rather than sleeping.
    """

    name = "flush-clock"

    def __init__(self, site, trace=None, flush_cost=0.0):
        super().__init__(site, trace)
        self.flush_cost = flush_cost
        self.flushes = []

    def submit(self, op, label=""):  # pragma: no cover - never called
        raise AssertionError("these tests submit no operations")
        yield

    def flush(self):
        self.flushes.append(self.sim.now)
        if self.flush_cost:
            yield self.sim.timeout(self.flush_cost)


def _clocked(flush_cost=0.0):
    """A rank driven by :class:`_FlushClock`, polling every 1 us."""
    sim = Simulator()
    cluster = Cluster(sim, LASSEN, nodes=2)
    rt = Runtime(
        sim,
        cluster,
        lambda site, trace: _FlushClock(site, trace, flush_cost),
        protocol=ProtocolCfg(poll_interval=us(1)),
    )
    rank = rt.rank(0)
    return sim, rank, rank.scheme


def _request(sim):
    return Request(sim, 0, 1, 0, DataLayout.contiguous(8), GPUBuffer(8))


def _complete_at(sim, req, when):
    def proc():
        yield sim.timeout(when - sim.now)
        req._complete()

    sim.process(proc())


def _run(sim, gen):
    box = {}

    def proc():
        box["value"] = yield from gen
        box["at"] = sim.now

    sim.run(sim.process(proc()))
    return box


def test_waitall_on_completed_requests_makes_one_pass():
    sim, rank, clock = _clocked()
    reqs = [_request(sim) for _ in range(3)]
    for req in reqs:
        req._complete()
    sim.run()
    start = sim.now
    out = _run(sim, rank.waitall(reqs))
    assert clock.flushes == [start]
    assert out["at"] == start


def test_completion_during_flush_is_counted_without_a_sleep():
    sim, rank, clock = _clocked(flush_cost=us(3))
    req = _request(sim)
    _complete_at(sim, req, us(1))  # mid-way through the first flush
    out = _run(sim, rank.waitall([req]))
    assert clock.flushes == [0.0]
    assert out["at"] == pytest.approx(us(3))


def test_completion_during_a_later_flush_ends_the_wait():
    # first pass 0-3 us, sleep, poll at 4 us, second pass 4-7 us; the
    # request completes at 5 us, inside the second flush.
    sim, rank, clock = _clocked(flush_cost=us(3))
    req = _request(sim)
    _complete_at(sim, req, us(5))
    out = _run(sim, rank.waitall([req]))
    assert clock.flushes == pytest.approx([0.0, us(4)])
    assert out["at"] == pytest.approx(us(7))


def test_request_listed_twice_waits_like_once():
    times = []
    for listing in (lambda r: [r], lambda r: [r, r]):
        sim, rank, clock = _clocked()
        req = _request(sim)
        _complete_at(sim, req, us(2.5))
        out = _run(sim, rank.waitall(listing(req)))
        times.append((clock.flushes, out["at"]))
    assert times[0] == times[1]
    assert times[0][1] == pytest.approx(us(2.5))


def test_stale_poll_timeout_does_not_wake_a_later_sleep():
    # Sleep 1 starts at 0 with a poll due at 1 us; A completes at 0.3 us
    # and wakes it.  Sleep 2 starts at 0.3 us with its own poll at
    # 1.3 us: the first poll, firing at 1 us, must not wake it.
    sim, rank, clock = _clocked()
    a, b = _request(sim), _request(sim)
    _complete_at(sim, a, us(0.3))
    _complete_at(sim, b, us(5))
    out = _run(sim, rank.waitall([a, b]))
    expected = [0.0, 0.3, 1.3, 2.3, 3.3, 4.3, 5.0]
    assert clock.flushes == pytest.approx([us(t) for t in expected])
    assert out["at"] == pytest.approx(us(5))


def test_waitany_returns_lowest_completed_index():
    sim, rank, clock = _clocked()
    never, low, high = _request(sim), _request(sim), _request(sim)
    _complete_at(sim, high, us(2))  # scheduled first, so processed first
    _complete_at(sim, low, us(2))
    out = _run(sim, rank.waitany([never, low, high]))
    assert out["value"] == 1
    assert out["at"] == pytest.approx(us(2))


def test_waitany_with_a_completed_request_makes_one_pass():
    sim, rank, clock = _clocked()
    never, done = _request(sim), _request(sim)
    done._complete()
    sim.run()
    out = _run(sim, rank.waitany([never, done]))
    assert out["value"] == 1
    assert clock.flushes == [0.0]


def test_waitall_follows_the_current_persistent_activation():
    """A restarted persistent request is waited on through its new
    activation: the receiver's second wait lasts until the sender's
    deliberately late second send lands."""
    sim, rt, dt, lay, hi = _setup("GPU-Sync")
    r0, r1 = rt.rank(0), rt.rank(1)
    sbuf, rbuf = r0.device.alloc(hi), r1.device.alloc(hi)
    late = us(50)
    got = []

    def sender():
        preq = r0.send_init(sbuf, dt, 1, dest=1, tag=0)
        for step in range(2):
            if step:
                yield sim.timeout(late)
            yield from r0.start(preq)
            yield from r0.waitall([preq])

    def receiver():
        preq = r1.recv_init(rbuf, dt, 1, source=0, tag=0)
        yield from r1.waitall([preq])  # never started: nothing to wait for
        for _ in range(2):
            yield from r1.start(preq)
            yield from r1.waitall([preq])
            got.append((preq.active, sim.now))

    sim.run(sim.all_of([sim.process(sender()), sim.process(receiver())]))
    (first, t1), (second, t2) = got
    assert first is not second
    assert first.done and second.done
    assert t2 - t1 > late


#: ``sim.now`` (as ``float.hex``) at every ``waitall`` return, in return
#: order, of a verified specfem3D_cm exchange under moderate faults.
#: Recorded from the rescanning wait loop this progress wait replaced:
#: the wake schedule, and so every return instant, must not move.
WAITALL_RETURNS = {
    "Proposed": [
        (0, "0x1.045ba917e0962p-14"), (1, "0x1.17f7167637e99p-14"),
        (1, "0x1.2b42a4cb6f0d8p-14"), (0, "0x1.30b68212dd612p-14"),
        (1, "0x1.0825ccd6e56a1p-13"), (0, "0x1.12848835de5b8p-13"),
        (1, "0x1.1ee43e0431174p-13"), (0, "0x1.21861c282b8abp-13"),
        (0, "0x1.9a95750408384p-13"), (1, "0x1.bec8ec3b078f0p-13"),
        (1, "0x1.c86eb365a320fp-13"), (0, "0x1.cb28a2095a4acp-13"),
    ],
    "GPU-Async": [
        (0, "0x1.37d8b4619bfc5p-13"), (1, "0x1.5c22b8083c061p-13"),
        (1, "0x1.65c87f32d7980p-13"), (0, "0x1.68826dd68ec1dp-13"),
        (1, "0x1.5f481c73de03cp-12"), (0, "0x1.720d1b160ff23p-12"),
        (0, "0x1.76dffeab5dbb2p-12"), (1, "0x1.783cf5fd39500p-12"),
        (1, "0x1.0b1f7b3ff141fp-11"), (0, "0x1.1481fa910a394p-11"),
        (0, "0x1.16eb6c5bb11dbp-11"), (1, "0x1.1799e8049ee82p-11"),
    ],
}
#: calendar events each of those runs fires
ENGINE_EVENTS = {"Proposed": 1991, "GPU-Async": 1781}


@pytest.mark.parametrize("scheme", sorted(WAITALL_RETURNS))
def test_waitall_return_instants_are_pinned(monkeypatch, scheme):
    returns = []
    original = Rank.waitall

    def recording_waitall(self, requests):
        yield from original(self, requests)
        returns.append((self.rank_id, self.sim.now.hex()))

    monkeypatch.setattr(Rank, "waitall", recording_waitall)
    result = run_bulk_exchange(
        ExperimentConfig(
            workload=WorkloadCfg(name="specfem3D_cm", dim=200, nbuffers=4),
            scheme=SchemeCfg(name=scheme),
            protocol=ProtocolCfg(eager_threshold=0),
            faults=FaultsCfg(preset="moderate", seed=5),
            harness=HarnessCfg(iterations=2, warmup=1),
        )
    )
    assert result.recovery.total_injected > 0
    assert returns == WAITALL_RETURNS[scheme]
    assert result.metrics.total("engine_events_total") == ENGINE_EVENTS[scheme]

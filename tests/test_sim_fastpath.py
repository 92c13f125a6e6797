"""Fast-path/generic-path equivalence of the simulation hot paths.

The PR-4 contract: with ``REPRO_SIM_FASTPATH`` toggled, every component
must produce *byte-identical virtual time* — the closed-form fast paths
(link transmit, stream completion) may only change host wall time.
These tests prove the engine-semantics half in-process (same-timestamp
FIFO, Interrupt delivery, AllOf/AnyOf) and spot-check the end-to-end
half on a real exchange; CI sweeps every figure both ways and
byte-compares the artifacts.
"""

import pytest

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, HarnessCfg, SchemeCfg, WorkloadCfg
from repro.gpu.device import GPUDevice
from repro.net.link import Link, LinkSpec
from repro.sim import Interrupt, Simulator
from repro.sim.engine import fastpath_enabled, set_fastpath


@pytest.fixture(params=[True, False], ids=["fast", "generic"])
def fastpath(request):
    """Run the decorated test under both fast-path settings."""
    previous = set_fastpath(request.param)
    yield request.param
    set_fastpath(previous)


def _with_fastpath(enabled, fn):
    previous = set_fastpath(enabled)
    try:
        return fn()
    finally:
        set_fastpath(previous)


# -- engine semantics under either setting ---------------------------------


def test_same_timestamp_fifo_order(fastpath):
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(8):
        sim.process(proc(tag))
    sim.run()
    assert order == list(range(8))


def test_interrupt_delivery(fastpath):
    sim = Simulator()
    seen = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            seen.append((sim.now, exc.cause))

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt("wake")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert seen == [(2.0, "wake")]


def test_allof_anyof_composition(fastpath):
    sim = Simulator()
    results = {}

    def proc():
        t1, t2, t3 = sim.timeout(1.0, "a"), sim.timeout(2.0, "b"), sim.timeout(3.0, "c")
        first = yield sim.any_of([t1, t2, t3])
        results["any_at"] = sim.now
        results["any_values"] = sorted(first.values())
        rest = yield sim.all_of([t2, t3])
        results["all_at"] = sim.now
        results["all_values"] = sorted(rest.values())

    sim.process(proc())
    sim.run()
    assert results == {
        "any_at": 1.0,
        "any_values": ["a"],
        "all_at": 3.0,
        "all_values": ["b", "c"],
    }


def test_toggle_returns_previous_value():
    original = fastpath_enabled()
    try:
        assert set_fastpath(False) == original
        assert fastpath_enabled() is False
        assert set_fastpath(True) is False
        assert fastpath_enabled() is True
    finally:
        set_fastpath(original)


# -- component equivalence: identical virtual timelines --------------------


def _transmit_trace():
    sim = Simulator()
    link = Link(sim, LinkSpec("test", bandwidth=10e9, latency=1e-6))
    times = []

    def proc():
        for nbytes in (1_000, 1_000_000, 64):
            spent = yield from link.transmit(nbytes)
            times.append((sim.now, spent))

    sim.process(proc())
    sim.run()
    return times, link.bytes_carried, link.transfer_count, sim.events_processed


def test_link_transmit_identical_fast_vs_generic():
    fast = _with_fastpath(True, _transmit_trace)
    generic = _with_fastpath(False, _transmit_trace)
    # Everything identical, including the event count: the no-fault
    # fast path emits the same request/timeout sequence by construction.
    assert fast == generic


def _stream_trace():
    sim = Simulator()
    device = GPUDevice(sim)
    completions = []

    def proc():
        for duration in (1e-5, 2e-5, 0.0):
            done = device.default_stream.enqueue_callable(
                duration, value=duration
            )
            value = yield done
            completions.append((sim.now, value))

    sim.process(proc())
    sim.run()
    return completions, device.default_stream.busy_time


def test_stream_completion_identical_fast_vs_generic():
    fast = _with_fastpath(True, _stream_trace)
    generic = _with_fastpath(False, _stream_trace)
    assert fast == generic


def test_stream_apply_runs_at_completion(fastpath):
    sim = Simulator()
    device = GPUDevice(sim)
    applied = []

    def proc():
        done = device.default_stream.enqueue_callable(
            1e-5, apply=lambda: applied.append(sim.now), value="v"
        )
        value = yield done
        assert value == "v"

    sim.process(proc())
    sim.run()
    assert applied == [1e-5]


# -- end-to-end: a real exchange, every scheme, both settings --------------


@pytest.mark.parametrize("scheme", ["Proposed", "GPU-Sync", "GPU-Async"])
def test_bulk_exchange_equivalence(scheme):
    def run():
        result = run_bulk_exchange(
            ExperimentConfig(
                workload=WorkloadCfg(name="specfem3D_cm", dim=500, nbuffers=4),
                scheme=SchemeCfg(name=scheme),
                harness=HarnessCfg(iterations=2, warmup=1),
            )
        )
        return (
            result.latencies,
            result.mean_latency,
            {str(k): v for k, v in result.breakdown.items()},
        )

    fast = _with_fastpath(True, run)
    generic = _with_fastpath(False, run)
    assert fast == generic

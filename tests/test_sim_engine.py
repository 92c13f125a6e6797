"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
    ms,
    ns,
    us,
)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_unit_helpers():
    assert us(1) == pytest.approx(1e-6)
    assert ns(1) == pytest.approx(1e-9)
    assert ms(1) == pytest.approx(1e-3)


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(2.5)
    sim.run(t)
    assert sim.now == pytest.approx(2.5)


def test_timeout_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("payload", delay=1.0)
    assert sim.run(ev) == "payload"
    assert ev.processed and ev.ok


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_unavailable_before_trigger():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_fail_raises_in_run():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))

    def proc():
        yield ev

    p = sim.process(proc())
    with pytest.raises(ValueError, match="boom"):
        sim.run(p)


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_process_sequences_timeouts():
    sim = Simulator()
    marks = []

    def proc():
        yield sim.timeout(1.0)
        marks.append(sim.now)
        yield sim.timeout(2.0)
        marks.append(sim.now)
        return "done"

    p = sim.process(proc())
    assert sim.run(p) == "done"
    assert marks == [pytest.approx(1.0), pytest.approx(3.0)]


def test_process_receives_event_value():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(41, delay=1.0)
    got = []

    def proc():
        value = yield ev
        got.append(value)

    sim.run(sim.process(proc()))
    assert got == [41]


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        return result

    assert sim.run(sim.process(parent())) == "child-result"
    assert sim.now == pytest.approx(5.0)


def test_process_yielding_non_event_fails():
    sim = Simulator()

    def proc():
        yield 42  # type: ignore[misc]

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="may.*only yield"):
        sim.run(p)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_waiting_on_processed_event_resumes():
    """A process yielding an already-processed event continues promptly."""
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # process the event
    assert ev.processed

    def proc():
        value = yield ev
        assert value == "early"
        return sim.now

    assert sim.run(sim.process(proc())) == pytest.approx(sim.now)


def test_interrupt_reaches_process():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            caught.append(exc.cause)

    p = sim.process(proc())

    def killer():
        yield sim.timeout(1.0)
        p.interrupt("stop now")

    sim.process(killer())
    sim.run(p)
    assert caught == ["stop now"]
    assert sim.now == pytest.approx(1.0)


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def proc():
        return 1
        yield

    p = sim.process(proc())
    sim.run(p)
    with pytest.raises(SimulationError):
        p.interrupt()


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(10):
        t = sim.timeout(1.0)
        t.add_callback(lambda _ev, i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_all_of_waits_for_all():
    sim = Simulator()
    t1, t2 = sim.timeout(1.0, "a"), sim.timeout(3.0, "b")
    cond = AllOf(sim, [t1, t2])
    value = sim.run(cond)
    assert sim.now == pytest.approx(3.0)
    assert value == {t1: "a", t2: "b"}


def test_any_of_fires_on_first():
    sim = Simulator()
    t1, t2 = sim.timeout(1.0, "fast"), sim.timeout(3.0, "slow")
    cond = AnyOf(sim, [t1, t2])
    value = sim.run(cond)
    assert sim.now == pytest.approx(1.0)
    assert value == {t1: "fast"}


def test_any_of_not_satisfied_by_merely_scheduled_timeout():
    """The regression that once live-locked waitall: a freshly created
    Timeout is triggered (scheduled) but must not satisfy AnyOf."""
    sim = Simulator()
    t = sim.timeout(5.0)
    cond = AnyOf(sim, [t])
    assert not cond.triggered
    sim.run(cond)
    assert sim.now == pytest.approx(5.0)


def test_empty_all_of_fires_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    sim.run(cond)
    assert cond.processed and sim.now == 0.0


def test_empty_any_of_fires_immediately():
    sim = Simulator()
    cond = AnyOf(sim, [])
    sim.run(cond)
    assert cond.processed


def test_condition_rejects_foreign_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        AllOf(sim1, [sim2.timeout(1.0)])


def test_condition_propagates_failure():
    sim = Simulator()
    good = sim.timeout(5.0)
    bad = sim.event()
    bad.fail(RuntimeError("inner"), delay=1.0)
    cond = AllOf(sim, [good, bad])
    with pytest.raises(RuntimeError, match="inner"):
        sim.run(cond)


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda _: fired.append(1))
    sim.timeout(10.0).add_callback(lambda _: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == pytest.approx(5.0)


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_detects_deadlock():
    sim = Simulator()
    never = sim.event()

    def proc():
        yield never

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(p)


def test_peek_and_step():
    sim = Simulator()
    sim.timeout(2.0)
    assert sim.peek() == pytest.approx(2.0)
    sim.step()
    assert sim.now == pytest.approx(2.0)
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError):
        sim.step()


def test_schedule_into_past_rejected():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        ev.succeed(delay=-0.5)


def test_process_exception_propagates():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise KeyError("inside")

    p = sim.process(proc())
    with pytest.raises(KeyError):
        sim.run(p)


def test_determinism_two_identical_runs():
    def world(sim, log):
        def worker(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((name, round(sim.now, 9)))

        sim.process(worker("a", 1.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 0.5))
        sim.run()

    log1, log2 = [], []
    world(Simulator(), log1)
    world(Simulator(), log2)
    assert log1 == log2

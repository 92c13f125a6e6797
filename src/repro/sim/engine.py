"""Discrete-event simulation kernel.

This module provides the virtual-clock substrate on which every timed
component of the reproduction runs: GPU streams, network links, MPI
progress engines, and the kernel-fusion scheduler.  It is a small,
dependency-free engine in the style of SimPy:

* :class:`Simulator` owns a binary-heap event calendar and the virtual
  clock (``now``, in **seconds**).
* :class:`Event` is a one-shot occurrence that callbacks can attach to.
* :class:`Process` wraps a Python generator; the generator *yields*
  events (or other processes) and is resumed when they fire, which gives
  ordinary sequential-looking code for concurrent behaviour.
* :class:`AllOf` / :class:`AnyOf` compose events.

Determinism
-----------
Events scheduled for the same timestamp fire in FIFO order of their
scheduling (a monotonically increasing sequence number breaks ties), so
a simulation is fully deterministic given deterministic process code.
This property is relied on by the regression tests and by the benchmark
harness, which compares scheme timings without noise.

Hot path
--------
The per-event cost of this kernel *is* the wall-clock cost of every
sweep (exactly the per-request overhead disease the paper diagnoses one
level down, in kernel launches), so the dominant patterns are kept
allocation-lean:

* every calendar object is ``__slots__``-only;
* callback storage is lazy — ``None`` until the first subscriber, a
  bare callable for the overwhelmingly common single-waiter case, and a
  list only beyond that (:meth:`Event.add_callback`);
* the ``yield sim.timeout(dt)`` resume path allocates one
  :class:`Timeout` and one heap entry, nothing else: the process's
  resume callback is a cached bound method, event names are built
  lazily by ``__repr__``, and :meth:`Simulator.run` drains the calendar
  with the step body inlined.

The *semantics* are identical on every path; clients additionally guard
closed-form shortcuts (e.g. :meth:`repro.net.link.Link.transmit`)
behind :func:`fastpath_enabled`, which the ``REPRO_SIM_FASTPATH``
environment variable (default on) controls so CI can prove virtual-time
equivalence of fast and generic paths.

Units
-----
The clock is a float in seconds.  Helpers :func:`us` and :func:`ns`
convert the microsecond/nanosecond constants used throughout the GPU
and network cost models.
"""

from __future__ import annotations

import itertools
import os
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

from ..obs.observer import NULL_OBSERVER

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "fastpath_enabled",
    "set_fastpath",
    "us",
    "ns",
    "ms",
]


def us(value: float) -> float:
    """Convert microseconds to simulator seconds."""
    return value * 1e-6


def ns(value: float) -> float:
    """Convert nanoseconds to simulator seconds."""
    return value * 1e-9


def ms(value: float) -> float:
    """Convert milliseconds to simulator seconds."""
    return value * 1e-3


#: closed-form client fast paths on/off (the engine's own lean paths are
#: unconditional — they are exactly equivalent by construction)
_FASTPATH: bool = os.environ.get("REPRO_SIM_FASTPATH", "1") != "0"


def fastpath_enabled() -> bool:
    """Whether clients may take their closed-form no-fault fast paths.

    Controlled by ``REPRO_SIM_FASTPATH`` (default on; set to ``0`` to
    force every component down its generic path).  The CI equivalence
    job runs the full figure plane both ways and byte-compares the
    artifacts — fast paths must never change virtual time.
    """
    return _FASTPATH


def set_fastpath(enabled: bool) -> bool:
    """Toggle client fast paths at runtime; returns the previous value.

    Intended for tests that prove fast/generic equivalence in-process.
    """
    global _FASTPATH
    previous = _FASTPATH
    _FASTPATH = bool(enabled)
    return previous


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double-trigger)."""


class Interrupt(Exception):
    """Thrown into a :class:`Process` by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: sentinel distinguishing "no value yet" from a ``None`` value
_PENDING = object()

Callback = Callable[["Event"], None]
#: lazy callback storage: nothing / one subscriber / many subscribers
_Callbacks = Union[None, Callback, List[Callback]]


class Event:
    """A one-shot occurrence on the simulation calendar.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` schedules it to fire at the current simulation time;
    when it fires, all registered callbacks run with the event as the
    sole argument.  Processes yield events to suspend until they fire.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_triggered", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._callbacks: _Callbacks = None
        self._value: Any = _PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- callback storage --------------------------------------------------
    def add_callback(self, callback: Callback) -> None:
        """Subscribe ``callback`` to run (with this event) when it fires.

        The storage is lazy: no container is allocated for the first
        subscriber.
        """
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self._callbacks = [cbs, callback]

    def discard_callback(self, callback: Callback) -> None:
        """Unsubscribe ``callback`` if present (no-op otherwise)."""
        cbs = self._callbacks
        if cbs is None:
            return
        if type(cbs) is list:
            if callback in cbs:
                cbs.remove(callback)
        elif cbs == callback:
            self._callbacks = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed`/:meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False when the event was failed with an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the failure exception)."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self._triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Straight-line slot assignment: this is the single hottest
        # constructor in the system (one per `yield sim.timeout(dt)`),
        # so it bypasses Event.__init__ and builds no name string.
        self.sim = sim
        self.name = ""
        self._callbacks = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        heappush(sim._heap, (sim._now + delay, next(sim._seq), self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else "triggered"
        return f"<Timeout({self.delay:g}) {state}>"


class _Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    A constituent event counts toward satisfaction once it has been
    *processed* (its callbacks ran), not merely scheduled — a freshly
    created ``Timeout(5)`` is already triggered but must not satisfy an
    ``AnyOf`` until the clock reaches it.
    """

    __slots__ = ("events", "_done_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: Tuple[Event, ...] = tuple(events)
        self._done_count = 0
        observe = self._observe
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot compose events of different simulators")
            if ev._processed:
                observe(ev)
            else:
                ev.add_callback(observe)
        # An empty condition resolves immediately.
        if not self._triggered and self._satisfied():
            self.succeed(self._collect())

    # subclass hooks -------------------------------------------------------
    def _satisfied(self) -> bool:
        raise NotImplementedError

    def _collect(self) -> Any:
        return {ev: ev.value for ev in self.events if ev._processed or ev is self}

    def _observe(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._done_count += 1
        if self._satisfied():
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when *all* constituent events have been processed.

    Its value is a dict mapping each event to its value.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done_count >= len(self.events)


class AnyOf(_Condition):
    """Fires as soon as *any* constituent event is processed.

    Its value is a dict of the events processed by trigger time.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._done_count >= 1 or not self.events


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A generator-driven concurrent activity.

    The wrapped generator yields :class:`Event` objects; the process
    sleeps until each fires and is resumed with the event's value (or
    has the failure exception thrown into it).  A process is itself an
    event that fires with the generator's return value, so processes can
    wait on each other.
    """

    __slots__ = ("generator", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(
                "Process requires a generator; did you forget to call the "
                "generator function?"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._target: Optional[Event] = None
        #: bound once — appending a method per yield would allocate
        self._resume_cb: Callback = self._resume
        bootstrap = Event(sim)
        bootstrap._callbacks = self._resume_cb
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        carrier = Event(self.sim, name=f"interrupt:{self.name}")
        carrier._callbacks = self._resume_cb
        carrier.fail(Interrupt(cause))

    # internal -------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        # Detach from a previous target if we were interrupted while
        # waiting (trigger is then the interrupt carrier, not the
        # target; when a target fires normally it IS the trigger and
        # its callback storage was already cleared by the calendar).
        target = self._target
        if target is not None and target is not trigger:
            target.discard_callback(self._resume_cb)
        self._target = None
        sim = self.sim
        sim._active_process = self
        try:
            if trigger._ok:
                value = trigger._value
                target = self.generator.send(None if value is _PENDING else value)
            else:
                target = self.generator.throw(trigger._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        sim._active_process = None

        if target is self:
            raise SimulationError("a process cannot wait on itself")
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances"
            )
        if target._processed:
            # The event already fired; resume on a fresh zero-delay carrier
            # so resumption still goes through the calendar (keeps ordering
            # deterministic and stack depth bounded).
            carrier = Event(sim)
            carrier._callbacks = self._resume_cb
            if target._ok:
                carrier.succeed(target._value)
            else:
                carrier.fail(target._value)
            self._target = carrier
        else:
            target.add_callback(self._resume_cb)
            self._target = target


class Simulator:
    """Owner of the virtual clock and the event calendar."""

    def __init__(self):
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        #: calendar events fired so far (the obs ``engine_events_total``
        #: series and the wallclock microbench read this)
        self.events_processed: int = 0
        #: optional multiplicative jitter applied by streams and links
        #: (see :mod:`repro.sim.noise`); None = exact determinism
        self.noise: Optional[Any] = None
        #: optional seeded fault-injection plan consulted by links,
        #: protocols, and the fusion scheduler (see
        #: :mod:`repro.sim.faults`); None = a perfect fabric and GPU
        self.faults: Optional[Any] = None
        #: telemetry sink consulted by instrumented hot paths (see
        #: :mod:`repro.obs`); the default NullObserver makes every
        #: observation a constant-time no-op that never touches the
        #: event calendar, so disabled telemetry cannot perturb timing
        self.obs: Any = NULL_OBSERVER

    def __reduce__(self):
        # Live simulations hold generator-based processes, which cannot
        # cross a process boundary; without this guard pickle fails
        # deep inside the event heap with an opaque error.
        raise TypeError(
            "Simulator is not picklable: ship a picklable "
            "repro.bench.sweep.ExperimentSpec to the worker and rebuild "
            "the simulation there instead"
        )

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- factories ---------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` fire."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _enqueue(self, delay: float, event: Event) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self._now + delay, next(self._seq), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def _fire(self, event: Event) -> None:
        """Run one popped event's callbacks (the shared step body)."""
        event._processed = True
        cbs = event._callbacks
        if cbs is not None:
            event._callbacks = None
            if type(cbs) is list:
                for callback in cbs:
                    callback(event)
            else:
                cbs(event)
        elif not event._ok:
            # A failed event (or crashed process) nobody was waiting on
            # would silently swallow the error — and often turn into a
            # livelock downstream; surface it instead.
            raise event._value

    def step(self) -> None:
        """Fire exactly one event (the earliest scheduled)."""
        if not self._heap:
            raise SimulationError("step() on an empty calendar")
        when, _, event = heappop(self._heap)
        self._now = when
        self.events_processed += 1
        self._fire(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to calendar exhaustion), a time
        (run until the clock reaches it), or an :class:`Event` (run until
        it fires, returning its value / raising its failure).

        The drain loops inline the :meth:`step` body — one Python-level
        call per event would be a measurable share of sweep wall time.
        """
        heap = self._heap
        fire = self._fire
        fired = 0
        if until is None:
            try:
                while heap:
                    when, _, event = heappop(heap)
                    self._now = when
                    fired += 1
                    fire(event)
            finally:
                self.events_processed += fired
            return None
        if isinstance(until, Event):
            try:
                while not until._processed:
                    if not heap:
                        raise SimulationError(
                            f"simulation ran out of events before {until!r} fired "
                            "(deadlock?)"
                        )
                    when, _, event = heappop(heap)
                    self._now = when
                    fired += 1
                    fire(event)
            finally:
                self.events_processed += fired
            if until._ok:
                return until._value
            raise until._value
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(f"cannot run until {horizon} < now ({self._now})")
        try:
            while heap and heap[0][0] <= horizon:
                when, _, event = heappop(heap)
                self._now = when
                fired += 1
                fire(event)
        finally:
            self.events_processed += fired
        self._now = horizon
        return None

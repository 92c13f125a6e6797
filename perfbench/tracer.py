"""In-memory span tracer that wraps the layers' public functions from outside.

Each call into a wrapped function opens a span with its name, start, end,
parent span and call id.  A generator function is timed per resume: the
span opens when the caller resumes the generator and closes when it yields
again, so the simulated waits between resumes never count as host time,
and every resume of one call shares that call's id.  Spans stay in
parallel ``array`` columns until the run ends; :meth:`Tracer.summary`
then computes each span's self time (its duration minus the time its
children cover) and :meth:`Tracer.write` saves the columns.

The program's sources are not touched: :class:`Instrumentation` replaces
the functions on their classes and in every ``repro`` module that
imported them, and :meth:`Instrumentation.remove` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

class Tracer:
    """Span store plus the counters taken at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.call_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: List[int] = []
        #: calls per span name (a generator call counts once, not per resume)
        self.calls: Dict[str, int] = defaultdict(int)
        #: free-form counters recorded by hooks, e.g. bytes moved
        self.counters: Dict[str, float] = defaultdict(float)
        self._next_call = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_call(self, name: str) -> int:
        self.calls[name] += 1
        self._next_call += 1
        return self._next_call

    def open(self, nid: int, call: int) -> int:
        idx = len(self.start_col)
        stack = self.stack
        self.name_col.append(nid)
        self.parent_col.append(stack[-1] if stack else -1)
        self.call_col.append(call)
        self.end_col.append(0.0)
        stack.append(idx)
        self.start_col.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end_col[idx] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def open_call_of(self, name: str) -> Optional[int]:
        """Call id of the innermost open span named ``name``, if any."""
        nid = self._ids.get(name)
        for idx in reversed(self.stack):
            if self.name_col[idx] == nid:
                return self.call_col[idx]
        return None

    def drive(self, gen, nid: int, call: int):
        """Re-yield ``gen``'s items, timing each resume as one span."""
        send, throw = gen.send, gen.throw
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            idx = self.open(nid, call)
            try:
                item = send(value) if exc is None else throw(exc)
            except StopIteration as stop:
                self.close(idx)
                return stop.value
            except BaseException:
                self.close(idx)
                raise
            self.close(idx)
            try:
                value = yield item
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:  # delivered into the inner generator
                value, exc = None, thrown

    # -- results -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.start_col)

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32),
            "call": np.frombuffer(self.call_col, dtype=np.int32),
            "start": np.frombuffer(self.start_col, dtype=np.float64),
            "end": np.frombuffer(self.end_col, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the duration of its children.

        Spans nest strictly (one thread, a span closes before its parent),
        so a parent's child coverage is the sum of its children's durations.
        """
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - covered

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``self_s``, inclusive ``total_s``, ``spans``, ``calls``.

        ``total_s`` sums only outermost spans of a name, so a recursive or
        ``super()`` call is not counted twice.
        """
        cols = self.columns()
        n = len(self.names)
        names = cols["name"]
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)
        outer = parent_name != names
        self_s = np.bincount(names, weights=self.self_times(), minlength=n)
        total_s = np.bincount(names[outer], weights=dur[outer], minlength=n)
        spans = np.bincount(names, minlength=n)
        return {
            name: {
                "self_s": float(self_s[i]),
                "total_s": float(total_s[i]),
                "spans": int(spans[i]),
                "calls": self.calls.get(name, 0),
            }
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations of every span named ``name``."""
        cols = self.columns()
        mask = cols["name"] == self._ids.get(name, -1)
        return cols["end"][mask] - cols["start"][mask]

    def covered_s(self) -> float:
        """Host seconds covered by outermost spans (the sum of all self times)."""
        cols = self.columns()
        top = cols["parent"] < 0
        return float(np.sum(cols["end"][top] - cols["start"][top]))

    def write(self, path) -> None:
        """Save every span (name table plus columns) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


# -- wrapping ---------------------------------------------------------------------


def wrap(
    tracer: Tracer,
    fn: Callable,
    name: str,
    before: Optional[Callable[..., Any]] = None,
    after: Optional[Callable[..., None]] = None,
) -> Callable:
    """A traced stand-in for ``fn``.

    ``before(args, kwargs)`` runs at the call and its return value is handed
    to ``after(args, kwargs, result, token)`` when a plain call returns.
    Hooks run outside the span, so their cost is not charged to the layer.
    """
    nid = tracer.name_id(name)
    open_, close, new_call = tracer.open, tracer.close, tracer.new_call

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            call = new_call(name)
            if before is not None:
                before(args, kwargs)
            return tracer.drive(fn(*args, **kwargs), nid, call)

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        call = new_call(name)
        token = before(args, kwargs) if before is not None else None
        idx = open_(nid, call)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if after is not None:
            after(args, kwargs, result, token)
        return result

    return traced


def layer_of(fn: Callable) -> str:
    """``repro.<package>.<module>`` → ``<package>``."""
    parts = fn.__module__.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else parts[0]


class Instrumentation:
    """Installed wrappers; :meth:`remove` puts every original back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, cls: type, attr: str, name: Optional[str] = None, **hooks) -> str:
        """Wrap ``cls.attr`` as defined in ``cls`` itself; returns the span name."""
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        span = name or f"{layer_of(fn)}.{cls.__name__}.{attr}"
        traced = wrap(self.tracer, fn, span, **hooks)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, kind(traced) if kind is not None else traced)
        return span

    def function(self, fn: Callable, name: Optional[str] = None, **hooks) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        traced = wrap(self.tracer, fn, name or f"{layer_of(fn)}.{fn.__name__}", **hooks)
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, traced)

    def mapping(self, table: Dict[str, Callable], prefix: str) -> None:
        """Wrap every callable of a registry dict in place, as ``<prefix>.<key>``."""
        for key, fn in list(table.items()):
            self._undo.append((table, key, fn))
            table[key] = wrap(self.tracer, fn, f"{prefix}.{key}")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

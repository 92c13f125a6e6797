"""Where the tracer hooks into ``repro`` and how spans become per-layer metrics.

Every wrapped function is a public boundary of one ``src/repro`` package.
A span's layer is the package that defines the code it times, so the
``Proposed`` scheme's methods (``repro.core.framework``) count as ``core``
self time, while their calls still count as ``schemes.submits`` and so on,
because those counts are taken at the ``PackingScheme`` interface.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from .tracer import Instrumentation, Tracer

LAYERS = ("sim", "mpi", "schemes", "core", "datatypes", "gpu", "net", "bench",
          "obs", "config", "workloads")
SCHEME_METHODS = ("submit", "flush", "wait", "progress_tick")
#: ``repro.mpi.communicator.Runtime``'s message handlers (private methods)
RUNTIME_HANDLERS = ("_deliver_envelope", "_send_cts", "_on_match",
                    "_receiver_unpack", "_receiver_direct")
OBSERVER_METHODS = ("count", "gauge_set", "observe", "span", "instant", "snapshot")
CONFIG_METHODS = ("with_overrides", "from_dict", "to_dict", "content_hash")
FLUSH_SPAN = "core.FusionScheduler.flush"
MB = 1e6


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return list(dict.fromkeys(found))


def _arg(args, kwargs, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """A tracer wired into every layer boundary, plus the counters the
    span names alone cannot give (bytes moved, cache hits, batch sizes)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: scheme method name → span names of every implementation
        self.scheme_spans: Dict[str, List[str]] = defaultdict(list)
        #: call ids of scheduler flushes that launched a fused kernel
        self.launching_flushes: Set[int] = set()
        self._live_buffers: List[Any] = []
        self._inst: Optional[Instrumentation] = None

    # -- hooks ---------------------------------------------------------------
    def _events_before(self, args, kwargs):
        return args[0].events_processed

    def _events_after(self, args, kwargs, result, before):
        self.tracer.counters["sim.events"] += args[0].events_processed - before

    def _alloc_after(self, args, kwargs, buf, _token):
        self.tracer.counters["gpu.alloc_bytes"] += buf.nbytes
        self._live_buffers.append(buf)

    def _packed(self, args, kwargs):
        self.tracer.counters["datatypes.packed_bytes"] += _arg(args, kwargs, 1, "layout").size

    def _lookup_after(self, args, kwargs, result, _token):
        if result is not None:
            self.tracer.counters["datatypes.cache_hits"] += 1

    def _launch_before(self, args, kwargs):
        self.tracer.counters["core.batch_ops"] += len(_arg(args, kwargs, 3, "requests"))
        flush = self.tracer.open_call_of(FLUSH_SPAN)
        if flush is not None:
            self.launching_flushes.add(flush)

    def _transmit_before(self, args, kwargs):
        self.tracer.counters["net.tx_bytes"] += _arg(args, kwargs, 1, "nbytes")

    def _run_before(self, args, kwargs):
        self._live_buffers.clear()

    def _run_after(self, args, kwargs, result, _token):
        counters = self.tracer.counters
        cfg = args[0]
        for buf in self._live_buffers:
            # A GPU buffer's lazy backing store exists once it was touched.
            data = getattr(buf, "_data", None)
            if data is not None:
                counters["gpu.touched_bytes"] += data.nbytes
        self._live_buffers.clear()
        if cfg.harness.data_plane:
            # 2 ranks x (send + receive) buffers, each holding one message
            payload = cfg.workload.nbuffers * result.message_bytes
            counters["gpu.payload_bytes"] += 4 * payload
            if cfg.harness.verify:
                counters["bench.verified_bytes"] += 2 * payload
        rec = result.recovery
        if rec is not None:
            counters["net.retransmits"] += rec.link_retransmits
            counters["schemes.launch_retries"] += rec.launch_retries
            counters["core.recoveries"] += (
                rec.relaunches + rec.batch_splits + rec.sync_fallbacks
                + rec.deadline_relaunches + rec.ring_fallbacks
            )

    # -- install / remove ----------------------------------------------------
    def install(self) -> None:
        """Wrap each layer's public functions (idempotent per probe)."""
        if self._inst is not None:
            return
        from repro.bench import runner, sweep
        from repro.config import ExperimentConfig
        from repro.core import fused_kernel, scheduler
        from repro.datatypes import cache, layout, pack
        from repro.gpu import memory, stream
        from repro.mpi import communicator, matching, protocols
        from repro.net import link, transfer
        from repro.obs import observer
        from repro.schemes.base import PackingScheme
        from repro.sim import engine
        from repro.workloads import WORKLOADS

        inst = self._inst = Instrumentation(self.tracer)
        self.scheme_spans.clear()
        inst.method(engine.Simulator, "run",
                    before=self._events_before, after=self._events_after)
        for attr in ("isend", "irecv", "waitall"):
            inst.method(communicator.Rank, attr)
        inst.method(matching.MatchingEngine, "post_receive")
        inst.method(matching.MatchingEngine, "deliver_envelope")
        # the protocol handlers the engine calls back into, so that their
        # self time is the mpi and net layers' and not the engine's
        for attr in RUNTIME_HANDLERS:
            inst.method(communicator.Runtime, attr)
        inst.mapping(communicator._SENDER_PROCS, "mpi.protocols.sender")
        inst.function(protocols.receiver_pull_rget)
        for fn in (transfer.rdma_write, transfer.rdma_read, transfer.staged_host_copy):
            inst.function(fn)
        for cls in _subclasses(PackingScheme):
            for attr in SCHEME_METHODS:
                if attr in cls.__dict__:
                    self.scheme_spans[attr].append(inst.method(cls, attr))
        inst.method(scheduler.FusionScheduler, "enqueue")
        inst.method(scheduler.FusionScheduler, "flush")
        inst.function(fused_kernel.launch_fused_kernel, before=self._launch_before)
        inst.method(stream.Stream, "enqueue")
        inst.method(stream.Stream, "enqueue_callable")
        inst.method(memory.DeviceMemory, "alloc", after=self._alloc_after)
        inst.function(pack.pack_bytes, before=self._packed)
        inst.function(pack.unpack_bytes, before=self._packed)
        inst.method(layout.DataLayout, "gather_index")
        inst.method(cache.LayoutCache, "lookup", after=self._lookup_after)
        inst.method(link.Link, "transmit", before=self._transmit_before)
        inst.function(runner.run_bulk_exchange,
                      before=self._run_before, after=self._run_after)
        inst.function(sweep.run_sweep)
        for attr in OBSERVER_METHODS:
            inst.method(observer.Observer, attr)
        for attr in CONFIG_METHODS:
            inst.method(ExperimentConfig, attr)
        inst.mapping(WORKLOADS, "workloads")

    def remove(self) -> None:
        if self._inst is not None:
            self._inst.remove()
            self._inst = None
        self._live_buffers.clear()

    # -- metrics -------------------------------------------------------------
    def layer_self_s(self, summary: Optional[Dict[str, Dict[str, float]]] = None) -> Dict[str, float]:
        """Self seconds summed per layer (a span name's first component)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in (summary or self.tracer.summary()).items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s["self_s"]
        return out

    def metrics(self, passes: int) -> Dict[str, float]:
        """Per-layer metrics, each normalised to one pass of the workload."""
        s = self.tracer.summary()
        c = self.tracer.counters
        n = float(passes)

        def calls(name: str) -> float:
            return s.get(name, {}).get("calls", 0)

        def total(name: str) -> float:
            return s.get(name, {}).get("total_s", 0.0)

        def scheme_calls(attr: str) -> float:
            return sum(calls(name) for name in self.scheme_spans[attr])

        waitalls = calls("mpi.Rank.waitall")
        waitall_resumes = s.get("mpi.Rank.waitall", {}).get("spans", 0)
        pack_calls = calls("datatypes.pack_bytes") + calls("datatypes.unpack_bytes")
        pack_s = total("datatypes.pack_bytes") + total("datatypes.unpack_bytes")
        launches = calls("core.launch_fused_kernel")
        flushes = calls(FLUSH_SPAN)
        self_s = self.layer_self_s(s)
        events = c["sim.events"]

        m: Dict[str, float] = {f"{layer}.self_s": v / n for layer, v in self_s.items()}
        m.update({
            "sim.events": events / n,
            "sim.us_per_event": _ratio(self_s["sim"] * 1e6, events),
            "mpi.isend_calls": calls("mpi.Rank.isend") / n,
            "mpi.irecv_calls": calls("mpi.Rank.irecv") / n,
            "mpi.waitall_calls": waitalls / n,
            "mpi.waitall_resumes": waitall_resumes / n,
            "mpi.resumes_per_waitall": _ratio(waitall_resumes, waitalls),
            "schemes.submits": scheme_calls("submit") / n,
            "schemes.progress_ticks": scheme_calls("progress_tick") / n,
            "schemes.launch_retries": c["schemes.launch_retries"] / n,
            "core.enqueues": calls("core.FusionScheduler.enqueue") / n,
            "core.flush_calls": flushes / n,
            "core.fused_launches": launches / n,
            "core.mean_batch": _ratio(c["core.batch_ops"], launches),
            "core.launching_flush_ratio": _ratio(len(self.launching_flushes), flushes),
            "core.recoveries": c["core.recoveries"] / n,
            "datatypes.pack_calls": pack_calls / n,
            "datatypes.packed_mb": c["datatypes.packed_bytes"] / MB / n,
            "datatypes.pack_mb_per_s": _ratio(c["datatypes.packed_bytes"] / MB, pack_s),
            "datatypes.gather_index_calls": calls("datatypes.DataLayout.gather_index") / n,
            "datatypes.layout_cache_hit_ratio": _ratio(
                c["datatypes.cache_hits"], calls("datatypes.LayoutCache.lookup")),
            "gpu.kernel_ops": calls("gpu.Stream.enqueue_callable") / n,
            "gpu.alloc_mb": c["gpu.alloc_bytes"] / MB / n,
            "gpu.touched_mb": c["gpu.touched_bytes"] / MB / n,
            "gpu.payload_to_touched_ratio": _ratio(c["gpu.payload_bytes"], c["gpu.touched_bytes"]),
            "bench.verified_mb": c["bench.verified_bytes"] / MB / n,
            "net.transmits": calls("net.Link.transmit") / n,
            "net.tx_mb": c["net.tx_bytes"] / MB / n,
            "net.retransmits": c["net.retransmits"] / n,
        })
        m.update(point_metrics(self.tracer.durations("bench.run_bulk_exchange")))
        return m


def point_metrics(durations: Sequence[float]) -> Dict[str, float]:
    """Host time per point (one ``run_bulk_exchange`` call) with its sample count."""
    d = np.asarray(durations, dtype=float) * 1e3
    if d.size == 0:
        return {"bench.points": 0, "bench.point_p50_ms": 0.0, "bench.point_p95_ms": 0.0}
    return {
        "bench.points": int(d.size),
        "bench.point_p50_ms": float(np.percentile(d, 50)),
        "bench.point_p95_ms": float(np.percentile(d, 95)),
    }

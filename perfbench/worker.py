"""One workload run in a fresh process; ``run.py`` starts it and reads its last line.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \\
        --trace 0|1 --spawned-at MONOTONIC [--setup-only] [--spans PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` covers interpreter
start, imports, config-tree construction and plan expansion.

Untraced (``--trace 0``): passes of the workload run back to back until
``--seconds`` have gone by, and at least the workload's ``min_passes``.
``wall_s`` is the host time of one pass at the reference host speed.  The
host it was tuned on changes speed by half or more, in spells of seconds
to half a minute, so a run can fall wholly in a slow one.  So a fixed
pure-Python loop runs just before and after every part of a pass (a figure
or a point), outside its timing, and each part's time is scaled by
``REF_LOOP_S`` over the mean of those two loop times.  ``wall_s`` sums over the parts each
part's median scaled time; ``raw_wall_s`` in the record sums the unscaled
medians.  Each pass starts from a collected heap; nothing is collected
inside one.

Traced (``--trace 1``): untraced passes for the first third of the time,
then passes with every layer boundary wrapped for the rest (at least one
of each).  The difference of the two mean pass times is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from typing import Any, Dict, List

CALIBRATION_LOOPS = 2_000_000


def peak_rss_mb() -> float:
    """Peak resident set of this process (``VmHWM``), in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc/self/status")


def calibration_s() -> float:
    """Best of three runs of a long calibration loop: a host-speed yardstick."""
    from .workloads import calibration_loop

    return min(calibration_loop(CALIBRATION_LOOPS) for _ in range(3))


def timed_passes(workload, seconds: float, results: List[Any], min_passes: int = 1) -> List[float]:
    """Run passes until ``seconds`` elapse; returns each pass's host seconds.

    A pass's index (its position in ``results``) fixes its inputs.
    """
    times: List[float] = []
    started = time.perf_counter()
    while len(times) < min_passes or time.perf_counter() - started < seconds:
        gc.collect()
        index = len(results)
        t0 = time.perf_counter()
        results.append(workload.run_pass(index))
        times.append(time.perf_counter() - t0)
    return times


def wall_s(results, scaled: bool = True) -> float:
    """Sum over the parts of a pass of each part's median host seconds,
    scaled to the reference host speed unless ``scaled`` is false."""
    from .workloads import REF_LOOP_S

    parts: Dict[str, List[float]] = {}
    for r in results:
        for key, seconds in r.parts.items():
            scale = REF_LOOP_S / r.loop_s[key] if scaled else 1.0
            parts.setdefault(key, []).append(seconds * scale)
    return sum(statistics.median(v) for v in parts.values())


def model_metrics(results) -> Dict[str, float]:
    """``proposed_sim_us`` and the Fig. 11 buckets of ``Proposed`` (mean, µs)."""
    from .workloads import BUCKETS, geomean

    lat = [x for r in results for x in r.proposed_us]
    rows = [b for r in results for b in r.proposed_buckets]
    out = {f"model.{b}_us": statistics.fmean(r[b] for r in rows) if rows else 0.0
           for b in BUCKETS}
    out["proposed_sim_us"] = geomean(lat) if lat else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced run saves its spans (.npz)")
    args = ap.parse_args(argv)

    from . import workloads
    from .probes import LayerProbe

    # a traced run also traces set-up, for config.setup_self_s
    setup_probe = LayerProbe()
    workload = workloads.build(args.workload, args.seed)
    if args.trace:
        setup_probe.install()
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    setup_probe.remove()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results: List[Any] = []
    out: Dict[str, Any] = {"setup_s": setup_s}
    if not args.trace:
        times = timed_passes(workload, args.seconds, results, workload.min_passes)
        out["wall_s"] = wall_s(results)
        out["raw_wall_s"] = wall_s(results, scaled=False)
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        started = time.perf_counter()
        untraced = timed_passes(workload, args.seconds / 3, results)
        probe = LayerProbe()
        probe.install()
        times = timed_passes(
            workload, args.seconds - (time.perf_counter() - started), results)
        probe.remove()
        # recorded, not reported: the spans held in memory count here
        out["peak_rss_mb"] = peak_rss_mb()
        layer = probe.metrics(len(times))
        traced_wall = statistics.fmean(times)
        layer.update({
            "config.setup_self_s": setup_probe.layer_self_s()["config"],
            # means, so that the layers' self times plus the remainder (the
            # benchmark's own code outside every span) add up to traced_wall_s
            "bench.untraced_wall_s": statistics.fmean(untraced),
            "bench.traced_wall_s": traced_wall,
            "bench.trace_overhead_s": traced_wall - statistics.fmean(untraced),
            "bench.remainder_s": traced_wall - probe.tracer.covered_s() / len(times),
            "bench.spans": len(probe.tracer),
        })
        out["layers"] = layer
        if args.spans:
            probe.tracer.write(args.spans)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    out.update({
        "passes": len(times),
        "pass_times_s": times,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in results for e in r.errors][:10],
        "model": model_metrics(results[:workload.min_passes]),
        "provenance": {
            **workload.provenance(len(results)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "calibration_s": calibration_s(),
        },
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/repro`` and the
committed ``benchmarks/results``).  Workload and metric names, units and
bounds come from ``BENCHMARK.json``.

The workload runs in a fresh ``perfbench.worker`` process, so ``setup_s``
and ``peak_rss_mb`` belong to that run alone.  Before it, with
``--trace 0``, ``SETUP_PROBES`` more fresh processes only set up and
exit; ``setup_s`` is the median of all of them.  Every process is waited
for and killed if it outlives the time limit.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics with
``--trace 0``, the ``per_layer`` ones with ``--trace 1``).  A fuller record,
with provenance, goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 6
#: every run must end well inside 180 s
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker(args, *extra: str, deadline: float) -> dict:
    """Start one fresh worker process, wait for it, parse its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        # subprocess.run kills and reaps the child when the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def collect(spec: dict, args, deadline: float) -> tuple:
    """Run the workload; returns (metrics by name, worker record)."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(args, "--setup-only", deadline=deadline)["setup_s"])
    spans = ("--spans", str(OUT_DIR / f"{stem}.spans.npz")) if args.trace else ()
    rec = worker(args, *spans, deadline=deadline)
    setups.append(rec["setup_s"])
    rec["setup_samples_s"] = setups
    if args.trace:
        values = {**rec["layers"], **rec["model"]}
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": rec["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
            "proposed_sim_us": rec["model"]["proposed_sim_us"],
            "success_ratio": (rec["attempted"] - rec["failed"]) / rec["attempted"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"metrics": metrics, "record": rec}, fh, indent=1, sort_keys=True)
    return metrics, rec


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks" / "results").is_dir():
        print(f"{ROOT} is not a source checkout: src/repro or benchmarks/results missing",
              file=sys.stderr)
        return 2
    try:
        metrics, rec = collect(spec, args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = rec["attempted"], rec["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{rec['passes']} {'traced' if args.trace else 'timed'} passes, "
          f"failed {failed} of {attempted} "
          f"(fail_ratio {failed / attempted:.4g})")
    if not args.trace:
        print(f"  unscaled wall_s {rec['raw_wall_s']:.6g} s "
              f"(wall_s is scaled to the reference host speed)")
    for err in rec["errors"]:
        print(f"  failure: {err.strip().splitlines()[0]}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

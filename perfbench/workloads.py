"""The benchmark's workloads; NOTES.md says why each one was chosen.

A workload has a ``setup()`` (config-tree construction and loading what it
checks against, charged to ``setup_s``) and a ``run_pass()`` (one unit of
timed work).
``run_pass`` never raises for a failing point: it counts the point as
failed and keeps going, so ``failed / attempted`` is the failure ratio.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Layer functions are called through their module so the tracer's wrappers,
# installed on the ``repro`` modules, see the calls.
import repro.bench as bench
from repro.bench import FIGURES
from repro.config import ExperimentConfig

REPO = Path(__file__).resolve().parents[1]
COMMITTED_RESULTS = REPO / "benchmarks" / "results"
#: the Fig. 11 buckets other than ``other``
BUCKETS = ("pack", "launch", "sched", "sync", "comm")
#: failure descriptions kept per pass (the count is always exact)
MAX_ERRORS = 5
#: the seed every figure plan pins (``FIG_BASE`` keeps the default ``harness.seed``)
FIGURES_SEED = ExperimentConfig.default().harness.seed
#: data-plane pass ``k`` of seed ``s`` runs with ``harness.seed = s * SEED_STRIDE + k``
SEED_STRIDE = 100_003
#: buffers per exchange in both data-plane workloads
NBUFFERS = 16
#: iterations of the calibration loop run next to every timed part
LOOP_ITERATIONS = 50_000
#: the calibration loop's seconds on the reference host: a shared 2-core VM,
#: whose loop time ranged over 3-7 ms; ``wall_s`` is in seconds at this speed
REF_LOOP_S = 0.004


def calibration_loop(iterations: int = LOOP_ITERATIONS) -> float:
    """Host seconds of a fixed pure-Python loop, which no program change moves."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i & 0xFF
    return time.perf_counter() - t0


@dataclass
class PassResult:
    """What one pass did and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    #: host seconds of each part of the pass (a figure, or a point)
    parts: Dict[str, float] = field(default_factory=dict)
    #: each part's mean of the calibration loop's seconds just before and after it
    loop_s: Dict[str, float] = field(default_factory=dict)
    #: the calibration loop's seconds after the last part (or at the start)
    last_loop_s: float = field(default_factory=calibration_loop)
    #: mean simulated latency of every ``Proposed`` point, microseconds
    proposed_us: List[float] = field(default_factory=list)
    #: the Fig. 11 buckets of every ``Proposed`` point, microseconds
    proposed_buckets: List[Dict[str, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def record(self, key: str, started: float) -> None:
        """Part ``key`` ran from ``started`` to now; time the loop after it."""
        self.parts[key] = time.perf_counter() - started
        loop_s = calibration_loop()
        self.loop_s[key] = (self.last_loop_s + loop_s) / 2
        self.last_loop_s = loop_s

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)

    def add_proposed(self, mean_latency_s: float, breakdown: Dict[str, float]) -> None:
        self.proposed_us.append(mean_latency_s * 1e6)
        self.proposed_buckets.append(
            {b: float(breakdown.get(b, 0.0)) * 1e6 for b in BUCKETS})


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class SweepDry:
    """All eight figures, serial and uncached, data plane off.

    Each regenerated entry is compared with the committed
    ``benchmarks/results/BENCH_<experiment>.json``.  The figure plans pin
    ``harness.seed`` to the committed artifacts' seed, so the workload
    seed is recorded but unused.
    """

    #: passes every run makes; ``proposed_sim_us`` is taken over exactly these.
    #: A pass takes 9-15 s, so each figure's median has three samples and a
    #: run takes about 40 s.
    min_passes = 3

    def __init__(self, seed: int, figures: Optional[Sequence[str]] = None,
                 results_dir: Path = COMMITTED_RESULTS):
        self.seed = seed
        self.figures = list(figures or FIGURES)
        self.results_dir = Path(results_dir)
        self.reference: Dict[str, Dict[str, Any]] = {}
        self.last_tuning: Dict[str, Any] = {}

    def setup(self) -> None:
        # the plans expand inside run_figure, so inside the timed pass
        for fig in self.figures:
            path = self.results_dir / f"BENCH_{FIGURES[fig].experiment}.json"
            with open(path) as fh:
                self.reference[fig] = json.load(fh)

    def run_pass(self, index: int = 0) -> PassResult:
        out = PassResult()
        for fig in self.figures:
            ref = self.reference[fig]
            ref_entries = {e["key"]: e for e in ref["entries"]}
            units = len(ref_entries) or 1  # a table figure is one unit
            out.attempted += units
            started = time.perf_counter()
            try:
                run = bench.run_figure(fig)
                doc = run.artifact_doc()
            except Exception:
                for _ in range(units):
                    out.fail(f"{fig}: {traceback.format_exc(limit=3)}")
                continue
            out.record(fig, started)
            self.last_tuning[fig] = run.tuning
            if {k: v for k, v in doc.items() if k != "entries"} != \
                    {k: v for k, v in ref.items() if k != "entries"}:
                for _ in range(units):
                    out.fail(f"{fig}: artifact header or table differs")
                continue
            got = {e["key"]: e for e in doc["entries"]}
            for key, want in ref_entries.items():
                if got.get(key) != want:
                    out.fail(f"{fig}/{key}: differs from the committed artifact")
            for key in got.keys() - ref_entries.keys():
                out.attempted += 1
                out.fail(f"{fig}/{key}: not in the committed artifact")
            for entry in doc["entries"]:
                if entry.get("scheme") == "Proposed":
                    out.add_proposed(entry["mean_latency"], entry["breakdown"])
        return out

    def provenance(self, passes: int = 1) -> Dict[str, Any]:
        """Seed facts and the config content hash of every shard of the last pass."""
        points = {}
        for fig in self.figures:
            plan = FIGURES[fig]
            # a two-phase figure's main grid needs the tuning outcome
            specs = plan.tuning()
            if not specs:
                specs = plan.expand({})
            elif self.last_tuning.get(fig):
                specs += plan.expand(self.last_tuning[fig])
            for spec in specs:
                points[f"{spec.experiment}/{spec.key}"] = (
                    "table" if spec.kind == "table" else spec.cfg.content_hash())
        return {"seed": self.seed, "seed_used": False,
                "pinned_seed": FIGURES_SEED, "points": points}


class DataPlane:
    """Functional data-plane points with ``verify=True``, run back to back.

    Nothing runs between the points of one pass (no ``gc.collect()``), so
    ``peak_rss_mb`` shows what a user running these points in one process
    holds at once.

    Each pass runs with its own ``harness.seed`` (see :meth:`pass_points`), so
    the timings and ``proposed_sim_us`` of one run average several payloads
    and fault plans.
    """

    #: six fault plans of 8 iterations keep ``proposed_sim_us`` within a few
    #: percent across seeds, and fit in a 25 s run
    min_passes = 6

    def __init__(self, seed: int, points: Sequence[Tuple[str, int]],
                 schemes: Sequence[str], *, iterations: int,
                 overrides: Optional[Dict[str, Any]] = None):
        self.seed = seed
        self.points = list(points)
        self.schemes = list(schemes)
        self.iterations = iterations
        self.overrides = dict(overrides or {})
        self.configs: List[Tuple[str, ExperimentConfig]] = []

    def setup(self) -> None:
        base = ExperimentConfig.default()
        self.configs = []
        for workload, dim in self.points:
            for scheme in self.schemes:
                cfg = base.with_overrides({
                    "workload.name": workload,
                    "workload.dim": dim,
                    "workload.nbuffers": NBUFFERS,
                    "scheme.name": scheme,
                    "harness.iterations": self.iterations,
                    "harness.data_plane": True,
                    "harness.verify": True,
                    **self.overrides,
                })
                self.configs.append((f"{workload}/{scheme}/dim={dim}", cfg))

    def pass_points(self, index: int) -> List[Tuple[str, ExperimentConfig]]:
        """The points of pass ``index``, all with ``harness.seed = seed *
        SEED_STRIDE + index``: every pass draws a fresh payload and fault
        plan, and the workload seed fixes them all."""
        seed = self.seed * SEED_STRIDE + index
        return [(key, replace(cfg, harness=replace(cfg.harness, seed=seed)))
                for key, cfg in self.configs]

    def run_pass(self, index: int = 0) -> PassResult:
        out = PassResult()
        for key, cfg in self.pass_points(index):
            out.attempted += 1
            started = time.perf_counter()
            try:
                result = bench.run_bulk_exchange(cfg)
            except Exception:
                out.fail(f"{key} seed={cfg.harness.seed}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                out.record(key, started)
            lat = result.latencies
            if len(lat) != self.iterations or not all(math.isfinite(x) and x > 0 for x in lat):
                out.fail(f"{key} seed={cfg.harness.seed}: bad latencies {lat!r}")
                continue
            if cfg.scheme.name == "Proposed":
                out.add_proposed(result.mean_latency,
                                 {str(k.value): v for k, v in result.breakdown.items()})
        return out

    def provenance(self, passes: int = 1) -> Dict[str, Any]:
        points = {f"{key} seed={cfg.harness.seed}": cfg.content_hash()
                  for index in range(passes) for key, cfg in self.pass_points(index)}
        return {"seed": self.seed, "seed_used": True,
                "pass_seed": f"seed * {SEED_STRIDE} + pass", "points": points}


#: MILC dim 32 and NAS_MG dim 128/256 are left out (see NOTES.md)
DENSE_POINTS = [("MILC", 16), ("NAS_MG", 64)]
DENSE_SCHEMES = ["Proposed", "GPU-Sync"]
SPARSE_POINTS = [("specfem3D_cm", 4000), ("specfem3D_oc", 8000)]
SPARSE_SCHEMES = ["GPU-Sync", "GPU-Async", "CPU-GPU-Hybrid", "Proposed"]


def build(name: str, seed: int):
    """The named workload, seeded."""
    if name == "sweep_dry":
        return SweepDry(seed)
    if name == "dataplane_dense":
        # the harness default of 5 iterations (after its 1 warm-up)
        return DataPlane(seed, DENSE_POINTS, DENSE_SCHEMES, iterations=5)
    if name == "chaos_sparse":
        # 8 iterations keep a pass near 4 s; the pass seeds average fault plans
        return DataPlane(seed, SPARSE_POINTS, SPARSE_SCHEMES, iterations=8,
                         overrides={"faults.preset": "moderate"})
    raise ValueError(f"unknown workload {name!r}")

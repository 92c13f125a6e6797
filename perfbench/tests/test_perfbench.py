"""Self-tests of the benchmark: tracer arithmetic, failure counting, names.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.probes import LayerProbe
from perfbench.tracer import Instrumentation, Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class Layer:
    """Stand-ins for a layer's functions, wrapped by the tests."""

    def __init__(self, clock: FakeClock):
        self.clock = clock

    def leaf(self) -> str:
        self.clock.advance(2.0)
        return "leaf"

    def resumable(self):
        self.clock.advance(1.0)
        self.leaf()
        got = yield "a"
        self.clock.advance(4.0)
        yield got
        self.clock.advance(0.5)
        return "done"

    def outer(self):
        self.clock.advance(1.0)
        gen = self.resumable()
        items = [next(gen)]
        self.clock.advance(10.0)  # the generator is suspended: not its time
        items.append(gen.send("b"))
        self.clock.advance(10.0)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        return items, stop.value.value


@pytest.fixture
def traced():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    inst = Instrumentation(tracer)
    for attr in ("leaf", "resumable", "outer"):
        inst.method(Layer, attr, name=f"t.{attr}")
    yield clock, tracer
    inst.remove()


def test_self_time_of_nested_plain_and_generator_spans(traced):
    clock, tracer = traced
    items, value = Layer(clock).outer()
    assert items == ["a", "b"] and value == "done"

    s = tracer.summary()
    # outer: 1 + 10 + 10 of its own; the generator's three resumes are
    # 1 + 4 + 0.5 of its own plus the 2 s leaf call inside the first one
    assert s["t.outer"]["self_s"] == pytest.approx(21.0)
    assert s["t.resumable"]["self_s"] == pytest.approx(5.5)
    assert s["t.leaf"]["self_s"] == pytest.approx(2.0)
    assert s["t.outer"]["total_s"] == pytest.approx(28.5)
    assert s["t.resumable"]["spans"] == 3 and s["t.resumable"]["calls"] == 1
    # self times partition the outermost span exactly
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(tracer.covered_s())
    assert tracer.covered_s() == pytest.approx(28.5)
    cols = tracer.columns()
    resumes = cols["name"] == tracer.name_id("t.resumable")
    assert len(set(cols["call"][resumes].tolist())) == 1
    assert set(cols["parent"][resumes].tolist()) == {0}


def test_generator_wrapper_forwards_throw_and_restores(traced):
    clock, tracer = traced
    layer = Layer(clock)
    gen = layer.resumable()
    assert next(gen) == "a"
    with pytest.raises(KeyError):
        gen.throw(KeyError("x"))
    assert not tracer.stack
    assert tracer.summary()["t.resumable"]["spans"] == 2


def test_instrumentation_remove_restores_originals():
    original = Layer.__dict__["leaf"]
    inst = Instrumentation(Tracer())
    inst.method(Layer, "leaf")
    assert Layer.__dict__["leaf"] is not original
    inst.remove()
    assert Layer.__dict__["leaf"] is original


def test_probe_counts_one_small_exchange():
    from repro.bench import runner
    from repro.config import ExperimentConfig

    cfg = ExperimentConfig.default().with_overrides({
        "workload.name": "MILC", "workload.dim": 2, "workload.nbuffers": 2,
        "harness.iterations": 1, "harness.warmup": 0,
    })
    original = runner.run_bulk_exchange
    probe = LayerProbe()
    probe.install()
    try:
        import repro.bench as bench

        bench.run_bulk_exchange(cfg)
    finally:
        probe.remove()
    assert runner.run_bulk_exchange is original
    m = probe.metrics(passes=1)
    # per rank: one isend per buffer plus one for the closing barrier
    assert m["mpi.isend_calls"] == 2 * (2 + 1)
    assert m["mpi.irecv_calls"] == 2 * (2 + 1)
    assert m["sim.events"] > 0 and m["bench.points"] == 1
    assert m["bench.verified_mb"] > 0
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(probe.tracer.covered_s())


def test_forced_verification_failure_counts_and_run_goes_on(monkeypatch):
    from repro.gpu import kernels

    real_unpack = kernels.unpack_bytes

    def corrupting_unpack(packed, layout, dest, base_offset=0):
        out = real_unpack(packed, layout, dest, base_offset=base_offset)
        dest[layout.gather_index(base_offset)] ^= 0xFF
        return out

    monkeypatch.setattr(kernels, "unpack_bytes", corrupting_unpack)
    wl = workloads.DataPlane(1, [("MILC", 2)], ["Proposed", "GPU-Sync"], iterations=1)
    wl.setup()
    result = wl.run_pass()
    assert (result.attempted, result.failed) == (2, 2)
    assert all("data corruption" in e for e in result.errors)


def test_wall_s_scales_each_part_by_the_loops_around_it():
    from perfbench.worker import wall_s

    ref = workloads.REF_LOOP_S

    def timed(a: float, b: float, loop: float) -> workloads.PassResult:
        return workloads.PassResult(parts={"a": a, "b": b},
                                    loop_s={"a": loop, "b": loop}, last_loop_s=loop)

    # the second and third passes ran in a spell when the loop took 1.5x
    passes = [timed(1.0, 2.0, ref), timed(1.5, 3.0, 1.5 * ref), timed(1.5, 3.0, 1.5 * ref)]
    assert wall_s(passes) == pytest.approx(3.0)
    assert wall_s(passes, scaled=False) == pytest.approx(4.5)


def test_pass_result_times_the_loop_between_parts():
    out = workloads.PassResult()
    first = out.last_loop_s
    out.record("a", started=0.0)
    assert out.loop_s["a"] == pytest.approx((first + out.last_loop_s) / 2)
    assert 0 < out.last_loop_s < 1


def test_sweep_entry_differing_from_committed_artifact_counts(tmp_path):
    name = "BENCH_fig11_breakdown.json"
    doc = json.loads((ROOT / "benchmarks" / "results" / name).read_text())
    doc["entries"][1]["mean_latency"] *= 2
    (tmp_path / name).write_text(json.dumps(doc))

    clean = workloads.SweepDry(0, figures=["fig11"])
    clean.setup()
    result = clean.run_pass()
    assert (result.attempted, result.failed) == (3, 0)

    tampered = workloads.SweepDry(0, figures=["fig11"], results_dir=tmp_path)
    tampered.setup()
    result = tampered.run_pass()
    assert (result.attempted, result.failed) == (3, 1)
    assert "GPU-Async" in result.errors[0]


def test_benchmark_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
    for w in spec["workloads"]:
        workloads.build(w["name"], seed=0)
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_runner_fails_outside_a_checkout(tmp_path):
    import subprocess
    import sys

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_dry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_reports_every_per_layer_metric():
    import subprocess
    import sys

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dataplane_dense",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["datatypes.packed_mb"] > 0 and m["sim.events"] > 0
    # the spans cover the traced pass: the benchmark's own code outside
    # every span is a small share of it
    assert 0 <= m["bench.remainder_s"] < 0.05 * m["bench.traced_wall_s"]

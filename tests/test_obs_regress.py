"""repro.obs.regress — the perf-regression gate, pass/fail pair + CLI."""

import copy

import pytest

from repro.bench import run_bulk_exchange
from repro.cli import main
from repro.config import ExperimentConfig, HarnessCfg, SchemeCfg, WorkloadCfg
from repro.obs import experiment_artifact, result_entry, write_bench_artifact
from repro.obs import regress

RUN = {
    "iterations": 2, "warmup": 1, "data_plane": False,
    "rendezvous_protocol": "rput", "seed": 42,
}


@pytest.fixture(scope="module")
def baseline():
    """A small two-entry artifact measured fresh in this process."""
    entries = []
    for scheme, config in (("GPU-Sync", None), ("Proposed", {"threshold_bytes": 512 * 1024})):
        cfg = ExperimentConfig(
            workload=WorkloadCfg(name="specfem3D_cm", dim=200, nbuffers=4),
            scheme=SchemeCfg.from_overrides(scheme, config or {}),
            harness=HarnessCfg(
                iterations=RUN["iterations"],
                warmup=RUN["warmup"],
                data_plane=RUN["data_plane"],
                seed=RUN["seed"],
            ),
        )
        result = run_bulk_exchange(cfg)
        entries.append(result_entry(result, key=scheme, config=config, run=RUN))
    return experiment_artifact("unit_regress", entries, meta={"seed": 42})


def _slowed(artifact, factor=1.12):
    doc = copy.deepcopy(artifact)
    for entry in doc["entries"]:
        entry["mean_latency"] *= factor
        entry["latencies"] = [v * factor for v in entry["latencies"]]
    return doc


# -- compare_artifacts ------------------------------------------------------


def test_identical_artifacts_pass(baseline):
    report = regress.compare_artifacts(baseline, baseline)
    assert report.ok
    assert not report.regressions and not report.missing
    assert report.describe().endswith("verdict: PASS")
    assert all(c.ratio == pytest.approx(1.0) for c in report.checks)


def test_injected_slowdown_fails_the_gate(baseline):
    report = regress.compare_artifacts(baseline, _slowed(baseline))
    assert not report.ok
    assert len(report.regressions) == len(baseline["entries"])
    assert report.describe().endswith("verdict: FAIL")


def test_slowdown_within_tolerance_passes(baseline):
    report = regress.compare_artifacts(
        baseline, _slowed(baseline, 1.05), tolerance=0.10
    )
    assert report.ok


def test_improvement_never_fails(baseline):
    report = regress.compare_artifacts(baseline, _slowed(baseline, 0.5))
    assert report.ok
    assert len(report.improvements) == len(baseline["entries"])


def test_missing_entry_fails_extra_is_informational(baseline):
    candidate = copy.deepcopy(baseline)
    dropped = candidate["entries"].pop(0)
    candidate["entries"].append(dict(dropped, key="brand-new"))
    report = regress.compare_artifacts(baseline, candidate)
    assert not report.ok
    assert report.missing == [dropped["key"]]
    assert report.extra == ["brand-new"]


def test_per_metric_tolerances_and_breakdown_paths(baseline):
    report = regress.compare_artifacts(
        baseline,
        _slowed(baseline, 1.07),
        metrics=("mean_latency", "min_latency", "breakdown.pack"),
        tolerances={"mean_latency": 0.05},
    )
    by_metric = {}
    for check in report.checks:
        by_metric.setdefault(check.metric, []).append(check)
    # mean_latency gets the tight per-metric tolerance and regresses
    assert all(c.regressed for c in by_metric["mean_latency"])
    # min_latency keeps the default 10 % and passes
    assert not any(c.regressed for c in by_metric["min_latency"])
    # breakdown paths resolve (candidate breakdown unchanged -> ok)
    assert "breakdown.pack" in by_metric


# -- re-running -------------------------------------------------------------


def test_rerun_reproduces_the_baseline_exactly(baseline):
    candidate = regress.rerun_artifact(baseline)
    report = regress.compare_artifacts(baseline, candidate)
    assert report.ok
    for check in report.checks:
        assert check.candidate == pytest.approx(check.baseline, rel=1e-12)


def test_rerun_entry_rejects_unrunnable_scheme(baseline):
    entry = dict(baseline["entries"][0])
    entry["scheme"] = "No-Such-Scheme"
    entry.pop("config", None)
    with pytest.raises(KeyError):
        regress.rerun_entry(entry)


# -- CLI gate ---------------------------------------------------------------


def test_cli_regress_pass_and_fail(tmp_path, baseline, capsys):
    base_path = str(tmp_path / "BENCH_base.json")
    write_bench_artifact(base_path, baseline)
    slow_path = str(tmp_path / "BENCH_slow.json")
    write_bench_artifact(slow_path, _slowed(baseline))

    assert main(["regress", "--baseline", base_path, "--candidate", base_path]) == 0
    assert "verdict: PASS" in capsys.readouterr().out

    assert main(["regress", "--baseline", base_path, "--candidate", slow_path]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out

    # 12 % slowdown inside a widened tolerance passes again
    assert main([
        "regress", "--baseline", base_path, "--candidate", slow_path,
        "--tolerance", "0.2",
    ]) == 0

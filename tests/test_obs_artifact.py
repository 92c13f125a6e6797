"""repro.obs.artifact — BENCH_*.json schema, round trip, validation."""

import json

import pytest

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, HarnessCfg, SchemeCfg, WorkloadCfg
from repro.obs import (
    SCHEMA,
    SCHEMA_VERSION,
    artifact_path,
    entries_from_grid,
    experiment_artifact,
    load_bench_artifact,
    result_entry,
    write_bench_artifact,
)

RUN = {"iterations": 2, "warmup": 1, "data_plane": False}


def _result(scheme="GPU-Sync", dim=100, nbuffers=2):
    return run_bulk_exchange(
        ExperimentConfig(
            workload=WorkloadCfg(name="specfem3D_cm", dim=dim, nbuffers=nbuffers),
            scheme=SchemeCfg(name=scheme),
            harness=HarnessCfg(**RUN),
        )
    )


def test_result_entry_captures_the_measurement():
    result = _result()
    entry = result_entry(result, run=RUN)
    assert entry["key"] == "GPU-Sync/dim=100/nbuf=2"
    assert entry["scheme"] == "GPU-Sync"
    assert entry["mean_latency"] == pytest.approx(result.mean_latency)
    assert len(entry["latencies"]) == RUN["iterations"]
    assert {"pack", "launch", "sched", "sync", "comm"} <= set(entry["breakdown"])
    assert entry["run"] == RUN
    assert "scheduler" not in entry  # non-fusion run


def test_artifact_document_and_file_round_trip(tmp_path):
    grid = {"GPU-Sync": {2: _result(nbuffers=2)}}
    doc = experiment_artifact(
        "unit_fig",
        entries_from_grid(grid, column="nbuf", run=RUN),
        meta={"seed": 42},
    )
    assert doc["schema"] == SCHEMA and doc["version"] == SCHEMA_VERSION
    path = artifact_path(str(tmp_path), "unit_fig")
    assert path.endswith("BENCH_unit_fig.json")
    write_bench_artifact(path, doc)
    loaded = load_bench_artifact(path)
    assert loaded["experiment"] == "unit_fig"
    assert loaded["entries"][0]["key"] == "GPU-Sync/nbuf=2"
    assert loaded["meta"] == {"seed": 42}


def test_artifact_rejects_duplicate_keys():
    entry = {"key": "same"}
    with pytest.raises(ValueError, match="duplicate"):
        experiment_artifact("x", [entry, dict(entry)])


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"schema": "something/else", "version": 1}))
    with pytest.raises(ValueError, match="not a bench artifact"):
        load_bench_artifact(str(path))
    path.write_text(json.dumps({"schema": SCHEMA, "version": SCHEMA_VERSION + 1}))
    with pytest.raises(ValueError, match="version"):
        load_bench_artifact(str(path))


def test_write_rejects_non_artifact(tmp_path):
    with pytest.raises(ValueError):
        write_bench_artifact(str(tmp_path / "x.json"), {"schema": "wrong"})

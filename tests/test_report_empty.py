"""bench.report hardening — empty and sparse grids must not raise."""

from repro.bench import run_bulk_exchange
from repro.bench.report import (
    format_breakdown_table,
    format_latency_table,
    format_speedup_table,
    speedup_matrix,
)
from repro.config import ExperimentConfig, HarnessCfg, SchemeCfg, WorkloadCfg


def _result():
    return run_bulk_exchange(
        ExperimentConfig(
            workload=WorkloadCfg(name="specfem3D_cm", dim=100, nbuffers=2),
            scheme=SchemeCfg(name="GPU-Sync"),
            harness=HarnessCfg(iterations=1, warmup=0, data_plane=False),
        )
    )


def test_latency_table_with_empty_grid():
    text = format_latency_table({}, title="empty")
    assert text.startswith("empty")
    assert "scheme" in text


def test_latency_table_with_empty_scheme_rows():
    text = format_latency_table({"GPU-Sync": {}}, title="t", baseline="GPU-Sync")
    assert "GPU-Sync" in text


def test_breakdown_table_with_no_results():
    text = format_breakdown_table([], title="t")
    assert "scheme" in text and "total" in text


def test_speedup_matrix_with_missing_reference():
    grid = {"GPU-Sync": {2: _result()}}
    assert speedup_matrix(grid, "No-Such-Reference") == {"GPU-Sync": {}}
    text = format_speedup_table(grid, "No-Such-Reference", title="t")
    assert "GPU-Sync" in text


def test_speedup_table_with_empty_grid():
    text = format_speedup_table({}, reference="GPU-Sync", title="t")
    assert text.startswith("t")

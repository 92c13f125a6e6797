"""Tests for threshold auto-tuning (closed-form + empirical)."""

import pytest

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, HarnessCfg, ProtocolCfg, SystemCfg, WorkloadCfg
from repro.core import autotune_threshold, recommend_threshold
from repro.gpu import TESLA_V100, TESLA_V100_PCIE
from repro.net import LASSEN
from repro.workloads import WORKLOADS

KiB = 1024


def _base(workload="specfem3D_cm", dim=1000, **sections):
    return ExperimentConfig(
        workload=WorkloadCfg(name=workload, dim=dim),
        harness=HarnessCfg(iterations=2, warmup=1, data_plane=False),
        **sections,
    )


def test_recommend_threshold_reasonable_band():
    spec = WORKLOADS["specfem3D_cm"](2000)
    rec = recommend_threshold(TESLA_V100, spec.datatype.flatten())
    # §IV-C: the useful band is tens of KB to ~1 MB.
    assert 16 * KiB <= rec <= 2048 * KiB


def test_recommend_threshold_scales_with_launch_overhead():
    """A slower driver (PCIe attach) justifies pooling at least as much
    work per launch."""
    lay = WORKLOADS["specfem3D_cm"](2000).datatype.flatten()
    nvlink = recommend_threshold(TESLA_V100, lay)
    pcie = recommend_threshold(TESLA_V100_PCIE, lay)
    assert pcie >= nvlink


def test_recommend_threshold_sparse_needs_less_pooling():
    """Sparse layouts do more GPU work per byte (strided penalty +
    per-block cost), so fewer pooled bytes out-run the launch."""
    sparse = WORKLOADS["specfem3D_cm"](2000).datatype.flatten()
    dense = WORKLOADS["NAS_MG"](128).datatype.flatten()
    assert recommend_threshold(TESLA_V100, sparse) <= recommend_threshold(
        TESLA_V100, dense
    )


def test_recommend_threshold_multiple_matters():
    lay = WORKLOADS["MILC"](16).datatype.flatten()
    low = recommend_threshold(TESLA_V100, lay, launch_cost_multiple=1.0)
    high = recommend_threshold(TESLA_V100, lay, launch_cost_multiple=4.0)
    assert high >= low


def test_recommend_threshold_rejects_empty_layout():
    from repro.datatypes import DataLayout

    with pytest.raises(ValueError):
        recommend_threshold(TESLA_V100, DataLayout([], []))


def test_autotune_finds_interior_optimum():
    result = autotune_threshold(
        _base(), candidates=(16 * KiB, 128 * KiB, 4096 * KiB)
    )
    assert result.best_threshold == 128 * KiB
    assert result.best_latency == min(result.curve.values())
    assert len(result.curve) == 3
    assert "<-- best" in result.describe()


def test_autotune_validation():
    with pytest.raises(ValueError):
        autotune_threshold(_base("MILC", 8), candidates=())


def test_autotune_keeps_every_base_field():
    """Each candidate runs the caller's whole config, not a rebuilt one:
    system and protocol knobs survive into every point of the curve."""
    base = _base(
        dim=500, system=SystemCfg(name="ABCI"), protocol=ProtocolCfg(rendezvous="rget")
    )
    candidates = (64 * KiB, 256 * KiB)
    result = autotune_threshold(base, candidates=candidates)
    for threshold in candidates:
        cfg = base.with_overrides({"scheme.fusion.threshold_bytes": threshold})
        assert result.curve[threshold] == run_bulk_exchange(cfg).mean_latency
    rput = autotune_threshold(
        base.with_overrides({"protocol.rendezvous": "rput"}), candidates=candidates
    )
    assert rput.curve != result.curve


def test_model_recommendation_close_to_empirical():
    """The future-work claim: the model lands near the measured best."""
    spec = WORKLOADS["specfem3D_cm"](2000)
    rec = recommend_threshold(LASSEN.gpu_arch, spec.datatype.flatten())
    result = autotune_threshold(
        _base(dim=2000),
        candidates=(64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB),
    )
    # Within one sweep step (4x) of the empirical optimum.
    assert result.best_threshold / 4 <= rec <= result.best_threshold * 4

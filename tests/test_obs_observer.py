"""sim.obs integration — no-op default, timing neutrality, one source of truth."""

import pytest

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, FaultsCfg, HarnessCfg, SchemeCfg, WorkloadCfg
from repro.obs import NULL_OBSERVER, METRIC_CATALOG, NullObserver, Observer
from repro.sim import Simulator


def _run(scheme="Proposed", obs=None, faults=FaultsCfg(), data_plane=False, iterations=2):
    cfg = ExperimentConfig(
        workload=WorkloadCfg(name="specfem3D_cm", dim=200, nbuffers=4),
        scheme=SchemeCfg(name=scheme),
        faults=faults,
        harness=HarnessCfg(iterations=iterations, warmup=1, data_plane=data_plane),
    )
    return run_bulk_exchange(cfg, obs=obs)


# -- disabled telemetry is a strict no-op -----------------------------------


def test_simulator_defaults_to_the_null_observer():
    sim = Simulator()
    assert sim.obs is NULL_OBSERVER
    assert sim.obs.enabled is False


def test_null_observer_records_nothing():
    obs = NullObserver()
    obs.count("x_total")
    obs.gauge_set("g", 3)
    obs.observe("h", 0.5)
    obs.span("c", "s", 0.0, 1.0)
    obs.instant("c", "i", 0.5)
    assert obs.metrics.snapshot().names() == []
    assert len(obs.recorder) == 0


@pytest.mark.parametrize("scheme", ["GPU-Sync", "GPU-Async", "Proposed"])
def test_enabling_telemetry_does_not_change_simulated_time(scheme):
    """DESIGN.md §6: observation never touches the event calendar."""
    off = _run(scheme)
    on = _run(scheme, obs=Observer())
    assert on.latencies == off.latencies  # exact, not approx
    assert on.breakdown == off.breakdown


def test_telemetry_is_timing_neutral_under_faults():
    plan = FaultsCfg(preset="moderate", seed=7)
    default = _run(faults=plan, data_plane=True)   # internal observer
    recorded = _run(faults=plan, data_plane=True, obs=Observer())
    assert recorded.latencies == default.latencies


# -- live observation -------------------------------------------------------


def test_observer_populates_the_catalog_metrics():
    obs = Observer()
    result = _run(obs=obs)
    snap = result.metrics
    assert snap is not None
    # both ranks run identical symmetric programs
    assert snap.total("fusion_enqueued_total") == 2 * result.scheduler_stats.enqueued
    assert snap.total("fusion_launches_total") == 2 * result.scheduler_stats.launches
    assert snap.total("link_transfers_total") > 0
    assert snap.total("fusion_queue_latency_seconds") > 0
    # every update hit a pre-declared family (catalog covers hot paths)
    for name in snap.names():
        assert name in METRIC_CATALOG, name


def test_unfused_schemes_count_raw_kernel_launches():
    obs = Observer()
    _run("GPU-Sync", obs=obs)
    # GPU-Sync launches one kernel per buffer; fused launches are separate
    assert obs.snapshot().total("kernel_launches_total") > 0


def test_recorder_captures_request_lifecycle_and_rank_traces():
    obs = Observer()
    result = _run(obs=obs)
    cats = {e.category for e in obs.recorder.events}
    assert "request" in cats      # uid lifecycle spans
    assert "fusion" in cats       # enqueue instants / queued spans
    assert "link" in cats         # transfer spans
    # the runner absorbs each rank's cost-bucket trace onto the stream
    tracks = obs.recorder.tracks()
    assert f"{result.scheme}/rank0" in tracks
    assert f"{result.scheme}/rank1" in tracks


def test_const_labels_tag_every_series():
    obs = Observer(const_labels={"scheme": "Proposed"})
    _run(obs=obs)
    snap = obs.snapshot()
    fam = snap.family("fusion_enqueued_total")
    assert all(dict(key)["scheme"] == "Proposed" for key in fam["series"])


# -- one source of truth for recovery reporting -----------------------------


def test_recovery_report_is_built_from_the_metrics_snapshot():
    plan = FaultsCfg(preset="heavy", seed=11)
    result = _run(faults=plan, data_plane=True, iterations=3)
    rec, snap = result.recovery, result.metrics
    assert rec is not None and snap is not None
    assert rec.total_recoveries > 0  # heavy preset injects plenty
    assert rec.link_retransmits == int(snap.total("link_retransmits_total"))
    assert rec.link_fault_delay == pytest.approx(
        snap.total("link_fault_delay_seconds_total")
    )
    assert rec.rts_retransmits == int(snap.total("rts_retransmits_total"))
    assert rec.cts_resends == int(snap.total("cts_resends_total"))
    assert rec.relaunches == int(snap.total("sched_relaunches_total"))
    assert rec.batch_splits == int(snap.total("sched_batch_splits_total"))
    assert rec.sync_fallbacks == int(snap.total("sched_sync_fallbacks_total"))
    assert rec.launch_retries == int(snap.total("scheme_launch_retries_total"))
    assert rec.ring_fallbacks == int(snap.total("sched_ring_fallbacks_total"))


def test_fault_runs_always_carry_metrics():
    plan = FaultsCfg(preset="light", seed=3)
    result = _run(faults=plan, data_plane=True)
    assert result.metrics is not None
    assert result.recovery is not None

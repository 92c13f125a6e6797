#!/usr/bin/env python3
"""Tuning the fusion threshold — and escaping the tuning with a model.

Reproduces the Fig. 8 experiment interactively: sweep the fused-kernel
launch threshold for a sparse workload, watch the under-fused /
over-fused U-curve, then compare against the *model-based* policy (the
paper's stated future work) that launches whenever the cost model says
the pending batch out-runs one kernel-launch overhead — no per-system
byte constant required.

Run:  python examples/threshold_tuning.py
"""

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, HarnessCfg, WorkloadCfg
from repro.core import KernelFusionScheme, ModelBasedPolicy

KiB = 1024
THRESHOLDS = [16 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
              1024 * KiB, 2048 * KiB, 4096 * KiB]
WORKLOAD, DIM = "specfem3D_cm", 2000
BASE = ExperimentConfig(
    workload=WorkloadCfg(name=WORKLOAD, dim=DIM, nbuffers=16),
    harness=HarnessCfg(iterations=3, warmup=1, data_plane=False),
)


def run(cfg: ExperimentConfig, scheme_factory=None) -> tuple[float, object]:
    result = run_bulk_exchange(cfg, scheme_factory=scheme_factory)
    return result.mean_latency * 1e6, result.scheduler_stats


def model_based_scheme(site, trace):
    """The proposed scheme under the cost-model launch policy — a policy
    class the config tree cannot name, so it is passed as a live factory."""
    policy = ModelBasedPolicy(
        arch=site.device.arch, threshold_bytes=1 << 40, launch_cost_multiple=2.0
    )
    return KernelFusionScheme(site, trace, policy=policy)


def main() -> None:
    print(f"Fusion-threshold sweep: {WORKLOAD} dim={DIM}, 32 ops, Lassen\n")
    print(f"{'threshold':>12}{'latency':>12}{'kernels':>9}{'mean batch':>12}")
    print("-" * 45)
    curve = {}
    for threshold in THRESHOLDS:
        latency, stats = run(
            BASE.with_overrides({"scheme.fusion.threshold_bytes": threshold})
        )
        curve[threshold] = latency
        print(
            f"{threshold // KiB:>10}KB{latency:>10.1f}us{stats.launches:>9}"
            f"{stats.mean_batch:>12.1f}"
        )

    best_threshold = min(curve, key=curve.get)
    print(
        f"\nsweet spot: {best_threshold // KiB} KB "
        f"({curve[best_threshold]:.1f} us) — under-fused below, "
        "over-fused above (§IV-C)"
    )

    latency, stats = run(BASE, scheme_factory=model_based_scheme)
    print(
        f"\nmodel-based policy (no tuning): {latency:.1f} us "
        f"({stats.launches} fused kernels, mean batch {stats.mean_batch:.1f})"
    )
    gap = latency / curve[best_threshold]
    print(f"  within {gap:.2f}x of the hand-tuned optimum.")


if __name__ == "__main__":
    main()

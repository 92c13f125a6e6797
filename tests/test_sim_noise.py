"""Tests for the optional execution-noise model."""

import dataclasses

import numpy as np
import pytest

from repro.bench import run_bulk_exchange
from repro.config import ExperimentConfig, HarnessCfg, NoiseCfg, SchemeCfg, WorkloadCfg
from repro.sim import NoiseModel, Simulator, us
from repro.gpu import GPUDevice, TESLA_V100


def test_unit_mean_and_spread():
    noise = NoiseModel(seed=1, cv=0.1)
    samples = np.array([noise.factor() for _ in range(20000)])
    assert samples.mean() == pytest.approx(1.0, rel=0.01)
    assert samples.std() == pytest.approx(0.1, rel=0.1)
    assert (samples > 0).all()


def test_zero_cv_is_exact():
    noise = NoiseModel(seed=1, cv=0.0)
    assert noise.factor() == 1.0


def test_seed_reproducibility_per_channel():
    a = NoiseModel(seed=5, cv=0.2)
    b = NoiseModel(seed=5, cv=0.2)
    assert [a.factor("gpu") for _ in range(10)] == [b.factor("gpu") for _ in range(10)]
    # Channels are independent streams.
    c = NoiseModel(seed=5, cv=0.2)
    gpu = [c.factor("gpu") for _ in range(5)]
    d = NoiseModel(seed=5, cv=0.2)
    net = [d.factor("net") for _ in range(5)]
    assert gpu != net


def test_negative_cv_rejected():
    with pytest.raises(ValueError):
        NoiseModel(cv=-0.1)


def test_stream_durations_jitter():
    sim = Simulator()
    sim.noise = NoiseModel(seed=3, cv=0.2)
    dev = GPUDevice(sim, TESLA_V100)
    done = dev.default_stream.enqueue_callable(us(10))
    sim.run(done)
    assert sim.now != pytest.approx(us(10))  # jittered
    assert us(3) < sim.now < us(30)


def test_simulation_noise_free_by_default():
    sim = Simulator()
    dev = GPUDevice(sim, TESLA_V100)
    sim.run(dev.default_stream.enqueue_callable(us(10)))
    assert sim.now == pytest.approx(us(10))


def test_noisy_exchange_varies_but_averages_close():
    """With noise on, iterations differ (unlike the deterministic
    default) but the mean stays near the noise-free latency — the
    paper's 500-iteration averaging, demonstrated."""
    clean_cfg = ExperimentConfig(
        workload=WorkloadCfg(name="NAS_MG", dim=64, nbuffers=4),
        scheme=SchemeCfg(name="GPU-Sync"),
        harness=HarnessCfg(iterations=4, warmup=1, data_plane=False),
    )
    clean = run_bulk_exchange(clean_cfg)
    noisy = run_bulk_exchange(
        dataclasses.replace(clean_cfg, noise=NoiseCfg(cv=0.05, seed=11))
    )

    assert max(noisy.latencies) - min(noisy.latencies) > 1e-9  # varies
    assert noisy.mean_latency == pytest.approx(clean.mean_latency, rel=0.15)

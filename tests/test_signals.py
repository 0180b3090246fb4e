import numpy as np
import pytest

from latfold import (DegenerateSignalError, SignalConfig, generate_multisine,
                     make_test_signal, normalize_dr, sample_signal)
from latfold.signals import MultisineSignal, SampledSignal
from latfold.recovery import build_oob_operator


def test_single_cosine_at_origin():
    sig = MultisineSignal(freqs_hz=np.array([[1.0]]), amps=np.array([[1.0]]),
                          phases=np.array([[0.0]]), duration=1.0)
    assert sig(np.array([0.0]))[0, 0] == pytest.approx(1.0)


def test_sampling_rates():
    cfg = SignalConfig(n_channels=1, omega_max=10.0, of=6.0)
    assert cfg.fs == pytest.approx(120.0)
    assert SignalConfig(n_channels=1, omega_max=10.0, of=2.0).fs == pytest.approx(40.0)


def test_sample_count():
    cfg = SignalConfig(n_channels=1, omega_max=10.0, of=6.0, duration=1.0, seed=1)
    sampled = sample_signal(generate_multisine(cfg), cfg)
    assert sampled.samples.shape == (120, 1)
    assert sampled.t0 == 0.0


def test_reproducibility():
    cfg = SignalConfig(n_channels=3, seed=123)
    a = sample_signal(generate_multisine(cfg), cfg)
    b = sample_signal(generate_multisine(cfg), cfg)
    assert np.array_equal(a.samples, b.samples)


def test_normalize_peak():
    cfg = SignalConfig(n_channels=2, seed=5)
    sampled = sample_signal(generate_multisine(cfg), cfg)
    normalized, c = normalize_dr(sampled, lam=1.0, gamma=3.0)
    assert np.abs(normalized.samples).max() == pytest.approx(3.0, abs=1e-9)
    assert c > 0


def test_normalize_identity_when_already_normalized():
    cfg = SignalConfig(n_channels=1, seed=9)
    sampled = sample_signal(generate_multisine(cfg), cfg)
    once, _ = normalize_dr(sampled, 1.0, 3.0)
    twice, c = normalize_dr(once, 1.0, 3.0)
    assert c == pytest.approx(1.0)
    assert np.allclose(once.samples, twice.samples)


def test_normalize_rejects_zero_signal():
    zero = SampledSignal(samples=np.zeros((10, 2)), fs=10.0)
    with pytest.raises(DegenerateSignalError):
        normalize_dr(zero, 1.0, 3.0)


def test_eight_channel_study_normalization():
    cfg = SignalConfig(n_channels=8, n_components=14, omega_max=10.0, of=6.0,
                       dr_factor=10.0, seed=2)
    _, sampled = make_test_signal(cfg, lam=0.1)
    assert sampled.samples.shape == (120, 8)
    assert np.abs(sampled.samples).max() == pytest.approx(1.0, abs=1e-9)


def test_snapped_record_has_no_out_of_band_energy():
    cfg = SignalConfig(n_channels=4, omega_max=10.0, of=6.0, seed=7)
    handle, sampled = make_test_signal(cfg, lam=1.0)
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    assert oob.energy_fraction(sampled.samples) <= 1e-8


def test_zero_mean_record():
    # grid frequencies start at one cycle per record, so the mean is exact zero
    cfg = SignalConfig(n_channels=3, seed=11)
    sampled = sample_signal(generate_multisine(cfg), cfg)
    assert np.allclose(sampled.samples.mean(axis=0), 0.0, atol=1e-10)


def test_complex_pair_mode():
    cfg = SignalConfig(n_channels=2, complex_pair=True, seed=3)
    handle = generate_multisine(cfg)
    sampled = sample_signal(handle, cfg)
    assert sampled.samples.shape[1] == 2
    assert handle.occupied_band_hz <= cfg.omega_max
    # negative frequencies allowed in complex mode
    assert handle.freqs_hz.ndim == 1


def test_complex_pair_needs_two_channels():
    with pytest.raises(ValueError):
        SignalConfig(n_channels=3, complex_pair=True)


def test_of_must_exceed_one():
    with pytest.raises(ValueError):
        SignalConfig(n_channels=1, of=1.0)


def test_scaled_handle_matches_samples():
    cfg = SignalConfig(n_channels=2, seed=21)
    handle, sampled = make_test_signal(cfg, lam=0.5)
    t = sampled.times
    assert np.allclose(handle(t), sampled.samples, atol=1e-12)

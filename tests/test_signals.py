import math
import re

import numpy as np
import pytest

from latfold import ConfigurationError, DegenerateSignalError, SignalConfig, make_test_signal
from latfold.experiments import emit_trajectory_demo
from latfold.signals import _normalize
from latfold.recovery import build_oob_operator


def test_sampling_rates():
    cfg = SignalConfig(n_channels=1, of=6.0)
    assert cfg.fs == pytest.approx(120.0)
    assert SignalConfig(n_channels=1, of=2.0).fs == pytest.approx(40.0)


def test_sample_count():
    cfg = SignalConfig(n_channels=1, of=6.0, seed=1)
    samples, _ = make_test_signal(cfg, lam=1.0)
    assert samples.shape == (120, 1)


def test_reproducibility():
    cfg = SignalConfig(n_channels=3, seed=123)
    a, band_a = make_test_signal(cfg, lam=1.0)
    b, band_b = make_test_signal(cfg, lam=1.0)
    assert np.array_equal(a, b)
    assert band_a == band_b


def test_normalize_peak():
    cfg = SignalConfig(n_channels=2, dr_factor=3.0, seed=5)
    samples, _ = make_test_signal(cfg, lam=1.0)
    assert np.abs(samples).max() == pytest.approx(3.0, abs=1e-9)


def test_normalize_rejects_zero_signal():
    with pytest.raises(DegenerateSignalError):
        _normalize(np.zeros((10, 2)), 3.0)


def test_eight_channel_study_normalization():
    cfg = SignalConfig(n_channels=8, of=6.0, dr_factor=10.0, seed=2)
    samples, _ = make_test_signal(cfg, lam=0.1)
    assert samples.shape == (120, 8)
    assert np.abs(samples).max() == pytest.approx(1.0, abs=1e-9)


def test_snapped_record_has_no_out_of_band_energy():
    cfg = SignalConfig(n_channels=4, of=6.0, seed=7)
    f, _ = make_test_signal(cfg, lam=1.0)
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    assert (np.abs(oob.apply(f)) ** 2).sum() <= 1e-8 * oob.K * (f ** 2).sum()


def test_zero_mean_record():
    # grid frequencies start at one cycle per record, so the mean is exact zero
    cfg = SignalConfig(n_channels=3, seed=11)
    samples, _ = make_test_signal(cfg, lam=1.0)
    assert np.allclose(samples.mean(axis=0), 0.0, atol=1e-10)


def test_single_component_occupies_one_bin():
    # grid-snapped cosines: DFT energy only at bins +-m, 1 <= m <= omega_max * duration
    cfg = SignalConfig(n_channels=3, seed=4)
    f, band = make_test_signal(cfg, lam=1.0)
    m_cap = cfg.omega_max * cfg.duration
    assert 1 <= band * cfg.duration <= m_cap
    for channel in f.T:
        spectrum = np.abs(np.fft.fft(channel))
        bins = np.flatnonzero(spectrum > 1e-9 * spectrum.max())
        m = np.minimum(bins, len(f) - bins)
        assert bins.size and m.min() >= 1 and m.max() <= m_cap


def test_complex_pair_mode():
    cfg = SignalConfig(n_channels=2, complex_pair=True, seed=3)
    f, band = make_test_signal(cfg, lam=1.0)
    assert f.shape[1] == 2
    assert band <= cfg.omega_max
    # negative frequencies allowed in complex mode: Re + j Im has content
    # in both halves of the spectrum
    spectrum = np.abs(np.fft.fft(f[:, 0] + 1j * f[:, 1]))
    half = len(f) // 2
    assert spectrum[1:half].max() > 1e-3 * spectrum.max()
    assert spectrum[half + 1:].max() > 1e-3 * spectrum.max()


def test_complex_pair_needs_two_channels():
    with pytest.raises(ConfigurationError, match="complex_pair needs n_channels 2, got 3"):
        SignalConfig(n_channels=3, complex_pair=True)


def test_of_must_exceed_one():
    with pytest.raises(ValueError):
        SignalConfig(n_channels=1, of=1.0)


@pytest.mark.parametrize("field,value", [
    *((field, value) for field in ("of", "dr_factor")
      for value in (math.nan, math.inf, 0.0, -1.0)),
    ("seed", -1), ("seed", 1.5)])
def test_bad_fields_rejected_up_front(field, value):
    bound = {"of": "above 1 and finite", "seed": "an integer >= 0"}.get(field, "positive and finite")
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{field} must be {bound}, got {value!r}")):
        SignalConfig(n_channels=1, **{field: value})


def test_demo_with_bad_seed_creates_no_directory(tmp_path):
    with pytest.raises(ConfigurationError, match="seed must be an integer >= 0, got -1"):
        emit_trajectory_demo(tmp_path / "out", seed=-1)
    assert not (tmp_path / "out").exists()

import math

import numpy as np
import pytest

from latfold import (E8, ZN, NonFiniteInputError, add_noise, fold_signal,
                     lattice_quantize, make_lattice, sample_uniform_cell,
                     scalar_quantize)


def _cell_samples(family, n, lam, m, seed=0):
    """``m`` uniform samples of the cell, and the lattice."""
    lat = make_lattice(family, n, lam)
    return sample_uniform_cell(lat, np.random.default_rng(seed), m), lat


def test_noise_hits_target_snr():
    y, _ = _cell_samples(ZN, 4, 1.0, 250000)
    noise = add_noise(y, 20.0, seed=1) - y
    snr = 10 * np.log10(((y**2).sum() / y.size) / (noise**2).mean())
    assert snr == pytest.approx(20.0, abs=0.1)


def test_noise_power_tracks_folded_power():
    # at equal inradius and SNR the absolute noise power follows the
    # folded power, whose cube/E8 ratio is the second-moment ratio
    sq, _ = _cell_samples(ZN, 8, 1.0, 300000, seed=3)
    e8, _ = _cell_samples(E8, 8, 1.0, 300000, seed=4)
    n_sq = add_noise(sq, 20.0, seed=5) - sq
    n_e8 = add_noise(e8, 20.0, seed=6) - e8
    ratio = (n_e8**2).mean() / (n_sq**2).mean()
    assert ratio == pytest.approx(0.430, abs=0.015)


def test_scalar_quantizer_grid():
    out = scalar_quantize(np.array([[0.3]]), 2, 1.0)
    assert out[0, 0] == pytest.approx(0.5)


def test_scalar_quantizer_mse_law():
    y, _ = _cell_samples(ZN, 1, 1.0, 500000)
    for bits in (3, 5):
        step = 2.0 / 2**bits
        mse = ((scalar_quantize(y, bits, 1.0) - y) ** 2).mean()
        assert mse == pytest.approx(step**2 / 12, rel=0.02)


def test_scalar_quantizer_determinism():
    y, _ = _cell_samples(ZN, 2, 1.0, 1000)
    a = scalar_quantize(y, 4, 1.0)
    b = scalar_quantize(y, 4, 1.0)
    assert np.array_equal(a, b)


def test_mismatched_quantizer_null_result():
    # a common scalar grid gives the same MSE on cube- and E8-folded data
    m = 400000
    sq, _ = _cell_samples(ZN, 8, 1.0, m, seed=7)
    e8, _ = _cell_samples(E8, 8, 1.0, m, seed=8)
    for bits in (6, 8):
        err_sq = ((scalar_quantize(sq, bits, 1.0) - sq) ** 2).sum(axis=1)
        err_e8 = ((scalar_quantize(e8, bits, 1.0) - e8) ** 2).sum(axis=1)
        diff = err_e8.mean() - err_sq.mean()
        sigma = np.hypot(err_sq.std() / np.sqrt(m), err_e8.std() / np.sqrt(m))
        assert abs(diff) < 3 * sigma


def test_lattice_quantizer_error_in_scaled_cell():
    y, lat = _cell_samples(E8, 8, 1.0, 2000, seed=9)
    bits = 3
    err = y - lattice_quantize(y, lat, bits)
    from latfold import nearest_point
    assert np.allclose(nearest_point(err * 2**bits, lat), 0.0, atol=1e-9)


def test_lattice_quantizer_mse_law():
    y, lat = _cell_samples(E8, 8, 1.0, 300000, seed=10)
    base = (y**2).sum(axis=1).mean()
    for bits in (2, 4):
        mse = ((y - lattice_quantize(y, lat, bits)) ** 2).sum(axis=1).mean()
        assert mse == pytest.approx(base * 4.0 ** (-bits), rel=0.02)


def test_matched_vs_scalar_ratio():
    m = 300000
    e8, e8_lat = _cell_samples(E8, 8, 1.0, m, seed=11)
    sq, _ = _cell_samples(ZN, 8, 1.0, m, seed=12)
    bits = 4
    err_lat = ((lattice_quantize(e8, e8_lat, bits) - e8) ** 2).sum(1).mean()
    err_sq = ((scalar_quantize(sq, bits, 1.0) - sq) ** 2).sum(1).mean()
    assert err_lat / err_sq == pytest.approx(0.430, abs=0.43 * 0.02)


def test_channel_input_validation():
    y, lat = _cell_samples(ZN, 2, 1.0, 10)
    for snr_db in (-3.0, 0.0, -math.inf, math.nan, True):
        with pytest.raises(ValueError):
            add_noise(y, snr_db, seed=0)
    for bits in (25, 0, -math.inf, math.nan, True):
        with pytest.raises(ValueError):
            scalar_quantize(y, bits, 1.0)
        with pytest.raises(ValueError):
            lattice_quantize(y, lat, bits)


# Infinite SNR or bits is not an identity channel: a noiseless cell carries
# a None level and never reaches a channel, so each channel rejects inf.
def test_noise_identity_at_infinite_snr():
    y, _ = _cell_samples(ZN, 2, 1.0, 10)
    with pytest.raises(ValueError, match="snr_db"):
        add_noise(y, math.inf, seed=0)


def test_scalar_quantizer_identity_infinite_bits():
    y, _ = _cell_samples(ZN, 2, 1.0, 10)
    with pytest.raises(ValueError, match="bits"):
        scalar_quantize(y, math.inf, 1.0)


def test_lattice_quantizer_identity_infinite_bits():
    y, lat = _cell_samples(E8, 8, 1.0, 10)
    with pytest.raises(ValueError, match="bits"):
        lattice_quantize(y, lat, math.inf)


def test_quantizers_reject_non_integer_bits():
    # 2.5 bits must not run as 2 bits; an integral float (from JSON) is fine
    y, lat = _cell_samples(E8, 8, 1.0, 10)
    for quantize in (lambda b: scalar_quantize(y, b, 1.0),
                     lambda b: lattice_quantize(y, lat, b)):
        with pytest.raises(ValueError, match="got 2.5"):
            quantize(2.5)
        assert np.array_equal(quantize(8.0), quantize(8))


def test_fold_signal_offsets_consistent():
    lat = make_lattice(ZN, 2, 1.0)
    f = np.array([[2.5, -3.1], [0.2, 0.9]])
    y, offsets = fold_signal(f, lat)
    assert np.allclose(y + offsets, f)


def test_fold_signal_returns_read_only_arrays():
    f = np.array([[2.5, -3.1], [0.2, 0.9]])
    for a in fold_signal(f, make_lattice(ZN, 2, 1.0)):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("channel", [
    lambda y, lat: add_noise(y, 20.0, seed=0),
    lambda y, lat: scalar_quantize(y, 4, 1.0),
    lambda y, lat: lattice_quantize(y, lat, 4),
], ids=["add_noise", "scalar_quantize", "lattice_quantize"])
def test_channels_reject_non_finite_samples(channel, bad):
    y, lat = _cell_samples(E8, 8, 1.0, 10)
    y[3, 5] = bad
    with pytest.raises(NonFiniteInputError):
        channel(y, lat)

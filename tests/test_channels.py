import math

import numpy as np
import pytest

from latfold import (E8, FoldedRecord, ZN, add_noise, fold_signal,
                     lattice_quantize, make_lattice, sample_uniform_cell,
                     scalar_quantize)


def _cell_record(family, n, lam, m, seed=0):
    lat = make_lattice(family, n, lam)
    r = sample_uniform_cell(lat, np.random.default_rng(seed), m)
    return FoldedRecord(samples=r, lattice=lat)


def test_noise_identity_at_infinite_snr():
    rec = _cell_record(ZN, 2, 1.0, 100)
    out = add_noise(rec, math.inf, seed=0)
    assert out is rec


def test_noise_hits_target_snr():
    rec = _cell_record(ZN, 4, 1.0, 250000)
    out = add_noise(rec, 20.0, seed=1)
    noise = out.samples - rec.samples
    snr = 10 * np.log10(rec.per_dim_power / (noise**2).mean())
    assert snr == pytest.approx(20.0, abs=0.1)


def test_uniform_noise_law_matches_variance():
    rec = _cell_record(ZN, 4, 1.0, 250000)
    out = add_noise(rec, 15.0, seed=2, law="uniform")
    noise = out.samples - rec.samples
    target = rec.per_dim_power * 10 ** (-1.5)
    assert (noise**2).mean() == pytest.approx(target, rel=0.01)
    assert np.abs(noise).max() <= math.sqrt(3 * target) * (1 + 1e-12)


def test_noise_power_tracks_folded_power():
    # at equal inradius and SNR the absolute noise power follows the
    # folded power, whose cube/E8 ratio is the second-moment ratio
    sq = _cell_record(ZN, 8, 1.0, 300000, seed=3)
    e8 = _cell_record(E8, 8, 1.0, 300000, seed=4)
    n_sq = add_noise(sq, 20.0, seed=5).samples - sq.samples
    n_e8 = add_noise(e8, 20.0, seed=6).samples - e8.samples
    ratio = (n_e8**2).mean() / (n_sq**2).mean()
    assert ratio == pytest.approx(0.430, abs=0.015)


def test_scalar_quantizer_identity_infinite_bits():
    rec = _cell_record(ZN, 2, 1.0, 100)
    assert scalar_quantize(rec, math.inf, 1.0) is rec


def test_scalar_quantizer_grid():
    rec = FoldedRecord(samples=np.array([[0.3]]), lattice=make_lattice(ZN, 1, 1.0))
    out = scalar_quantize(rec, 2, 1.0)
    assert out.samples[0, 0] == pytest.approx(0.5)


def test_scalar_quantizer_mse_law():
    rec = _cell_record(ZN, 1, 1.0, 500000)
    for bits in (3, 5):
        step = 2.0 / 2**bits
        out = scalar_quantize(rec, bits, 1.0)
        mse = ((out.samples - rec.samples) ** 2).mean()
        assert mse == pytest.approx(step**2 / 12, rel=0.02)


def test_scalar_quantizer_determinism():
    rec = _cell_record(ZN, 2, 1.0, 1000)
    a = scalar_quantize(rec, 4, 1.0).samples
    b = scalar_quantize(rec, 4, 1.0).samples
    assert np.array_equal(a, b)


def test_mismatched_quantizer_null_result():
    # a common scalar grid gives the same MSE on cube- and E8-folded data
    m = 400000
    sq = _cell_record(ZN, 8, 1.0, m, seed=7)
    e8 = _cell_record(E8, 8, 1.0, m, seed=8)
    for bits in (6, 8):
        m_sq = scalar_quantize(sq, bits, 1.0).samples
        m_e8 = scalar_quantize(e8, bits, 1.0).samples
        err_sq = ((m_sq - sq.samples) ** 2).sum(axis=1)
        err_e8 = ((m_e8 - e8.samples) ** 2).sum(axis=1)
        diff = err_e8.mean() - err_sq.mean()
        sigma = np.hypot(err_sq.std() / np.sqrt(m), err_e8.std() / np.sqrt(m))
        assert abs(diff) < 3 * sigma


def test_lattice_quantizer_identity_infinite_bits():
    rec = _cell_record(E8, 8, 1.0, 10)
    assert lattice_quantize(rec, rec.lattice, math.inf) is rec


def test_lattice_quantizer_error_in_scaled_cell():
    rec = _cell_record(E8, 8, 1.0, 2000, seed=9)
    bits = 3
    out = lattice_quantize(rec, rec.lattice, bits)
    err = rec.samples - out.samples
    from latfold import nearest_point
    assert np.allclose(nearest_point(err * 2**bits, rec.lattice), 0.0, atol=1e-9)


def test_lattice_quantizer_mse_law():
    rec = _cell_record(E8, 8, 1.0, 300000, seed=10)
    base = (rec.samples**2).sum(axis=1).mean()
    for bits in (2, 4):
        out = lattice_quantize(rec, rec.lattice, bits)
        mse = ((rec.samples - out.samples) ** 2).sum(axis=1).mean()
        assert mse == pytest.approx(base * 4.0 ** (-bits), rel=0.02)


def test_matched_vs_scalar_ratio():
    m = 300000
    e8 = _cell_record(E8, 8, 1.0, m, seed=11)
    sq = _cell_record(ZN, 8, 1.0, m, seed=12)
    bits = 4
    err_lat = ((lattice_quantize(e8, e8.lattice, bits).samples - e8.samples) ** 2).sum(1).mean()
    err_sq = ((scalar_quantize(sq, bits, 1.0).samples - sq.samples) ** 2).sum(1).mean()
    assert err_lat / err_sq == pytest.approx(0.430, abs=0.43 * 0.02)


def test_channel_input_validation():
    rec = _cell_record(ZN, 2, 1.0, 10)
    for snr_db in (-3.0, 0.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            add_noise(rec, snr_db, seed=0)
    for bits in (25, 0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            scalar_quantize(rec, bits, 1.0)
        with pytest.raises(ValueError):
            lattice_quantize(rec, rec.lattice, bits)


def test_quantizers_reject_non_integer_bits():
    # 2.5 bits must not run as 2 bits; an integral float (from JSON) is fine
    rec = _cell_record(E8, 8, 1.0, 10)
    for quantize in (lambda b: scalar_quantize(rec, b, 1.0),
                     lambda b: lattice_quantize(rec, rec.lattice, b)):
        with pytest.raises(ValueError, match="got 2.5"):
            quantize(2.5)
        assert np.array_equal(quantize(8.0).samples, quantize(8).samples)


def test_fold_signal_offsets_consistent():
    lat = make_lattice(ZN, 2, 1.0)
    f = np.array([[2.5, -3.1], [0.2, 0.9]])
    rec, offsets = fold_signal(f, lat)
    assert np.allclose(rec.samples + offsets, f)

import hashlib
import json
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from latfold import (A2, DN, E8, ZN, ConfigurationError, equivalent_gains,
                     estimate_second_moment, make_lattice, mse_ratio,
                     nearest_point, predicted_mse, sample_uniform_cell,
                     table1_report)
from latfold import moments
from latfold.moments import (ESTIMATED_FAMILIES, G_CUBIC, format_report_csv,
                             format_report_text)


def test_uniform_cell_mean_zero():
    lat = make_lattice(A2, 2, 1.0)
    rng = np.random.default_rng(0)
    r = sample_uniform_cell(lat, rng, 10**5)
    se = r.std(axis=0) / np.sqrt(len(r))
    assert np.all(np.abs(r.mean(axis=0)) < 4 * se)


def test_uniform_cell_samples_fold_to_zero():
    for fam, n in [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 0.5)
        rng = np.random.default_rng(1)
        r = sample_uniform_cell(lat, rng, 2000)
        assert np.allclose(nearest_point(r, lat), 0.0)


def test_uniform_cell_z1_variance():
    lat = make_lattice(ZN, 1, 1.0)
    rng = np.random.default_rng(2)
    r = sample_uniform_cell(lat, rng, 10**6)
    assert (r**2).mean() == pytest.approx(1.0 / 3.0, rel=0.01)


def test_second_moment_z():
    lat = make_lattice(ZN, 1, 1.0)
    est = estimate_second_moment(lat, 10**5, seed=0)
    assert est.G == pytest.approx(1.0 / 12.0, abs=1.5e-3)
    assert est.mse_per_cell == pytest.approx(
        lat.n * est.G * lat.volume ** (2 / lat.n), rel=1e-12)


def test_second_moment_a2():
    lat = make_lattice(A2, 2, 1.0)
    est = estimate_second_moment(lat, 2 * 10**5, seed=1)
    assert est.G == pytest.approx(5.0 / (36.0 * np.sqrt(3.0)), abs=1e-3)


def test_second_moment_e8():
    lat = make_lattice(E8, 8, 1.0)
    est = estimate_second_moment(lat, 2 * 10**5, seed=2)
    assert est.G == pytest.approx(0.0717, abs=1e-3)


def test_second_moment_requires_enough_samples():
    lat = make_lattice(ZN, 1, 1.0)
    with pytest.raises(ConfigurationError):
        estimate_second_moment(lat, 100, seed=0)


def test_second_moment_lam_invariant():
    a = estimate_second_moment(make_lattice(A2, 2, 0.1), 10**5, seed=3)
    b = estimate_second_moment(make_lattice(A2, 2, 1.0), 10**5, seed=4)
    tol = 3 * np.hypot(a.std_err, b.std_err)
    assert abs(a.G - b.G) < tol


def test_second_moment_worker_count_invariant():
    lat = make_lattice(DN, 4, 1.0)
    a = estimate_second_moment(lat, 10**5, seed=5, workers=1)
    b = estimate_second_moment(lat, 10**5, seed=5, workers=4)
    assert a.G == b.G and a.std_err == b.std_err


def test_table1_pinned_across_chunks_and_workers():
    # two chunks, the second ending in a partial tile; the digest is of the
    # JSON that ``latfold table1 --format json`` writes
    n = 2**18 + 4099
    for workers in (1, 2, None, 3):
        rows = table1_report(n_samples=n, seed=0, workers=workers)
        out = json.dumps(rows, indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c0bbe799a75861ceeb5d7dd21f0ec9238c1f32a0afdc0277d0ba0217de0f6ce3")


def test_table1_shared_pool_matches_each_family_alone():
    n = 2**18 + 10**4
    rows = {r["name"]: r for r in table1_report(n_samples=n, seed=7, workers=2)}
    for name, family, dim in ESTIMATED_FAMILIES:
        alone = estimate_second_moment(make_lattice(family, dim, 1.0), n, seed=7, workers=1)
        assert (rows[name]["G"], rows[name]["std_err"]) == (alone.G, alone.std_err), name


def test_default_workers_follow_cpu_affinity(monkeypatch):
    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(moments, "ThreadPoolExecutor", RecordingPool)
    lat = make_lattice(ZN, 1, 1.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    estimate_second_moment(lat, 10**4, seed=0)
    table1_report(n_samples=10**4, seed=0)
    estimate_second_moment(lat, 10**4, seed=0, workers=2)     # an explicit count wins
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    estimate_second_moment(lat, 10**4, seed=0)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    estimate_second_moment(lat, 10**4, seed=0)
    assert pools == [3, 3, 2, 4, 1]


def test_second_moment_peak_memory_below_one_chunk_draw():
    # two chunks, so with two workers both are in flight at once
    lat = make_lattice(E8, 8, 1.0)
    for workers in (1, 2):
        tracemalloc.start()
        try:
            estimate_second_moment(lat, 2**19, seed=0, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18 * 8 * 8, workers    # bytes of one chunk's (2^18, 8) draw


def test_std_err_scaling():
    lat = make_lattice(ZN, 2, 1.0)
    a = estimate_second_moment(lat, 10**4, seed=6)
    b = estimate_second_moment(lat, 10**6, seed=6)
    assert a.std_err / b.std_err == pytest.approx(10.0, rel=0.3)
    # and the estimate is consistent with the known value at 4 sigma
    assert abs(b.G - G_CUBIC) < 4 * b.std_err


def test_predicted_mse_examples():
    z1 = make_lattice(ZN, 1, 1.0)
    assert predicted_mse(z1, 1.0 / 12.0) == pytest.approx(1.0 / 3.0)
    sq = make_lattice(ZN, 2, 1.0)
    assert predicted_mse(sq, 1.0 / 12.0) == pytest.approx(2.0 / 3.0)
    e8 = make_lattice(E8, 8, 1.0)
    assert predicted_mse(e8, 0.0717) == pytest.approx(8 * 0.0717 * 2.0, rel=1e-12)
    assert predicted_mse(e8, 0.0717) == pytest.approx(1.147, abs=2e-3)


def test_mse_ratio_hexagon():
    hexl = make_lattice(A2, 2, 1.0)
    sq = make_lattice(ZN, 2, 1.0)
    r = mse_ratio(hexl, sq, 5.0 / (36 * np.sqrt(3)), G_CUBIC)
    assert r == pytest.approx(5.0 / 6.0, rel=1e-12)


def test_mse_ratio_e8():
    e8 = make_lattice(E8, 8, 1.0)
    cube = make_lattice(ZN, 8, 1.0)
    r = mse_ratio(e8, cube, 0.0717, G_CUBIC)
    assert r == pytest.approx(0.430, abs=1e-3)


def test_mse_ratio_self_is_one():
    lat = make_lattice(DN, 4, 2.0)
    assert mse_ratio(lat, lat, 0.0766, 0.0766) == pytest.approx(1.0)


def test_mse_ratio_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        mse_ratio(make_lattice(ZN, 2, 1.0), make_lattice(ZN, 3, 1.0), 1, 1)


def test_equivalent_gains_e8():
    g = equivalent_gains(0.430)
    assert g.snr_db == pytest.approx(3.67, abs=0.01)
    assert g.of_factor == pytest.approx(2.3, abs=0.05)
    assert g.bits_saved == pytest.approx(0.6, abs=0.02)


def test_equivalent_gains_leech():
    g = equivalent_gains(0.197)
    assert g.snr_db == pytest.approx(7.06, abs=0.01)
    assert g.of_factor == pytest.approx(5.0, abs=0.1)
    assert g.bits_saved == pytest.approx(1.2, abs=0.05)


def test_equivalent_gains_unity():
    g = equivalent_gains(1.0)
    assert g.snr_db == 0.0 and g.of_factor == 1.0 and g.bits_saved == 0.0


def test_equivalent_gains_domain():
    with pytest.raises(ConfigurationError):
        equivalent_gains(1.5)
    with pytest.raises(ConfigurationError):
        equivalent_gains(0.0)


def test_table1_rows():
    rows = table1_report(n_samples=5 * 10**4, seed=0)
    byname = {r["name"]: r for r in rows}
    d4 = byname["d4"]
    assert d4["G"] == pytest.approx(0.0766, abs=2e-3)
    assert d4["volume_ratio"] == pytest.approx(0.5)
    assert d4["mse_ratio"] == pytest.approx(0.650, abs=0.01)
    assert byname["a2"]["mse_ratio"] == pytest.approx(0.833, abs=0.01)
    # the cubic baseline row is the trivial ratio (up to Monte Carlo noise)
    assert byname["z"]["mse_ratio"] == pytest.approx(1.0, abs=0.02)
    # display-only constants
    assert not byname["leech24"]["estimated"]
    assert byname["leech24"]["G"] == 0.0658
    assert not byname["a3*"]["estimated"]
    assert byname["a3*"]["G"] == 0.0785


def test_report_formats():
    rows = table1_report(n_samples=10**4 * 2, seed=1)
    csv = format_report_csv(rows)
    txt = format_report_text(rows)
    assert csv.startswith("name,n,G")
    assert "constant, not estimated" in csv
    assert "leech24" in txt

"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The whole module takes 6.0-6.3 s on 2 vCPUs; every
criterion prints its runtime. Criteria 5-7 read the cells of small sweeps
(``run_sweep``), so they run the sweep's own trials on its seeds.
"""

import math
import time

import numpy as np

from latfold import (A2, DN, E8, ZN, ExperimentConfig, SignalConfig,
                     check_recovery, fold, fold_iterative, fold_signal,
                     hod_recover, make_lattice, make_test_signal,
                     nearest_point, quantize_bench, relevant_vectors,
                     run_sweep, table1_report)
from latfold.experiments import emit_trajectory_demo
from oracles import closest_point


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_example_exactness():
    x = np.array([2.3, -3.1, 5.6, 1.2, -4.4, 3.1, 6.7, -2.2])
    lat = make_lattice(E8, 8, 1.0 / np.sqrt(2.0))     # unit-scale E8
    nearest_point(x, lat)                             # warm caches
    t0 = time.perf_counter()
    q = nearest_point(x, lat)
    r = x - q
    dt = time.perf_counter() - t0
    ok = (np.abs(q - np.array([2, -3, 6, 1, -4, 3, 7, -2])).max() < 1e-12
          and np.abs(r - np.array([0.3, -0.1, -0.4, 0.2, -0.4, 0.1, -0.3, -0.2])).max() < 1e-12
          and dt < 1e-3)
    # fold gives the same pair
    r2, q2 = fold(x, lat)
    ok = ok and np.abs(q2 - q).max() < 1e-12 and np.abs(r2 - r).max() < 1e-12
    _report(1, ok, f"reference decode and fold reproduced exactly ({dt*1e3:.2f} ms)")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    lam = 1.0
    rng = np.random.default_rng(2024)
    n_pts = 10**4
    mismatches = {}
    for family, n in [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(family, n, lam)
        x = rng.uniform(-5 * lam, 5 * lam, (n_pts, n))
        x += 1e-6 * rng.standard_normal(x.shape)   # stay off tie sets
        got = nearest_point(x, lat)
        ref = closest_point(x, lat.basis)
        d_got = ((x - got) ** 2).sum(axis=1)
        d_ref = ((x - ref) ** 2).sum(axis=1)
        bad = int((~np.isclose(d_got, d_ref, rtol=1e-10, atol=1e-12)).sum())
        mismatches[family] = bad
    dt = time.perf_counter() - t0
    ok = all(v == 0 for v in mismatches.values()) and dt < 30.0
    _report(2, ok, f"1e4 points per lattice match brute force "
                   f"{mismatches} ({dt:.1f}s)")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_second_moment_table():
    t0 = time.perf_counter()
    rows = {r["name"]: r for r in table1_report(10**6, seed=17)}
    targets = {ZN: ("z", 0.0833), A2: ("a2", 0.0802), DN: ("d4", 0.0766), E8: ("e8", 0.0717)}
    ratio_targets = {A2: 0.833, DN: 0.650, E8: 0.430}
    g_err = {family: abs(rows[name]["G"] - g_ref) for family, (name, g_ref) in targets.items()}
    ratio_err = {family: abs(rows[targets[family][0]]["mse_ratio"] - ratio) / ratio
                 for family, ratio in ratio_targets.items()}
    dt = time.perf_counter() - t0
    ok = (all(v < 5e-4 for v in g_err.values())
          and all(v < 0.01 for v in ratio_err.values())
          and dt < 120.0)
    detail = ("G errors " + ", ".join(f"{k}:{v:.1e}" for k, v in g_err.items())
              + "; ratio rel errors "
              + ", ".join(f"{k}:{v:.2%}" for k, v in ratio_err.items())
              + f" ({dt:.0f}s)")
    _report(3, ok, detail)


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_quantizer_laws():
    report = quantize_bench(400000, seed=4, bits=(2, 4, 6))
    worst = max(abs(row["ratio"] - 1.0)
                for rows in report["matched"].values() for row in rows.values())
    law_ok = worst < 0.02

    null_ok = True
    sig_margin = 0.0
    for row in report["mismatched"].values():
        diff = abs(row["e8_folded"] - row["cube_folded"])
        sig_margin = max(sig_margin, diff / row["std_err"])
        null_ok = null_ok and diff < 3 * row["std_err"]
    ok = law_ok and null_ok
    _report(4, ok, f"matched law worst dev {worst:.2%} (<2%); mismatched null "
                   f"within {sig_margin:.1f} sigma (<3)")


# ------------------------------------------------------- recovery machinery

def _sweep(**grid):
    """The cells of a sweep on the default seeds, by (architecture, OF, level)."""
    return {(c.architecture, c.of, c.level): c for c in run_sweep(ExperimentConfig(**grid)).cells}


def _gains_db(a, b):
    """Per-trial MSE gain of cell ``a`` over cell ``b``, over the trials both recovered."""
    return [10 * math.log10(x[1] / y[1]) for x, y in zip(a.trials, b.trials)
            if x and x[0] and y and y[0]]


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_noiseless_recovery():
    t0 = time.perf_counter()
    rates = {key[:2]: c.rate for key, c in _sweep(n_trials=50).items()}
    b2r2_ok = len(rates) == 8 and all(r == 1.0 for r in rates.values())

    # higher-order differences on the 1D and 2D demos at OF = 8, N = 2
    hod_ok = True
    for n_ch, cplx, fams in [(1, False, (ZN,)), (2, True, (ZN, A2))]:
        for family in fams:
            lat = make_lattice(family, n_ch if family == ZN else 2, 1.0)
            n_good = 0
            for trial in range(50):
                seed = trial
                for _ in range(400):
                    cfg = SignalConfig(n_channels=n_ch, of=8.0, dr_factor=3.0,
                                       seed=seed, complex_pair=cplx)
                    f, _ = make_test_signal(cfg, 1.0)
                    y, p_true = fold_signal(f, lat)
                    if np.all(p_true[:2] == 0):
                        break
                    seed += 7919
                out = hod_recover(y, lat, 2)
                n_good += check_recovery(out.p_hat, p_true, lat) == 0
            hod_ok = hod_ok and n_good == 50
    dt = time.perf_counter() - t0
    ok = b2r2_ok and hod_ok
    _report(5, ok, f"b2r2 noiseless rate 1 at OF 2/4/6/8 both lattices "
                   f"({'yes' if b2r2_ok else rates}); hod demos rate 1 "
                   f"({'yes' if hod_ok else 'no'}) ({dt:.0f}s)")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_threshold_ordering():
    t0 = time.perf_counter()
    snr = _sweep(of_list=(4, 6), snr_db_list=(25, 30), n_trials=50)
    bits = _sweep(of_list=(6,), bits_list=(4,), architectures=("e8+sqq", "e8+e8q"), n_trials=50)
    r_sq_625, r_e8_625 = snr["square", 6, 25].rate, snr["e8", 6, 25].rate
    r_sq_430, r_e8_430 = snr["square", 4, 30].rate, snr["e8", 4, 30].rate
    r_e8sq_4b, r_e8e8_4b = bits["e8+sqq", 6, 4].rate, bits["e8+e8q", 6, 4].rate
    dt = time.perf_counter() - t0
    ok = (r_sq_625 >= 0.9 and r_e8_625 >= 0.9
          and r_e8_430 > r_sq_430
          and r_e8e8_4b >= 0.9 and r_e8sq_4b <= 0.1)
    _report(6, ok,
            f"OF6@25dB sq={r_sq_625:.2f} e8={r_e8_625:.2f} (both>=0.9); "
            f"OF4@30dB sq={r_sq_430:.2f} < e8={r_e8_430:.2f}; "
            f"OF6@4bit e8+e8q={r_e8e8_4b:.2f}>=0.9, e8+sqq={r_e8sq_4b:.2f}<=0.1 "
            f"({dt:.0f}s)")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_mse_gain():
    t0 = time.perf_counter()
    snr = _sweep(of_list=(8,), snr_db_list=(30,), n_trials=120)
    joint = _gains_db(snr["square", 8, 30], snr["e8", 8, 30])
    g_noise = float(np.mean(joint))

    bits = _sweep(of_list=(8,), bits_list=(8,), architectures=("sq+sqq", "e8+e8q"), n_trials=120)
    jq = _gains_db(bits["sq+sqq", 8, 8], bits["e8+e8q", 8, 8])
    g_quant = float(np.mean(jq))
    dt = time.perf_counter() - t0
    ok = (len(joint) >= 100 and abs(g_noise - 3.66) <= 0.3
          and len(jq) >= 100 and abs(g_quant - 3.66) <= 0.3)
    _report(7, ok, f"additive gain {g_noise:.2f} dB over {len(joint)} joint "
                   f"successes; quantized (8b) gain {g_quant:.2f} dB over "
                   f"{len(jq)} ({dt:.0f}s); both within 3.66+-0.3")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_demo2d(tmp_path):
    t0 = time.perf_counter()
    summary = emit_trajectory_demo(tmp_path, seed=0, lam=1.0, power_trials=300)
    rec_ok = all(summary[n]["max_error"] <= 1e-8 * summary[n]["peak"]
                 for n in ("square", "hexagon"))
    ratio = summary["power_ratio"]
    ratio_ok = abs(ratio - 0.833) <= 0.03 * 0.833
    dt = time.perf_counter() - t0
    ok = rec_ok and ratio_ok
    _report(8, ok, f"demo recovery to machine precision ({rec_ok}); folded "
                   f"power ratio {ratio:.3f} within 0.833+-3% ({dt:.0f}s)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_comparator_fold():
    t0 = time.perf_counter()
    counts = {}
    agree = True
    rng = np.random.default_rng(9)
    for family, n, expect in [(ZN, 2, 4), (A2, 2, 6), (DN, 4, 24), (E8, 8, 240)]:
        lat = make_lattice(family, n, 1.0)
        counts[(family, n)] = len(relevant_vectors(lat))
        x = rng.uniform(-5, 5, (10**4, n)) + 1e-6 * rng.standard_normal((10**4, n))
        ri = fold_iterative(x, lat)
        rf, _ = fold(x, lat)
        agree = agree and np.allclose(ri, rf, atol=1e-8)
    count_ok = (counts[(ZN, 2)] == 4 and counts[(A2, 2)] == 6
                and counts[(DN, 4)] == 24 and counts[(E8, 8)] == 240)
    dt = time.perf_counter() - t0
    ok = agree and count_ok
    _report(9, ok, f"comparator fold agrees with fold on 1e4 inputs per "
                   f"lattice ({agree}); facet counts 4/6/24/240 ({count_ok}) "
                   f"({dt:.0f}s)")

import math
import re

import numpy as np
import pytest

from latfold import (A2, ConfigurationError, E8, ZN, NonFiniteInputError,
                     RecoveryNumericalError, SignalConfig,
                     b2r2_recover, build_oob_operator,
                     check_recovery, fold_signal, hod_recover,
                     lasso_b2r2_recover, make_lattice, make_test_signal)
from latfold.channels import add_noise, lattice_quantize, scalar_quantize
from latfold.experiments import (ACTIVE_SCHEDULE, ExperimentConfig, _geometry,
                                 _start_in_cell_signal, draw_margin_trial)
from latfold.lattices import nearest_point, snap_to_lattice
from latfold import recovery
from latfold.recovery import (CONFIDENCE, MAX_ROUNDS, RCOND, OobOperator,
                              _b2r2_lstsq, _window_factor, _window_solve)


# --------------------------------------------------------------- oob operator

def test_oob_bin_selection():
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    assert oob.selected_bins.min() == 12
    assert oob.selected_bins.max() == 108
    assert len(oob.selected_bins) == 97


def test_oob_selected_bins_read_only():
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    with pytest.raises(ValueError):
        oob.selected_bins[0] = 0


def test_oob_operator_memoized():
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    assert build_oob_operator(120, 10.0, 120.0, guard=0.1) is oob
    assert build_oob_operator(120, 10.0, 120.0, guard=0.2) is not oob


def test_oob_keeps_own_copy_of_bins():
    bins = np.arange(30, 90)
    oob = OobOperator(K=120, selected_bins=bins)
    bins[0] = 0                        # the caller's array stays writable
    assert oob.selected_bins[0] == 30
    listed = OobOperator(K=120, selected_bins=list(range(30, 90)))
    x = np.random.default_rng(0).standard_normal((120, 2))
    assert np.array_equal(listed.apply(x), oob.apply(x))
    assert np.array_equal(listed.rows_for(np.arange(5)), oob.rows_for(np.arange(5)))


def test_oob_empty_selection_raises():
    with pytest.raises(ConfigurationError):
        build_oob_operator(24, 10.0, 22.0, guard=0.1)


def test_oob_clean_signal_energy():
    cfg = SignalConfig(n_channels=2, of=6.0, seed=0)
    f, _ = make_test_signal(cfg, lam=1.0)
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    assert (np.abs(oob.apply(f)) ** 2).sum() <= 1e-8 * oob.K * (f ** 2).sum()


def test_oob_adjoint_consistency():
    oob = build_oob_operator(60, 10.0, 60.0, guard=0.1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((60, 2))
    z = rng.standard_normal((len(oob.selected_bins), 2)) \
        + 1j * rng.standard_normal((len(oob.selected_bins), 2))
    lhs = np.vdot(oob.apply(x), z)
    rhs = np.vdot(x.astype(complex), oob.adjoint(z))
    assert lhs == pytest.approx(rhs, rel=1e-10)


# ----------------------------------------------------------------------- hod

def test_hod_no_folds_identity():
    lat = make_lattice(ZN, 2, 10.0)        # huge cell: nothing folds
    cfg = SignalConfig(n_channels=2, dr_factor=0.5, of=8.0, seed=1)
    f, _ = make_test_signal(cfg, lat.lam)
    y, p_true = fold_signal(f, lat)
    assert np.all(p_true == 0)
    for order in (1, 2, 3):
        out = hod_recover(y, lat, order)
        assert np.allclose(out.p_hat, 0.0)
        assert np.allclose(out.f_hat, f)


def test_hod_1d_sine_exact():
    lat = make_lattice(ZN, 1, 1.0)
    fs, K = 200.0, 200                      # oversampling 10 at 10 Hz band
    t = np.arange(K) / fs
    f = (3.0 * np.sin(2 * np.pi * 3.0 * t))[:, None]   # starts inside the cell
    y, p_true = fold_signal(f, lat)
    assert np.all(p_true[:2] == 0)
    out = hod_recover(y, lat, 2)
    assert check_recovery(out.p_hat, p_true, lat) == 0


def test_hod_demo_1d_rate_one():
    lat = make_lattice(ZN, 1, 1.0)
    for seed in range(10):
        cfg = SignalConfig(n_channels=1, of=8.0, dr_factor=3.0, seed=seed)
        y, p_true = fold_signal(_start_in_cell_signal(cfg, lat, 3)[0], lat)
        out = hod_recover(y, lat, 2)
        assert check_recovery(out.p_hat, p_true, lat) == 0


def test_hod_2d_hexagon():
    lat = make_lattice(A2, 2, 1.0)
    cfg = SignalConfig(n_channels=2, complex_pair=True, of=8.0, dr_factor=3.0,
                       seed=4)
    y, p_true = fold_signal(_start_in_cell_signal(cfg, lat, 3)[0], lat)
    out = hod_recover(y, lat, 2)
    assert check_recovery(out.p_hat, p_true, lat) == 0


def test_hod_fails_under_noise_in_8d_study():
    # the premise |Delta^N f| < d_min/2 breaks at this dynamic range
    from latfold.channels import add_noise
    lat = make_lattice(E8, 8, 0.1)
    cfg = SignalConfig(n_channels=8, of=6.0, dr_factor=10.0, seed=5)
    f, _ = make_test_signal(cfg, lat.lam)
    y, p_true = fold_signal(f, lat)
    noisy = add_noise(y, 30.0, seed=6)
    out = hod_recover(noisy, lat, 2)
    assert check_recovery(out.p_hat, p_true, lat) > 0


def test_hod_short_record_rejected():
    lat = make_lattice(ZN, 1, 1.0)
    with pytest.raises(ConfigurationError):
        hod_recover(np.zeros((2, 1)), lat, 2)


# ---------------------------------------------------------------------- b2r2

def test_b2r2_zero_folds_returns_zero():
    lat = make_lattice(ZN, 2, 10.0)
    cfg = SignalConfig(n_channels=2, dr_factor=0.5, of=6.0, seed=2)
    f, _ = make_test_signal(cfg, lat.lam)
    y, p_true = fold_signal(f, lat)
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    out = b2r2_recover(y, lat, oob)
    assert np.allclose(out.p_hat, 0.0)


def test_b2r2_noiseless_margin_exact():
    lam = 0.1
    for fam in (ZN, E8):
        lat = make_lattice(fam, 8, lam)
        of, K, m_max = 6, 240, 19
        margin = K - 28
        seed = np.random.SeedSequence([1, 2, 3])
        f = draw_margin_trial(seed, lat, 8, K, m_max, margin, 10.0, 0.06)
        y, p_true = fold_signal(f, lat)
        oob = build_oob_operator(K, 9.5, 120.0, guard=0.04)
        out = b2r2_recover(y, lat, oob, support_margin=margin,
                           bound=1.0 + lat.d_min)
        assert check_recovery(out.p_hat, p_true, lat) == 0
        assert np.allclose(out.f_hat, f, atol=1e-8)


def test_b2r2_unfold_identity():
    lam = 0.1
    lat = make_lattice(E8, 8, lam)
    K, m_max, margin = 240, 19, 240 - 28
    f = draw_margin_trial(np.random.SeedSequence(5), lat, 8, K, m_max, margin,
                          10.0, 0.06)
    y, _ = fold_signal(f, lat)
    oob = build_oob_operator(K, 9.5, 120.0, guard=0.04)
    out = b2r2_recover(y, lat, oob, support_margin=margin)
    assert np.allclose(out.f_hat - y, out.p_hat, atol=1e-12)
    assert np.allclose(snap_to_lattice(lat, out.p_hat), out.p_hat, rtol=1e-12, atol=1e-12)


def test_b2r2_equivariance_to_lattice_shift():
    # shifting the unfolded signal by a lattice point leaves y, hence p_hat,
    # unchanged row-to-row (the shift is invisible after folding)
    lam = 0.1
    lat = make_lattice(ZN, 8, lam)
    K, m_max, margin = 240, 19, 240 - 28
    f = draw_margin_trial(np.random.SeedSequence(6), lat, 8, K, m_max, margin,
                          10.0, 0.06)
    shift = lat.basis @ np.array([1.0, -2, 0, 3, 0, 0, 1, 0])
    y1, _ = fold_signal(f, lat)
    y2, _ = fold_signal(f + shift, lat)
    assert np.allclose(y1, y2, atol=1e-9)


# ------------------------------------------------- factored b2r2 vs oracle

def _b2r2_lstsq_reference(y, lattice, oob, support_margin, bound):
    """The unfactored solver: lstsq on freshly built DFT rows every round."""
    K = oob.K
    margin = max(0, min(support_margin, K - 1))
    Fy = oob.apply(y)
    unknown = np.zeros(K, dtype=bool)
    unknown[margin:] = True
    p_fix = np.zeros_like(y)

    def solve(idx):
        rhs = -(Fy + oob.apply(p_fix))
        sol, *_ = np.linalg.lstsq(oob.rows_for(idx),
                                  np.vstack([rhs.real, rhs.imag]),
                                  rcond=RCOND)
        return sol

    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        idx = np.where(unknown)[0]
        if idx.size == 0:
            break
        sol = solve(idx)
        q = nearest_point(sol, lattice)
        dist = np.linalg.norm(sol - q, axis=1)
        confident = dist < CONFIDENCE * lattice.lam
        if bound is not None:
            confident &= np.abs(sol).max(axis=1) <= bound
        if not confident.any() or confident.all():
            p_fix[idx] = q
            unknown[idx] = False
            break
        p_fix[idx[confident]] = q[confident]
        unknown[idx[confident]] = False
    if unknown.any():
        idx = np.where(unknown)[0]
        p_fix[idx] = nearest_point(solve(idx), lattice)
    return p_fix, rounds


def _sweep_case(of):
    """Record length, margins and operator of one sweep cell."""
    fs, K, m_max = _geometry(ExperimentConfig(), of)
    sig_act, solver_act, leak = ACTIVE_SCHEDULE[of]
    oob = build_oob_operator(K, m_max / ExperimentConfig.duration, fs, ExperimentConfig.guard)
    return K, K - sig_act, leak, oob, K - solver_act


@pytest.mark.parametrize("of", [2, 4, 6, 8])
def test_b2r2_factored_matches_unfactored_oracle(of):
    lam = 0.1
    K, margin, leak, oob, solver_margin = _sweep_case(of)
    e8q = make_lattice(E8, 8, lam)
    channels = {
        "clean": lambda y, t: y,
        "20dB": lambda y, t: add_noise(y, 20.0, np.random.SeedSequence([7, of, t])),
        "sq8": lambda y, t: scalar_quantize(y, 8, lam),
        "e8q4": lambda y, t: lattice_quantize(y, e8q, 4),
    }
    n_success = 0
    for fam in (ZN, E8):
        lat = make_lattice(fam, 8, lam)
        bound = 10.0 * lam + lat.d_min
        for name, channel in channels.items():
            for t in range(3):
                f = draw_margin_trial(np.random.SeedSequence([of, t]), lat, 8,
                                      K, 19, margin, 10.0, leak)
                y, p_true = fold_signal(f, lat)
                y = channel(y, t)
                p_new, rounds_new, _ = _b2r2_lstsq(y, lat, oob, solver_margin, bound)
                p_ref, rounds_ref = _b2r2_lstsq_reference(y, lat, oob,
                                                          solver_margin, bound)
                ok_new = check_recovery(p_new, p_true, lat) == 0
                ok_ref = check_recovery(p_ref, p_true, lat) == 0
                case = (fam, name, t)
                assert ok_new == ok_ref, case
                assert rounds_new == rounds_ref, case
                if ok_new or ok_ref:
                    assert np.array_equal(p_new, p_ref), case
                n_success += ok_new
    assert n_success > 0


@pytest.mark.parametrize("of", [2, 4, 6, 8])
def test_window_factor_keeps_singular_values(of):
    # R[:, S] = Q^T A_S with orthonormal Q: the reduced system has the
    # singular values of the full one, so lstsq truncates at the same rcond
    K, _, _, oob, solver_margin = _sweep_case(of)
    window = np.arange(solver_margin, K)
    _, R, _ = _window_factor(K, oob.selected_bins.tobytes(), solver_margin)
    rng = np.random.default_rng(of)
    for size in (1, len(window) // 2, len(window) - 1, len(window)):
        cols = np.sort(rng.choice(len(window), size=size, replace=False))
        s_red = np.linalg.svd(R[:, cols], compute_uv=False)
        s_full = np.linalg.svd(oob.rows_for(window[cols]), compute_uv=False)
        assert np.allclose(s_red, s_full, rtol=1e-9, atol=1e-9 * s_full[0])


@pytest.mark.parametrize("oob, margin, full_rank", [
    *[(*_sweep_case(of)[3:], True) for of in (2, 4, 6, 8)],
    # margin 0: in-band sequences span the null space (cond about 9.5e14)
    (build_oob_operator(120, 10.0, 120.0), 0, False),
    # hand-built bins at margin 60 (cond about 1.4e14)
    (OobOperator(K=120, selected_bins=np.arange(30, 90)), 60, False),
], ids=["of2", "of4", "of6", "of8", "margin0", "hand_built"])
def test_window_factor_flags_full_rank(oob, margin, full_rank):
    # the sweep windows take the QR solve; rank-deficient ones keep lstsq
    _, _, flag = _window_factor(oob.K, oob.selected_bins.tobytes(), margin)
    assert flag is full_rank


@pytest.mark.parametrize("of", [2, 4, 6, 8])
def test_window_solve_matches_lstsq(of):
    # on a flagged window the QR solve is lstsq's minimizer for any columns;
    # two backward-stable solvers differ by a small multiple of cond * eps
    K, _, _, oob, solver_margin = _sweep_case(of)
    _, R, _ = _window_factor(K, oob.selected_bins.tobytes(), solver_margin)
    n_win = K - solver_margin
    rng = np.random.default_rng(of)
    rhs = rng.standard_normal((n_win, 8))
    for size in (1, n_win // 2, n_win - 1, n_win):
        cols = np.sort(rng.choice(n_win, size=size, replace=False))
        ref, *_ = np.linalg.lstsq(R[:, cols], rhs, rcond=RCOND)
        sol = _window_solve(R, True, cols, rhs, 1)
        tol = 100 * np.linalg.cond(R[:, cols]) * np.finfo(float).eps
        assert np.abs(sol - ref).max() <= tol * np.abs(ref).max(), size


def test_window_solve_reports_singular_factor():
    # dgels's info > 0 (a zero diagonal in its R) must not pass silently
    R = np.diag([1.0, 2.0, 0.0, 3.0])
    with pytest.raises(RecoveryNumericalError,
                       match=re.escape("dgels: singular factor (info 3) in round 5")):
        _window_solve(R, True, np.arange(4), np.ones((4, 2)), 5)


def test_b2r2_builds_window_rows_once(monkeypatch):
    lam = 0.1
    lat = make_lattice(E8, 8, lam)
    K, margin, leak, oob, solver_margin = _sweep_case(6)
    calls = []
    dft_rows = recovery._dft_rows

    def counted(K, bins, columns):
        calls.append(len(columns))
        return dft_rows(K, bins, columns)

    monkeypatch.setattr(recovery, "_dft_rows", counted)
    _window_factor.cache_clear()
    for t in range(3):
        f = draw_margin_trial(np.random.SeedSequence([6, t]), lat, 8, K, 19,
                              margin, 10.0, leak)
        y, _ = fold_signal(f, lat)
        b2r2_recover(add_noise(y, 25.0, np.random.SeedSequence([t])), lat,
                     oob, solver_margin, 1.0 + lat.d_min)
    assert calls == [K - solver_margin]


def test_b2r2_hand_built_bins_not_taken_from_cache():
    # an operator whose bins are not build_oob_operator's selection for its
    # parameters gets the factor of its own bins, not that of the selection
    lam = 0.1
    lat = make_lattice(ZN, 8, lam)
    K, margin, leak, oob, solver_margin = _sweep_case(6)
    sub = OobOperator(K=K, selected_bins=oob.selected_bins[::2].copy())
    f = draw_margin_trial(np.random.SeedSequence([6, 0]), lat, 8, K, 19,
                          margin, 10.0, leak)
    y, _ = fold_signal(f, lat)
    y = add_noise(y, 25.0, np.random.SeedSequence([1]))
    bound = 1.0 + lat.d_min
    p_new, rounds_new, _ = _b2r2_lstsq(y, lat, sub, solver_margin, bound)
    p_ref, rounds_ref = _b2r2_lstsq_reference(y, lat, sub, solver_margin, bound)
    assert rounds_new == rounds_ref
    assert np.array_equal(p_new, p_ref)


def test_b2r2_bins_independent_of_operator_scalars():
    # an operator holds only K and its bins; these 60 bins are set by hand
    # rather than selected from a band by build_oob_operator
    lam = 0.1
    lat = make_lattice(ZN, 8, lam)
    oob = OobOperator(K=120, selected_bins=np.arange(30, 90))
    f = draw_margin_trial(np.random.SeedSequence([3]), lat, 8, 120, 19, 60,
                          10.0, 0.0)
    y, p_true = fold_signal(f, lat)
    result = b2r2_recover(y, lat, oob, 60, 1.0 + lat.d_min)
    p_ref, _ = _b2r2_lstsq_reference(y, lat, oob, 60, 1.0 + lat.d_min)
    assert np.array_equal(result.p_hat, p_ref)
    assert check_recovery(result.p_hat, p_true, lat) == 0


# --------------------------------------------------------------------- lasso

def _two_lobe_sine(K=120, fs=120.0):
    t = np.arange(K) / fs
    return (1.05 * np.sin(2 * np.pi * t) + 0.35 * np.sin(4 * np.pi * t))[:, None]


def test_lasso_zero_fold_returns_zero():
    lat = make_lattice(ZN, 1, 1.0)
    f = 0.4 * _two_lobe_sine()
    y, _ = fold_signal(f, lat)
    oob = build_oob_operator(120, 9.5, 120.0, guard=0.05)
    out = lasso_b2r2_recover(y, lat, oob)
    assert np.allclose(out.p_hat, 0.0)


def test_lasso_sine_fold_events_exact():
    lat = make_lattice(ZN, 1, 1.0)
    f = _two_lobe_sine()
    y, p_true = fold_signal(f, lat)
    n_events = int((np.abs(np.diff(p_true, axis=0)).sum(axis=1) > 0).sum())
    assert n_events > 0
    oob = build_oob_operator(120, 9.5, 120.0, guard=0.05)
    out = lasso_b2r2_recover(y, lat, oob)
    assert check_recovery(out.p_hat, p_true, lat) == 0
    got_events = int((np.abs(np.diff(out.p_hat, axis=0)).sum(axis=1) > 0).sum())
    assert got_events == n_events


def test_lasso_mu_zero_matches_b2r2_objective_and_folds():
    # at mu = 0 the two objectives coincide up to the cumulative-sum
    # reparameterization; on noiseless records solved by both, the
    # recovered folds agree
    lat = make_lattice(ZN, 1, 1.0)
    oob = build_oob_operator(120, 9.5, 120.0, guard=0.05)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((120, 1))
    p = np.cumsum(v, axis=0)
    y = rng.standard_normal((120, 1))
    Fy = oob.apply(y)
    obj_p = float((np.abs(oob.apply(p) + Fy) ** 2).sum())
    obj_v = float((np.abs(oob.apply(np.cumsum(v, axis=0)) + Fy) ** 2).sum())
    assert obj_p == pytest.approx(obj_v, rel=1e-12)

    f = 0.4 * _two_lobe_sine()            # clean, zero folds
    y, p_true = fold_signal(f, lat)
    a = b2r2_recover(y, lat, oob)
    b = lasso_b2r2_recover(y, lat, oob, mu=0.0)
    assert np.array_equal(a.p_hat, b.p_hat)
    assert np.array_equal(a.p_hat, p_true)


def test_lasso_negative_mu_rejected():
    lat = make_lattice(ZN, 1, 1.0)
    y, _ = fold_signal(_two_lobe_sine(), lat)
    oob = build_oob_operator(120, 9.5, 120.0, guard=0.05)
    with pytest.raises(ConfigurationError):
        lasso_b2r2_recover(y, lat, oob, mu=-1.0)


# ------------------------------------------------------------ input contract

@pytest.mark.parametrize("recover, named", [
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, -3),
     "support_margin must be an integer in 0..119, got -3"),
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, 120),
     "support_margin must be an integer in 0..119, got 120"),
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, 10**9),
     "support_margin must be an integer in 0..119, got 1000000000"),
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, 2.5),
     "support_margin must be an integer in 0..119, got 2.5"),
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, True),
     "support_margin must be an integer in 0..119, got True"),
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, 0, math.nan),
     "bound must be positive and finite, got nan"),
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, 0, -1.0),
     "bound must be positive and finite, got -1.0"),
    (lambda y, lat, oob: b2r2_recover(y, lat, oob, 0, math.inf),
     "bound must be positive and finite, got inf"),
    (lambda y, lat, oob: lasso_b2r2_recover(y, lat, oob, math.inf),
     "mu must be nonnegative and finite, got inf"),
    (lambda y, lat, oob: lasso_b2r2_recover(y, lat, oob, math.nan),
     "mu must be nonnegative and finite, got nan"),
    (lambda y, lat, oob: lasso_b2r2_recover(y, lat, oob, True),
     "mu must be nonnegative and finite, got True"),
], ids=["margin_negative", "margin_K", "margin_huge", "margin_float", "margin_bool",
        "bound_nan", "bound_negative", "bound_inf", "mu_inf", "mu_nan", "mu_bool"])
def test_recoverer_settings_checked_up_front(recover, named):
    # a setting outside its range fails at once, naming it; none is clamped
    lat = make_lattice(ZN, 1, 1.0)
    y, _ = fold_signal(_two_lobe_sine(), lat)
    oob = build_oob_operator(120, 9.5, 120.0, guard=0.05)
    with pytest.raises(ConfigurationError, match=re.escape(named)):
        recover(y, lat, oob)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("recover", [
    lambda y, lat, oob: hod_recover(y, lat, 2),
    lambda y, lat, oob: b2r2_recover(y, lat, oob),
    lambda y, lat, oob: lasso_b2r2_recover(y, lat, oob),
], ids=["hod", "b2r2", "lasso"])
def test_recoverers_reject_non_finite_samples(recover, bad):
    lat = make_lattice(ZN, 2, 1.0)
    oob = build_oob_operator(120, 10.0, 120.0, guard=0.1)
    y = np.zeros((120, 2))
    y[40, 1] = bad
    with pytest.raises(NonFiniteInputError):
        recover(y, lat, oob)


# ------------------------------------------------------------ check_recovery

def test_check_recovery_identical():
    lat = make_lattice(ZN, 2, 1.0)
    p = 2.0 * np.array([[1.0, 0], [0, -1], [2, 2]])
    assert check_recovery(p, p, lat) == 0


def test_check_recovery_one_bad_row():
    lat = make_lattice(ZN, 2, 1.0)
    p = 2.0 * np.array([[1.0, 0], [0, -1], [2, 2]])
    q = p.copy()
    q[1] += 2.0
    assert check_recovery(q, p, lat) == 1


def test_check_recovery_shape_mismatch():
    lat = make_lattice(ZN, 2, 1.0)
    with pytest.raises(ConfigurationError):
        check_recovery(np.zeros((3, 2)), np.zeros((4, 2)), lat)


def test_success_residual_equals_channel_distortion():
    # whenever unfolding succeeds the reconstruction error is exactly the
    # channel error on the folded samples
    from latfold.channels import add_noise
    lam = 0.1
    lat = make_lattice(E8, 8, lam)
    K, m_max, margin = 240, 19, 240 - 28
    f = draw_margin_trial(np.random.SeedSequence(8), lat, 8, K, m_max, margin,
                          10.0, 0.06)
    y, p_true = fold_signal(f, lat)
    noisy = add_noise(y, 30.0, seed=9)
    oob = build_oob_operator(K, 9.5, 120.0, guard=0.04)
    out = b2r2_recover(noisy, lat, oob, support_margin=margin)
    assert check_recovery(out.p_hat, p_true, lat) == 0
    residual_mse = ((out.f_hat - f) ** 2).sum() / f.size
    channel_mse = ((noisy - y) ** 2).sum() / y.size
    assert residual_mse == pytest.approx(channel_mse, rel=1e-12)

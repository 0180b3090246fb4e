"""Unfolding algorithms: higher-order differences, out-of-band least squares,
and the sparsity-regularized variant.

All three recover the per-sample lattice offsets ``p[k]`` with
``f[k] = y[k] + p[k]`` from a folded (possibly distorted) record. The
out-of-band methods use the fact that for a bandlimited signal the
out-of-band DFT content of ``y`` equals that of ``-p``. Each raises
``NonFiniteInputError`` on NaN or infinite samples before it solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgels

from .lattices import (ConfigurationError, ScaledLattice, _check_finite,
                       nearest_point, snap_to_lattice)


class RecoveryNumericalError(RuntimeError):
    """Non-finite objective during iteration; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"objective became non-finite at iteration {iteration}")
        self.iteration = iteration

    def __reduce__(self):           # rebuild from the index, not the message
        return type(self), (self.iteration,)


@dataclass(frozen=True)
class OobOperator:
    """Selected out-of-band DFT rows of a K-sample record.

    Row ``m`` applies ``sum_k exp(-j 2 pi m k / K) x[k]`` for each bin ``m``
    of ``selected_bins`` (``build_oob_operator`` picks them from a band).
    The operator keeps a read-only copy of the bins: solvers cache factors
    of these rows.
    """

    K: int
    selected_bins: np.ndarray

    def __post_init__(self):
        bins = np.array(self.selected_bins, dtype=np.intp)
        bins.setflags(write=False)
        object.__setattr__(self, "selected_bins", bins)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.fft.fft(x, axis=0)[self.selected_bins]

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        full = np.zeros((self.K,) + z.shape[1:], dtype=complex)
        full[self.selected_bins] = z
        return self.K * np.fft.ifft(full, axis=0)

    def rows_for(self, columns: np.ndarray) -> np.ndarray:
        """Real-stacked selected DFT rows restricted to the given samples."""
        return _dft_rows(self.K, self.selected_bins, columns)


def _dft_rows(K: int, bins: np.ndarray, columns: np.ndarray) -> np.ndarray:
    F = np.exp(-2j * np.pi * np.outer(bins, columns) / K)
    return np.vstack([F.real, F.imag])


@functools.lru_cache(maxsize=32)
def build_oob_operator(K: int, omega_max: float, fs: float,
                       guard: float = 0.1) -> OobOperator:
    """Select all K-point DFT bins with |frequency| > omega_max*(1+guard).

    Memoized: the operator is immutable, so equal arguments share one.
    """
    if fs <= 2.0 * omega_max * (1.0 + guard):
        raise ConfigurationError("sampling rate leaves no out-of-band bins")
    m = np.arange(K)
    freqs = np.where(m <= K / 2, m, m - K) * fs / K
    sel = np.where(np.abs(freqs) > omega_max * (1.0 + guard))[0]
    if sel.size == 0:
        raise ConfigurationError("out-of-band bin set is empty")
    return OobOperator(K=K, selected_bins=sel)


@dataclass(frozen=True)
class RecoveryResult:
    f_hat: np.ndarray
    p_hat: np.ndarray
    iterations: int
    converged: bool
    objective: float = math.nan


def hod_recover(y: np.ndarray, lattice: ScaledLattice, order: int) -> RecoveryResult:
    """Unfold via N-th order differences.

    Folds the N-th difference of the received samples (valid whenever the
    true N-th differences stay inside the cell) and anti-differences with
    the first ``order`` samples taken as fold-free anchors.
    """
    if order < 1:
        raise ConfigurationError("difference order must be >= 1")
    if y.shape[0] <= order:
        raise ConfigurationError("record shorter than the difference order")
    d = y
    for _ in range(order):
        d = np.diff(d, axis=0)
    dp = -nearest_point(d, lattice)          # N-th difference of the offsets
    p = dp
    for _ in range(order):
        p = np.vstack([np.zeros((1, y.shape[1])), np.cumsum(p, axis=0)])
    p_hat = snap_to_lattice(lattice, p)
    return RecoveryResult(f_hat=y + p_hat, p_hat=p_hat, iterations=order,
                          converged=True)


# B2R2 commits a row whose solution lies within CONFIDENCE * lam of a
# lattice point and runs at most MAX_ROUNDS decision-feedback rounds. Each
# solve treats singular values below RCOND times the largest as zero; that
# truncation only fires on rank-deficient windows (see _b2r2_lstsq).
CONFIDENCE = 0.3
MAX_ROUNDS = 12
RCOND = 1e-11
# LASSO-B2R2 stops when the objective changes by at most LASSO_TOL relative,
# or after LASSO_MAX_ITERS proximal-gradient steps.
LASSO_TOL = 1e-13
LASSO_MAX_ITERS = 6000


@functools.lru_cache(maxsize=32)
def _window_factor(K: int, bins: bytes, margin: int):
    """Thin QR ``A_W = Q R`` of the out-of-band rows on the window [margin, K).

    ``A_W`` depends only on the record length, the selected bins (given as
    the bytes of the ``intp`` bin array, so the key is hashable) and the
    margin, so one factor serves every trial and every round at one
    oversampling factor. Returns read-only ``Q`` and ``R`` and whether
    ``A_W`` has full column rank at ``RCOND``: ``R`` is square and
    ``sigma_min(R) > RCOND * sigma_max(R)``.
    """
    rows = _dft_rows(K, np.frombuffer(bins, dtype=np.intp), np.arange(margin, K))
    Q, R = np.linalg.qr(rows)
    Q.setflags(write=False)
    R.setflags(write=False)
    s = np.linalg.svd(R, compute_uv=False)
    full_rank = R.shape[0] == R.shape[1] and bool(s[-1] > RCOND * s[0])
    return Q, R, full_rank


def _window_solve(R, full_rank, idx, rhs, rounds):
    """``argmin |R[:, idx] x - rhs|`` for one B2R2 round.

    One Householder QR solve (``dgels``) on a ``full_rank`` window, else
    ``lstsq`` with its ``RCOND`` truncation.
    """
    if not full_rank:
        sol, *_ = np.linalg.lstsq(R[:, idx], rhs, rcond=RCOND)
        return sol
    _, x, info = dgels(R[:, idx], rhs)
    if info != 0:
        raise RecoveryNumericalError(rounds)
    return x[:idx.size]


def _b2r2_lstsq(y, lattice, oob, support_margin, bound):
    """Least squares on the unknown support, then decision feedback.

    Rows whose solution sits close to a lattice point are committed and
    moved to the data side; the remaining support is re-solved. This stops
    when everything is committed or no row is confident.

    The offsets are supported on the window W = [margin, K). With the thin
    QR ``A_W = Q R`` of the real-stacked out-of-band rows on W (``Q`` has
    orthonormal columns), ``Q^T A_S = R[:, S]`` for every column subset S,
    and the part of the data outside range(Q) does not depend on the
    unknowns. So ``min |A_S x + b|`` and ``min |R[:, S] x + Q^T b|`` have
    the same minimizer, and ``R[:, S]`` has the singular values of ``A_S``.
    Every round solves the small |W|-row system; the DFT rows are built
    and factored once per window.

    Deleting columns cannot lower the smallest singular value of a
    full-column-rank matrix or raise its largest, so on a window whose
    ``R`` is square with ``sigma_min > RCOND * sigma_max`` every ``R[:, S]``
    passes the same test: ``lstsq`` would truncate nothing, and its
    minimizer is the full-rank least-squares solution that one Householder
    QR solve (LAPACK ``dgels``) returns. The ``rcond`` truncation of
    ``lstsq`` matters only on rank-deficient windows, such as a margin of 0
    where in-band sequences span the null space (cond(R) about 9.5e14 at
    K = 120); those keep ``lstsq``. The sweep's windows are far inside the
    bound: cond(R) is about 8.6e6, 8.2e5, 334 and 2.5e3 at oversampling 2,
    4, 6 and 8, against 1 / RCOND = 1e11. Normal equations (the Gram
    matrix ``A^T A``) would square cond(A).
    """
    K = oob.K
    margin = max(0, min(support_margin, K - 1))
    Q, R, full_rank = _window_factor(K, oob.selected_bins.tobytes(), margin)
    Fy = oob.apply(y)
    c0 = -Q.T @ np.vstack([Fy.real, Fy.imag])
    unknown = np.ones(K - margin, dtype=bool)    # over the window
    p_fix = np.zeros_like(y)
    p_win = p_fix[margin:]                       # view: commits land in p_fix

    def solve(idx):
        return _window_solve(R, full_rank, idx, c0 - R @ p_win, rounds)

    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        idx = np.flatnonzero(unknown)       # never empty: a full commit breaks
        sol = solve(idx)
        if not np.all(np.isfinite(sol)):
            raise RecoveryNumericalError(rounds)
        q = nearest_point(sol, lattice)
        dist = np.linalg.norm(sol - q, axis=1)
        confident = dist < CONFIDENCE * lattice.lam
        if bound is not None:
            # rows outside the known dynamic range cannot be trusted yet
            confident &= np.abs(sol).max(axis=1) <= bound
        if not confident.any() or confident.all():
            p_win[idx] = q
            unknown[idx] = False
            break
        p_win[idx[confident]] = q[confident]
        unknown[idx[confident]] = False
    if unknown.any():                       # round budget exhausted: commit rest
        idx = np.flatnonzero(unknown)
        p_win[idx] = nearest_point(solve(idx), lattice)
    obj = float((np.abs(Fy + oob.apply(p_fix)) ** 2).sum())
    return p_fix, rounds, obj


def b2r2_recover(y: np.ndarray, lattice: ScaledLattice, oob: OobOperator,
                 support_margin: int = 0,
                 bound: Optional[float] = None) -> RecoveryResult:
    """Out-of-band least-squares unfolding with a restricted time support.

    Minimizes the out-of-band residual ``|F p + F y|^2`` over offset
    sequences supported outside the fold-free prefix, then rounds to the
    lattice row-wise. The solver commits confidently-rounded rows
    between least-squares passes, which is what makes low-oversampling
    noiseless recovery exact. ``support_margin`` is the number of leading
    samples assumed fold-free (the time-domain search-space restriction).
    ``bound`` is the known dynamic range: a row whose solution exceeds it
    is not committed.
    """
    _check_finite(y, "recovery input")
    p_fix, rounds, obj = _b2r2_lstsq(y, lattice, oob, support_margin, bound)
    p_hat = snap_to_lattice(lattice, p_fix)     # rows are decoder outputs or 0
    return RecoveryResult(f_hat=y + p_hat, p_hat=p_hat, iterations=rounds,
                          converged=True, objective=obj)


def _cumsum_adjoint(g: np.ndarray) -> np.ndarray:
    return np.cumsum(g[::-1], axis=0)[::-1]


def lasso_b2r2_recover(y: np.ndarray, lattice: ScaledLattice,
                       oob: OobOperator,
                       mu: Optional[float] = None) -> RecoveryResult:
    """Sparsity-regularized unfolding on the fold-event differences.

    Writes ``p = C v`` with ``C`` the cumulative sum, penalizes ``|v|_1``
    (fold events are sparse in time), and solves by proximal gradient with
    step ``1/L`` where ``L`` is estimated by power iteration. After
    convergence the detected support is refit by least squares to remove
    the shrinkage bias, then ``C v`` is rounded to the lattice. ``mu``
    weighs the l1 penalty; None means ``0.1 * max |F y|``.
    """
    _check_finite(y, "recovery input")
    K = oob.K
    Fy = oob.apply(y)
    if mu is None:
        mu = 0.1 * float(np.abs(Fy).max())
    if mu < 0:
        raise ConfigurationError("mu must be nonnegative")

    def smooth_grad(v):
        z = oob.apply(np.cumsum(v, axis=0)) + Fy
        g = 2.0 * _cumsum_adjoint(oob.adjoint(z).real)
        return g, float((np.abs(z) ** 2).sum())

    def ata(v):
        z = oob.apply(np.cumsum(v, axis=0))
        return _cumsum_adjoint(oob.adjoint(z).real)

    rng = np.random.default_rng(0)
    w = rng.standard_normal(y.shape)
    L = 1.0
    for _ in range(60):
        w2 = ata(w)
        L = float(np.linalg.norm(w2))
        w = w2 / max(L, 1e-300)
    L = max(2.0 * L, 1e-12)

    def soft(x, t):
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    v = np.zeros_like(y)
    v_prev = v.copy()
    t_mom = 1.0
    prev_obj = math.inf
    it = 0
    converged = False
    for it in range(1, LASSO_MAX_ITERS + 1):
        w = v + ((t_mom - 1.0) / (t_mom + 2.0)) * (v - v_prev)
        g, quad = smooth_grad(w)
        if not math.isfinite(quad):
            raise RecoveryNumericalError(it)
        v_new = soft(w - g / L, mu / L)
        obj = quad + mu * float(np.abs(w).sum())
        if abs(prev_obj - obj) <= LASSO_TOL * max(obj, 1e-300):
            v_prev, v = v, v_new
            converged = True
            break
        v_prev, v, prev_obj, t_mom = v, v_new, obj, t_mom + 1.0

    peak = float(np.abs(v).max())
    rows = np.where(np.abs(v).max(axis=1) > 1e-8 * max(peak, 1e-300))[0]
    if rows.size:
        C = np.zeros((K, rows.size))
        for j, i in enumerate(rows):
            C[i:, j] = 1.0
        Fc = oob.apply(C)
        A = np.vstack([Fc.real, Fc.imag])
        b = -np.vstack([Fy.real, Fy.imag])
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        v = np.zeros_like(v)
        v[rows] = sol

    p_hat = snap_to_lattice(lattice, nearest_point(np.cumsum(v, axis=0), lattice))
    obj = float((np.abs(oob.apply(p_hat) + Fy) ** 2).sum())
    return RecoveryResult(f_hat=y + p_hat, p_hat=p_hat, iterations=it,
                          converged=converged, objective=obj)


def check_recovery(p_hat: np.ndarray, p_true: np.ndarray,
                   lattice: ScaledLattice) -> int:
    """Number of rows whose lattice offsets differ (0 means full recovery)."""
    p_hat = np.asarray(p_hat, dtype=float)
    p_true = np.asarray(p_true, dtype=float)
    if p_hat.shape != p_true.shape:
        raise ConfigurationError("offset arrays must have identical shape")
    k_hat = np.round(lattice.basis_inv @ p_hat.T)
    k_true = np.round(lattice.basis_inv @ p_true.T)
    return int(np.any(k_hat != k_true, axis=0).sum())

"""Scaled lattices, exact nearest-point quantizers, and the modulo fold.

Supported families (all normalized to inradius ``lam``, i.e. minimum
distance ``2*lam``):

* ``"zn"``  -- cubic lattice ``2*lam * Z^n``, any ``n >= 1``
* ``"a2"``  -- hexagonal lattice in 2D
* ``"dn"``  -- checkerboard lattice (even coordinate sum), ``n >= 2``
* ``"e8"``  -- the 8-dimensional even unimodular lattice

Each family is a union of cosets of a scaled ``Z^n`` or ``D_n`` (Conway &
Sloane, IEEE Trans. IT 28(2), 1982), and one exact, vectorized decoder
rounds into every coset and keeps the nearest candidate, for a single
vector ``(n,)`` or a batch ``(m, n)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from typing import Callable

import numpy as np

ZN = "zn"
A2 = "a2"
DN = "dn"
E8 = "e8"

FAMILIES = (ZN, A2, DN, E8)


class ConfigurationError(ValueError):
    """Invalid lattice family / dimension / parameter combination."""


class UnsupportedLatticeError(ValueError):
    """Requested operation is not available for this lattice family."""


class NonFiniteInputError(ValueError):
    """A nearest-point query, channel or recoverer got NaN or infinite input."""


def _check_finite(x, what: str) -> None:
    """Raise NonFiniteInputError if ``x`` holds NaN or an infinity."""
    if not np.isfinite(x).all():
        raise NonFiniteInputError(f"{what} holds NaN or infinite values")


@dataclass(frozen=True)
class ScaledLattice:
    """A lattice family instantiated at dimension ``n`` and inradius ``lam``.

    ``basis`` holds the generator matrix (columns are basis vectors) and
    ``basis_inv`` its inverse, both read-only; ``d_min`` the minimum
    distance (= ``2*lam``) and ``volume`` the fundamental cell volume
    ``|det basis|``. ``scale`` maps the family's unit coset coordinates to
    signal units: one factor for every axis, or a read-only per-axis array
    where the axes differ (a2).
    """

    family: str
    n: int
    lam: float
    basis: np.ndarray
    d_min: float
    volume: float
    scale: float | np.ndarray
    basis_inv: np.ndarray

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.basis_inv.setflags(write=False)

    @property
    def covering_radius(self) -> float:
        """Largest distance from any point to its nearest lattice point.

        Attained at the deep holes (Conway & Sloane, SPLAG, ch. 2 and 4):
        ``lam*(1, ..., 1)`` for Z^n, a hexagon vertex for a2,
        ``scale*(1, 0, ..., 0)`` and ``scale*(1/2, ..., 1/2)`` for D_n, and
        ``scale*(1, 0^7)`` for E8.
        """
        if self.family == ZN:
            return self.lam * math.sqrt(self.n)
        if self.family == A2:
            return 2.0 * self.lam / math.sqrt(3.0)
        if self.family == DN:
            return self.scale * max(1.0, math.sqrt(self.n) / 2.0)
        return self.scale                                   # e8


def _unit_dn_basis(n: int) -> np.ndarray:
    # columns: e1+e2, then e_{i-1} - e_i; |det| = 2
    B = np.zeros((n, n))
    B[0, 0] = B[1, 0] = 1.0
    for i in range(1, n):
        B[i - 1, i] = 1.0
        B[i, i] = -1.0
    return B


def _unit_e8_basis() -> np.ndarray:
    # even-coordinate construction: D8 generators plus the half vector
    B = np.zeros((8, 8))
    B[0, 0] = 2.0
    for i in range(1, 7):
        B[i - 1, i] = -1.0
        B[i, i] = 1.0
    B[:, 7] = 0.5
    return B


def make_lattice(family: str, n: int, lam: float) -> ScaledLattice:
    """Build a ScaledLattice with inradius ``lam`` (so ``d_min = 2*lam``)."""
    if lam <= 0:
        raise ConfigurationError(f"inradius must be positive, got {lam}")
    lam = float(lam)
    if family == ZN:
        if n < 1:
            raise ConfigurationError("zn requires n >= 1")
        scale = 2.0 * lam
        basis = scale * np.eye(n)
        volume = scale**n
    elif family == A2:
        if n != 2:
            raise ConfigurationError("a2 requires n = 2")
        basis = 2.0 * lam * np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
        volume = 2.0 * np.sqrt(3.0) * lam * lam
        scale = 2.0 * lam * np.array([1.0, np.sqrt(3.0)])   # 2*lam*(Z x sqrt(3)Z)
        scale.setflags(write=False)
    elif family == DN:
        if n < 2:
            raise ConfigurationError("dn requires n >= 2")
        scale = lam * np.sqrt(2.0)
        basis = scale * _unit_dn_basis(n)
        volume = 2.0 * scale**n
    elif family == E8:
        if n != 8:
            raise ConfigurationError("e8 requires n = 8")
        scale = lam * np.sqrt(2.0)
        basis = scale * _unit_e8_basis()
        volume = scale**8
    else:
        raise ConfigurationError(f"unknown lattice family {family!r}")
    return ScaledLattice(family=family, n=n, lam=lam, basis=basis,
                         d_min=2.0 * lam, volume=float(volume), scale=scale,
                         basis_inv=np.linalg.inv(basis))


def _round_half_toward_zero(u: np.ndarray, half=0.5) -> np.ndarray:
    # fractions up to ``half`` (default: exact .5 ties) round toward zero
    a = np.abs(u)
    a -= half
    np.ceil(a, out=a)
    return np.copysign(a, u, out=a)


def _q_dn_unit(u: np.ndarray) -> np.ndarray:
    """Nearest point of unit D_n for batched input (m, n).

    Rounds every coordinate, and if the coordinate sum is odd re-rounds the
    coordinate furthest from an integer in the opposite direction.
    """
    f = _round_half_toward_zero(u)
    odd = np.flatnonzero(np.abs(f.sum(axis=-1)) % 2 > 0.5)
    j = np.argmax(np.abs(u[odd] - f[odd]), axis=-1)   # furthest ties -> lowest index
    fj = f[odd, j]
    dj = u[odd, j] - fj
    # flip toward the second-nearest integer; exact integers flip toward zero
    f[odd, j] = fj + np.where(dj != 0, np.sign(dj), np.where(fj > 0, -1.0, 1.0))
    return f


@dataclass(frozen=True)
class _CosetCode:
    """A lattice family as a union of cosets of a unit Z^n or D_n.

    ``base`` decodes the unit lattice row-wise; the zero coset comes first,
    then one coset per row of ``shifts`` (unit coordinates). ``weights``
    scale each axis's squared distance (None: all alike). With ``tie_tol``
    None exact ties keep the earlier coset; else distances within
    ``tie_tol`` are ties and go to the smaller norm, in ``base`` as well.
    """

    base: Callable[[np.ndarray], np.ndarray]
    shifts: np.ndarray | None = None
    weights: np.ndarray | None = None
    tie_tol: float | None = None

    def sq(self, v: np.ndarray) -> np.ndarray:
        v = v * v
        if self.weights is None:
            return v.sum(axis=-1)
        # a 2-D product runs as one BLAS call; a stacked one loops per row
        return (v.reshape(-1, v.shape[-1]) @ self.weights).reshape(v.shape[:-1])


# the hexagon: 2*lam*(Z x sqrt(3)Z) and its shift by (lam, sqrt(3)*lam). Ties:
# distances within 1e-9 * lam^2 (1e-9 / 4 in units of (2*lam)^2), so rounding
# sends fractions within tie / (2 * weight) of one half toward zero
_A2_WEIGHTS = np.array([1.0, 3.0])
_A2_TIE = 1e-9 / 4.0

_CODES = {
    ZN: _CosetCode(_round_half_toward_zero),
    DN: _CosetCode(_q_dn_unit),
    E8: _CosetCode(_q_dn_unit, shifts=np.full((1, 8), 0.5)),
    A2: _CosetCode(partial(_round_half_toward_zero,
                           half=0.5 + _A2_TIE / (2.0 * _A2_WEIGHTS)),
                   shifts=np.full((1, 2), 0.5), weights=_A2_WEIGHTS, tie_tol=_A2_TIE),
}


def _decode(x, code: _CosetCode, scale) -> np.ndarray:
    """Nearest point of the code's coset union, scaled by ``scale``.

    Decodes the rows of ``x`` (the last axis) in every coset at once and
    keeps the nearest candidate under the code's tie rule.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x, "nearest-point query")
    u = x.reshape(-1, x.shape[-1]) / scale
    if code.shifts is None:
        return (code.base(u) * scale).reshape(x.shape)
    c = np.concatenate([u[None], u - code.shifts[:, None]])      # (cosets, m, n)
    c = code.base(c.reshape(-1, u.shape[1])).reshape(c.shape)
    c[1:] += code.shifts[:, None]
    d = code.sq(u - c)                                           # (cosets, m)
    if code.tie_tol is not None:
        d = np.where(d <= d.min(axis=0) + code.tie_tol, code.sq(c), np.inf)
    best, d_best = c[0], d[0]
    for ck, dk in zip(c[1:], d[1:]):          # only a strictly nearer coset wins
        np.copyto(best, ck, where=(dk < d_best)[:, None])
        d_best = np.minimum(d_best, dk)
    return (best * scale).reshape(x.shape)


def nearest_point(x, lattice: ScaledLattice) -> np.ndarray:
    """Nearest lattice point of each row of ``x`` (rows of width ``lattice.n``)."""
    if np.shape(x)[-1:] != (lattice.n,):
        raise ConfigurationError(f"{lattice.family}({lattice.n}) got shape {np.shape(x)}")
    return _decode(x, _CODES[lattice.family], lattice.scale)


def fold(x, lattice: ScaledLattice):
    """Lattice modulo: returns ``(residue, offset)`` with ``x = residue + offset``.

    The offset is the nearest lattice point and the residue lies in the
    closed Voronoi cell of the origin.
    """
    x = np.asarray(x, dtype=float)
    offset = nearest_point(x, lattice)
    return x - offset, offset


def folds_to_zero(x, lattice: ScaledLattice) -> bool:
    """Whether every row of ``x`` has the origin as its nearest lattice point.

    Equals ``np.all(nearest_point(x, lattice) == 0)`` but decides from row
    norms first: a row farther out than the covering radius has a nearer
    lattice point, and a row strictly inside the inradius has none. A 1e-9
    relative margin on both radii leaves every close case, ties included,
    to the decoder, which sees only the rows between the two radii.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (lattice.n,):
        raise ConfigurationError(f"{lattice.family}({lattice.n}) got shape {x.shape}")
    _check_finite(x, "nearest-point query")
    x = x.reshape(-1, lattice.n)
    r2 = np.einsum("ij,ij->i", x, x)
    if r2.max(initial=0.0) > (lattice.covering_radius * (1.0 + 1e-9)) ** 2:
        return False
    between = r2 >= (lattice.lam * (1.0 - 1e-9)) ** 2
    return not (between.any() and nearest_point(x[between], lattice).any())


def is_lattice_point(lattice: ScaledLattice, v, rtol: float = 1e-9) -> bool:
    """Membership test: basis coordinates integral to relative tolerance."""
    k = lattice.basis_inv @ np.atleast_2d(np.asarray(v, dtype=float)).T
    return bool(np.all(np.abs(k - np.round(k)) <= rtol * np.maximum(1.0, np.abs(k))))


def snap_to_lattice(lattice: ScaledLattice, v) -> np.ndarray:
    """Round basis coordinates to integers and map back (exact cleanup)."""
    v = np.asarray(v, dtype=float)
    k = np.round(lattice.basis_inv @ np.atleast_2d(v).T)
    return (lattice.basis @ k).T.reshape(v.shape)


def _pm_pairs(n: int) -> np.ndarray:
    """The 2n(n-1) vectors +-e_i +-e_j (i < j): the minimal vectors of D_n."""
    vs = []
    for i, j in combinations(range(n), 2):
        for si, sj in product((1.0, -1.0), repeat=2):
            v = np.zeros(n)
            v[i], v[j] = si, sj
            vs.append(v)
    return np.array(vs)


def relevant_vectors(lattice: ScaledLattice) -> np.ndarray:
    """Minimal vectors defining the Voronoi facets (comparator directions).

    Counts: 2n for the cubic lattice, 6 for the hexagon, 2n(n-1) for D_n
    (24 for D4) and 240 for E8. The set is closed under negation and every
    vector has norm ``2*lam``.
    """
    if lattice.family == ZN:
        eye = lattice.scale * np.eye(lattice.n)
        return np.vstack([eye, -eye])
    if lattice.family == A2:
        v1, v2 = lattice.basis.T
        vs = np.array([v1, v2, v1 - v2])
        return np.vstack([vs, -vs])
    vs = _pm_pairs(lattice.n)
    if lattice.family == E8:
        halves = [signs for signs in product((0.5, -0.5), repeat=8)
                  if sum(1 for t in signs if t < 0) % 2 == 0]
        vs = np.vstack([vs, halves])
    return lattice.scale * vs


def fold_iterative(x, lattice: ScaledLattice, max_steps: int = 100000) -> np.ndarray:
    """Comparator-style fold: subtract a facet vector while one is crossed.

    Repeatedly finds a relevant vector ``p`` with ``<p, r> > |p|^2 / 2`` and
    updates ``r <- r - p``. Each correction strictly decreases ``|r|``, so
    the loop terminates with ``r`` in the closed Voronoi cell and
    ``x - r`` in the lattice.
    """
    pv = relevant_vectors(lattice)
    half = 0.5 * (pv**2).sum(axis=1)
    eps = 1e-12 * lattice.d_min**2
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    r = np.atleast_2d(x).copy()
    active = np.arange(r.shape[0])
    for _ in range(max_steps):
        viol = r[active] @ pv.T - half[None, :]
        worst = np.argmax(viol, axis=1)
        crossed = viol[np.arange(active.size), worst] > eps
        if not crossed.any():
            break
        idx = active[crossed]
        r[idx] -= pv[worst[crossed]]
        active = idx
    else:
        raise RuntimeError("comparator fold failed to settle")
    return r[0] if single else r


def voronoi_cell_polygon(lattice: ScaledLattice) -> np.ndarray:
    """Vertices of the 2D Voronoi cell, ordered by angle (closed polygon).

    Each vertex is the intersection of two adjacent facet bisectors
    ``<p, x> = |p|^2 / 2``.
    """
    if lattice.n != 2:
        raise UnsupportedLatticeError("cell polygon available only in 2D")
    pv = relevant_vectors(lattice)
    order = np.argsort(np.arctan2(pv[:, 1], pv[:, 0]))
    pv = pv[order]
    verts = []
    m = len(pv)
    for i in range(m):
        a, b = pv[i], pv[(i + 1) % m]
        A = np.array([a, b])
        rhs = 0.5 * np.array([a @ a, b @ b])
        verts.append(np.linalg.solve(A, rhs))
    verts.append(verts[0])
    return np.array(verts)


def in_voronoi_cell(lattice: ScaledLattice, r, tol: float = 1e-9) -> bool:
    """Closed-cell test via the facet inequalities."""
    pv = relevant_vectors(lattice)
    half = 0.5 * (pv**2).sum(axis=1)
    r = np.atleast_2d(np.asarray(r, dtype=float))
    return bool(np.all(r @ pv.T <= half[None, :] + tol))

"""Scaled lattices, exact nearest-point quantizers, and the modulo fold.

Supported families (all normalized to inradius ``lam``, i.e. minimum
distance ``2*lam``):

* ``"zn"``  -- cubic lattice ``2*lam * Z^n``, any ``n >= 1``
* ``"a2"``  -- hexagonal lattice in 2D
* ``"dn"``  -- checkerboard lattice (even coordinate sum), ``n >= 2``
* ``"e8"``  -- the 8-dimensional even unimodular lattice

Each family is one record of ``_SPECS``: a union of cosets of a scaled Z^n
or D_n (Conway & Sloane, IEEE Trans. IT 28(2), 1982), its generator matrix
in the unit coordinates of those cosets, its scale, cell volume, covering
radius and allowed dimensions. One exact, vectorized decoder rounds into
every coset and keeps the nearest candidate, for a single vector ``(n,)``
or a batch ``(m, n)``. The Voronoi-relevant vectors (the facet normals of
the cell) are derived from the generator matrix and that decoder alone,
for any family up to ``n = 10``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

ZN = "zn"
A2 = "a2"
DN = "dn"
E8 = "e8"


class ConfigurationError(ValueError):
    """Invalid lattice family / dimension / parameter combination."""


def _is_integer(value) -> bool:       # a Python or NumPy integer, not a bool
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ConfigurationError, naming ``name``, unless ``value`` is an integer >= ``minimum``."""
    if not (_is_integer(value) and value >= minimum):
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_positive(name: str, value, above: float = 0.0) -> None:
    """Raise ConfigurationError, naming ``name``, unless ``value`` is a finite real > ``above``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and above < value < math.inf):
        bound = "positive" if above == 0 else f"above {above:g}"
        raise ConfigurationError(f"{name} must be {bound} and finite, got {value!r}")


class UnsupportedLatticeError(ValueError):
    """Requested operation is not available for this lattice family."""


class NonFiniteInputError(ValueError):
    """A nearest-point query, channel or recoverer got NaN or infinite input."""


class InputRangeError(ValueError):
    """A nearest-point query has a coordinate of 2**52 lattice units or more.

    A float that large has no fraction left, so the decoders cannot tell
    the cosets apart and would return the query unchanged.
    """


_MAX_UNITS = 2.0**52


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
    where the axes differ.
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
        """Largest distance from any point to its nearest lattice point."""
        return _SPECS[self.family].covering(self.lam, self.n)


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
class _Family:
    """A lattice family: a union of cosets of a unit Z^n or D_n, scaled.

    ``base`` decodes the unit lattice row-wise; the zero coset comes first,
    then one coset per row of ``shifts`` (unit coordinates). ``weights``
    scale each axis's squared distance (None: all alike). With ``tie_tol``
    None exact ties keep the earlier coset; else distances within
    ``tie_tol`` are ties and go to the smaller norm, in ``base`` as well.
    ``basis(n)`` generates the family in unit coordinates with cell volume
    ``volume``; ``lam * scale`` maps them to signal units, per axis if an
    array. ``covering(lam, n)`` is the covering radius; ``dims`` bounds n.
    """

    base: Callable[[np.ndarray], np.ndarray]
    basis: Callable[[int], np.ndarray]
    volume: float
    scale: float | np.ndarray
    covering: Callable[[float, int], float]
    dims: tuple
    shifts: np.ndarray | None = None
    weights: np.ndarray | None = None
    tie_tol: float | None = None

    def sq(self, v: np.ndarray) -> np.ndarray:
        v = v * v
        if self.weights is None:
            return v.sum(axis=-1)
        # a 2-D product runs as one BLAS call; a stacked one loops per row
        return (v.reshape(-1, v.shape[-1]) @ self.weights).reshape(v.shape[:-1])


def _unit_dn_basis(n: int) -> np.ndarray:
    # columns: e1+e2, then e_{i-1} - e_i; |det| = 2
    B = np.eye(n, k=1) - np.eye(n)
    B[:2, 0] = 1.0
    return B


def _unit_e8_basis(n: int) -> np.ndarray:
    # even-coordinate construction: D8 generators plus the half vector
    B = np.eye(n) - np.eye(n, k=1)
    B[0, 0] = 2.0
    B[:, -1] = 0.5
    return B


# the hexagon: 2*lam*(Z x sqrt(3)Z) and its shift by (lam, sqrt(3)*lam). Ties:
# distances within 1e-9 * lam^2 (1e-9 / 4 in units of (2*lam)^2), so rounding
# sends fractions within tie / (2 * weight) of one half toward zero
_A2_WEIGHTS = np.array([1.0, 3.0])
_A2_TIE = 1e-9 / 4.0

# covering radii are attained at the deep holes (SPLAG, ch. 2 and 4):
# lam*(1, ..., 1) for Z^n, a hexagon vertex for a2, scale*(1, 0, ..., 0) and
# scale*(1/2, ..., 1/2) for D_n, and scale*(1, 0^7) for E8
_SPECS = {
    ZN: _Family(_round_half_toward_zero, np.eye, 1.0, 2.0,
                lambda lam, n: lam * math.sqrt(n), (1, math.inf)),
    A2: _Family(partial(_round_half_toward_zero, half=0.5 + _A2_TIE / (2.0 * _A2_WEIGHTS)),
                lambda n: np.array([[1.0, 0.5], [0.0, 0.5]]), 0.5,
                np.array([2.0, 2.0 * math.sqrt(3.0)]),
                lambda lam, n: 2.0 * lam / math.sqrt(3.0), (2, 2),
                shifts=np.full((1, 2), 0.5), weights=_A2_WEIGHTS, tie_tol=_A2_TIE),
    DN: _Family(_q_dn_unit, _unit_dn_basis, 2.0, math.sqrt(2.0),
                lambda lam, n: lam * math.sqrt(2.0) * max(1.0, math.sqrt(n) / 2.0),
                (2, math.inf)),
    E8: _Family(_q_dn_unit, _unit_e8_basis, 1.0, math.sqrt(2.0),
                lambda lam, n: lam * math.sqrt(2.0), (8, 8), shifts=np.full((1, 8), 0.5)),
}
FAMILIES = tuple(_SPECS)


def make_lattice(family: str, n: int, lam: float) -> ScaledLattice:
    """Build a ScaledLattice with inradius ``lam`` (so ``d_min = 2*lam``)."""
    _check_positive("inradius", lam)
    if family not in FAMILIES:
        raise ConfigurationError(f"unknown lattice family {family!r}")
    spec = _SPECS[family]
    if not (_is_integer(n) and spec.dims[0] <= n <= spec.dims[1]):
        raise ConfigurationError(
            f"{family} requires an integer {spec.dims[0]} <= n <= {spec.dims[1]}, got {n!r}")
    lam = float(lam)
    with np.errstate(all="ignore"):                     # overflow and underflow: checked below
        scale = lam * spec.scale
        volume = spec.volume * (np.prod(scale) if np.ndim(scale) else np.float64(scale) ** n)
        basis = np.reshape(scale, (-1, 1)) * spec.basis(n)
    # a finite basis has a finite scale: each row is one axis's scale times a nonzero row
    if not (np.isfinite(basis).all() and 0 < volume < math.inf
            and np.isfinite(basis_inv := np.linalg.inv(basis)).all()):
        raise ConfigurationError(f"inradius {lam!r} puts the {family}({n}) lattice "
                                 "out of floating-point range")
    if np.ndim(scale):
        scale.setflags(write=False)
    return ScaledLattice(family=family, n=n, lam=lam, basis=basis,
                         d_min=2.0 * lam, volume=float(volume), scale=scale,
                         basis_inv=basis_inv)


def _decode(x, spec: _Family, scale) -> np.ndarray:
    """Nearest point of the family's coset union, scaled by ``scale``.

    Decodes the rows of ``x`` (the last axis) in every coset at once and
    keeps the nearest candidate under the family's tie rule. NaN and inf
    raise NonFiniteInputError, and ``|x|/scale >= 2**52`` InputRangeError.
    """
    x = np.asarray(x, dtype=float)
    u = x.reshape(-1, x.shape[-1]) / scale
    top = np.abs(u).max(initial=0.0)        # one reduction: NaN propagates
    if not top < _MAX_UNITS:
        _check_finite(x, "nearest-point query")
        raise InputRangeError(f"nearest-point query has |x|/scale = {top:.3g} >= 2**52")
    if spec.shifts is None:
        return (spec.base(u) * scale).reshape(x.shape)
    c = np.concatenate([u[None], u - spec.shifts[:, None]])      # (cosets, m, n)
    c = spec.base(c.reshape(-1, u.shape[1])).reshape(c.shape)
    c[1:] += spec.shifts[:, None]
    d = spec.sq(u - c)                                           # (cosets, m)
    if spec.tie_tol is not None:
        d = np.where(d <= d.min(axis=0) + spec.tie_tol, spec.sq(c), np.inf)
    best, d_best = c[0], d[0]
    for ck, dk in zip(c[1:], d[1:]):          # only a strictly nearer coset wins
        np.copyto(best, ck, where=(dk < d_best)[:, None])
        d_best = np.minimum(d_best, dk)
    return (best * scale).reshape(x.shape)


def nearest_point(x, lattice: ScaledLattice) -> np.ndarray:
    """Nearest lattice point of each row of ``x`` (rows of width ``lattice.n``)."""
    if np.shape(x)[-1:] != (lattice.n,):
        raise ConfigurationError(f"{lattice.family}({lattice.n}) got shape {np.shape(x)}")
    return _decode(x, _SPECS[lattice.family], lattice.scale)


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


def snap_to_lattice(lattice: ScaledLattice, v) -> np.ndarray:
    """Round basis coordinates to integers and map back (exact cleanup)."""
    v = np.asarray(v, dtype=float)
    k = np.round(lattice.basis_inv @ np.atleast_2d(v).T)
    return (lattice.basis @ k).T.reshape(v.shape)


_MAX_FACET_DIM = 10     # the Gram test holds 4^n entries: 33 MB at n = 10


def relevant_vectors(lattice: ScaledLattice) -> np.ndarray:
    """Voronoi-relevant vectors: the facet normals (comparator directions).

    v is relevant when +-v are the only shortest vectors of v + 2*Lambda
    (Conway & Sloane, SPLAG ch. 2). In unit coordinates the family's own
    decoder gives one shortest vector ``c - 2*Q(c/2)`` of each of the
    2^n - 1 nonzero classes ``c + 2*Lambda``. Of these and their negations,
    v is kept unless another candidate r has ``<v, r> >= |r|^2``: a
    relevant v has v/2 inside its facet, where every other such inequality
    is strict, and a non-relevant one has v/2 on a lower-dimensional face,
    where a relevant vector is tight. Both sides are exact in unit
    coordinates. Counts: 2n for the cubic lattice, 6 for the hexagon,
    2n(n-1) for D_n (24 for D4) and 240 for E8. The test costs O(4^n), so
    n > 10 raises UnsupportedLatticeError.
    """
    n = lattice.n
    if n > _MAX_FACET_DIM:
        raise UnsupportedLatticeError(
            f"relevant vectors are enumerated up to n = {_MAX_FACET_DIM}, got n = {n}")
    spec = _SPECS[lattice.family]
    k = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1     # classes of Lambda/2Lambda
    mid = 0.5 * (k @ spec.basis(n).T)
    v = 2.0 * (mid - _decode(mid, spec, 1.0))
    v = np.vstack([v, -v])
    gram = (v if spec.weights is None else v * spec.weights) @ v.T
    tight = gram >= np.diag(gram)[None, :]                    # <v_i, v_j> >= |v_j|^2
    np.fill_diagonal(tight, False)
    return v[~tight.any(axis=1)] * lattice.scale


def fold_iterative(x, lattice: ScaledLattice) -> np.ndarray:
    """Comparator-style fold: subtract a facet vector while one is crossed.

    Repeatedly finds a relevant vector ``p`` with ``<p, r> > |p|^2 / 2`` and
    updates ``r <- r - p``. Each correction strictly decreases ``|r|``, so
    the loop terminates with ``r`` in the closed Voronoi cell and
    ``x - r`` in the lattice; RuntimeError if it has not after 100000 steps.
    """
    pv = relevant_vectors(lattice)
    half = 0.5 * (pv**2).sum(axis=1)
    eps = 1e-12 * lattice.d_min**2
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    r = np.atleast_2d(x).copy()
    active = np.arange(r.shape[0])
    for _ in range(100000):
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


def in_voronoi_cell(lattice: ScaledLattice, r) -> bool:
    """Closed-cell test via the facet inequalities ``r . v <= |v|^2 / 2``.

    Each facet has a slack of 2e-9 relative to its ``|v|^2 / 2``, so the test
    scales with the inradius.
    """
    pv = relevant_vectors(lattice)
    half = 0.5 * (pv**2).sum(axis=1)
    r = np.atleast_2d(np.asarray(r, dtype=float))
    return bool(np.all(r @ pv.T <= half[None, :] * (1 + 2e-9)))

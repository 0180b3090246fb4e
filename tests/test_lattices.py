import re
from itertools import combinations, product

import numpy as np
import pytest

from latfold import (A2, DN, E8, ZN, ConfigurationError, InputRangeError,
                     NonFiniteInputError, UnsupportedLatticeError, fold,
                     fold_iterative, folds_to_zero, in_voronoi_cell, make_lattice,
                     nearest_point, relevant_vectors, snap_to_lattice, voronoi_cell_polygon)
from oracles import closest_point

UNIT_E8 = 1.0 / np.sqrt(2.0)   # inradius that puts dn/e8 at unit-lattice scale


def unit(family, n):
    """The family at unit-lattice scale: Z^n, D_n and E8 in integer coordinates."""
    lat = make_lattice(family, n, 0.5 if family == ZN else UNIT_E8)
    assert lat.scale == 1.0
    return lat


# ---------------------------------------------------------------- construction

def test_make_lattice_z1():
    lat = make_lattice(ZN, 1, 1.0)
    assert lat.d_min == 2.0
    assert lat.volume == pytest.approx(2.0)


def test_make_lattice_a2_volume():
    lat = make_lattice(A2, 2, 1.0)
    assert lat.volume == pytest.approx(2 * np.sqrt(3))
    assert lat.volume / 4.0 == pytest.approx(0.866, abs=5e-4)


def test_make_lattice_e8_volume_ratio():
    lat = make_lattice(E8, 8, 1.0)
    assert lat.volume / 2.0**8 == pytest.approx(0.0625)


def test_make_lattice_dn_volume():
    lat = make_lattice(DN, 4, 1.0)
    assert lat.volume == pytest.approx(2 * np.sqrt(2) ** 4)
    assert lat.volume / 2.0**4 == pytest.approx(0.5)


@pytest.mark.parametrize("family,n", [(A2, 3), (E8, 4), (DN, 1), (ZN, 0), (ZN, 2.5), (ZN, True)])
def test_make_lattice_bad_dimension(family, n):
    with pytest.raises(ConfigurationError):
        make_lattice(family, n, 1.0)


def test_make_lattice_bad_inradius():
    with pytest.raises(ConfigurationError):
        make_lattice(ZN, 2, 0.0)


@pytest.mark.parametrize("family,n,lam", [(ZN, 2, 1e308), (DN, 4, 1e100), (E8, 8, 1e-310)])
def test_make_lattice_rejects_inradius_out_of_float_range(family, n, lam):
    # inf scale, an overflowing volume, and a zero volume with an infinite inverse
    with pytest.raises(ConfigurationError, match=re.escape(
            f"inradius {lam!r} puts the {family}({n}) lattice out of floating-point range")):
        make_lattice(family, n, lam)


def test_basis_generates_volume():
    for fam, n in [(ZN, 3), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 0.7)
        assert abs(np.linalg.det(lat.basis)) == pytest.approx(lat.volume)


# ----------------------------------------------------------- rounding/tie rules

def test_zn_plain_rounding():
    assert np.allclose(nearest_point(np.array([0.4, -0.6]), unit(ZN, 2)), [0, -1])


def test_zn_half_tie_toward_zero():
    assert nearest_point(np.array([0.5]), unit(ZN, 1))[0] == 0.0
    assert nearest_point(np.array([-1.5]), unit(ZN, 1))[0] == -1.0
    assert nearest_point(np.array([1.5]), unit(ZN, 1))[0] == 1.0


def test_dn_worked_reference_vector():
    x = np.array([1.8, -3.6, 5.1, 0.7, -4.9, 2.6, 6.2, -2.7])
    got = nearest_point(x, unit(DN, 8))
    assert np.array_equal(got, [2, -3, 5, 1, -5, 3, 6, -3])
    assert got.sum() == 6


def test_dn_fixed_point_and_brute():
    assert np.array_equal(nearest_point(np.array([0.0, 0.0]), unit(DN, 2)), [0, 0])
    x = np.array([0.6, 0.6])
    best = closest_point(x, [[1.0, 1.0], [1.0, -1.0]])    # D2: even-sum Z^2
    assert np.array_equal(nearest_point(x, unit(DN, 2)), best)
    assert np.array_equal(best, [1, 1])


def test_e8_worked_reference_vector():
    x = np.array([2.3, -3.1, 5.6, 1.2, -4.4, 3.1, 6.7, -2.2])
    q = nearest_point(x, unit(E8, 8))
    assert np.array_equal(q, [2, -3, 6, 1, -4, 3, 7, -2])
    assert np.allclose(x - q, [0.3, -0.1, -0.4, 0.2, -0.4, 0.1, -0.3, -0.2])


def test_e8_lattice_point_fixed():
    p = np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(nearest_point(p, unit(E8, 8)), p)
    h = np.full(8, 0.5)
    assert np.array_equal(nearest_point(h, unit(E8, 8)), h)


def test_e8_deep_hole_tie_keeps_integer_coset():
    # (1/4, ..., 1/4) is equidistant from 0 and the all-half point
    x = np.full(8, 0.25)
    d0 = (x**2).sum()
    dh = ((x - 0.5) ** 2).sum()
    assert d0 == pytest.approx(dh)
    assert np.array_equal(nearest_point(x, unit(E8, 8)), np.zeros(8))


def test_e8_tie_keeps_integer_coset_over_smaller_norm():
    # (3/4, ..., 3/4) is equidistant from all-ones and the all-half point;
    # the integer coset wins although its norm is larger
    x = np.full(8, 0.75)
    assert ((x - 1.0) ** 2).sum() == ((x - 0.5) ** 2).sum()
    for s in (1.0, 0.5, 2.0):
        lat = make_lattice(E8, 8, s / np.sqrt(2.0))
        assert lat.scale == s
        assert np.array_equal(nearest_point(s * x, lat), np.full(8, s))


def test_a2_trivial_points():
    lat = make_lattice(A2, 2, 1.0)
    assert np.array_equal(nearest_point(np.zeros(2), lat), [0, 0])
    assert np.allclose(nearest_point(np.array([2.0, 0.0]), lat), [2, 0])


def test_a2_boundary_tie_smaller_norm():
    # (1, 0.5) is equidistant from (0,0) and (2,0); tie -> smaller norm
    lat = make_lattice(A2, 2, 1.0)
    got = nearest_point(np.array([1.0, 0.5]), lat)
    assert np.array_equal(got, [0, 0])


@pytest.mark.parametrize("lam", [1.0, 0.7, 3.0])
def test_a2_cross_coset_tie_smaller_norm(lam):
    # (3.5, sqrt(3)/2)*lam is equidistant from (4, 0)*lam in the rectangular
    # coset and (3, sqrt(3))*lam in its shift; the smaller norm wins, so the
    # earlier coset must not
    lat = make_lattice(A2, 2, lam)
    x = np.array([3.5, np.sqrt(3.0) / 2.0]) * lam
    near, far = np.array([3.0, np.sqrt(3.0)]) * lam, np.array([4.0, 0.0]) * lam
    assert ((x - near) ** 2).sum() == pytest.approx(((x - far) ** 2).sum())
    assert np.allclose(nearest_point(x, lat), near, rtol=0, atol=1e-12 * lam)
    assert np.allclose(nearest_point(-x, lat), -near, rtol=0, atol=1e-12 * lam)


def test_a2_near_tie_within_coset_smaller_norm():
    # (3 + 1e-12, 0.47) is nearer to (4, 0) by about 4e-12, inside the 1e-9
    # tie band, so the smaller-norm (2, 0) of the same coset wins
    lat = make_lattice(A2, 2, 1.0)
    assert np.array_equal(nearest_point(np.array([3.0 + 1e-12, 0.47]), lat), [2, 0])
    assert np.array_equal(nearest_point(np.array([-3.0 - 1e-12, 0.47]), lat), [-2, 0])


def test_a2_brute_force_window():
    lat = make_lattice(A2, 2, 1.0)
    x = np.array([1.0, 0.5])
    best = closest_point(x, lat.basis)
    got = nearest_point(x, lat)
    assert ((got - x) ** 2).sum() == pytest.approx(((best - x) ** 2).sum())


# ------------------------------------------------------------------- oracle

FAMILY_DIMS = [(ZN, 1), (ZN, 2), (ZN, 5), (ZN, 8), (A2, 2), (DN, 2), (DN, 3), (DN, 4),
               (DN, 6), (DN, 8), (E8, 8)]


@pytest.mark.parametrize("family,n", FAMILY_DIMS)
def test_nearest_point_matches_brute_force(family, n):
    lam = 0.8
    lat = make_lattice(family, n, lam)
    rng = np.random.default_rng(42)
    for _ in range(300):
        x = rng.uniform(-5 * lam, 5 * lam, n) + 1e-6 * rng.standard_normal(n)
        got = nearest_point(x, lat)
        ref = closest_point(x, lat.basis)
        d_got = ((x - got) ** 2).sum()
        d_ref = ((x - ref) ** 2).sum()
        assert d_got == pytest.approx(d_ref, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("family,n", [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)])
def test_nearest_point_rejects_non_finite(family, n):
    lat = make_lattice(family, n, 0.7)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.full((3, n), 0.3)
        x[1, 0] = bad
        with pytest.raises(NonFiniteInputError):
            nearest_point(x, lat)
        with pytest.raises(NonFiniteInputError):
            nearest_point(x[1], lat)


@pytest.mark.parametrize("family,n", [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)])
def test_nearest_point_rejects_huge_input(family, n):
    lat = make_lattice(family, n, 0.7)
    unit = np.ravel(lat.scale)[0]               # lattice units of the first axis
    for big in (2.0**52, -(2.0**52), 1e300):
        x = np.full((3, n), 0.3)
        x[1, 0] = big * unit
        with pytest.raises(InputRangeError):
            nearest_point(x, lat)
        with pytest.raises(InputRangeError):
            nearest_point(x[1], lat)
        x[2, -1] = np.nan                       # NaN outranks the range error
        with pytest.raises(NonFiniteInputError):
            nearest_point(x, lat)
    x = np.full((1, n), 0.3)
    x[0, 0] = 2.0**51 * unit                    # below the bound: decoded
    assert np.all(np.abs(x - nearest_point(x, lat)) <= lat.covering_radius)


@pytest.mark.parametrize("family,n", [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)])
def test_nearest_point_rejects_wrong_width(family, n):
    # e.g. zn(2) must not decode 3-vectors as Z^3, nor dn(4) fold rows as D6
    lat = make_lattice(family, n, 1.0)
    for width in (n - 1, n + 1, n + 2):
        with pytest.raises(ConfigurationError):
            nearest_point(np.full((2, width), 0.3), lat)
        with pytest.raises(ConfigurationError):
            fold(np.full(width, 0.3), lat)


# ------------------------------------------- covering radius and margin check

def _deep_holes(lat):
    """Points at the covering radius: 0 ties with other nearest points there."""
    lam, n = lat.lam, lat.n
    if lat.family == ZN:
        return [np.full(n, lam)]
    if lat.family == A2:
        return [np.array([lam, lam / np.sqrt(3.0)])]       # a hexagon vertex
    if lat.family == E8:
        return [lat.scale * np.eye(n)[0]]
    # D_n: scale * e_1 up to n = 4, the half vector from n = 4 on
    return [h for h, deep in ((lat.scale * np.eye(n)[0], n <= 4),
                              (lat.scale * np.full(n, 0.5), n >= 4)) if deep]


@pytest.mark.parametrize("family,n", FAMILY_DIMS)
def test_covering_radius_bounds_every_point(family, n):
    lat = make_lattice(family, n, 0.7)
    x = np.random.default_rng(11).uniform(-6, 6, (3000, n))
    d = np.linalg.norm(x - nearest_point(x, lat), axis=1)
    assert d.max() <= lat.covering_radius * (1 + 1e-12)
    holes = _deep_holes(lat)
    assert holes
    for hole in holes:
        for k in (np.zeros(n), np.arange(n) % 3 - 1.0):    # and a lattice shift
            x = hole + lat.basis @ k
            d = np.linalg.norm(x - nearest_point(x, lat))
            assert d == pytest.approx(lat.covering_radius, rel=1e-12)


def _margin_rows(lat, rng):
    """Random rows from 0.5 lam to 1.2x the covering radius, then facet
    midpoints, random directions at lam, and deep holes, each at 1 and
    1 +- 1e-12 times its norm."""
    n, lam, cov = lat.n, lat.lam, lat.covering_radius
    u = rng.standard_normal((600, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    rows = [u * rng.uniform(0.5 * lam, 1.2 * cov, (600, 1))]
    mids = relevant_vectors(lat) / 2.0            # facet midpoints, norm lam
    for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        rows += [f * mids, f * lam * u[:50]]
        rows += [f * h[None] for h in _deep_holes(lat)]
    return np.vstack(rows)


@pytest.mark.parametrize("family,n", FAMILY_DIMS)
def test_folds_to_zero_agrees_with_decoder(family, n):
    lat = make_lattice(family, n, 0.7)
    rng = np.random.default_rng(12)
    rows = _margin_rows(lat, rng)
    zero = np.all(nearest_point(rows, lat) == 0, axis=1)
    assert zero.any() and not zero.all()
    for r, z in zip(rows, zero):
        assert folds_to_zero(r, lat) == z
        assert folds_to_zero(r[None], lat) == z
    for _ in range(200):                          # batches mix the cases
        pick = rng.choice(len(rows), size=4, replace=False)
        assert folds_to_zero(rows[pick], lat) == zero[pick].all()
    assert folds_to_zero(np.zeros((0, n)), lat)


@pytest.mark.parametrize("family,n", FAMILY_DIMS)
def test_folds_to_zero_rejects_bad_input(family, n):
    lat = make_lattice(family, n, 0.7)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3, n))
        x[0, 0] = 10.0 * lat.covering_radius     # beyond the covering radius
        x[2, -1] = bad
        with pytest.raises(NonFiniteInputError):
            folds_to_zero(x, lat)
    with pytest.raises(ConfigurationError):
        folds_to_zero(np.zeros((2, n + 1)), lat)


# --------------------------------------------------------------------- fold

def test_fold_identity_inside_cell():
    lat = make_lattice(E8, 8, UNIT_E8)
    x = np.full(8, 0.1)
    r, q = fold(x, lat)
    assert np.allclose(r, x)
    assert np.allclose(q, 0)


def test_fold_1d_closed_form():
    lat = make_lattice(ZN, 1, 1.0)
    r, q = fold(np.array([3.0]), lat)
    # exact boundary: either closed-cell representative is accepted
    assert abs(abs(r[0]) - 1.0) < 1e-12
    assert r[0] + q[0] == pytest.approx(3.0)
    assert q[0] in (2.0, 4.0)


def test_fold_residue_in_cell():
    rng = np.random.default_rng(3)
    for fam, n in [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 0.6)
        x = rng.uniform(-4, 4, (200, n))
        r, q = fold(x, lat)
        assert in_voronoi_cell(lat, r)
        assert np.allclose(r + q, x)


def test_fold_idempotent():
    rng = np.random.default_rng(4)
    for fam, n in [(ZN, 3), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 1.0)
        x = rng.uniform(-5, 5, (100, n))
        r, _ = fold(x, lat)
        r2, q2 = fold(r, lat)
        assert np.allclose(r2, r, atol=1e-9)
        assert np.allclose(q2, 0.0, atol=1e-9)


def test_fold_lattice_equivariance():
    rng = np.random.default_rng(5)
    for fam, n in [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 1.0)
        x = rng.uniform(-3, 3, (50, n)) + 1e-6 * rng.standard_normal((50, n))
        k = rng.integers(-2, 3, (n,)).astype(float)
        shift = lat.basis @ k
        r1, _ = fold(x, lat)
        r2, _ = fold(x + shift, lat)
        assert np.allclose(r1, r2, atol=1e-9)


# ------------------------------------------------------------- membership

def test_lattice_membership():
    for fam, n in [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 0.9)
        k = np.arange(1, n + 1, dtype=float)
        v = lat.basis @ k
        assert np.allclose(snap_to_lattice(lat, v), v, rtol=1e-12, atol=1e-12)
        assert not np.allclose(snap_to_lattice(lat, v + 0.01 * lat.lam), v + 0.01 * lat.lam,
                               rtol=1e-12, atol=1e-12)
    # far from the origin: a tolerance of 1e-9 per basis coordinate rejects this point
    lat = make_lattice(DN, 4, 0.7)
    v = lat.basis @ np.array([2.0**40, 0, 0, 0])
    assert np.allclose(snap_to_lattice(lat, v), v, rtol=1e-12, atol=1e-12)


# -------------------------------------------------------- relevant vectors

@pytest.mark.parametrize("family,n,count", [
    (ZN, 1, 2), (ZN, 2, 4), (A2, 2, 6), (DN, 4, 24), (E8, 8, 240),
])
def test_relevant_vector_counts(family, n, count):
    lat = make_lattice(family, n, 1.0)
    vs = relevant_vectors(lat)
    assert len(vs) == count


def test_relevant_vectors_closed_under_negation():
    for fam, n in [(ZN, 3), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 1.0)
        vs = relevant_vectors(lat)
        rows = {tuple(np.round(v, 9)) for v in vs}
        assert all(tuple(np.round(-v, 9)) in rows for v in vs)


def test_relevant_vectors_norm_is_dmin():
    for fam, n in [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)]:
        lam = 0.37
        lat = make_lattice(fam, n, lam)
        norms = np.linalg.norm(relevant_vectors(lat), axis=1)
        assert norms.min() == pytest.approx(2 * lam, abs=1e-9)
        assert norms.max() == pytest.approx(2 * lam, abs=1e-9)


def test_relevant_vectors_all_lattice_points():
    for fam, n in [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)]:
        lat = make_lattice(fam, n, 1.0)
        for v in relevant_vectors(lat):
            assert np.allclose(snap_to_lattice(lat, v), v, rtol=1e-12, atol=1e-12)


def _pm_pairs(n):
    """The 2n(n-1) vectors +-e_i +-e_j (i < j): the minimal vectors of D_n."""
    vs = []
    for i, j in combinations(range(n), 2):
        for si, sj in product((1.0, -1.0), repeat=2):
            v = np.zeros(n)
            v[i], v[j] = si, sj
            vs.append(v)
    return np.array(vs)


def _literal_facets(lat):
    """Each family's facet vectors, written out by hand (SPLAG ch. 4)."""
    if lat.family == ZN:
        eye = lat.scale * np.eye(lat.n)
        return np.vstack([eye, -eye])
    if lat.family == A2:
        v1, v2 = lat.basis.T
        vs = np.array([v1, v2, v1 - v2])
        return np.vstack([vs, -vs])
    vs = _pm_pairs(lat.n)
    if lat.family == E8:                   # plus the half vectors with even signs
        halves = [signs for signs in product((0.5, -0.5), repeat=8)
                  if sum(1 for t in signs if t < 0) % 2 == 0]
        vs = np.vstack([vs, halves])
    return lat.scale * vs


@pytest.mark.parametrize("lam", [1.0, 0.1, 0.37])
def test_relevant_vectors_derived_equal_literal_sets(lam):
    cases = ([(ZN, n) for n in range(1, 11)] + [(A2, 2)]
             + [(DN, n) for n in range(2, 11)] + [(E8, 8)])
    for family, n in cases:
        lat = make_lattice(family, n, lam)
        got = [tuple(v) for v in relevant_vectors(lat)]
        want = [tuple(v) for v in _literal_facets(lat)]
        assert len(set(got)) == len(got) == len(want)
        assert set(got) == set(want), (family, n)          # exact, no tolerance


@pytest.mark.parametrize("lam", [1e-100, 1.0, 1e100])
def test_in_voronoi_cell_slack_scales_with_inradius(lam):
    # every facet midpoint is in the closed cell, and a point 1% beyond it
    # is not, at any inradius (d4 and e8 at lam**0.3: a volume lam**8 leaves
    # floating-point range)
    for family, n, inradius in [(ZN, 2, lam), (A2, 2, lam), (DN, 4, lam**0.3),
                                (E8, 8, lam**0.3)]:
        lat = make_lattice(family, n, inradius)
        for v in relevant_vectors(lat):
            assert in_voronoi_cell(lat, v / 2), (family, inradius, v)
            assert not in_voronoi_cell(lat, 1.01 * v / 2), (family, inradius, v)


def test_relevant_vectors_refuse_above_ten_dimensions():
    lat = make_lattice(ZN, 11, 1.0)
    for call in (lambda: relevant_vectors(lat),
                 lambda: fold_iterative(np.zeros(11), lat),
                 lambda: in_voronoi_cell(lat, np.zeros(11))):
        with pytest.raises(UnsupportedLatticeError, match="n = 11"):
            call()


@pytest.mark.parametrize("n", [3, 6])
def test_fold_iterative_agrees_with_fold_dn_any_dim(n):
    lam = 0.9
    lat = make_lattice(DN, n, lam)
    assert len(relevant_vectors(lat)) == 2 * n * (n - 1)
    rng = np.random.default_rng(12)
    x = rng.uniform(-5 * lam, 5 * lam, (1000, n)) + 1e-6 * rng.standard_normal((1000, n))
    ri = fold_iterative(x, lat)
    rf, _ = fold(x, lat)
    assert np.allclose(ri, rf, atol=1e-8)


# --------------------------------------------------------- iterative fold

def test_fold_iterative_identity_inside():
    lat = make_lattice(A2, 2, 1.0)
    x = np.array([0.3, 0.2])
    assert np.allclose(fold_iterative(x, lat), x)


def test_fold_iterative_single_crossing_1d():
    lat = make_lattice(ZN, 1, 1.0)
    r = fold_iterative(np.array([1.7]), lat)
    rf, _ = fold(np.array([1.7]), lat)
    assert np.allclose(r, rf)


@pytest.mark.parametrize("family,n", [(ZN, 2), (A2, 2), (DN, 4), (E8, 8)])
def test_fold_iterative_agrees_with_fold(family, n):
    lam = 0.9
    lat = make_lattice(family, n, lam)
    rng = np.random.default_rng(11)
    x = rng.uniform(-5 * lam, 5 * lam, (2000, n)) + 1e-6 * rng.standard_normal((2000, n))
    ri = fold_iterative(x, lat)
    rf, _ = fold(x, lat)
    assert np.allclose(ri, rf, atol=1e-8)


# ------------------------------------------------------------ 2D cell shape

def test_cell_polygon_square():
    lat = make_lattice(ZN, 2, 1.0)
    poly = voronoi_cell_polygon(lat)
    assert poly.shape == (5, 2)
    assert np.abs(poly).max() == pytest.approx(1.0)


def test_cell_polygon_hexagon():
    lam = 1.0
    lat = make_lattice(A2, 2, lam)
    poly = voronoi_cell_polygon(lat)
    assert poly.shape == (7, 2)
    radii = np.linalg.norm(poly[:-1], axis=1)
    assert np.allclose(radii, 2 * lam / np.sqrt(3))

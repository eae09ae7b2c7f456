"""Finite-geometry core: distances, memberships, margins, set limits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from carasel import (
    ConvexSet,
    DomainError,
    PointSet,
    SetSequence,
    convex_distance,
    convex_membership,
    eps_neighborhood_contains,
    hausdorff_dist,
    interior_point_margin,
    li_limit,
    ls_limit,
)
from carasel.corr import _interior_samples
from carasel.setops import _as_points, _cross_dists, _dedup, max_vertex_margin, vertex_margins


def ps(dim, pts):
    return PointSet.of(dim, pts)


UNIT_SQUARE = ConvexSet(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------- hausdorff

def test_hausdorff_identity_singleton():
    a = ps(2, [[0.0, 0.0]])
    assert hausdorff_dist(a, a) == 0.0


def test_hausdorff_two_vs_one_point():
    # pairwise enumeration: both one-sided sups equal 1
    assert hausdorff_dist(ps(1, [[0.0], [2.0]]), ps(1, [[1.0]])) == pytest.approx(1.0)


def test_hausdorff_far_point_dominates():
    # sup over b of nearest distance reaches the (3,4) point: 5
    a = ps(2, [[0.0, 0.0]])
    b = ps(2, [[0.0, 0.0], [3.0, 4.0]])
    assert hausdorff_dist(a, b) == pytest.approx(5.0)


def test_hausdorff_empty_is_domain_error():
    with pytest.raises(DomainError):
        hausdorff_dist(PointSet.empty(1), ps(1, [[0.0]]))


def _hausdorff_by_bisection(a, b, iters=80):
    """Independent route: the infimum of eps with mutual inclusion in the
    open eps-neighborhoods, located by bisection."""
    lo, hi = 0.0, 1.0
    while not (eps_neighborhood_contains(a, b, hi) and eps_neighborhood_contains(b, a, hi)):
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if eps_neighborhood_contains(a, b, mid) and eps_neighborhood_contains(b, a, mid):
            hi = mid
        else:
            lo = mid
    return hi


point_sets = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.lists(st.floats(-10, 10, allow_nan=False, width=32), min_size=d, max_size=d),
        min_size=1, max_size=6,
    ).map(lambda pts: PointSet.of(d, np.asarray(pts, dtype=float)))
)


@given(point_sets, point_sets)
@settings(max_examples=150, deadline=None)
def test_hausdorff_symmetry_and_inf_form(a, b):
    if a.dim != b.dim:
        return
    h = hausdorff_dist(a, b)
    assert h == hausdorff_dist(b, a)
    assert abs(h - _hausdorff_by_bisection(a, b)) <= 1e-9


@given(point_sets, point_sets, point_sets)
@settings(max_examples=150, deadline=None)
def test_hausdorff_triangle(a, b, c):
    if not (a.dim == b.dim == c.dim):
        return
    assert hausdorff_dist(a, c) <= hausdorff_dist(a, b) + hausdorff_dist(b, c) + 1e-9


@given(point_sets)
@settings(max_examples=100, deadline=None)
def test_hausdorff_identity_of_indiscernibles(a):
    shuffled = PointSet.of(a.dim, a.points[::-1].copy())
    assert hausdorff_dist(a, shuffled) <= 1e-12
    bumped = PointSet.of(a.dim, a.points + 1.0)
    if not a.same_as(bumped):
        assert hausdorff_dist(a, bumped) > 1e-12


# ------------------------------------------------------- eps neighborhoods

def test_eps_neighborhood_examples():
    assert eps_neighborhood_contains(ps(1, [[0.5]]), ps(1, [[0.0], [1.0]]), 0.6)
    assert eps_neighborhood_contains(PointSet.empty(1), ps(1, [[0.0]]), 0.1)
    assert not eps_neighborhood_contains(ps(1, [[2.0]]), ps(1, [[0.0]]), 1.0)


def test_eps_neighborhood_strict_boundary():
    # the neighborhood is open: distance exactly eps is outside
    assert not eps_neighborhood_contains(ps(1, [[1.0]]), ps(1, [[0.0]]), 1.0)


# -------------------------------------------------------------- membership

def test_membership_center_of_square_at_zero_tol():
    assert convex_membership([0.5, 0.5], UNIT_SQUARE, tol=0.0)


def test_membership_outside_square():
    assert not convex_membership([2.0, 0.0], UNIT_SQUARE, tol=1e-9)


def test_membership_vertices_at_zero_tol():
    for v in UNIT_SQUARE.vertices:
        assert convex_membership(v, UNIT_SQUARE, tol=0.0)


def test_membership_dimension_mismatch():
    with pytest.raises(DomainError):
        convex_membership([0.5], UNIT_SQUARE, tol=0.0)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_membership_monotone_in_tol(data):
    dim = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 6))
    verts = np.array(data.draw(st.lists(
        st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=dim, max_size=dim),
        min_size=k, max_size=k)))
    c = ConvexSet(dim, verts)
    x = np.array(data.draw(st.lists(
        st.floats(-6, 6, allow_nan=False, width=32), min_size=dim, max_size=dim)))
    tol_small = data.draw(st.floats(0, 0.5))
    tol_big = tol_small + data.draw(st.floats(0, 2.0))
    if convex_membership(x, c, tol_small):
        assert convex_membership(x, c, tol_big)


def test_convex_distance_matches_projection():
    assert convex_distance([2.0, 0.0], UNIT_SQUARE) == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------- margins

def test_margin_interval_midpoint():
    c = ConvexSet(1, [[0.0], [1.0]])
    assert interior_point_margin([0.5], c) == pytest.approx(0.5)


def test_margin_singleton_is_zero():
    assert interior_point_margin([0.0], ConvexSet(1, [[0.0]])) == 0.0


def test_margin_vertex_of_square_is_zero():
    assert interior_point_margin([0.0, 0.0], UNIT_SQUARE) == 0.0


def test_margin_lower_dimensional_set_is_zero():
    segment = ConvexSet(2, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
    assert interior_point_margin([0.5, 0.5], segment) == 0.0


def test_margin_outside_is_zero():
    assert interior_point_margin([2.0, 0.5], UNIT_SQUARE) == 0.0


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_positive_margin_implies_membership(data):
    dim = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(dim + 1, 7))
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    verts = rng.uniform(-3, 3, size=(k, dim))
    c = ConvexSet(dim, verts)
    x = verts.mean(axis=0)
    if interior_point_margin(x, c) > 0:
        assert convex_membership(x, c, tol=0.0)


def test_hull_of_point_set_is_built_once():
    p = ps(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
    hull = ConvexSet.from_point_set(p)
    assert ConvexSet.from_point_set(p) is hull
    assert hull.dim == 2
    assert np.array_equal(hull.vertices, p.points)
    assert np.array_equal(ConvexSet(2, p.points).vertices, hull.vertices)
    with pytest.raises(DomainError):
        ConvexSet.from_point_set(PointSet.empty(2))


def _one_hull_per_point_margin(x, V):
    """The per-sample margin that one hull per value replaced, kept as
    its reference."""
    if V.shape[1] == 1:
        lo, hi = float(V[:, 0].min()), float(V[:, 0].max())
        return 0.0 if hi <= lo else float(max(0.0, min(x[0] - lo, hi - x[0])))
    if len(V) <= V.shape[1]:
        return 0.0
    try:
        hull = ConvexHull(V)
    except QhullError:
        return 0.0
    return float(max(0.0, (-(hull.equations[:, :-1] @ x + hull.equations[:, -1])).min()))


_CUBE = [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]


@pytest.mark.parametrize("dim, points", [
    (1, [[0.3]]),                                              # single point
    (1, [[0.0], [1.0], [0.25], [0.5]]),                        # closed form
    (2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.4]]),
    (3, _CUBE + [[0.5, 0.5, 0.25]]),
    (2, [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [2.0, 2.0]]),     # collinear: QhullError
    (3, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),  # len(V) <= dim
    (2, np.random.default_rng(5).uniform(size=(9, 2))),
    (3, np.random.default_rng(6).uniform(size=(12, 3))),
])
def test_vertex_margins_match_per_point_loop(dim, points):
    p = ps(dim, points)
    hull = ConvexSet.from_point_set(p)
    loop = np.array([interior_point_margin(v, hull) for v in hull.vertices])
    assert np.array_equal(loop, [_one_hull_per_point_margin(v, hull.vertices)
                                 for v in hull.vertices])
    assert np.array_equal(vertex_margins(hull), loop)
    assert max_vertex_margin(hull) == loop.max()
    assert np.array_equal(_interior_samples(p), p.points[loop > 0.0])


def test_vertex_margins_interval_closed_form():
    interval = ConvexSet(1, [[0.0], [1.0], [0.25], [0.5]])
    assert vertex_margins(interval).tolist() == [0.0, 0.0, 0.25, 0.5]
    assert vertex_margins(ConvexSet(1, [[0.3]])).tolist() == [0.0]


def test_max_vertex_margin_detects_interior_sample():
    with_center = ConvexSet(2, np.vstack([UNIT_SQUARE.vertices, [[0.5, 0.5]]]))
    assert max_vertex_margin(with_center) == pytest.approx(0.5)
    assert max_vertex_margin(UNIT_SQUARE) == 0.0


# ------------------------------------------------------------- set limits

def test_limits_convergent_reciprocals():
    terms = tuple(ps(1, [[1.0 / n]]) for n in range(1, 21))
    s = SetSequence(1, terms)
    li = li_limit(s, tail=10, tol_cluster=0.05)
    ls = ls_limit(s, tail=10, tol_cluster=0.05)
    assert not li.is_empty and not ls.is_empty
    assert all(any(np.allclose(p, q) for q in ls.points) for p in li.points)


def test_limits_alternating():
    terms = tuple(ps(1, [[float(n % 2)]]) for n in range(20))
    s = SetSequence(1, terms)
    assert li_limit(s, tail=10).is_empty
    ls = ls_limit(s, tail=10)
    assert any(np.allclose(p, [0.0]) for p in ls.points)
    assert any(np.allclose(p, [1.0]) for p in ls.points)


def test_limits_constant_sequence():
    a = ps(2, [[0.0, 0.0], [1.0, 2.0]])
    s = SetSequence(2, tuple(a for _ in range(8)))
    li, ls = li_limit(s, tail=5), ls_limit(s, tail=5)
    assert li.same_as(a) and ls.same_as(a)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lower_limit_contained_in_upper(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    dim = data.draw(st.integers(1, 2))
    n_terms = data.draw(st.integers(2, 10))
    terms = []
    for _ in range(n_terms):
        k = int(rng.integers(0, 4))
        terms.append(PointSet.of(dim, rng.integers(0, 3, size=(k, dim)).astype(float))
                     if k else PointSet.empty(dim))
    s = SetSequence(dim, tuple(terms))
    tail = data.draw(st.integers(1, n_terms))
    li, ls = li_limit(s, tail), ls_limit(s, tail)
    for p in li.points:
        assert any(np.linalg.norm(p - q) <= 1e-9 for q in ls.points)


# ------------------------------------------------------------- validation

def test_pointset_rejects_duplicates():
    with pytest.raises(DomainError):
        PointSet(1, [[0.0], [0.0]])


def test_pointset_of_dedups():
    assert len(ps(1, [[0.0], [0.0], [1.0]])) == 2


def _greedy_dedup_reference(points, tol=1e-12):
    """The distance-matrix loop _dedup ran on every input before it
    learned to return a distinct input unchanged, kept as its reference."""
    if len(points) <= 1:
        return points
    d = _cross_dists(points, points)
    keep = np.ones(len(points), dtype=bool)
    for i in range(len(points)):
        if keep[i]:
            keep[i + 1:] &= d[i, i + 1:] > tol
    return points[keep]


def _dedup_cases(rng, dim):
    """Lists of 0-8 points at scales that do and do not collide at 1e-12,
    lists with exact duplicates, and chains a, b, c with a-b and b-c
    within 1e-12 but a-c not, in both orders of a and b."""
    cases = []
    for k in range(9):
        pts = rng.normal(size=(k, dim)) * 10.0 ** rng.choice([-13, -12, 0])
        cases.append(pts)
        for extra in (1, 2) if k else ():
            dup = np.vstack([pts, pts[rng.integers(0, k, size=extra)]])
            cases.append(dup[rng.permutation(len(dup))])
    a = rng.uniform(-1.0, 1.0, size=dim)
    step = np.zeros(dim)
    step[0] = 0.8e-12
    cases.append(np.array([a, a + step, a + 2 * step]))
    cases.append(np.array([a + step, a, a + 2 * step]))
    return cases


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dedup_and_pointset_match_greedy_reference(dim):
    rng = np.random.default_rng(dim)
    dropped = 0
    for pts in _dedup_cases(rng, dim):
        arr = _as_points(dim, pts)
        want = _greedy_dedup_reference(arr)
        got = _dedup(arr)
        assert np.array_equal(got, want)
        assert (got is arr) == (len(want) == len(arr))
        assert np.array_equal(PointSet.of(dim, pts).points, want)
        if len(want) < len(arr):
            dropped += 1
            with pytest.raises(DomainError):
                PointSet(dim, pts)
        else:
            assert np.array_equal(PointSet(dim, pts).points, arr)
    assert dropped >= 17  # every duplicated list and both chains


def test_convex_set_needs_a_vertex():
    with pytest.raises(DomainError):
        ConvexSet(1, np.zeros((0, 1)))

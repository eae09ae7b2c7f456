"""Finite-geometry core: distances, memberships, margins."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from carasel import (
    ConvexSet,
    DomainError,
    PointSet,
    convex_distance,
    convex_membership,
    convex_project,
    hausdorff_dist,
    interior_point_margin,
)
import carasel.setops as setops
from carasel.setops import (
    DEDUP_TOL,
    _OPT_BAND,
    _WEIGHT_CUT,
    _as_points,
    _cross_dists,
    _dedup,
    _distinct_segments,
    _nearest_in_hulls,
    _padded_rows,
    _project_to_intervals,
    _solve_blocks,
    _WarmProjector,
    segment_distances,
    segment_margins,
)

from conftest import eps_neighborhood_contains, hausdorff_by_bisection, same_set
from test_corr import max_vertex_margin, vertex_margins


def ps(dim, pts):
    return PointSet.of(dim, pts)


def pack_hulls(hulls) -> np.ndarray:
    """The vertex lists of a nonempty list of hulls in one dim as one
    padded block, laid out as points[_padded_rows(segs)] lays out
    segments; also used by the other test modules."""
    counts = np.array([len(h.vertices) for h in hulls])
    stop = np.cumsum(counts)
    return np.concatenate([h.vertices for h in hulls])[
        _padded_rows(np.column_stack([stop - counts, stop]))]


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
    assert abs(h - hausdorff_by_bisection(a, b)) <= 1e-9


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
    if not same_set(a, bumped):
        assert hausdorff_dist(a, bumped) > 1e-12


# --------------------------------------- eps neighborhoods (conftest oracle)

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


# ------------------------------------------------- projection against an oracle

def _exact_hull_distance(x, V):
    """Exact dist(x, con(V)) by face enumeration: project x onto the
    affine hull of every affinely independent subset of at most dim+1
    vertices and keep the candidates whose weights are nonnegative; the
    nearest point of the hull is one of them."""
    W = np.asarray(V, dtype=float) - np.asarray(x, dtype=float)
    k, dim = W.shape
    best = np.inf
    for r in range(1, min(k, dim + 1) + 1):
        for sub in itertools.combinations(range(k), r):
            S = W[list(sub)]
            E = (S[1:] - S[0]).T
            if r > 1:
                sv = np.linalg.svd(E, compute_uv=False)
                if sv.min() <= 1e-12 * sv.max():
                    continue  # affinely dependent
                coef = np.linalg.lstsq(E, -S[0], rcond=None)[0]
                weights = np.concatenate([[1.0 - coef.sum()], coef])
            else:
                weights = np.ones(1)
            if weights.min() >= -1e-12:
                best = min(best, float(np.linalg.norm(weights @ S)))
    return best


def _lp_inside(x, V):
    """Is x a convex combination of the rows of V?  An LP feasibility
    solve in coordinates translated to x and scaled to the vertex spread."""
    W = np.asarray(V, dtype=float) - x
    s = max(float(np.abs(W).max()), 1e-300)
    a_eq = np.vstack([W.T / s, np.ones((1, len(W)))])
    b_eq = np.concatenate([np.zeros(len(x)), [1.0]])
    res = linprog(np.zeros(len(W)), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * len(W),
                  method="highs")
    return res.status == 0


SCALES = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4]


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_convex_distance_matches_face_enumeration_oracle(data):
    dim = data.draw(st.integers(2, 3))
    k = data.draw(st.integers(1, 8))
    scale = data.draw(st.sampled_from(SCALES))
    offset = data.draw(st.sampled_from([0.0, 1e3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    c = ConvexSet(dim, offset + scale * rng.uniform(-1.0, 1.0, size=(k, dim)))
    V = c.vertices
    lam = rng.exponential(size=len(V))
    points = [offset + scale * rng.uniform(-1.5, 1.5, size=dim),  # inside or out
              lam @ V / lam.sum(),                                # inside
              V[rng.integers(len(V))]]                            # a vertex
    for x in points:
        exact = _exact_hull_distance(x, V)
        assert abs(convex_distance(x, c) - exact) <= 1e-9 * scale
        if exact > 1e-9 * (1.0 + scale) and not _lp_inside(x, V):
            assert not convex_membership(x, c, 1e-9)


def test_convex_distance_large_scale_outside_point():
    # a triangle at coordinate scale 1e4 and a point more than 1e4 away
    # from it; a KKT solve whose cut-off dropped the sum-to-one row
    # returned distance 0 here, and membership at 1e-9 said yes
    c = ConvexSet(2, [[2258.0, -6067.0], [-6394.0, 4937.0], [5044.0, 1340.0]])
    x = np.array([12632.0, -8827.0])
    exact = _exact_hull_distance(x, c.vertices)
    assert exact > 1e4
    assert convex_distance(x, c) == pytest.approx(exact, rel=1e-12)
    assert not convex_membership(x, c, 1e-9)


def _random_hulls(rng, dim, n):
    hulls = []
    for _ in range(n):
        scale = 10.0 ** rng.integers(-3, 5)
        k = int(rng.integers(1, 9))
        hulls.append(ConvexSet(dim, scale * rng.uniform(-1.0, 1.0, size=(k, dim))))
    return hulls


@pytest.mark.parametrize("dim", [2, 3])
def test_batched_rows_match_single_projections(dim):
    rng = np.random.default_rng(dim)
    hulls = _random_hulls(rng, dim, 40)
    X = np.array([1.5 * np.abs(h.vertices).max() * rng.uniform(-1.0, 1.0, size=dim)
                  for h in hulls])
    P, d = convex_project(X, pack_hulls(hulls))
    for x, h, p, dist in zip(X, hulls, P, d):
        scale = float(np.abs(h.vertices).max())
        alone_p, alone_d = convex_project(x, h)
        assert np.abs(alone_p - p).max() <= 1e-15 * scale
        assert abs(alone_d - dist) <= 1e-15 * scale


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stack_against_one_hull_matches_single_projections(dim):
    rng = np.random.default_rng(30 + dim)
    c = ConvexSet(dim, rng.uniform(-1.0, 1.0, size=(6, dim)))
    X = rng.uniform(-2.0, 2.0, size=(12, dim))
    P, d = convex_project(X, c)
    assert P.shape == X.shape and d.shape == (12,)
    assert np.array_equal(convex_distance(X, c), d)
    for x, p, dist in zip(X, P, d):
        alone_p, alone_d = convex_project(x, c)
        assert isinstance(alone_d, float)
        assert np.abs(alone_p - p).max() <= 1e-15 and abs(alone_d - dist) <= 1e-15


def test_convex_project_rejects_mismatched_shapes():
    with pytest.raises(DomainError):
        convex_project(np.zeros((3, 3)), UNIT_SQUARE)
    with pytest.raises(DomainError):
        convex_project(np.zeros((3, 2)), pack_hulls([UNIT_SQUARE, UNIT_SQUARE]))
    with pytest.raises(DomainError):
        convex_project(np.zeros((2, 3)), pack_hulls([UNIT_SQUARE, UNIT_SQUARE]))


@pytest.mark.parametrize("dim", [2, 3])
def test_exact_vertex_hit_is_zero(dim):
    rng = np.random.default_rng(10 + dim)
    hulls = _random_hulls(rng, dim, 20)
    X = np.array([h.vertices[rng.integers(len(h.vertices))] for h in hulls])
    P, d = convex_project(X, pack_hulls(hulls))
    assert np.array_equal(P, X)
    assert np.all(d == 0.0)
    for x, h in zip(X, hulls):
        p, dist = convex_project(x, h)
        assert dist == 0.0 and np.array_equal(p, x)
        assert convex_membership(x, h, tol=0.0)


def test_projection_degenerate_hulls_match_oracle():
    # repeated, collinear and coplanar vertex lists, where the affine
    # minimizations meet singular or nearly singular systems
    cases = [
        ([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]], [[1.0, 0.0], [0.25, 0.25], [3.0, 3.0]]),
        ([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.5, 0.0]], [[1.0, 1.0], [1.5, -2.0]]),
        ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
          [0.5, 0.5, 0.0]], [[0.5, 0.5, 1.0], [2.0, 2.0, 0.0], [0.2, 0.7, -1e-3]]),
        ([[1e4, 1e4], [1e4 + 1e-3, 1e4], [1e4, 1e4 + 1e-3]], [[1e4 - 1.0, 1e4 - 1.0]]),
        # a vertex 1e-6 beyond the edge the search reaches first: the
        # point's distance is 1.25e-7 less than its distance to the edge
        ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.2, 1.0 + 1e-6]], [[0.9, 2.0]]),
    ]
    for verts, points in cases:
        c = ConvexSet(len(verts[0]), verts)
        for x in points:
            exact = _exact_hull_distance(x, c.vertices)
            assert convex_distance(x, c) == pytest.approx(exact, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_segment_distances_equal_lone_projections(dim):
    # segments of 1-7 points at scales 0.1 to 1e3, one query row each
    # outside, one inside and one on a vertex; the rows of one length
    # share a kernel call, rows of other lengths do not pad it
    rng = np.random.default_rng(60 + dim)
    chunks, segs, X, hits = [], [], [], []
    start = 0
    for _ in range(40):
        k = int(rng.integers(1, 8))
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        V = scale * rng.uniform(-1.0, 1.0, size=(k, dim))
        chunks.append(V)
        lam = rng.exponential(size=k)
        for x, vertex in ((1.5 * scale * rng.uniform(-1.0, 1.0, size=dim), False),
                          (lam @ V / lam.sum(), False),
                          (V[rng.integers(k)], True)):
            segs.append([start, start + k])
            X.append(x)
            hits.append(vertex)
        start += k
    points, segs, X = np.concatenate(chunks), np.array(segs), np.array(X)
    assert set(segs[:, 1] - segs[:, 0]) == set(range(1, 8))
    d = segment_distances(X, points, segs)
    for x, (a, b), dist, vertex in zip(X, segs, d, hits):
        assert dist == convex_distance(x, ConvexSet(dim, points[a:b]))
        if vertex:
            assert dist == 0.0


def test_segment_distances_of_no_rows():
    for dim in (1, 2):
        assert segment_distances(np.zeros((0, dim)), np.zeros((3, dim)),
                                 np.zeros((0, 2), dtype=int)).shape == (0,)


def _per_length_distances(X, points, segs):
    """segment_distances as it was in every dim: one convex_distance call
    per distinct row length, on the (rows, k, dim) block of those rows."""
    counts = segs[:, 1] - segs[:, 0]
    out = np.empty(len(segs))
    for k in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == k)
        out[rows] = convex_distance(X[rows], points[segs[rows, :1] + np.arange(k)])
    return out


def test_segment_distances_in_r1_match_the_per_length_kernel_bit_for_bit(monkeypatch):
    # rows sharing a segment, overlapping and repeated segments, single
    # points, points repeated inside a segment, and ends of either sign
    # of zero; the queries sit inside, outside, on an end and on -0.0/0.0
    rng = np.random.default_rng(7)
    points = np.concatenate([rng.normal(size=30) * 10.0 ** rng.integers(-2, 3, size=30),
                             [-0.0, 0.0, 0.5, -0.0, 1.0, 0.0, 0.0, -0.0, 2.0, 2.0]])[:, None]
    starts = rng.integers(0, 30, size=40)
    segs = np.concatenate([
        np.column_stack([starts, np.minimum(starts + rng.integers(1, 8, size=40), 30)]),
        [[30, 31], [30, 32], [31, 33], [33, 35], [35, 38], [36, 38], [30, 40], [38, 40],
         [37, 38], [0, 1], [5, 5 + 1], [0, 30]]])
    segs = segs[rng.integers(0, len(segs), size=400)]  # every segment shared or repeated
    X = np.concatenate([rng.normal(size=380) * 5.0, [0.0, -0.0] * 5,
                        points[segs[-10:, 0], 0]])[:, None]
    # the closed form on each row's exact ends, a -0.0 end kept
    lo = np.array([min(points[a:b, 0], key=lambda v: (v, math.copysign(1.0, v))) for a, b in segs])
    hi = np.array([max(points[a:b, 0], key=lambda v: (v, math.copysign(1.0, v))) for a, b in segs])
    assert (np.signbit(lo) & (lo == 0.0)).any() and (np.signbit(hi) & (hi == 0.0)).any()
    closed = np.abs(X[:, 0] - np.minimum(np.maximum(X[:, 0], lo), hi))
    for ends in ((lo, hi), setops._interval_ends(points, segs)):
        assert np.abs(X[:, 0] - _project_to_intervals(X[:, 0], *ends)).tobytes() == closed.tobytes()
    sent = []
    kernel = setops._nearest_in_hulls
    monkeypatch.setattr(setops, "_nearest_in_hulls", lambda X, V: sent.append(len(X)) or kernel(X, V))
    got = segment_distances(X, points, segs)
    assert sum(sent) == len(segs)  # R^1 rows take the kernel's own closed form
    assert got.tobytes() == closed.tobytes() == _per_length_distances(X, points, segs).tobytes()
    assert (got == 0.0).any() and (got > 0.0).any()


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
    hull = ConvexSet(p.dim, p.points)
    assert hull.dim == 2
    assert np.array_equal(hull.vertices, p.points)
    assert np.array_equal(ConvexSet(2, p.points).vertices, hull.vertices)
    with pytest.raises(DomainError):
        ConvexSet(2, PointSet.empty(2).points)


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
    hull = ConvexSet(p.dim, p.points)
    loop = np.array([interior_point_margin(v, hull) for v in hull.vertices])
    assert np.array_equal(loop, [_one_hull_per_point_margin(v, hull.vertices)
                                 for v in hull.vertices])
    assert np.array_equal(vertex_margins(hull), loop)
    assert max_vertex_margin(hull) == loop.max()
    n = len(p)
    twice = segment_margins(np.vstack([p.points, p.points]), np.array([[0, n], [n, 2 * n]]))
    assert np.array_equal(twice, np.concatenate([loop, loop]))


@pytest.mark.parametrize("dim", [2, 3])
def test_hull_vertices_read_margin_zero(dim):
    # rounding in the facet sums used to put some vertices above 0, so a
    # value whose only positive margin sat on its boundary read as interior
    rng = np.random.default_rng(2036 + dim)
    for _ in range(40):
        scale, shift = 10.0 ** rng.uniform(-3, 3), rng.uniform(-1e3, 1e3, dim)
        c = ConvexSet(dim, rng.normal(size=(int(rng.integers(dim + 2, 25)), dim)) * scale + shift)
        corners = ConvexHull(c.vertices).vertices
        assert all(interior_point_margin(v, c) == 0.0 for v in c.vertices[corners])
        assert np.all(segment_margins(c.vertices, np.array([[0, len(c.vertices)]]))[corners] == 0.0)


def test_vertex_margins_interval_closed_form():
    interval = ConvexSet(1, [[0.0], [1.0], [0.25], [0.5]])
    assert vertex_margins(interval).tolist() == [0.0, 0.0, 0.25, 0.5]
    assert vertex_margins(ConvexSet(1, [[0.3]])).tolist() == [0.0]


def test_max_vertex_margin_detects_interior_sample():
    with_center = ConvexSet(2, np.vstack([UNIT_SQUARE.vertices, [[0.5, 0.5]]]))
    assert max_vertex_margin(with_center) == pytest.approx(0.5)
    assert max_vertex_margin(UNIT_SQUARE) == 0.0


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


@pytest.mark.parametrize("dim", [2, 3])
def test_projection_is_scale_and_offset_invariant(dim):
    # the kernel works in units of each row's largest vertex distance, so
    # scaling and translating a batch scales its distances exactly
    # (up to rounding), far outside the range of any fixed tolerance
    rng = np.random.default_rng(20 + dim)
    V = pack_hulls(_random_hulls(rng, dim, 30))
    V /= np.abs(V).max(axis=(1, 2), keepdims=True)
    X = rng.uniform(-1.5, 1.5, size=(30, dim))
    X[:10] = np.einsum("bm,bmd->bd", rng.dirichlet(np.ones(V.shape[1]), size=10), V[:10])
    d = convex_distance(X, V)
    for s, shift in [(1e-15, 0.0), (1e15, 0.0), (1e-3, 1e3)]:
        ds = convex_distance(shift + s * X, shift + s * V)
        assert np.all(np.abs(ds - s * d) <= 1e-9 * s)


def test_pointset_of_checks_each_list_once(monkeypatch):
    calls = {"_dedup": 0, "_as_points": 0}

    def counted(name):
        inner = getattr(setops, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(setops, name, counted(name))
    p = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert calls == {"_dedup": 1, "_as_points": 1}
    assert len(p) == 3 and not p.points.flags.writeable
    with pytest.raises(DomainError):
        PointSet.of(0, [])


def test_pointset_finiteness_is_one_sum_rechecked_term_by_term():
    """Finite terms whose sum overflows are finite points; an inf, -inf
    or NaN term raises, also where the terms' sum is inf - inf."""
    for overflow in ("ignore", "raise"):  # the one sum overflows
        with np.errstate(over=overflow):
            big = PointSet.of(2, [[1e308, 1e308]])
        assert np.array_equal(big.points, [[1e308, 1e308]])
    for bad in ([[np.inf, 0.0]], [[0.0, -np.inf]], [[np.nan, 1.0]], [[np.inf, -np.inf]]):
        for build in (PointSet.of, PointSet, ConvexSet):
            with np.errstate(invalid="raise"), pytest.raises(DomainError,
                                                             match="^points must be finite$"):
                build(2, bad)


@pytest.mark.parametrize("errors", ["warn", "raise"])
def test_pointset_finiteness_warns_and_raises_nothing_from_numpy(errors):
    """The finiteness test reads Python floats, so neither numpy's error
    handling (its default "warn" or "raise") nor a warnings filter sees
    the overflowing or invalid sum: the overflow builds, an inf, -inf or
    NaN term is a DomainError."""
    with warnings.catch_warnings(), np.errstate(all=errors):
        warnings.simplefilter("error")
        for build in (PointSet.of, PointSet, ConvexSet):
            made = build(2, [[1e308, 1e308]])
            arr = made.vertices if build is ConvexSet else made.points
            assert np.array_equal(arr, [[1e308, 1e308]])
            for bad in ([[np.inf, 0.0]], [[0.0, -np.inf]], [[np.nan, 1.0]], [[np.inf, -np.inf]],
                        [[1e308, 1e308], [np.inf, 0.0]]):
                with pytest.raises(DomainError, match="^points must be finite$"):
                    build(2, bad)


def test_pointset_of_keeps_its_own_copy():
    # the one float copy is the set's: mutating the input afterwards,
    # a list or an array, a float or an int array, leaves the set as built
    inputs = [(2, [[0.0, 1.0], [2.0, 3.0]]), (1, np.array([0.0, 1.0])),
              (2, np.array([[0.0, 1.0], [2.0, 3.0]])), (2, np.array([[0, 1], [2, 3]]))]
    for dim, raw in inputs:
        for build in (PointSet.of, PointSet, ConvexSet):
            pts = [list(row) for row in raw] if isinstance(raw, list) else raw.copy()
            made = build(dim, pts)
            arr = made.vertices if build is ConvexSet else made.points
            before = arr.copy()
            if isinstance(pts, list):
                pts[0][0] = 9.0
            else:
                pts[...] = 9
            assert np.array_equal(arr, before) and not arr.flags.writeable


def test_convex_set_needs_a_vertex():
    with pytest.raises(DomainError):
        ConvexSet(1, np.zeros((0, 1)))


@pytest.mark.parametrize("seed", range(4))
def test_distinct_segments_match_unique_rows(seed):
    # random [start, stop) rows into size points, repeated, empty and
    # ending at size included, then no rows at all: the sorted distinct
    # rows and each row's index are np.unique's along axis 0
    rng = np.random.default_rng(seed)
    for size in (0, 1, 7, 1000):
        start = rng.integers(0, size + 1, size=int(rng.integers(0, 60)))
        stop = np.minimum(size, start + rng.integers(0, 4, size=len(start)))
        segs = np.column_stack([start, stop])
        segs = np.vstack([segs, segs[rng.integers(0, len(segs), size=len(segs) // 2)]])
        for rows in (segs, segs[:0]):
            got, index = _distinct_segments(rows, size)
            want, inverse = np.unique(rows.reshape(-1, 2), axis=0, return_inverse=True)
            assert got.dtype == want.dtype and got.shape == want.reshape(-1, 2).shape
            assert np.array_equal(got, want.reshape(-1, 2))
            assert np.array_equal(index, inverse.ravel()) and index.ndim == 1
            assert np.array_equal(got[index], rows)


def _solve_blocks_reference(K, rhs):
    """One np.linalg.solve per block, the loop _solve_blocks replaced."""
    m = len(rhs) - 1
    out, singular = np.zeros((len(K), m)), np.zeros(len(K), dtype=bool)
    for b in range(len(K)):
        try:
            out[b] = np.linalg.solve(K[b], rhs[:, None])[:m, 0]
        except np.linalg.LinAlgError:
            singular[b] = True
    return out, singular


@pytest.mark.parametrize("seed", range(4))
def test_solve_blocks_matches_per_block_solve(seed):
    # KKT blocks [[G G^T, 1], [1^T, 0]] of random displacement stacks G, with
    # singular blocks planted by repeated rows (and, in integer data, by
    # chance); solutions and the singular mask equal the loop's bit for bit
    rng = np.random.default_rng(seed)
    planted = 0
    for _ in range(60):
        k, batch, dim = (int(v) for v in rng.integers(1, [5, 30, 4]))
        G = rng.normal(size=(batch, k, dim))
        repeat = rng.random(batch) < 0.3
        G[repeat, -1] = G[repeat, 0]
        G[rng.random(batch) < 0.2] = rng.integers(-1, 2, size=(k, dim))
        K = np.zeros((batch, k + 1, k + 1))
        K[:, :k, :k] = G @ G.transpose(0, 2, 1)
        K[:, :k, k] = K[:, k, :k] = 1.0
        rhs = np.eye(k + 1)[k]
        got, got_singular = _solve_blocks(K, rhs)
        want, want_singular = _solve_blocks_reference(K, rhs)
        assert np.array_equal(got_singular, want_singular)
        assert np.array_equal(got, want)
        planted += int(want_singular.sum())
    assert planted > 0


# ------------------------------------------------ warm-started projections

@st.composite
def _warm_cases(draw):
    """Hulls in dims 2-4 of 1-6 distinct vertices, some listed twice, in one
    block padded by each hull's first vertex as _padded_rows pads, and two
    targets per hull, each inside, outside or on a vertex; the second is
    also drawn as a small move of the first.  (V, first, second)."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    hulls = []
    for _ in range(draw(st.integers(1, 6))):
        verts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 7)), dim))
        twice = verts[rng.integers(0, len(verts), size=int(rng.integers(0, 3)))]
        hulls.append(scale * np.vstack([verts, twice]))
    m = max(len(h) for h in hulls)
    V = np.array([np.vstack([h, np.repeat(h[:1], m - len(h), axis=0)]) for h in hulls])

    def target(h, kind):
        if kind == "inside":
            return rng.dirichlet(np.ones(len(h))) @ h
        if kind == "vertex":
            return h[rng.integers(len(h))]
        return scale * rng.uniform(-3.0, 3.0, size=dim)

    kinds = st.sampled_from(["inside", "outside", "vertex"])
    first = np.array([target(h, draw(kinds)) for h in hulls])
    second = np.array([target(h, draw(kinds)) for h in hulls])
    moved = rng.random(len(hulls)) < 0.5
    second[moved] = first[moved] + 1e-3 * scale * rng.normal(size=(moved.sum(), dim))
    return V, first, second


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_warm_cases())
def test_warm_projection_matches_the_cold_kernel(case):
    # the first call sends every row to the kernel and caches its
    # supports; on the second, every point the warm path keeps is a convex
    # combination of its cached support with weights above the cut, and
    # within _OPT_BAND R of the kernel's distance, R the largest vertex
    # distance; project returns it there and the kernel's point elsewhere
    V, first, second = case
    rows = np.arange(len(V))
    step = _WarmProjector(V)
    assert np.array_equal(step.project(first, rows), _nearest_in_hulls(first, V)[0])
    P, lam, ok = step._warm(second, rows)
    cold_P, cold_d, _ = _nearest_in_hulls(second, V)
    W = V - second[:, None, :]
    R = np.sqrt(np.einsum("bmd,bmd->bm", W, W).max(axis=1))
    on = step.support
    m = V.shape[1]
    assert (lam[ok][on[ok]] > _WEIGHT_CUT).all() and (lam[ok][~on[ok]] == 0.0).all()
    assert (np.abs(lam[ok].sum(axis=1) - 1.0) <= 1e-15 * m).all()
    assert (np.abs(np.linalg.norm(P - second, axis=1) - cold_d)[ok] <= _OPT_BAND * R[ok]).all()
    assert (np.abs(P - np.einsum("bm,bmd->bd", lam, V)).max(axis=1)[ok]
            <= 1e-14 * np.abs(V).max(axis=(1, 2))[ok]).all()
    got = step.project(second, rows)
    assert np.array_equal(got[ok], P[ok]) and np.array_equal(got[~ok], cold_P[~ok])


def test_warm_projection_sends_a_singular_support_to_the_kernel(monkeypatch):
    # a support holding a vertex and its padding copy has a singular KKT
    # block: that hull stays uncached and its rows take the kernel, which
    # then caches the support it ends on
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    step = _WarmProjector(np.array([tri, tri]))
    step._factor(np.arange(2), np.array([[True, True, False, True], [True, True, False, False]]))
    assert (step.floor[0] < np.inf).tolist() == [False, True]
    sent = []
    kernel = setops._nearest_in_hulls
    monkeypatch.setattr(setops, "_nearest_in_hulls",
                        lambda X, V: sent.append(len(X)) or kernel(X, V))
    X = np.array([[0.5, -0.5], [0.25, -1.0]])  # both project onto the edge [v_0, v_1]
    assert np.allclose(step.project(X, np.arange(2)), [[0.5, 0.0], [0.25, 0.0]],
                       rtol=0.0, atol=1e-15)
    assert sent == [1]
    assert (step.floor[0] < np.inf).all() and step.support.tolist() == [[True, True, False, False]] * 2


def test_warm_projection_in_r1_always_takes_the_closed_form(monkeypatch):
    # the closed form has no support to cache: every row of every call
    # takes it, bit for bit
    rng = np.random.default_rng(8)
    V = rng.uniform(-1.0, 1.0, size=(7, 3, 1))
    step = _WarmProjector(V)
    sent = []
    kernel = setops._nearest_in_hulls
    monkeypatch.setattr(setops, "_nearest_in_hulls",
                        lambda X, V: sent.append(len(X)) or kernel(X, V))
    for _ in range(3):
        X = rng.uniform(-1.5, 1.5, size=(7, 1))
        got = step.project(X, np.arange(7))
        want = _project_to_intervals(X[:, 0], V.min(axis=1)[:, 0], V.max(axis=1)[:, 0])
        assert got[:, 0].tobytes() == want.tobytes()
    assert sent == [7, 7, 7] and not (step.floor[0] < np.inf).any()


@st.composite
def _moving_cases(draw):
    """Hulls in dims 2-3 of 1-5 distinct vertices, some one-point hulls and
    some with a vertex listed twice, padded as _padded_rows pads; a start
    per hull and a velocity, so that the points slide across faces and
    vertices over the steps.  (V, X0, velocity)."""
    dim = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    hulls = []
    for _ in range(draw(st.integers(2, 7))):
        verts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), dim))
        if rng.random() < 0.3:
            verts = np.vstack([verts, verts[:1]])
        hulls.append(scale * verts)
    m = max(len(h) for h in hulls)
    V = np.array([np.vstack([h, np.repeat(h[:1], m - len(h), axis=0)]) for h in hulls])
    X0 = scale * rng.uniform(-2.0, 2.0, size=(len(hulls), dim))
    return V, X0, scale * rng.normal(size=X0.shape) / 8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_moving_cases())
def test_warm_projection_stays_within_the_band_of_the_cold_kernel_along_moving_points(case):
    # along 16 steps of moving points, every warm projection is as close
    # as the cold kernel's, within _OPT_BAND R (R the largest vertex
    # distance), and lies in its hull; after the first step every hull is
    # handed the support {v_0, last slot}, singular where the last slot
    # repeats v_0, which leaves those hulls uncached, so their rows take
    # the kernel again and cache its supports
    V, X0, velocity = case
    rows = np.arange(len(V))
    step = _WarmProjector(V)
    m = V.shape[1]
    for k in range(16):
        X = X0 + k * velocity
        P = step.project(X, rows)
        _, cold_d, _ = _nearest_in_hulls(X, V)
        W = V - X[:, None, :]
        R = np.sqrt(np.einsum("bmd,bmd->bm", W, W).max(axis=1))
        got = np.linalg.norm(P - X, axis=1)
        assert (np.abs(got - cold_d) <= _OPT_BAND * R + 1e-15 * np.abs(V).max()).all()
        assert (convex_distance(P, V) <= 1e-12 * np.abs(V).max()).all()
        if k == 0 and m > 1:
            planted = np.zeros((len(V), m), dtype=bool)
            planted[:, 0] = planted[:, -1] = True
            step._factor(rows, planted)
            assert np.array_equal(step.floor[0] < np.inf, (V[:, -1] != V[:, 0]).any(axis=1))


def test_warm_projection_of_one_point_hulls_is_the_point(monkeypatch):
    # a one-point hull caches the support {v_0}, whose weight is 1 for
    # every point: each later call keeps it (x + (v_0 - x), within
    # rounding of v_0), off the kernel
    V = np.array([[[1.0, 2.0]] * 3, [[-1.0, 0.5]] * 3])
    step = _WarmProjector(V)
    sent = []
    kernel = setops._nearest_in_hulls
    monkeypatch.setattr(setops, "_nearest_in_hulls",
                        lambda X, V: sent.append(len(X)) or kernel(X, V))
    rng = np.random.default_rng(2)
    for _ in range(4):
        P = step.project(rng.normal(size=(2, 2)), np.arange(2))
        assert np.abs(P - V[:, 0]).max() <= 8e-15
    assert sent == [2]


@st.composite
def _dedup_tie_cases(draw):
    """Point lists whose first coordinates tie, or sit exactly DEDUP_TOL
    apart or one rounding step either side of it, mixed with box-corner
    clouds (every first coordinate shared by half the corners) and
    random points, in dims 1-3, in any order."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = draw(st.sampled_from([0.0, 1.0, -3.5, 1e3]))
    gaps = [0.0, DEDUP_TOL, np.nextafter(DEDUP_TOL, 0.0), np.nextafter(DEDUP_TOL, 1.0),
            2 * DEDUP_TOL, 0.5 * DEDUP_TOL, 1e-3]
    pts = []
    for _ in range(draw(st.integers(1, 6))):
        p = rng.uniform(-1.0, 1.0, size=dim)
        p[0] = base + gaps[int(rng.integers(len(gaps)))]
        if rng.random() < 0.3 and pts:  # the same point as an earlier one but the first coordinate
            p[1:] = pts[int(rng.integers(len(pts)))][1:]
        pts.append(p)
    if draw(st.booleans()):
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
        pts.extend(base + corners * draw(st.sampled_from([1.0, DEDUP_TOL, 1e-6])))
    pts = np.array(pts)
    return dim, pts[rng.permutation(len(pts))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_dedup_tie_cases())
@example((1, np.array([[0.0], [DEDUP_TOL]])))  # a gap of exactly DEDUP_TOL is close
@example((2, np.array([[DEDUP_TOL, 5.0], [3.0, -1.0], [0.0, 5.0]])))
@example((3, np.array([[0.0, 1.0, 2.0], [np.nextafter(DEDUP_TOL, 1.0), 1.0, 2.0]])))
def test_dedup_early_exit_agrees_with_the_pairwise_test(case):
    # the sorted first coordinates decide only where all their gaps exceed
    # DEDUP_TOL; every other list takes the pairwise matrix, and both give
    # the greedy reference's points, and the input object when none is dropped
    dim, pts = case
    arr = _as_points(dim, pts)
    want = _greedy_dedup_reference(arr)
    got = _dedup(arr)
    assert np.array_equal(got, want)
    assert (got is arr) == (len(want) == len(arr))
    x = np.sort(arr[:, 0])
    if (x[1:] - x[:-1] > DEDUP_TOL).all():
        assert got is arr


def test_pointset_of_separated_first_coordinates_builds_no_pairwise_matrix(monkeypatch):
    # a work count: points whose sorted first coordinates are spread more
    # than DEDUP_TOL apart are told distinct without _cross_dists
    def refuse(*_):
        raise AssertionError("pairwise matrix built")
    monkeypatch.setattr(setops, "_cross_dists", refuse)
    rng = np.random.default_rng(6)
    for dim in (1, 2, 3):
        for n in (2, 3, 9, 50):
            pts = rng.uniform(-1.0, 1.0, size=(n, dim))
            pts[:, 0] = np.sort(rng.permutation(n) + rng.uniform(0.0, 0.5, size=n))[rng.permutation(n)]
            assert np.array_equal(PointSet.of(dim, pts).points, pts)
            assert np.array_equal(PointSet(dim, pts).points, pts)
            assert np.array_equal(ConvexSet(dim, pts).vertices, pts)
    with pytest.raises(AssertionError, match="pairwise"):
        PointSet.of(2, [[0.0, 0.0], [0.0, 1.0]])  # a tie takes the matrix


@pytest.mark.parametrize("dim", [2, 3])
def test_segment_margins_match_the_per_row_qhull_reference(dim):
    # rows of 1 to dim + 3 points, flat and full-dimensional, some sharing
    # points: a row of at most dim + 1 points reads 0 from its count,
    # every other row is _margins over its own points, bit for bit
    rng = np.random.default_rng(dim)
    points = rng.uniform(-1.0, 1.0, size=(60, dim))
    points[10:14, -1] = 0.25  # a flat row: zero margin from Qhull's failure or its facets
    starts = rng.integers(0, 50, size=40)
    counts = rng.integers(1, dim + 4, size=40)
    counts[:3] = (1, dim, dim + 1)
    simplex = np.vstack([np.zeros(dim), np.eye(dim)])
    points[40:dim + 42] = np.vstack([simplex, simplex.mean(axis=0)])  # an interior point
    starts[3:5] = 10, 40
    counts[3:5] = 4, dim + 2
    segs = np.column_stack([starts, starts + counts])
    want = np.concatenate([setops._margins(points[a:b], points[a:b]) for a, b in segs])
    got = segment_margins(points, segs)
    assert got.tobytes() == want.tobytes()
    assert (got > 0).any() and not got[:counts[0] + counts[1]].any()
    assert segment_margins(points, segs[:0]).shape == (0,)


@pytest.mark.parametrize("dim", [2, 3])
def test_segment_margins_of_simplices_and_flat_rows_call_no_qhull(dim, monkeypatch):
    # a row of at most dim + 1 points is a simplex, every point a vertex,
    # or flat, so Qhull fails: _margins reads 0.0 for it either way, and
    # segment_margins reads the same from the row's count alone
    rng = np.random.default_rng(30 + dim)
    rows = [rng.normal(size=(dim + 1, dim)) for _ in range(40)]  # simplices
    for _ in range(40):  # flat: on a random hyperplane, exactly or within 1e-9
        basis = rng.normal(size=(dim - 1, dim))
        row = rng.normal(size=(dim + 1, dim - 1)) @ basis + rng.normal(size=dim)
        rows.append(row + 1e-9 * rng.normal(size=row.shape) * rng.integers(2))
    rows.append(np.repeat(rng.normal(size=(1, dim)), dim + 1, axis=0))  # one point, repeated
    rows += [rng.normal(size=(k, dim)) for k in range(1, dim + 1)]
    want = np.concatenate([setops._margins(row, row) for row in rows])
    assert not want.any()
    calls = []

    def hull(*args, **kwargs):
        calls.append(args)
        return ConvexHull(*args, **kwargs)

    monkeypatch.setattr("scipy.spatial.ConvexHull", hull)
    counts = [len(row) for row in rows]
    segs = np.column_stack([np.cumsum(counts) - counts, np.cumsum(counts)])
    got = segment_margins(np.vstack(rows), segs)
    assert got.tobytes() == want.tobytes() and calls == []
    # a row of dim + 2 points still takes its Qhull call
    segment_margins(rng.normal(size=(dim + 2, dim)), np.array([[0, dim + 2]]))
    assert len(calls) == 1

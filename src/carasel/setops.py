"""Finite computational geometry for set values.

Sets are finite point lists in R^n; convex sets are V-polytopes given by
their vertex (or sample) lists.  Everything here is exact enumeration or
small convex solves: Hausdorff distances, eps-neighborhood inclusions,
convex membership and projection, ambient interior margins, and the
tail-window surrogates for lower/upper set-sequence limits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from .errors import DomainError

DEDUP_TOL = 1e-12
DEFAULT_MEMBERSHIP_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-6

# Band below which an nnls residual is re-decided by an exact linear
# feasibility solve, so that genuine members pass even at tol=0.
_FEASIBILITY_BAND = 1e-9

# Min-norm-point search, in units of the largest vertex distance from x:
# a row is optimal once no vertex improves on its point p by more than
# _OPT_BAND * |p| (or |p| itself is below _OPT_BAND), which bounds the
# distance error by _OPT_BAND; a support weight at or below _WEIGHT_CUT
# counts as dead.
_OPT_BAND = 1e-12
_WEIGHT_CUT = 1e-14


def _as_points(dim: int, points) -> np.ndarray:
    if dim < 1:
        raise DomainError("dim must be a positive integer")
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, dim)
    if arr.ndim == 1:
        arr = arr.reshape(-1, dim) if dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(f"points must be vectors of length {dim}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("points must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _dedup(points: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    """The one distinctness kernel: the points farther than tol from
    every earlier kept point, in order (greedy, the first of a close
    pair is kept).  One pairwise comparison; when it shows only the
    diagonal, the input object itself is returned, so `_dedup(arr) is
    not arr` tells whether arr holds points within tol of each other."""
    if len(points) <= 1:
        return points
    close = _cross_dists(points, points) <= tol
    n = len(points)
    if np.count_nonzero(close) == n:
        return points
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if keep[i]:
            keep[i + 1:] &= ~close[i, i + 1:]
    out = points[keep].copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointSet:
    """A finite (possibly empty) set of points in R^dim."""

    dim: int
    points: np.ndarray

    def __post_init__(self):
        arr = _as_points(self.dim, self.points)
        if _dedup(arr) is not arr:
            raise DomainError("duplicate points beyond tolerance 1e-12")
        object.__setattr__(self, "points", arr)

    @classmethod
    def of(cls, dim: int, points) -> "PointSet":
        """Build a PointSet, silently deduplicating near-equal points.
        The points are checked once: the deduplicated array holds no
        close pair, so __post_init__ would find nothing to reject."""
        return cls._view(dim, _dedup(_as_points(dim, points)))

    @classmethod
    def _view(cls, dim: int, points: np.ndarray) -> "PointSet":
        """Wrap finite, read-only, pairwise distinct (dim)-vectors as they
        are, without checking them."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "dim", dim)
        object.__setattr__(ps, "points", points)
        return ps

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        return cls(dim, np.zeros((0, dim)))

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0

    def __len__(self) -> int:
        return len(self.points)

    def union(self, other: "PointSet") -> "PointSet":
        if self.dim != other.dim:
            raise DomainError("union of point sets with mismatched dim")
        return PointSet.of(self.dim, np.vstack([self.points, other.points]))

    def same_as(self, other: "PointSet", tol: float = DEDUP_TOL) -> bool:
        """Set equality within tol (both empty, or mutual containment)."""
        if self.is_empty or other.is_empty:
            return self.is_empty and other.is_empty
        d = _cross_dists(self.points, other.points)
        return float(max(d.min(axis=1).max(), d.min(axis=0).max())) <= tol


@dataclass(frozen=True)
class ConvexSet:
    """V-polytope: the convex hull of a nonempty finite vertex list."""

    dim: int
    vertices: np.ndarray

    def __post_init__(self):
        arr = _dedup(_as_points(self.dim, self.vertices))
        if len(arr) == 0:
            raise DomainError("a ConvexSet needs at least one vertex")
        object.__setattr__(self, "vertices", arr)

    @classmethod
    def from_point_set(cls, ps: PointSet) -> "ConvexSet":
        """The hull of a nonempty PointSet, built once per PointSet and
        cached on it (both are immutable), so every caller shares one
        object.  Its vertices are ps.points itself: a PointSet's points
        are already finite, read-only and pairwise farther apart than
        DEDUP_TOL, so validating and deduplicating them again would keep
        every point."""
        hull = ps.__dict__.get("_hull")
        if hull is None:
            if ps.is_empty:
                raise DomainError("cannot take the convex hull of the empty set")
            hull = object.__new__(cls)
            object.__setattr__(hull, "dim", ps.dim)
            object.__setattr__(hull, "vertices", ps.points)
            object.__setattr__(ps, "_hull", hull)
        return hull

    def barycenter(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


@dataclass(frozen=True)
class SetSequence:
    """An ordered finite sequence of point sets sharing one ambient dim."""

    dim: int
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        for t in terms:
            if not isinstance(t, PointSet) or t.dim != self.dim:
                raise DomainError("all terms must be PointSets of the common dim")
        object.__setattr__(self, "terms", terms)


def _cross_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, shape (len(a), len(b))."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def hausdorff_dist(a: PointSet, b: PointSet) -> float:
    """Hausdorff distance between two nonempty finite point sets:
    max of the two one-sided sup-of-nearest distances."""
    if a.is_empty or b.is_empty:
        raise DomainError("hausdorff_dist is undefined for empty sets")
    if a.dim != b.dim:
        raise DomainError("hausdorff_dist requires matching dims")
    d = _cross_dists(a.points, b.points)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def eps_neighborhood_contains(a: PointSet, b: PointSet, eps: float) -> bool:
    """True iff every point of a lies strictly within eps of b
    (a is contained in the open eps-neighborhood of b).  Vacuously true
    for empty a."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    if a.is_empty:
        return True
    if b.is_empty:
        raise DomainError("eps-neighborhood of the empty set is empty")
    d = _cross_dists(a.points, b.points)
    return bool(d.min(axis=1).max() < eps)


def _pack_hulls(hulls) -> np.ndarray:
    """The vertex lists of a nonempty list of hulls in one dim as one
    (len(hulls), mmax, dim) block, the layout convex_project takes.
    A shorter list is padded by repeating its first vertex, which leaves
    its hull unchanged."""
    counts = np.array([len(h.vertices) for h in hulls])
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    slot = np.arange(counts.max())
    take = first[:, None] + np.where(slot < counts[:, None], slot, 0)
    return np.concatenate([h.vertices for h in hulls])[take]


def _nearest_in_hulls(X: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean projection of every row x_b of X onto the hull of the
    rows of V[b] (which may repeat), or of V[0] for every row when V
    holds one hull; returns the projected points and their distances.

    The closed form in R^1.  Otherwise Wolfe's (1976) min-norm-point
    search, run in lockstep over the rows.  Each row is translated to its
    x and divided by its largest vertex distance, so the optimality band
    and the weight cut-off are relative.  A row alternates major steps
    (stop at the optimality condition, else add the most improving
    vertex to its support) with minimizations over the affine hull of its
    support, one stacked KKT solve for all rows with identity rows off
    the support, and boundary line searches that drop the vertex whose
    weight dies.  Weights stay a convex combination, so every point
    returned lies in its hull.  A row stops once its best vertex is
    already in its support, its norm stops decreasing or its KKT block is
    singular (it keeps its last point), and leaves the stacked arrays;
    every row stops after 16 (m + 2) iterations, m the padded vertex
    count."""
    B, (m, dim) = len(X), V.shape[1:]
    if dim == 1:
        P = np.minimum(np.maximum(X[:, 0], V[:, :, 0].min(axis=1)), V[:, :, 0].max(axis=1))
        return P[:, None], np.abs(X[:, 0] - P)
    W = V - X[:, None, :]
    norms2 = np.einsum("bmd,bmd->bm", W, W)
    R = np.sqrt(norms2.max(axis=1))
    R[R == 0.0] = 1.0  # x is the only vertex: the start is exact
    W /= R[:, None, None]
    rows = np.arange(B)
    start = norms2.argmin(axis=1)  # a repeated vertex is never preferred to its first copy
    support = np.arange(m + 1) == start[:, None]
    support[:, m] = True
    lam = support[:, :m].astype(float)
    p = W[rows, start]
    out = np.empty((B, dim))
    live = rows  # the rows still searching, in the order of the stacked arrays
    last_pp = np.full(B, np.inf)
    at_minimizer = np.ones(B, dtype=bool)  # lam minimizes over the support's affine hull
    K_all = None  # built once some row goes on past its start vertex
    for _ in range(16 * (m + 2)):
        pp = np.einsum("bd,bd->b", p, p)
        dots = (W @ p[:, :, None])[:, :, 0]
        j = dots.argmin(axis=1)
        norm_p = np.sqrt(pp)
        stop = at_minimizer & ((norm_p <= _OPT_BAND) | (pp - dots[rows, j] <= _OPT_BAND * norm_p)
                               | support[rows, j] | (pp >= last_pp))
        n_stop = np.count_nonzero(stop)
        if n_stop == len(stop):
            break
        if n_stop:
            out[live[stop]] = p[stop]
            go = ~stop
            live, W, support, lam, p, pp, j, last_pp, at_minimizer = (
                a[go] for a in (live, W, support, lam, p, pp, j, last_pp, at_minimizer))
            rows = np.arange(len(live))
            if K_all is not None:
                K_all = K_all[go]
        if K_all is None:
            # KKT matrix over every vertex plus the multiplier; each solve
            # keeps the rows and columns of the support and the multiplier
            K_all = np.ones((len(live), m + 1, m + 1))
            K_all[:, :m, :m] = W @ W.transpose(0, 2, 1)
            K_all[:, m, m] = 0.0
            eye = np.eye(m + 1)
            e_last = eye[:, m:]
        support[rows, j] |= at_minimizer
        last_pp = np.where(at_minimizer, pp, last_pp)
        beta, singular = _solve_blocks(
            np.where(support[:, :, None] & support[:, None, :], K_all, eye), e_last)
        s = support[:, :m]
        low = s & (beta <= _WEIGHT_CUT)
        at_minimizer = ~low.any(axis=1)
        new = beta
        if np.count_nonzero(low):
            # walk from lam toward beta until the first weight at or below
            # the cut dies, and drop that vertex
            walk = np.flatnonzero(~at_minimizer)
            lw, bw = lam[walk], beta[walk]
            shrink = lw - bw
            steps = np.where(low[walk], np.divide(lw, shrink, out=np.zeros_like(lw),
                                                  where=shrink > 0), np.inf)
            k = steps.argmin(axis=1)
            theta = np.minimum(steps[np.arange(len(walk)), k], 1.0)
            new[walk] = lw + theta[:, None] * (bw - lw)
            new[walk, k] = 0.0
        if np.count_nonzero(singular):
            # that row alone keeps its last point and stops at the next test
            new[singular] = lam[singular]
            at_minimizer[singular] = True
            last_pp[singular] = -np.inf
        support[:, :m] = s & (new > _WEIGHT_CUT)
        lam = np.where(support[:, :m], new, 0.0)
        lam /= lam.sum(axis=1, keepdims=True)
        p = (lam[:, None, :] @ W)[:, 0]
    out[live] = p
    return X + R[:, None] * out, R * np.sqrt(np.einsum("bd,bd->b", out, out))


def _solve_blocks(K: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first m entries of the solution of every block K[b] x = rhs,
    m = len(rhs) - 1, and the mask of singular blocks, whose solution
    rows are left 0."""
    m = len(rhs) - 1
    try:
        return np.linalg.solve(K, rhs)[:, :m, 0], np.zeros(len(K), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros((len(K), m))
        singular = np.zeros(len(K), dtype=bool)
        for b in range(len(K)):
            try:
                out[b] = np.linalg.solve(K[b], rhs)[:m, 0]
            except np.linalg.LinAlgError:
                singular[b] = True
        return out, singular


def convex_project(x, c) -> tuple[np.ndarray, float | np.ndarray]:
    """Euclidean projection onto con(vertices); returns the projected
    point and the distance.

    x is one point, or a (B, dim) stack of points projected in one call,
    which returns a (B, dim) stack and B distances.  c is a ConvexSet,
    the hull for every point, or a (B, m, dim) block whose row b lists
    the vertices (repeats allowed) of point b's hull, the layout of
    _pack_hulls.  The work is one call of the batched kernel
    _nearest_in_hulls: the closed form for intervals in R^1, otherwise a
    min-norm-point search in units of the largest vertex distance from
    each point, so its accuracy does not depend on the coordinates'
    scale or offset.  An exact vertex hit gives distance 0."""
    X = np.asarray(x, dtype=float)
    single = X.ndim <= 1
    X = X.reshape(1, -1) if single else X
    if isinstance(c, ConvexSet):
        V = c.vertices[None]  # one hull, broadcast over the rows
    else:
        V = c
        if V.ndim != 3 or len(V) != len(X):
            raise DomainError(f"{len(X)} points need {len(X)} hulls, got a block of shape {V.shape}")
    if X.ndim != 2 or X.shape[1] != V.shape[2]:
        raise DomainError(f"point has dim {X.shape[-1]}, set has dim {V.shape[2]}")
    P, d = _nearest_in_hulls(X, V)
    if single:
        return P[0], float(d[0])
    return P, d


def convex_distance(x, c) -> float | np.ndarray:
    """dist(x, con(vertices)): a float for one point, an array for a
    stack; x and c as in convex_project."""
    return convex_project(x, c)[1]


def _feasible_combination(x: np.ndarray, V: np.ndarray) -> bool:
    """Exact linear feasibility: does some lam >= 0, sum lam = 1 satisfy
    V^T lam = x?  Decided by the HiGHS LP solver."""
    k = len(V)
    a_eq = np.vstack([V.T, np.ones((1, k))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * k, method="highs")
    return res.status == 0


def convex_membership(x, c: ConvexSet, tol: float = DEFAULT_MEMBERSHIP_TOL) -> bool:
    """True iff some convex combination of c's vertices reproduces x
    within Euclidean residual tol.

    Monotone in tol.  Vertices and exact members pass even at tol=0: a
    projection residual below the feasibility band is re-decided by a
    direct linear feasibility solve.
    """
    if tol < 0:
        raise DomainError("tol must be nonnegative")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != c.dim:
        raise DomainError(f"point has dim {x.shape[0]}, set has dim {c.dim}")
    if c.dim == 1:
        lo, hi = float(c.vertices[:, 0].min()), float(c.vertices[:, 0].max())
        return lo - tol <= x[0] <= hi + tol
    dist = convex_distance(x, c)
    if dist <= tol:
        return True
    if dist <= _FEASIBILITY_BAND:
        return _feasible_combination(x, c.vertices)
    return False


def interior_point_margin(x, c: ConvexSet) -> float:
    """Largest r >= 0 with the ball B(x, r) inside con(vertices), in the
    ambient space.  Returns 0 when the hull is lower-dimensional or x is
    outside (so an empty ambient interior shows up as margin 0)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != c.dim:
        raise DomainError(f"point has dim {x.shape[0]}, set has dim {c.dim}")
    return float(_margins(x.reshape(1, -1), c)[0])


def vertex_margins(c: ConvexSet) -> np.ndarray:
    """interior_point_margin of every vertex/sample of c, in order, from
    one hull."""
    return _margins(c.vertices, c)


def _margins(X: np.ndarray, c: ConvexSet) -> np.ndarray:
    """interior_point_margin of every row of X: the closed form in R^1,
    one Qhull call for all rows otherwise."""
    V = c.vertices
    if c.dim == 1:
        lo, hi = float(V[:, 0].min()), float(V[:, 0].max())
        if hi <= lo:
            return np.zeros(len(X))
        return np.maximum(0.0, np.minimum(X[:, 0] - lo, hi - X[:, 0]))
    if len(V) <= c.dim:
        return np.zeros(len(X))  # too few vertices to be full-dimensional
    try:
        facets = ConvexHull(V).equations
    except QhullError:
        return np.zeros(len(X))  # degenerate: empty ambient interior
    # hull facet normals are unit-length, so these are signed distances
    return np.array([max(0.0, float((-(facets[:, :-1] @ x + facets[:, -1])).min()))
                     for x in X])


def max_vertex_margin(c: ConvexSet) -> float:
    """max over the vertex/sample list of interior_point_margin; positive
    iff the list carries a point interior to its own hull."""
    return float(vertex_margins(c).max())


def convex_hausdorff_dist(a: ConvexSet, b: ConvexSet) -> float:
    """Hausdorff distance between two V-polytopes.  The sup of the convex
    function dist(., hull) over a polytope is attained at a vertex, so
    vertex-to-hull projections suffice."""
    if a.dim != b.dim:
        raise DomainError("convex_hausdorff_dist requires matching dims")
    d_ab = convex_distance(a.vertices, b).max()
    d_ba = convex_distance(b.vertices, a).max()
    return float(max(d_ab, d_ba))


@dataclass(frozen=True)
class LimitWindow:
    """Internal: the candidate pool and per-term hit counts for one
    tail-window limit computation."""

    candidates: np.ndarray
    hits: np.ndarray  # shape (n_candidates, tail) booleans


def _limit_window(s: SetSequence, tail: int, tol_cluster: float) -> LimitWindow:
    if not s.terms:
        raise DomainError("the sequence has no terms")
    if tail < 1 or tail > len(s.terms):
        raise DomainError("tail must satisfy 1 <= tail <= len(terms)")
    window = s.terms[len(s.terms) - tail:]
    pools = [t.points for t in window if not t.is_empty]
    if not pools:
        return LimitWindow(np.zeros((0, s.dim)), np.zeros((0, tail), dtype=bool))
    candidates = _dedup(np.vstack(pools))
    hits = np.zeros((len(candidates), tail), dtype=bool)
    for j, term in enumerate(window):
        if term.is_empty:
            continue
        d = _cross_dists(candidates, term.points)
        hits[:, j] = d.min(axis=1) <= tol_cluster
    return LimitWindow(candidates, hits)


def li_limit(s: SetSequence, tail: int, tol_cluster: float = DEFAULT_CLUSTER_TOL) -> PointSet:
    """Tail-window surrogate of the lower set limit: points hit by every
    one of the last `tail` terms within tol_cluster."""
    w = _limit_window(s, tail, tol_cluster)
    sel = w.hits.all(axis=1)
    return PointSet.of(s.dim, w.candidates[sel])


def ls_limit(s: SetSequence, tail: int, tol_cluster: float = DEFAULT_CLUSTER_TOL) -> PointSet:
    """Tail-window surrogate of the upper set limit: points hit by at
    least ceil(tail/2) of the last `tail` terms within tol_cluster."""
    w = _limit_window(s, tail, tol_cluster)
    need = -(-tail // 2)  # ceil(tail / 2)
    sel = w.hits.sum(axis=1) >= need
    return PointSet.of(s.dim, w.candidates[sel])

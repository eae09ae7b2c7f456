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


def _as_points(dim: int, points) -> np.ndarray:
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
        if self.dim < 1:
            raise DomainError("dim must be a positive integer")
        arr = _as_points(self.dim, self.points)
        if _dedup(arr) is not arr:
            raise DomainError("duplicate points beyond tolerance 1e-12")
        object.__setattr__(self, "points", arr)

    @classmethod
    def of(cls, dim: int, points) -> "PointSet":
        """Build a PointSet, silently deduplicating near-equal points."""
        return cls(dim, _dedup(_as_points(dim, points)))

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


def dist_to_point_set(x: np.ndarray, b: PointSet) -> float:
    """dist(x, B) = min over b in B of ||x - b||."""
    if b.is_empty:
        raise DomainError("distance to the empty set is undefined")
    return float(np.linalg.norm(b.points - np.asarray(x, dtype=float), axis=1).min())


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


def _affine_minimizer(gram: np.ndarray) -> np.ndarray:
    """Weights of the min-norm point over the affine hull of the rows
    behind gram (KKT solve of min ||W^T b||^2 s.t. sum b = 1)."""
    m = len(gram)
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * gram
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:m]


def _nearest_in_hull(x: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Min-norm-point (Wolfe) search for the Euclidean projection of x
    onto con(rows of V): maintain a small support set, alternate affine
    minimization with boundary line searches, stop at the variational
    optimality condition.  Supports stay affinely independent, so the
    inner solves are at most (dim+2)-sized."""
    W = V - x
    G = W @ W.T
    norms2 = np.diag(G)
    scale = max(1.0, float(norms2.max()))
    support = [int(norms2.argmin())]
    lam = np.array([1.0])
    p = W[support[0]].copy()
    for _ in range(16 * (len(V) + 2)):
        dots = W @ p
        j = int(dots.argmin())
        if float(dots[j]) >= float(p @ p) - 1e-14 * scale:
            break  # no vertex improves: p is the projection
        if j in support:
            break  # numerically stalled on the current support
        support.append(j)
        lam = np.append(lam, 0.0)
        while True:
            beta = _affine_minimizer(G[np.ix_(support, support)])
            if beta.min() > 0.0:
                lam = beta
                break
            # walk toward the affine minimizer until a weight dies
            shrinking = beta < lam
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = lam / (lam - beta)
            theta = float(steps[shrinking & (beta <= 0)].min())
            lam = (1.0 - theta) * lam + theta * beta
            keep = lam > 1e-15
            if keep.all():
                lam = np.clip(lam, 0.0, None)
                lam /= lam.sum()
                break
            support = [s for s, k in zip(support, keep) if k]
            lam = lam[keep]
            lam /= lam.sum()
        p = W[support].T @ lam
    return x + p


def convex_project(x, c: ConvexSet) -> tuple[np.ndarray, float]:
    """Euclidean projection of x onto con(vertices); returns the projected
    point and the distance.  Closed forms for intervals in R^1, vertices
    and single points; the min-norm-point search otherwise."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != c.dim:
        raise DomainError(f"point has dim {x.shape[0]}, set has dim {c.dim}")
    V = c.vertices
    if c.dim == 1:
        lo, hi = float(V[:, 0].min()), float(V[:, 0].max())
        p = min(max(x[0], lo), hi)
        return np.array([p]), abs(x[0] - p)
    # exact-vertex fast path
    norms = np.linalg.norm(V - x, axis=1)
    hit = int(norms.argmin())
    if norms[hit] == 0.0:
        return V[hit].copy(), 0.0
    if len(V) == 1:
        return V[0].copy(), float(norms[0])
    p = _nearest_in_hull(x, V)
    return p, float(np.linalg.norm(p - x))


def convex_distance(x, c: ConvexSet) -> float:
    """dist(x, con(vertices))."""
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
    if any(np.array_equal(v, x) for v in c.vertices):
        return True
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
    d_ab = max(convex_distance(v, b) for v in a.vertices)
    d_ba = max(convex_distance(v, a) for v in b.vertices)
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

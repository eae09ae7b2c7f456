"""Finite computational geometry for set values.

Sets are finite point lists in R^n; convex sets are V-polytopes given by
their vertex (or sample) lists.  Everything here is exact enumeration or
small convex solves: Hausdorff distances, convex membership and
projection, and ambient interior margins.

The inclusion residual, the irreflexivity test and a selection's
membership certificate share one grouped pass, segment_distances: the
distance of each point from the hull of its own segment of one points
array, from each segment's interval ends in R^1, otherwise one batched
projection per segment length, no segment padded.

scipy is imported inside the two functions that call it (the LP
fallback of convex membership and the Qhull margins in dimension > 1),
so a 1-D problem never loads it.

Projections onto polytopes come from one batched Wolfe min-norm-point
kernel (_nearest_in_hulls).  A caller that projects changing points onto
fixed hulls again and again, as the selection sweep does, goes through
_WarmProjector: each hull keeps the support its last kernel search
ended on, with that support's KKT solution map, and a row reaches the
kernel again only where the point on its cached support fails the
kernel's own optimality test or loses a weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEDUP_TOL = 1e-12
DEFAULT_MEMBERSHIP_TOL = 1e-9

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
    arr = np.array(points, dtype=float, order="C")  # the one copy: the input stays the caller's
    if arr.size == 0:
        arr = arr.reshape(0, dim)
    if arr.ndim == 1:
        arr = arr.reshape(-1, dim) if dim == 1 else arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise DomainError(f"points must be vectors of length {dim}, got shape {arr.shape}")
    # a finite sum has finite terms; only a sum that is not (an overflow,
    # or an inf or NaN term) is re-checked term by term.  Python floats
    # overflow to inf silently, whatever numpy's error handling says
    flat = arr.ravel().tolist()
    if not (math.isfinite(sum(flat)) or all(map(math.isfinite, flat))):
        raise DomainError("points must be finite")
    arr.flags.writeable = False
    return arr


def _dedup(points: np.ndarray) -> np.ndarray:
    """The one distinctness kernel: the points farther than DEDUP_TOL from
    every earlier kept point, in order (greedy, the first of a close
    pair is kept).  When the input holds no close pair, the input object
    itself is returned, so `_dedup(arr) is not arr` tells whether arr
    holds points within DEDUP_TOL of each other.

    Points whose sorted first coordinates are more than DEDUP_TOL apart
    hold no close pair, and no pairwise matrix is built: a pair's computed
    distance, the root of a sum of rounded squares, is at least its
    rounded first-coordinate gap, which is at least the gap between two
    neighbours in that order (rounded subtraction is monotone).  Other
    inputs take one pairwise comparison (_cross_dists)."""
    if len(points) <= 1:
        return points
    x = sorted(points[:, 0].tolist())
    if all(b - a > DEDUP_TOL for a, b in zip(x, x[1:])):
        return points
    close = _cross_dists(points, points) <= DEDUP_TOL
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
        close pair, so __post_init__ would find nothing to reject.  Points
        whose first coordinates are spread more than DEDUP_TOL apart are
        told distinct from those alone (_dedup)."""
        return cls._view(dim, _dedup(_as_points(dim, points)))

    @classmethod
    def _view(cls, dim: int, points: np.ndarray) -> "PointSet":
        """Wrap finite, read-only, pairwise distinct (dim)-vectors as they
        are, without checking them."""
        ps = object.__new__(cls)
        fields = ps.__dict__  # frozen: the fields are written past __setattr__
        fields["dim"] = dim
        fields["points"] = points
        return ps

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        return cls(dim, np.zeros((0, dim)))

    @property
    def is_empty(self) -> bool:
        return len(self.points) == 0

    def __len__(self) -> int:
        return len(self.points)


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


def _padded_rows(segs: np.ndarray) -> np.ndarray:
    """Point indices of nonempty [start, stop) rows as one (len(segs),
    mmax) index block; a shorter row is padded by repeating its first
    index, which changes no hull, no nearest distance and no farthest
    one."""
    counts = segs[:, 1] - segs[:, 0]
    slot = np.arange(counts.max())
    return segs[:, :1] + np.where(slot < counts[:, None], slot, 0)


def _distinct(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-D array, or np.unique(a, axis=0) of the rows of
    a 2-D integer array: the same sorted distinct values, by one sort.
    numpy 2's plain np.unique asks np.ma.is_masked, which imports
    numpy.ma into every process that reaches it."""
    if a.ndim == 1:
        a = np.sort(a)
        keep = np.ones(len(a), dtype=bool)
        keep[1:] = a[1:] != a[:-1]
    else:
        a = a[np.lexsort(a.T[::-1])]
        keep = np.ones(len(a), dtype=bool)
        keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


def _distinct_segments(segs: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(segs, axis=0, return_inverse=True) of [start, stop) rows
    into size points: the distinct rows in sorted order, and the index
    into them of every row.  Each row is keyed by the exact int64 code
    start * (size + 1) + stop, whose order is the rows' own, and the
    codes are sorted as one flat array."""
    base = size + 1
    codes, index = np.unique(segs[:, 0] * base + segs[:, 1], return_inverse=True)
    return np.column_stack(np.divmod(codes, base)), index.ravel()


def _interval_ends(points: np.ndarray, segs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least and the largest value of every nonempty [start, stop)
    row of segs of the (P, 1) points: each row's hull, an interval of
    R^1.  Each distinct row (_distinct_segments) is reduced once: one
    minimum and one maximum reduceat over the distinct rows' points back
    to back.  min and max are exact, so the ends are the row's own."""
    distinct, row = _distinct_segments(segs, len(points))
    rows, first = _segment_rows(distinct)
    x = points[rows, 0]
    return np.minimum.reduceat(x, first)[row], np.maximum.reduceat(x, first)[row]


def _project_to_intervals(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The closed-form projection of every x onto its interval [lo, hi] of R^1."""
    return np.minimum(np.maximum(x, lo), hi)


def _nearest_in_hulls(X: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                              np.ndarray | None]:
    """Euclidean projection of every row x_b of X onto the hull of the
    rows of V[b] (which may repeat), or of V[0] for every row when V
    holds one hull; returns the projected points, their distances and
    each row's final support, a (B, m) mask of the vertices its point
    combines (None in R^1).

    In R^1 the closed form _project_to_intervals.  Otherwise Wolfe's (1976)
    min-norm-point search, run in lockstep over the rows.  Each row is
    translated to its x and divided by its largest vertex distance, so the
    optimality band and the weight cut-off are relative.  A row alternates
    major steps (stop at the optimality condition, else add the most
    improving vertex to its support) with minimizations over the affine hull
    of its support, one stacked KKT solve for all rows with identity rows
    off the support, and boundary line searches that drop the vertex whose
    weight dies.  Weights stay a convex combination, so every point returned
    lies in its hull.  A row stops once its best vertex is already in its
    support, its norm stops decreasing or its KKT block is singular (it
    keeps its last point), and leaves the stacked arrays; every row stops
    after 16 (m + 2) iterations, m the padded vertex count."""
    B, (m, dim) = len(X), V.shape[1:]
    if dim == 1:
        P = _project_to_intervals(X[:, 0], V[:, :, 0].min(axis=1), V[:, :, 0].max(axis=1))
        return P[:, None], np.abs(X[:, 0] - P), None
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
    out_support = np.empty((B, m), dtype=bool)
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
            out_support[live[stop]] = support[stop, :m]
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
            e_last = eye[m]
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
    out_support[live] = support[:, :m]
    return X + R[:, None] * out, R * np.sqrt(np.einsum("bd,bd->b", out, out)), out_support


def _solve_blocks(K: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first m = K.shape[1] - 1 rows of the solution of every block
    K[b] x = rhs, for one right-hand side, a vector, shared by every block
    (a (B, m) result) or a (B, m + 1, k) stack of one per block (a (B, m,
    k) result), and the mask of singular blocks, whose solutions are left
    0.  A block is singular when its LU factorization meets a zero pivot,
    the test np.linalg.solve makes, so slogdet's zero sign marks exactly
    the blocks that make the batched solve raise."""
    m = K.shape[1] - 1
    try:
        return np.linalg.solve(K, rhs)[:, :m], np.zeros(len(K), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(K)[0] == 0
        out = np.zeros((len(K), m) + rhs.shape[2:])
        ok = ~singular
        out[ok] = np.linalg.solve(K[ok], rhs if rhs.ndim == 1 else rhs[ok])[:, :m]
        return out, singular


class _WarmProjector:
    """Projections of changing points onto fixed hulls, row b of the
    (B, m, dim) block V listing the vertices (repeats allowed) of hull b,
    the layout of points[_padded_rows(segs)]: project(X, rows) projects
    every X[k] onto hull rows[k], rows an index array or a slice.

    Each hull keeps the support that its last kernel search
    (_nearest_in_hulls) ended on, with the solution map of that support's
    bordered KKT matrix [[G_S, 1], [1^T, 0]], G_S the Gram matrix of the
    support's vertices translated by the hull's first vertex v_0 and
    divided by their largest norm, the width.  The map does not depend on
    the point, so it is built once per support change (_factor), from
    the bordered Gram block of every vertex that the constructor builds
    once per hull; the width is folded into it there.  A call first takes
    every point's minimizer over the affine hull of its cached support
    (_warm).  A row keeps that point only where every support weight is
    above _WEIGHT_CUT (renormalised to sum to 1, as the kernel does) and
    the point passes the kernel's optimality test; the other rows go to
    the kernel, and their hulls cache its new supports.  So every row of
    the first call, every row of a hull whose KKT block is singular and
    every row in R^1 (the closed form, no support) takes the kernel.

    The hull data that _warm reads is held coordinate-major, (dim, m, B)
    and (m, B), so every product it takes runs along the hulls rather
    than along a short axis of dim or m entries.  Rows do not interact:
    each row's result depends only on its hull, its point and the points
    its hull was given before."""

    def __init__(self, V: np.ndarray):
        B, m, dim = V.shape
        self.V = V
        self.VT = np.ascontiguousarray(V.transpose(2, 1, 0))
        U = V - V[:, :1]
        width = np.sqrt(np.einsum("bmd,bmd->bm", U, U).max(axis=1))
        width[width == 0.0] = 1.0  # a one-point hull: its weight is 1 whatever the point
        U /= width[:, None, None]
        self.width = width
        self.K = np.ones((B, m + 1, m + 1))  # [[G, 1], [1^T, 0]] over every vertex
        self.K[:, :m, :m] = U @ U.transpose(0, 2, 1)
        self.K[:, m, m] = 0.0
        self.rhs = np.zeros((B, m + 1, dim + 1))  # [[U, 0], [0, 1]] over every vertex
        self.rhs[:, :m, :dim] = U
        self.rhs[:, m, dim] = 1.0
        # weights = offset - gain (v_0 - x) on the cached support, gain the
        # KKT map's divided by the width; floor is _WEIGHT_CUT on the
        # support, -inf off it, and +inf at v_0 of a hull with no cached
        # support, which holds {v_0} and reads uncached
        self.gain = np.zeros((dim, m, B))
        self.offset = np.zeros((m, B))
        self.offset[0] = 1.0
        self.floor = np.full((m, B), -np.inf)
        self.floor[0] = np.inf
        self.support = np.zeros((B, m), dtype=bool)
        self.support[:, 0] = True

    def project(self, X: np.ndarray, rows) -> np.ndarray:
        """The projection of every X[k] onto hull rows[k] (distinct)."""
        P, _, ok = self._warm(X, rows)
        cold = np.flatnonzero(~ok)
        if len(cold):
            hulls = np.arange(len(self.V))[rows][cold]
            P[cold], _, support = _nearest_in_hulls(X[cold], self.V[hulls])
            if support is not None:
                self._factor(hulls, support)
        return P

    def _warm(self, X: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every X[k]'s minimizer P over the affine hull of hull rows[k]'s
        cached support, its (len(X), m) weights, renormalised and 0 off
        the support, and the mask of the rows that keep it (a hull with
        no cached support reads False).  Everything is read from the
        unscaled differences D = V - x, one product and one sum each, with
        no scaled copy of D: the weights from the folded map and D's first
        vertex, v_0 - x, then P - x = sum_v w_v D_v and R = max_v |D_v|.
        The test is the kernel's, in units of R: |P - x| <= _OPT_BAND R,
        or no vertex improves on P by more than that, max_v (P - v).(P -
        x) <= _OPT_BAND R |P - x|; it bounds the distance error by
        _OPT_BAND R.

        Every sum runs along an outer axis of C-ordered (dim, m, rows)
        arrays, one term at a time along the row axis, so a row's bits do
        not depend on the other rows; a lone row would be summed along its
        short axes instead, in another order, so it is read as a pair with
        itself."""
        if len(X) == 1:
            hull = np.arange(len(self.V))[rows]
            P, weights, ok = self._warm(np.repeat(X, 2, axis=0), np.repeat(hull, 2))
            return P[:1], weights[:1], ok[:1]
        VT, gain, offset = (np.ascontiguousarray(a[..., rows])
                            for a in (self.VT, self.gain, self.offset))
        XT = np.ascontiguousarray(X.T)
        D = VT - XT[:, None, :]
        weights = offset - (gain * D[:, :1]).sum(axis=0)
        ok = (weights > self.floor[:, rows]).all(axis=0)  # NaN fails too
        weights /= weights.sum(axis=0)
        R = np.sqrt((D * D).sum(axis=0).max(axis=0))
        q = (weights * D).sum(axis=1)
        qq = (q * q).sum(axis=0)
        band = _OPT_BAND * R
        norm_q = np.sqrt(qq)
        ok &= (norm_q <= band) | (qq - (D * q[:, None]).sum(axis=0).min(axis=0) <= band * norm_q)
        return (XT + q).T, weights.T, ok

    def _factor(self, hulls: np.ndarray, support: np.ndarray) -> None:
        """Cache support[k] and its KKT solution map for hull hulls[k]: the
        weights of the minimizer over the support's affine hull are gain y
        + offset for y = (x - v_0) / width, the first m rows of the solution
        of K [gain | offset] = [[U_S, 0], [0, 1]], one solve with identity
        rows off the support (_solve_blocks), K and the right-hand side
        masked from the blocks the constructor builds over every vertex.
        gain is stored divided by the width, so that _warm reads it
        against x - v_0.  A singular block leaves its hull uncached,
        holding {v_0}."""
        m, dim = self.V.shape[1:]
        on = np.ones((len(hulls), m + 1), dtype=bool)
        on[:, :m] = support
        K = np.where(on[:, :, None] & on[:, None, :], self.K[hulls], np.eye(m + 1))
        sol, singular = _solve_blocks(K, np.where(on[:, :, None], self.rhs[hulls], 0.0))
        floor = np.where(support, _WEIGHT_CUT, -np.inf)
        if singular.any():  # gain 0, offset e_0: the {v_0} of an uncached hull
            sol[singular, 0, dim] = 1.0
            support = np.where(singular[:, None], np.arange(m) == 0, support)
            floor[singular] = np.where(np.arange(m) == 0, np.inf, -np.inf)
        self.gain[:, :, hulls] = (sol[:, :, :dim] / self.width[hulls, None, None]).T
        self.offset[:, hulls], self.floor[:, hulls] = sol[:, :, dim].T, floor.T
        self.support[hulls] = support


def convex_project(x, c) -> tuple[np.ndarray, float | np.ndarray]:
    """Euclidean projection onto con(vertices); returns the projected
    point and the distance.

    x is one point, or a (B, dim) stack of points projected in one call,
    which returns a (B, dim) stack and B distances.  c is a ConvexSet,
    the hull for every point, or a (B, m, dim) block whose row b lists
    the vertices (repeats allowed) of point b's hull, the layout of
    points[_padded_rows(segs)].  The work is one cold call of the batched
    kernel _nearest_in_hulls: the closed form for intervals in R^1,
    otherwise a min-norm-point search in units of the largest vertex
    distance from each point, so its accuracy does not depend on the
    coordinates' scale or offset.  An exact vertex hit gives distance 0.
    Repeated projections onto fixed hulls warm-start instead through
    _WarmProjector."""
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
    P, d, _ = _nearest_in_hulls(X, V)
    if single:
        return P[0], float(d[0])
    return P, d


def convex_distance(x, c) -> float | np.ndarray:
    """dist(x, con(vertices)): a float for one point, an array for a
    stack; x and c as in convex_project."""
    return convex_project(x, c)[1]


def segment_distances(X: np.ndarray, points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """dist(X[k], hull of the points of the nonempty [start, stop) row
    segs[k]) for every k.  In R^1 every hull is the interval between its
    row's ends (_interval_ends), and each distance is |x - p| for x's
    closed-form projection p, as the kernel's R^1 branch computes it, in
    one pass over all rows.  Otherwise one convex_distance call per
    distinct row length k, over the (rows, k, dim) block of the rows of
    that length.  No row is padded and the kernel's rows do not
    interact, so every distance has the bits of a lone convex_distance
    call on its row's hull."""
    if points.shape[1] == 1:
        p = _project_to_intervals(X[:, 0], *_interval_ends(points, segs))
        return np.abs(X[:, 0] - p)
    counts = segs[:, 1] - segs[:, 0]
    out = np.empty(len(segs))
    for k in _distinct(counts):
        rows = np.flatnonzero(counts == k)
        out[rows] = convex_distance(X[rows], points[segs[rows, :1] + np.arange(k)])
    return out


def _feasible_combination(x: np.ndarray, V: np.ndarray) -> bool:
    """Exact linear feasibility: does some lam >= 0, sum lam = 1 satisfy
    V^T lam = x?  Decided by the HiGHS LP solver."""
    from scipy.optimize import linprog

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
    return float(_margins(x.reshape(1, -1), c.vertices)[0])


def _segment_rows(segs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point indices of the [start, stop) rows of segs back to back,
    and where each row begins in that list."""
    counts = segs[:, 1] - segs[:, 0]
    first = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(segs[:, 0] - first, counts), first


def segment_margins(points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """interior_point_margin of every point of every nonempty [start,
    stop) row of segs within the hull of that row's points, flat in the
    order of segs and of the points in each row.  In R^1 the closed
    form for all rows at once, from each row's least and largest value.
    Otherwise a row of at most dim + 1 points reads 0 from its count
    alone, as _margins returns it: such a row is flat (Qhull raises, no
    interior) or a simplex (every point a vertex); each longer row takes
    one Qhull call (_margins)."""
    if not len(segs):
        return np.zeros(0)
    counts = segs[:, 1] - segs[:, 0]
    dim = points.shape[1]
    if dim > 1:
        out = np.zeros(counts.sum())
        first = np.cumsum(counts) - counts
        for k in np.flatnonzero(counts > dim + 1):
            (a, b), at = segs[k], first[k]
            out[at:at + b - a] = _margins(points[a:b], points[a:b])
        return out
    x = points[_segment_rows(segs)[0], 0]
    lo, hi = (np.repeat(end, counts) for end in _interval_ends(points, segs))
    return np.where(hi > lo, np.maximum(0.0, np.minimum(x - lo, hi - x)), 0.0)


def _margins(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """interior_point_margin of every row of X in the hull of the rows
    of V: the closed form in R^1, one Qhull call for all rows
    otherwise.  A row equal to one of Qhull's hull vertices reads exactly
    0.0, which rounding in its facet sums could put above 0."""
    dim = V.shape[1]
    if dim == 1:
        lo, hi = float(V[:, 0].min()), float(V[:, 0].max())
        if hi <= lo:
            return np.zeros(len(X))
        return np.maximum(0.0, np.minimum(X[:, 0] - lo, hi - X[:, 0]))
    if len(V) <= dim:
        return np.zeros(len(X))  # too few vertices to be full-dimensional
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(V)
    except QhullError:
        return np.zeros(len(X))  # degenerate: empty ambient interior
    facets = hull.equations
    # hull facet normals are unit-length, so these are signed distances
    out = np.array([max(0.0, float((-(facets[:, :-1] @ x + facets[:, -1])).min())) for x in X])
    out[(X[:, None, :] == V[hull.vertices]).all(axis=2).any(axis=1)] = 0.0
    return out

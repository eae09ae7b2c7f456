"""Finite metric grids, the nodes a correspondence table lives on
(GridSpace), and the Euclidean distance kernels that read a grid's
distances from its points: row blocks, single pairs and the fixed-radius
pair search.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .setops import DEDUP_TOL

METRIC_TOL = 1e-9
ADJ_TOL = 1e-12
# Entries of one block of metric rows (GridSpace._row_blocks, corr's ball
# tests): 128 KiB of float64, so the temporaries stay small enough to be
# reused from the heap rather than mapped and faulted in afresh for every
# block.
METRIC_BLOCK = 1 << 14
# Candidate node pairs measured at once by the fixed-radius pair search
# (_close_pairs): a few MiB of index and distance temporaries.
PAIR_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class GridSpace:
    """A finite net of points in R^m with a metric: a user metric,
    validated, copied and kept dense, or the Euclidean one, of which only
    the points are kept.  Nodes within DEDUP_TOL of each other, as points
    or under the metric, are rejected.

    A Euclidean distance is summed from the points wherever it is read,
    by one float expression (_distances): the adjacent pairs and their
    distances come from a fixed-radius cell search (_close_pairs), and
    the diameter, the default mesh and every ball test from row blocks.
    Every method of a grid takes one path: a user metric's slices, or the
    points.  distances(rows, cols) reads any block of the metric.

    mesh is the claimed covering radius of the net (default the largest
    nearest-neighbor distance); adjacency_radius bounds which node pairs
    count as neighbors for the discrete semicontinuity checks (default
    twice the mesh).
    """

    points: np.ndarray
    metric: InitVar[np.ndarray] = None
    mesh: float = None
    adjacency_radius: float = None

    def __post_init__(self, metric):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or len(pts) == 0:
            raise DomainError("grid points must form a nonempty 2-d array")
        if not np.isfinite(pts).all():  # a NaN node has no neighbours: every check passes there
            raise DomainError("grid points must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

        if metric is not None:
            if len(_close_pairs(pts, DEDUP_TOL)[0]):
                raise DomainError("grid points must be distinct")
            d = np.array(metric, dtype=float)
            if d.shape != (len(pts), len(pts)):
                raise DomainError("metric must be a square pairwise-distance matrix")
            _validate_metric(d)
            d.flags.writeable = False
            self.__dict__["_user_metric"] = d
        nearest = None
        if metric is not None or self.mesh is None:  # the default mesh reads every nearest distance
            nearest = self._nearest()
            clash = nearest.min() <= DEDUP_TOL
        else:
            clash = len(_close_pairs(pts, DEDUP_TOL)[0]) > 0
        if clash:
            raise DomainError("grid points must be distinct under the metric")

        mesh = self.mesh
        if mesh is None:
            mesh = 1.0 if len(pts) == 1 else float(nearest.max())
        if not 0 < mesh < np.inf:
            raise DomainError("mesh must be finite and positive")
        object.__setattr__(self, "mesh", float(mesh))

        radius = self.adjacency_radius
        if radius is None:
            radius = 2.0 * mesh
        if not 0 < radius < np.inf:
            raise DomainError("adjacency_radius must be finite and positive")
        object.__setattr__(self, "adjacency_radius", float(radius))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def distances(self, rows, cols) -> np.ndarray:
        """The (len(rows), len(cols)) block d(rows, cols) of the metric,
        for node index arrays rows and cols: sliced from a user metric,
        else summed from the points (_distances)."""
        dense = self.__dict__.get("_user_metric")
        if dense is not None:
            return dense[np.ix_(rows, cols)]
        return _distances(self.points[rows], self.points[cols])

    def _row_blocks(self, rows, cols):
        """(lo, block) over rows: block is distances(rows[lo:lo + step],
        cols), step rows at a time so that a block holds at most
        METRIC_BLOCK entries (one row when a row is longer)."""
        step = max(1, METRIC_BLOCK // max(1, len(cols)))
        dense, at = self.__dict__.get("_user_metric"), self.points[cols]
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            yield lo, (_distances(self.points[block], at) if dense is None
                       else dense[np.ix_(block, cols)])

    def _diagonal(self) -> np.ndarray:
        """d(z, z) at every node: 0.0 on a Euclidean grid, where every
        coordinate difference x - x is 0, else the user metric's
        diagonal (within METRIC_TOL of 0)."""
        dense = self.__dict__.get("_user_metric")
        return np.zeros(len(self)) if dense is None else dense.diagonal()

    def _nearest(self) -> np.ndarray:
        """Each node's distance to its nearest other node (inf for a lone
        node).  A user metric, or a grid whose whole metric fits one row
        block, reads its rows in row blocks.  A larger Euclidean grid runs
        the cell search (_close_pairs) for the pairs of the nodes that
        have none yet, doubling the radius until every node has one: a
        node with a pair within the radius has its nearest node among its
        pairs, so each distance is exact, and no row is read whole.  The
        radius starts at the least positive distance between nodes
        adjacent in first-coordinate order, and at least DEDUP_TOL, so
        that each node settles near its own scale and a dense cluster is
        not measured at the spacing of the whole cloud."""
        n = len(self)
        if "_user_metric" in self.__dict__ or n * n <= METRIC_BLOCK:
            nodes = np.arange(n)
            nearest = np.empty(n)
            for lo, block in self._row_blocks(nodes, nodes):
                rows = np.arange(len(block))
                block[rows, lo + rows] = np.inf
                nearest[lo:lo + len(block)] = block.min(axis=1)
            return nearest
        order = np.argsort(self.points[:, 0], kind="stable")
        gap = _pair_distances(self.points, order[:-1], order[1:])
        positive = gap[gap > 0]
        radius = max(DEDUP_TOL, float(positive.min())) if len(positive) else DEDUP_TOL
        nearest = np.full(n, np.inf)
        todo = np.ones(n, dtype=bool)
        while todo.any():
            i, j, d = _close_pairs(self.points, radius, todo)
            np.minimum.at(nearest, i, d)
            np.minimum.at(nearest, j, d)
            todo = nearest == np.inf
            radius *= 2.0
        return nearest

    @cached_property
    def diameter(self) -> float:
        """The largest metric entry, computed once.  On a Euclidean grid
        d(i, j) <= r_i + r_j, with r the distances from the centroid, so
        only the rows whose bound r_i + max r (widened by 1e-9 for
        rounding) reaches the larger row maximum of the node farthest
        from the centroid and of its own farthest node are read, in row
        blocks: a lattice reads its corners.  A grid whose whole metric
        fits one row block reads that block."""
        dense = self.__dict__.get("_user_metric")
        if dense is not None:
            return float(dense.max())
        nodes = rows = np.arange(len(self))
        best = 0.0
        if len(self) ** 2 > METRIC_BLOCK:  # else one row block holds every row
            r = _distances(self.points, self.points.mean(axis=0, keepdims=True))[:, 0]
            row = self.distances([int(r.argmax())], nodes)[0]
            best = max(row.max(), self.distances([int(row.argmax())], nodes).max())
            rows = np.flatnonzero(~((r + r.max()) * (1 + 1e-9) < best))
        for _, block in self._row_blocks(rows, nodes):
            best = max(best, block.max())
        return float(best)

    def directed_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (sources, targets) listing every node pair within
        the adjacency radius in both directions; the first half is each
        pair (i, j) with i < j, in row-major order.  Cached."""
        return self._pairs()[:2]

    def pair_distances(self) -> np.ndarray:
        """The metric at each directed_pair_arrays pair, d(sources[k],
        targets[k]).  Cached."""
        return self._pairs()[2]

    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sources, targets, distances) of directed_pair_arrays: the pairs
        within adjacency_radius + ADJ_TOL from a user metric's mask, or
        from _close_pairs on the points, their distances bit for bit the
        metric's entries."""
        cached = self.__dict__.get("_pair_arrays")
        if cached is None:
            limit = self.adjacency_radius + ADJ_TOL
            dense = self.__dict__.get("_user_metric")
            if dense is None:
                i, j, d = _close_pairs(self.points, limit)
                cached = (np.concatenate([i, j]), np.concatenate([j, i]), np.concatenate([d, d]))
            else:
                i, j = np.nonzero(dense <= limit)
                upper = i < j
                pi, pj = (np.concatenate([i[upper], j[upper]]),
                          np.concatenate([j[upper], i[upper]]))
                cached = (pi, pj, dense[pi, pj])
            object.__setattr__(self, "_pair_arrays", cached)
        return cached

    def neighbour_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, near, dist): the nodes with an adjacent pair, ascending,
        and the (max degree, nodes) _neighbour_table of their neighbours
        and distances over directed_pair_arrays, padded with len(self)
        and 1.0.  Cached and read-only: every R^1 least-modulus selection
        on this grid relaxes its (len(self) + 1, atoms) envelope blocks
        over these arrays themselves, the padding pointing at the blocks'
        last row."""
        cached = self.__dict__.get("_neighbours")
        if cached is None:
            pi, pj, d = self._pairs()
            nodes, tables = _neighbour_table(pi, len(self), (pj, len(self)), (d, 1.0))
            cached = (nodes, *tables)
            for arr in cached:
                arr.flags.writeable = False
            object.__setattr__(self, "_neighbours", cached)
        return cached


# the constructor's InitVar would otherwise read back as a None attribute
del GridSpace.metric


def _neighbour_table(src: np.ndarray, n: int, *columns: tuple) -> tuple[np.ndarray, list]:
    """The rows among n that the edges leave, ascending, and for each
    (values, pad) in columns a (max degree, rows) table: entry [k, i] is
    the value of the k-th edge out of the i-th such row, in edge order,
    and pad past that row's degree."""
    degree = np.bincount(src, minlength=n)
    rows = np.flatnonzero(degree)
    count = degree[rows]
    order = np.argsort(src, kind="stable")
    # the k-th edge out of rows[i] lands at flat place k * len(rows) + i
    place = ((np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)) * len(rows)
             + np.repeat(np.arange(len(rows)), count))
    tables = []
    for values, pad in columns:
        tables.append(np.full((count.max(initial=0), len(rows)), pad))
        tables[-1].ravel()[place] = values[order]
    return rows, tables


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (len(a), len(b)) Euclidean distances between the rows of a and
    of b, summed one coordinate at a time through one scratch buffer and
    rooted in place: the one expression of every Euclidean grid distance.
    (x - y)^2 and (y - x)^2 round alike, so it is symmetric bit for bit,
    and in dims 1 and 2 it is setops._cross_dists bit for bit (same
    sums)."""
    (x, *xs), (y, *ys) = a.T, b.T
    d = np.subtract.outer(x, y)
    d *= d  # 0.0 + d * d, the first term of the sum, is d * d
    buf = np.empty_like(d) if xs else None
    for x, y in zip(xs, ys):
        np.subtract.outer(x, y, out=buf)
        d += np.multiply(buf, buf, out=buf)
    return np.sqrt(d, out=d)


def _pair_distances(pts: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """_distances at the node pairs (i[k], j[k]) alone: the same sum over
    coordinates and the same root, entry by entry."""
    d = np.zeros(len(i))
    for x in pts.T:
        diff = x[i] - x[j]
        d += diff * diff
    return np.sqrt(d)


def _close_pairs(pts: np.ndarray, limit: float,
                 among: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, d): every node pair i < j of the rows of pts whose distance
    d, as _distances sums it, is at most limit, in row-major order; with
    the boolean mask among, only the pairs with an end in it: within each
    cell the nodes of among come first, and only the candidates with such
    an end are enumerated, so a few wanted nodes in crowded cells cost
    their own candidates alone.

    The fixed-radius near-neighbour cell search of Bentley, Stanat and
    Williams (1977, Inf. Process. Lett. 6(6)).  The first k <= 3
    coordinates are cut into cells of side 1.01 * limit, or of 2^-bits of
    the coordinate's span where that is coarser, so the int64 cell keys
    cannot overflow and rounding moves no point by 1e-3 of a cell.  A
    pair within limit differs by at most limit in every coordinate, so
    its points share a cell or sit in neighbouring ones: each cell is
    paired with itself and with its neighbours of larger key, and the
    candidates of those cell pairs are measured PAIR_CHUNK at a time, so
    memory stays O(pairs) however the points cluster.  Up to 128 points,
    whose whole metric fits one METRIC_BLOCK, the block is masked
    instead, with no cells: on 1-D grids of 5-31 nodes that takes about
    0.02 ms against 0.12-0.20 ms for the cells, whose set-up dominates
    there."""
    n, k = len(pts), min(pts.shape[1], 3)
    if among is not None and not among.any():
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    if n * n <= METRIC_BLOCK:  # the whole metric is one row block: mask it
        d = _distances(pts, pts)
        i, j = np.nonzero(d <= limit)
        upper = i < j if among is None else (i < j) & (among[i] | among[j])
        i, j = i[upper], j[upper]
        return i, j, d[i, j]
    x = pts[:, :k]
    lo = x.min(axis=0)
    # k keys of bits + 1 bits fit 62; 2^40 cells of rounding 2^-52 each stay below 1e-3
    bits = min(40, 60 // max(k, 1) - 2)
    side = np.maximum(1.01 * limit, (x.max(axis=0) - lo) / 2.0 ** bits)
    with np.errstate(over="ignore", invalid="ignore"):  # a span past the float range is one cell
        cell = np.nan_to_num(np.floor((x - lo) / side)).astype(np.int64) + 1
    radix = np.ones(k, dtype=np.int64)
    for a in range(k - 2, -1, -1):  # mixed radix, the last coordinate fastest
        radix[a] = radix[a + 1] * (cell[:, a + 1].max() + 2)
    key = cell @ radix
    # within a cell, the nodes of among first
    order = np.argsort(key, kind="stable") if among is None else np.lexsort((~among, key))
    first = np.flatnonzero(np.diff(key[order], prepend=-1))  # each cell's run in order
    keys, count = key[order[first]], np.diff(first, append=n)
    a, b = [np.arange(len(keys))], [np.arange(len(keys))]
    for offset in itertools.product((-1, 0, 1), repeat=k):
        if offset > (0,) * k:  # the neighbours of larger key
            want = keys + np.dot(offset, radix)
            pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            hit = np.flatnonzero(keys[pos] == want)
            a.append(hit)
            b.append(pos[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    # the candidates of a cell pair: the run [a_at, a_at + a_len) of order
    # against [b_at, b_at + b_len); with among, the among nodes of a
    # against all of b, and for two cells the other nodes of a against
    # the among nodes of b
    a_at, a_len, b_at, b_len, same = first[a], count[a], first[b], count[b], a == b
    if among is not None:
        hot = np.add.reduceat(among[order], first)
        other = ~same
        a_at, b_at, same = (np.concatenate([x, y[other]]) for x, y in (
            (a_at, a_at + hot[a]), (b_at, b_at), (same, same)))
        a_len, b_len = np.concatenate([hot[a], (count - hot)[a][other]]), np.concatenate(
            [b_len, hot[b][other]])
    size = a_len * b_len
    stop = np.cumsum(size)
    found = []
    for start in range(0, int(stop[-1]), PAIR_CHUNK):
        end = min(start + PAIR_CHUNK, int(stop[-1]))
        # each candidate's run pair p, and its place u in a's run and v in b's
        span = np.arange(*np.searchsorted(stop, [start, end - 1], side="right") + [0, 1])
        begin = stop[span] - size[span]
        p = np.repeat(span, np.minimum(stop[span], end) - np.maximum(begin, start))
        u, v = np.divmod(np.arange(start, end) - (stop[p] - size[p]), b_len[p])
        keep = ~same[p] | (u < v)  # a cell with itself: each pair once
        i, j = order[a_at[p[keep]] + u[keep]], order[b_at[p[keep]] + v[keep]]
        d = _pair_distances(pts, i, j)
        close = d <= limit
        found.append((np.minimum(i, j)[close], np.maximum(i, j)[close], d[close]))
    i, j, d = (np.concatenate(part) for part in zip(*found))
    rank = np.argsort(i * n + j)
    return i[rank], j[rank], d[rank]


def _validate_metric(d: np.ndarray) -> None:
    if not np.all(np.isfinite(d)):
        raise DomainError("metric entries must be finite")
    if np.abs(np.diag(d)).max(initial=0.0) > METRIC_TOL:
        raise DomainError("metric diagonal must be zero")
    if np.abs(d - d.T).max() > METRIC_TOL:
        raise DomainError("metric must be symmetric")
    if d.min() < -METRIC_TOL:
        raise DomainError("metric entries must be nonnegative")
    n = len(d)
    for k in range(n):
        # d(i,j) <= d(i,k) + d(k,j) for all i, j
        if (d - (d[:, k:k + 1] + d[k:k + 1, :])).max() > METRIC_TOL:
            raise DomainError("metric violates the triangle inequality")

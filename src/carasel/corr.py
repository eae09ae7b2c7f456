"""Tabulated correspondences on (atom space) x (metric grid).

A correspondence assigns a possibly-empty point set in R^n to every
(atom, grid node) pair.  This module carries the discrete surrogates of
lower/upper semicontinuity and lower measurability, the verification of
the continuous inclusion property and its strong variants, and the
operator collecting interiors of the local inclusion witnesses.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DomainError, PreconditionError
from .grid import METRIC_BLOCK, GridSpace
from .measure import AtomSpace, InfoPartition
from .setops import (
    DEDUP_TOL,
    PointSet,
    _cross_dists,
    _dedup,
    _distinct,
    _distinct_segments,
    _padded_rows,
    _segment_rows,
    segment_distances,
    segment_margins,
)

SET_EQUALITY_TOL = 1e-9
# Distance entries evaluated at once by Corr.directed_gaps: pairs x kmax
# x kmax padded ones, or in R^1 GAP_CHUNK // 16 source points, each with
# about 16 temporaries; bounds the temporaries to a few MiB.
GAP_CHUNK = 1 << 18
# Points measured at once by the stacked inclusion residuals (_residuals):
# each row holds an (m+1, m+1) system in the min-norm kernel.
RESIDUAL_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class Corr:
    """Correspondence table: (atom index, node index) -> finite point set,
    packed as one read-only (P, dim) points array and an int bounds array
    of shape (atoms, nodes, 2) whose [start, stop) rows index the points
    of each cell.  Cells holding equal values may share one segment
    (from_function shares one per PointSet object, pref_from_payoff one
    per distinct preferred set); every kernel over the table then works
    once per distinct segment or pair of segments."""

    space: AtomSpace
    grid: GridSpace
    dim: int
    points: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        bounds = np.asarray(self.bounds, dtype=int)
        if pts.ndim != 2 or pts.shape[1] != self.dim or not np.all(np.isfinite(pts)):
            raise DomainError("values must be finite points of the common dim")
        if bounds.shape != (len(self.space), len(self.grid), 2):
            raise DomainError("bounds must hold one [start, stop) row per (atom, node)")
        counts = bounds[..., 1] - bounds[..., 0]
        if bounds.size and (bounds.min() < 0 or bounds.max() > len(pts) or counts.min() < 0):
            raise DomainError("bounds must be [start, stop) rows into the points")
        for name, arr in (("points", pts), ("bounds", bounds), ("counts", counts)):
            if arr.flags.writeable:
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_function(cls, space: AtomSpace, grid: GridSpace, dim: int, fn) -> "Corr":
        """Tabulate fn(atom_index, node_index) -> PointSet; the cells
        given one PointSet object share its segment, and each distinct
        object is type-checked once.  Each cell costs one dict lookup, and
        its start and stop go to one flat int list, made one array at the
        end."""
        seen, held, chunks, size, flat = {}, [], [np.zeros((0, dim))], 0, []
        for t in range(len(space)):
            for z in range(len(grid)):
                ps = fn(t, z)
                row = seen.get(id(ps))
                if row is None:
                    if not isinstance(ps, PointSet) or ps.dim != dim:
                        raise DomainError("all values must be PointSets of the common dim")
                    held.append(ps)  # holding ps keeps its id unique
                    row = seen[id(ps)] = (size, size + len(ps))
                    chunks.append(ps.points)
                    size += len(ps)
                flat += row
        bounds = np.array(flat, dtype=int).reshape(len(space), len(grid), 2)
        return cls(space, grid, dim, np.concatenate(chunks), bounds)

    @classmethod
    def constant(cls, space: AtomSpace, grid: GridSpace, value: PointSet) -> "Corr":
        """value in every cell: one segment [0, len(value)) of its points."""
        return cls(space, grid, value.dim, value.points,
                   np.full((len(space), len(grid), 2), [0, len(value)]))

    def value(self, t: int, z: int) -> PointSet:
        """The cell's points: an unvalidated PointSet view of its slice."""
        start, stop = self.bounds[t, z]
        return PointSet._view(self.dim, self.points[start:stop])

    def directed_gaps(self) -> np.ndarray:
        """Read-only (atoms, directed adjacent pairs) one-sided gaps, pairs
        in GridSpace.directed_pair_arrays order: entry [t, k] is the
        farthest any point of the value at (t, source k) must travel to
        reach the value at (t, target k); NaN when either side is empty,
        0.0 when both ends share one segment.  The first call computes
        the whole table in one _packed_gaps call, however many adjacent
        pairs of any atom join each pair of segments.  In R^1 a pair of
        two saturated values is measured in closed form: a value is
        saturated when its distinct points are all the distinct points
        of the table's nonempty cells inside its hull [lo, hi], so a
        source point inside that hull is one of its points, at 0.0, and
        one outside is nearest to the nearer end; as fl(a - b) is
        monotone in a and b and fl(d * d) in |d|, the gap is the root of
        the square of the larger overhang, max(lo_t - lo_s, hi_s - hi_t,
        0.0), bit for bit the kernel's.  In any other dim two single
        points are measured in closed form.  Every other distinct pair
        of segments is measured once, by sorted rows in R^1 and padded
        blocks otherwise.  A table whose nonempty cells all hold one
        segment is read from its counts alone.  Only gaps are kept:
        lsc_check and usc_check find the point behind a gap they report.
        Cached (the table is immutable); cip_verify fills the caches of
        all witness locals in one such call (_cache_gaps)."""
        _cache_gaps([self])
        return self.__dict__["_gap_cache"]

    def segment_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(segs, cell_seg): the distinct [start, stop) rows of the
        nonempty cells in sorted order (setops._distinct_segments), and
        the index into segs of each cell's row, -1 where the cell is
        empty.  Cached."""
        if "_segment_index" not in self.__dict__:
            on = self.counts > 0
            segs, index = _distinct_segments(self.bounds[on], len(self.points))
            cell_seg = np.full(self.counts.shape, -1)
            cell_seg[on] = index
            self.__dict__["_segment_index"] = (segs, cell_seg)
        return self.__dict__["_segment_index"]

    def segment_margins(self, used: np.ndarray) -> np.ndarray:
        """The interior margin of every point of every row of
        segment_index() within that row's own hull, flat in row order
        (setops.segment_margins), valid on the rows listed in used; each
        row is computed once and cached, so k_operator and
        interior_cells share the work: construct_phi's interiority check
        reads each local's margins and phi's, one table in shared mode."""
        segs = self.segment_index()[0]
        counts = segs[:, 1] - segs[:, 0]
        if "_margins" not in self.__dict__:
            self.__dict__["_margins"] = (np.zeros(counts.sum()), np.zeros(len(segs), dtype=bool))
        margins, done = self.__dict__["_margins"]
        todo = used[~done[used]]
        if len(todo):
            first = (np.cumsum(counts) - counts)[todo]
            margins[_segment_rows(np.column_stack([first, first + counts[todo]]))[0]] = (
                segment_margins(self.points, segs[todo]))
            done[todo] = True
        return margins

    def interior_cells(self, on: np.ndarray) -> np.ndarray:
        """Boolean (atoms, nodes) table: the cell is in the mask on and its
        value carries a point interior to its own hull (a positive
        segment_margins entry).  A value of at most dim + 1 points has
        none, each point a vertex of its hull or the hull flat
        (segment_margins' own count rule), so only the cells holding more
        are looked at, and a table with none, such as one of single
        points, reads no segment_index and no margins."""
        on = on & (self.counts > self.dim + 1)
        if not on.any():
            return on
        segs, cell_seg = self.segment_index()
        margins = self.segment_margins(_distinct(cell_seg[on]))
        has = np.zeros(len(segs) + 1, dtype=bool)  # the last entry serves cell_seg == -1
        if len(segs):
            has[:-1] = np.maximum.reduceat(margins, _segment_rows(segs)[1]) > 0.0
        return on & has[cell_seg]


def _segments(counts: np.ndarray) -> np.ndarray:
    """The [start, stop) rows that lay out segments of the given lengths
    back to back, in C order of counts."""
    stop = np.cumsum(counts).reshape(np.shape(counts))
    return np.stack([stop - counts, stop], axis=-1)


def _stacked(tables: list) -> tuple[np.ndarray, np.ndarray]:
    """(points, bounds): the tables' points back to back, and their
    bounds as one (tables, atoms, nodes, 2) stack of rows into them."""
    sizes = [len(f.points) for f in tables]
    starts = np.cumsum(sizes) - sizes
    points = tables[0].points if len(tables) == 1 else np.concatenate([f.points for f in tables])
    return points, np.stack([f.bounds + k for f, k in zip(tables, starts)])


def _cache_gaps(tables: list) -> None:
    """Fill the gap cache (Corr.directed_gaps) of every table on the
    first one's grid not yet cached, with one _packed_gaps call over
    every atom's adjacent pairs of all of them, each pair once.  A table
    whose nonempty cells all hold one segment (a Corr.constant table,
    say) is read from its counts alone: 0.0 on every live pair, NaN on
    the others.  A table on another grid fills its own on first read."""
    todo = [f for f in dict.fromkeys(tables)
            if "_gap_cache" not in f.__dict__ and f.grid is tables[0].grid]
    if not todo:
        return
    pi, pj = todo[0].grid.directed_pair_arrays()
    for f in todo:
        on = f.counts > 0
        nonempty = f.bounds[on]
        if (nonempty == nonempty[:1]).all():
            holes = ~on.all(axis=1)  # the atoms with an empty cell
            gaps = np.broadcast_to(0.0, (len(on), len(pi)))  # read-only, no table behind it
            if holes.any():
                gaps = np.zeros(gaps.shape)
                gaps[holes] = np.where(on[holes][:, pi] & on[holes][:, pj], 0.0, np.nan)
                gaps.flags.writeable = False
            f.__dict__["_gap_cache"] = gaps
    todo = [f for f in todo if "_gap_cache" not in f.__dict__]
    if not todo:
        return
    points, bounds = _stacked(todo)
    pi, pj = pi[:len(pi) // 2], pj[:len(pj) // 2]
    rows = np.arange(bounds.size // 2).reshape(bounds.shape[:-1])
    gaps = _packed_gaps(points, bounds.reshape(-1, 2), rows[..., pi].ravel(), rows[..., pj].ravel())
    # (2, tables, atoms, half) -> (tables, atoms, 2 * half), forward halves first
    gaps = (gaps.reshape((2,) + rows.shape[:2] + (-1,)).transpose(1, 2, 0, 3)
            .reshape(rows.shape[:2] + (-1,)))
    gaps.flags.writeable = False
    for f, g in zip(todo, gaps):
        f.__dict__["_gap_cache"] = g


def _packed_gaps(points: np.ndarray, bounds: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """The (2, pairs) one-sided gaps of the pairs (a[k], b[k]) of rows of
    bounds (see Corr.directed_gaps): row 0 from a[k] to b[k], row 1 back;
    NaN where either row is empty.

    In R^1 every direction toward a saturated row is measured in closed
    form, all at once (_saturated_ends): a row B is saturated when its
    distinct values are all the distinct values of the nonempty rows of
    bounds that lie in its hull [lo_B, hi_B].  A source value a inside
    that hull is then a point of B, at (a - a)**2 = +0.0; a value below
    lo_B is nearest to lo_B and one above hi_B to hi_B.  fl(a - b) is
    monotone in a and b and fl(d * d) in |d|, so the gap from a row A is
    the root of the square of the larger of lo_B - lo_A, hi_A - hi_B and
    0.0 (_hull_gaps): the kernel's value, bit for bit and with its sign
    of zero.  A single point is always saturated.  Only the directions
    toward an unsaturated row are keyed, by their exact (source, target)
    segment pair (setops._distinct_segments), and each distinct key is
    measured once by _ordered_gaps; a direction within one segment is
    the diagonal key: 0.0.

    In any other dim a live pair of two single-point rows is measured in
    closed form: its points x, y are sqrt(sum((x - y)^2)) apart as the
    kernel computes it.  Every other live pair is keyed by its two
    segments, unordered, and each distinct key is measured once, in both
    directions, by _padded_gaps; the diagonal key reads 0.0.  Equal keys
    name the same points, so the gaps scatter back unchanged."""
    if not len(a):
        return np.zeros((2, 0))
    counts = bounds[:, 1] - bounds[:, 0]
    segs, seg = _distinct_segments(bounds, len(points))
    if points.shape[1] == 1:
        lo, hi, full = (end[seg] for end in _saturated_ends(points, segs))  # per row
        out = _hull_gaps(lo, hi, a, b)
        if full.all():
            return out
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])  # out's entries, flat
        on = counts > 0
        need = np.flatnonzero(~full[dst] & on[src] & on[dst])
        keys, key = np.unique(seg[src[need]] * len(segs) + seg[dst[need]], return_inverse=True)
        u, v = np.divmod(keys, len(segs))
        gap = np.zeros(len(keys))  # the diagonal stays 0.0
        off = np.flatnonzero(u != v)
        gap[off] = _ordered_gaps(points, segs, u[off], v[off])
        out.ravel()[need] = gap[key]
        return out
    out = np.full((2, len(a)), np.nan)
    live = np.flatnonzero((counts[a] > 0) & (counts[b] > 0))
    single = (counts[a[live]] == 1) & (counts[b[live]] == 1)
    pair = live[single]
    diff = points[bounds[a[pair], 0]] - points[bounds[b[pair], 0]]
    out[:, pair] = np.sqrt(np.einsum("kd,kd->k", diff, diff))
    live = live[~single]
    if not len(live):
        return out
    sa, sb = seg[a[live]], seg[b[live]]
    keys, key = np.unique(np.minimum(sa, sb) * len(segs) + np.maximum(sa, sb), return_inverse=True)
    u, v = np.divmod(keys, len(segs))
    gap = np.zeros((2, len(keys)))  # u -> v, then v -> u; the diagonal stays 0.0
    off = np.flatnonzero(u != v)
    if len(off):
        gap[:, off] = _padded_gaps(points, segs, u[off], v[off])
    flip = (sa > sb).astype(int)
    out[0, live], out[1, live] = gap[flip, key], gap[1 - flip, key]
    return out


def _saturated_ends(points: np.ndarray, segs: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                                   np.ndarray]:
    """(lo, hi, full) of the [start, stop) rows of segs of the (P, 1)
    points: each nonempty row's least and largest value, and whether it
    is saturated, holding every distinct value of the nonempty rows of
    segs that lies in [lo, hi].  An empty row reads NaN, NaN and True: a
    closed-form gap to or from it is NaN, as _packed_gaps reports it.
    One sort ranks the values of the nonempty rows (R distinct); the
    exact int64 keys row * R + rank, sorted stably (linear on rows
    already in order), list each row's ranks ascending, and a row is
    saturated iff its distinct ranks run from its least to its largest
    with none missing.  The ends are distinct values equal to the row's
    own, up to the sign of a zero, which no squared difference keeps."""
    size = segs[:, 1] - segs[:, 0]
    filled = np.flatnonzero(size)
    lo, hi, full = np.full(len(segs), np.nan), np.full(len(segs), np.nan), np.ones(len(segs), bool)
    rows, first = _segment_rows(segs[filled])
    distinct, rank = np.unique(points[rows, 0], return_inverse=True)
    base = np.repeat(np.arange(len(filled)) * len(distinct), size[filled])
    keys = base + rank.ravel()
    keys.sort(kind="stable")
    fresh = np.ones(len(keys), dtype=bool)  # the first entry of each distinct key
    fresh[1:] = keys[1:] != keys[:-1]
    least = keys[first] - base[first]
    largest = keys[first + size[filled] - 1] - base[first]
    lo[filled], hi[filled] = distinct[least], distinct[largest]
    full[filled] = np.add.reduceat(fresh, first) == largest - least + 1
    return lo, hi, full


def _hull_gaps(lo: np.ndarray, hi: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (2, pairs) one-sided gaps between the R^1 rows a[k] and b[k]
    with ends lo and hi, both saturated (see _packed_gaps): row 0 the
    root of the square of max(lo_b - lo_a, hi_a - hi_b, 0.0), row 1 of
    max(lo_a - lo_b, hi_b - hi_a, 0.0).  Squaring is monotone in |d|, so
    this is the larger square; NaN ends give NaN, as max carries it.
    The ends are gathered GAP_CHUNK // 16 pairs at a time, so the
    temporaries stay small."""
    out = np.empty((2, len(a)))
    step = GAP_CHUNK // 16
    for k in range(0, len(a), step):
        (lo_a, hi_a), (lo_b, hi_b) = ((lo[r[k:k + step]], hi[r[k:k + step]]) for r in (a, b))
        np.maximum(lo_b - lo_a, hi_a - hi_b, out=out[0, k:k + step])
        np.maximum(lo_a - lo_b, hi_b - hi_a, out=out[1, k:k + step])
    np.maximum(out, 0.0, out=out)
    return np.sqrt(np.multiply(out, out, out=out), out=out)


def _padded_gaps(points: np.ndarray, bounds: np.ndarray, src: np.ndarray,
                 dst: np.ndarray) -> np.ndarray:
    """_packed_gaps' kernel in any dim for the pairs (src[k], dst[k]) of
    nonempty rows of bounds: the (2, pairs) gaps of every src[k] ->
    dst[k], then of every dst[k] -> src[k].  One squared-distance block
    per pair, a shorter segment padded by repeating its first point
    (setops._padded_rows), which changes no nearest or farthest
    distance.  Squared distances are reduced before the one square root,
    exactly: sqrt is monotone and correctly rounded."""
    gaps = np.empty((2, len(src)))
    counts = bounds[:, 1] - bounds[:, 0]
    take = _padded_rows(bounds)
    # widest pairs first, so each chunk is padded only to its own widest value
    width = np.maximum(counts[src], counts[dst])
    todo = np.argsort(-width, kind="stable")
    first = 0
    while first < len(todo):
        m = int(width[todo[first]])
        k = todo[first:first + max(1, GAP_CHUNK // (m * m))]
        first += len(k)
        diff = points[take[src[k], :m]][:, :, None, :] - points[take[dst[k], :m]][:, None, :, :]
        d2 = np.einsum("pijk,pijk->pij", diff, diff)
        gaps[0, k] = np.sqrt(d2.min(axis=2).max(axis=1))
        gaps[1, k] = np.sqrt(d2.min(axis=1).max(axis=1))
    return gaps


def _ordered_gaps(points: np.ndarray, bounds: np.ndarray, src: np.ndarray,
                  dst: np.ndarray) -> np.ndarray:
    """_packed_gaps' kernel in R^1: the one-sided gap of every src[k] ->
    dst[k], pairs of nonempty rows of bounds.  Each row is sorted once by
    the exact int64 key row * R + rank (R distinct values), and a source
    value's nearest target value is one of the two around its
    searchsorted place: fl(a - b) is monotone in b and fl(d * d) in |d|,
    so that is the full block's minimum, bit for bit; the one square
    root follows the max, as in _padded_gaps."""
    x = points[:, 0]
    gaps = np.empty(len(src))
    counts = np.zeros(len(bounds), dtype=int)
    for r in (src, dst):
        counts[r] = bounds[r, 1] - bounds[r, 0]
    rows, first = _segment_rows(np.column_stack([bounds[:, 0], bounds[:, 0] + counts]))
    distinct, rank = np.unique(x[rows], return_inverse=True)
    keys = np.repeat(np.arange(len(bounds)), counts) * len(distinct) + rank
    ordered = x[rows[np.argsort(keys, kind="stable")]]
    keys.sort()
    size = counts[src]
    cuts = _distinct(np.searchsorted(np.cumsum(size) - size, range(0, size.sum(), GAP_CHUNK // 16)))
    for i, j in zip(cuts, [*cuts[1:], len(src)]):
        flat, begin = _segment_rows(np.column_stack([first[src[i:j]], first[src[i:j]] + size[i:j]]))
        target = np.repeat(dst[i:j], size[i:j])
        lo, hi = first[target], first[target] + counts[target] - 1
        pos = np.searchsorted(keys, target * len(distinct) + rank[flat])
        near = np.minimum((x[rows[flat]] - ordered[np.clip(pos - 1, lo, hi)]) ** 2,
                          (x[rows[flat]] - ordered[np.clip(pos, lo, hi)]) ** 2)
        gaps[i:j] = np.sqrt(np.maximum.reduceat(near, begin))
    return gaps


@dataclass
class SemicontinuityReport:
    """Outcome of a discrete semicontinuity check over adjacent pairs.

    max_gap is the largest point-to-neighbor-set distance the check had
    to absorb; the check passes at any eps strictly above it.
    """

    ok: bool
    violations: list = field(default_factory=list)  # (z, z_adj, witness point)
    max_gap: float = 0.0


def lsc_check(psi: Corr, t: int, eps: float) -> SemicontinuityReport:
    """Discrete lower-semicontinuity surrogate for psi(t, .): for every
    ordered adjacent pair (z, z') with both values nonempty, every point
    of the value at z must lie within eps of the value at z' (no value
    point may vanish when stepping to a neighbor).  Row t of
    Corr.directed_gaps; each violation's witness point is the source
    point farthest from the target value (the first such point), found
    on that pair alone.  t must be an atom index in [0, atoms)."""
    return _semicontinuity(psi, t, eps, upper=False)


def usc_check(psi: Corr, t: int, eps: float) -> SemicontinuityReport:
    """Discrete upper-semicontinuity surrogate for psi(t, .): for every
    unordered adjacent pair with both values nonempty, at least one value
    must collapse into the eps-neighborhood of the other (growth at a
    node is tolerated, mutual separation is not).  Row t of each pair's
    smaller one-sided gap; the witness point leaves that side, found as
    lsc_check finds its own."""
    return _semicontinuity(psi, t, eps, upper=True)


def _absorbed(gaps: np.ndarray, upper: bool) -> np.ndarray:
    """The gaps a semicontinuity check must absorb, from directed gaps
    (..., pairs): those themselves for l.s.c., each unordered pair's
    smaller side (forward half against backward half) for u.s.c.; NaN
    where the values of a pair are not both nonempty."""
    half = gaps.shape[-1] // 2
    return np.minimum(gaps[..., :half], gaps[..., half:]) if upper else gaps


def _semicontinuity(psi: Corr, t: int, eps: float, upper: bool) -> SemicontinuityReport:
    """lsc_check (upper False) or usc_check at atom t."""
    if not eps > 0:  # NaN too: it compares false with every gap
        raise DomainError("eps must be positive")
    if _outside((t,), (len(psi.space),)):
        raise DomainError(f"atom {t!r} is outside [0, {len(psi.space)})")
    pi, pj = psi.grid.directed_pair_arrays()
    directed = psi.directed_gaps()[t]
    gaps = _absorbed(directed, upper)
    mask = ~np.isnan(gaps)
    if not mask.any():
        return SemicontinuityReport(True, [], 0.0)
    bad = np.flatnonzero(mask & (gaps >= eps))
    side = bad
    if upper:  # the witness point leaves the side with the smaller one-sided gap
        side = np.where(directed[bad] <= directed[bad + len(gaps)], bad, bad + len(gaps))
    # each witness: the first source point farthest from the target value
    rows = [a + int(_cross_dists(psi.points[a:b], psi.points[c:d]).min(axis=1).argmax())
            for (a, b), (c, d) in zip(psi.bounds[t, pi[side]].tolist(),
                                      psi.bounds[t, pj[side]].tolist())]
    lost = psi.points[np.array(rows, dtype=int)]
    violations = list(zip(pi[bad].tolist(), pj[bad].tolist(), lost))
    return SemicontinuityReport(not violations, violations, float(gaps[mask].max()))


def cell_varying(tables: list, part: InfoPartition) -> np.ndarray:
    """Boolean (tables, atoms, nodes) stack marking each cell (t, z) of
    each table whose value differs as a set from the value at (head[t],
    z), t's cell head: their Hausdorff distance, the larger one-sided
    gap of one _packed_gaps call over all the tables, exceeds
    SET_EQUALITY_TOL.  Cells sharing a segment, or both empty, are
    equal; an empty and a nonempty one are not.  A table is constant on
    every cell at node z iff its column z is unmarked.  A table listed
    more than once (by identity) is measured once."""
    distinct = list(dict.fromkeys(tables))
    points, bounds = _stacked(distinct)
    flat = np.arange(bounds.size // 2).reshape(bounds.shape[:-1])  # (f, t, z) -> row
    off = part.head != np.arange(flat.shape[1])  # the atoms that are not heads
    a, b = flat[:, off].ravel(), flat[:, part.head[off]].ravel()
    gaps = _packed_gaps(points, bounds.reshape(-1, 2), a, b)
    counts = (bounds[..., 1] - bounds[..., 0]).reshape(-1)
    equal = np.where(np.isnan(gaps[0]), (counts[a] > 0) == (counts[b] > 0),
                     gaps.max(axis=0) <= SET_EQUALITY_TOL)
    varying = np.zeros(flat.shape, dtype=bool)
    varying[:, off] = ~equal.reshape(len(flat), -1, flat.shape[2])
    return varying[[distinct.index(f) for f in tables]]


def _atom_failures(varying: np.ndarray, part: InfoPartition) -> list[tuple[int, int]]:
    """The (node, atom) index of every marked entry of an (atoms, nodes)
    table: nodes ascending, then atoms in part.cells order."""
    order = np.argsort(part.cell_index, kind="stable")
    x, k = np.nonzero(varying[order].T)
    return list(zip(x.tolist(), order[k].tolist()))


def _outside(key, shape: tuple) -> bool:
    """key is not a tuple of integer indices inside shape."""
    return not (isinstance(key, tuple) and len(key) == len(shape) and all(
        isinstance(i, (int, np.integer)) and 0 <= i < n for i, n in zip(key, shape)))


@dataclass(frozen=True, eq=False)
class CipWitness:
    """Local-inclusion witness family for a correspondence psi.

    locals is a read-only mapping of each node index z in [0, nodes) to
    the correspondence F_z, all of one (atoms, nodes) shape, one object
    for every node in shared mode.  radii is a read-only table of
    that shape: at (t, z) the radius of the open ball around node z inside
    which F_z must include into psi, NaN where none is given.  It is built
    from a {(t, z): r} mapping of indices inside the table, or given as
    such a table; every radius given must be finite and positive.  mode
    selects which strong-variant conditions scip_verify tests; box (lo,
    hi), of the locals' dim, is the compact bounding box of indexed mode.
    """

    mode: str
    locals: MappingProxyType
    radii: np.ndarray
    box: tuple | None = None

    def __post_init__(self):
        if self.mode not in ("shared", "countable", "indexed"):
            raise DomainError(f"unknown witness mode {self.mode!r}")
        locs = dict(self.locals)
        if not locs:
            raise DomainError("a witness needs at least one local correspondence")
        first = next(iter(locs.values()))
        # each local object once: Corr hashes and compares by identity
        # (eq=False), so the set tests sharing and shapes per distinct local
        distinct = set(locs.values())
        if self.mode == "shared" and len(distinct) > 1:
            raise DomainError("shared mode requires one common local correspondence")
        shape = first.counts.shape
        if any(f.counts.shape != shape for f in distinct):
            raise DomainError("witness locals must share one (atoms, nodes) shape")
        # _outside's rule for all keys in one pass, each distinct key type
        # tested once (0.4 ms less than a call per key at 441 nodes, 1.2 ms
        # at 961); keep the two in step, as _outside names the first bad key
        if not (all(issubclass(kind, (int, np.integer)) for kind in set(map(type, locs)))
                and 0 <= min(locs) and max(locs) < shape[1]):
            z = next(z for z in locs if _outside((z,), shape[1:]))
            raise DomainError(f"witness local key {z!r} is not a node index in [0, {shape[1]})")
        table = self.radii
        if isinstance(table, np.ndarray):
            if table.shape != shape:
                raise DomainError(f"witness radius table must have the locals' shape {shape}")
            table = table.astype(float, copy=table.flags.writeable)  # keep a frozen input
            r = table[~np.isnan(table)]
        else:
            radii = dict(table)
            for key in radii:
                if _outside(key, shape):
                    raise DomainError(f"witness radius key {key!r} is not an (atom, node) index "
                                      f"pair inside the {shape[0]} x {shape[1]} table")
            r = np.fromiter(radii.values(), float, len(radii))
            table = np.full(shape, np.nan)
            table[tuple(np.array(list(radii), dtype=int).reshape(-1, 2).T)] = r
        if not ((0 < r) & (r < np.inf)).all():
            raise DomainError("witness radii must be finite and positive")
        table.flags.writeable = False
        box = self.box
        if box is not None:
            lo = np.asarray(box[0], dtype=float).reshape(-1)
            hi = np.asarray(box[1], dtype=float).reshape(-1)
            if lo.shape != hi.shape or np.any(lo > hi):
                raise DomainError("box must be (lo, hi) with lo <= hi")
            if len(lo) != first.dim:
                raise DomainError(f"box has dim {len(lo)}, the locals have dim {first.dim}")
            box = (lo, hi)
        object.__setattr__(self, "locals", MappingProxyType(locs))
        object.__setattr__(self, "radii", table)
        object.__setattr__(self, "box", box)

    @classmethod
    def shared(cls, grid: GridSpace, f: Corr, radii, box=None) -> "CipWitness":
        return cls("shared", {z: f for z in range(len(grid))}, radii, box)

    def local(self, z: int) -> Corr:
        try:
            return self.locals[z]
        except KeyError:
            raise DomainError(f"witness has no local correspondence at node {z}") from None

    def radius(self, t: int, z: int) -> float:
        r = np.nan if _outside((t, z), self.radii.shape) else float(self.radii[t, z])
        if np.isnan(r):
            raise DomainError(f"witness has no radius at (t={t}, z={z})")
        return r

    def distinct_locals(self) -> list:
        """(local, sorted node indices sharing it), grouped by identity;
        shared witnesses collapse to a single group."""
        if self.mode == "shared":
            return [(next(iter(self.locals.values())), sorted(self.locals))]
        groups: dict[int, tuple[Corr, list[int]]] = {}
        for z, f in self.locals.items():
            groups.setdefault(id(f), (f, []))[1].append(z)
        return [(f, sorted(zs)) for f, zs in groups.values()]


def _ball_radii(psi: Corr, w: CipWitness) -> np.ndarray:
    """The (atoms, nodes) radii of the witness balls: w's radius at every
    cell of psi's section, -inf off it (no ball).  Raises for a witness
    of another shape, then for the first (t, z) of psi's section without
    a radius, then for the first node of it without a local."""
    if w.radii.shape != psi.counts.shape:
        raise DomainError("witness locals must live on psi's atoms and grid")
    radii = np.where(psi.counts > 0, w.radii, -np.inf)
    for t, z in np.argwhere(np.isnan(radii))[:1].tolist():
        w.radius(t, z)  # raises: no radius there
    unwitnessed = (psi.counts > 0).any(axis=0)
    unwitnessed[list(w.locals)] = False
    for z in np.flatnonzero(unwitnessed)[:1].tolist():
        w.local(z)  # raises: no local there
    return radii


def _reach_masks(grid: GridSpace, radii: np.ndarray, groups: list) -> np.ndarray:
    """The (groups, atoms, nodes) masks of where each (local, zs) group of
    w reaches, from w's _ball_radii table, with no (atoms, nodes, nodes)
    ball stack: x is reached at atom t when the ball of some node z of
    zs holds it, d(x, z) < r(t, z), the metric read with x as the row.  A
    node of every group's zs that is in its own ball at every atom, d(x,
    x) < r(t, x), is reached everywhere and its row is not read; on a
    Euclidean grid (d(x, x) = 0) that is every node of a one-group
    witness's full section, so a shared witness reads only the rows of
    the nodes empty at some atom.  Every other row is read at the groups'
    columns in row blocks, reduced group by group (one reduceat), and
    written once."""
    sizes = [len(zs) for _, zs in groups]
    cols = np.concatenate([zs for _, zs in groups]).astype(int)
    inner = ((np.bincount(cols, minlength=len(grid)) == len(groups))
             & (grid._diagonal() < radii).all(axis=0))
    reach = np.ones((len(groups),) + radii.shape, dtype=bool)
    rows = np.flatnonzero(~inner)
    starts = list(itertools.accumulate(sizes[:-1], initial=0))
    r = radii[:, None, cols]
    for lo, block in grid._row_blocks(rows, cols):
        # order="C": the default follows the broadcast strides, slow to fill and to reduce
        hit = np.logical_or.reduceat(np.less(block, r, order="C"), starts, axis=2)
        reach[:, :, rows[lo:lo + len(block)]] = hit.transpose(2, 0, 1)
    return reach


def _mark_balls(fails: np.ndarray, grid: GridSpace, radii: np.ndarray, zs: list,
                at: np.ndarray, *ends: np.ndarray) -> None:
    """Set fails[at[i], c] wherever the ball of witness node zs[c] at atom
    at[i] holds the node ends[e][i] of every ends array, d(end, zs[c]) <
    r(at[i], zs[c]): the metric read at those rows and zs's columns
    only, in row blocks."""
    step = max(1, METRIC_BLOCK // len(zs))
    for lo in range(0, len(at), step):
        t = at[lo:lo + step]
        r = radii[np.ix_(t, zs)]
        hit = np.logical_and.reduce([grid.distances(end[lo:lo + step], zs) < r for end in ends])
        i, c = np.nonzero(hit)
        fails[t[i], c] = True


def _ball_changes(grid: GridSpace, radii: np.ndarray, head: np.ndarray) -> tuple:
    """(t, x, z) arrays: each node x that the ball of witness node z holds
    at atom t and not at its cell head head[t], or the other way round,
    from the _ball_radii table radii.  Two balls around z differ only
    where their radii do, so d(x, z) is read, x the row, in row blocks of
    one column per (t, z) cell whose radius differs from the head's."""
    t, z = np.nonzero(radii != radii[head])
    own, first = radii[t, z], radii[head[t], z]
    found = []
    for lo, block in grid._row_blocks(np.arange(len(grid)), z):
        x, k = np.nonzero((block < own) != (block < first))
        found.append(np.stack([t[k], lo + x, z[k]]))
    return tuple(np.concatenate(found, axis=1))


def canonical_witness(psi: Corr) -> CipWitness:
    """The witness induced by a correspondence that is itself l.s.c.:
    every node shares psi as its local correspondence, and each ball is
    as large as possible while staying inside the nonempty section
    (radius up to the nearest empty node, or past the grid diameter when
    the section is full).  Only the metric's columns at the empty nodes
    are read, in row blocks."""
    nonempty = psi.counts > 0
    grid = psi.grid
    reach = np.full(nonempty.shape, grid.diameter + 1.0)
    holes = np.flatnonzero(~nonempty.all(axis=1))
    hole, empty = np.nonzero(~nonempty[holes])  # each atom's empty nodes, atom by atom
    starts = np.flatnonzero(np.diff(hole, prepend=-1))
    for lo, block in (grid._row_blocks(np.arange(len(grid)), empty) if len(holes) else ()):
        reach[holes, lo:lo + len(block)] = np.minimum.reduceat(block, starts, axis=1).T
    reach[~nonempty] = np.nan
    reach.flags.writeable = False
    return CipWitness.shared(grid, psi, reach)


@dataclass
class CipReport:
    """Outcome of verifying the continuous inclusion property."""

    ok: bool
    failures: list = field(default_factory=list)  # (kind, t, z, x, detail)
    inclusion_residual: float = 0.0
    lsc_gap: float = 0.0
    eps: float = 0.0


def _residuals(psi: Corr, tables: list, on: np.ndarray) -> np.ndarray:
    """Inclusion residual of F(t, x) in psi(t, x) on the (tables, atoms,
    nodes) mask on, for every table F: 0 off it, where F(t, x) is empty
    or is psi's own segment, inf where psi(t, x) is empty, else the max
    distance of F(t, x)'s points from psi's hull (a vertex of it is at
    exactly 0), by segment_distances calls of RESIDUAL_CHUNK points.

    Each table's residuals are kept on psi, by (atom, node) cell, NaN
    until measured, and only the cells of on not yet measured are
    measured, every table's in one stacked pass; psi and the tables are
    immutable, so the cache never goes stale.  It is keyed weakly by
    the table: a canonical witness's local is psi itself, and a strong
    key would make psi hold itself in a reference cycle, keeping every
    table alive until the cycle collector runs."""
    cache = psi.__dict__.get("_residual_cache")
    if cache is None:
        cache = psi.__dict__["_residual_cache"] = weakref.WeakKeyDictionary()
    for f in tables:
        if f not in cache:
            cache[f] = np.full(psi.counts.shape, np.nan)
    res = np.stack([cache[f] for f in tables])
    todo = on & np.isnan(res)
    if todo.any():
        res[todo] = 0.0
        points, bounds = _stacked(tables)
        same = np.stack([(f.bounds == psi.bounds).all(axis=-1) & (f.points is psi.points)
                         for f in tables])
        cells = todo & (bounds[..., 1] > bounds[..., 0]) & ~same
        res[cells & (psi.counts == 0)] = np.inf
        k, t, x = np.nonzero(cells & (psi.counts > 0))
        segs = bounds[k, t, x]
        rows, first = _segment_rows(segs)
        owner = np.repeat(psi.bounds[t, x], segs[:, 1] - segs[:, 0], axis=0)  # psi's row per point
        if len(rows):
            res[k, t, x] = np.maximum.reduceat(np.concatenate([segment_distances(
                points[rows[i:i + RESIDUAL_CHUNK]], psi.points, owner[i:i + RESIDUAL_CHUNK])
                for i in range(0, len(rows), RESIDUAL_CHUNK)]), first)
        for f, got, new in zip(tables, res, todo):
            cache[f][new] = got[new]
    return np.where(on, res, 0.0)


def cip_verify(
    psi: Corr,
    w: CipWitness,
    eps: float,
    tol: float = SET_EQUALITY_TOL,
    strict: bool = False,
) -> CipReport:
    """Verify the continuous inclusion property of psi under witness w.

    For every (t, z) in the domain and every node x with d(x, z) <
    r(t, z): F_z(t, x) must be nonempty with every point inside the
    convex hull of psi(t, x) within tol.  The convex hulls of F_z(t, .)
    must pass the discrete l.s.c. check at eps inside the ball (on the
    whole grid when strict=True), and on the whole grid for atoms t with
    psi(t, z) empty.  Every local must live on psi's grid, or on one with
    its points and adjacent pairs, and on psi's atom count and dim.

    One _cache_gaps call fills every local's gap table and one
    _residuals pass measures every (local, atom, node) cell a ball of
    that local reaches (_reach_masks; no ball off psi's section), with no
    (atoms, nodes, nodes) ball stack.  Per local, array passes over its
    gap table and the reached cells that are empty or escape psi mark
    the failing (atom, witness node) cells: a ball reaching such a cell
    or both ends of a pair that loses a value point at eps, read from
    the ball rows of those nodes alone (_mark_balls), and any witness
    node off psi's section at an atom with such a pair.  Only the marked
    cells are visited, atoms then nodes ascending, each reading its own
    ball, to list their failures.  eps must be positive.
    """
    if not eps > 0:  # NaN too: it compares false with every gap
        raise DomainError("eps must be positive")
    report = CipReport(True, eps=eps)
    grid = psi.grid
    pi, pj = grid.directed_pair_arrays()
    groups = w.distinct_locals()
    tables = [f for f, _ in groups]
    for f in tables:  # a local's gap table must list psi's pairs
        if f.grid is not grid and not (np.array_equal(f.grid.points, grid.points) and all(
                map(np.array_equal, f.grid.directed_pair_arrays(), (pi, pj)))):
            raise DomainError("witness locals must live on psi's grid")
        if len(f.space) != len(psi.space) or f.dim != psi.dim:
            raise DomainError("witness locals must live on psi's atoms, in psi's dim")
    radii = _ball_radii(psi, w)
    _cache_gaps(tables)
    reaches = _reach_masks(grid, radii, groups)
    residuals = _residuals(psi, tables, reaches)
    report.inclusion_residual = float(residuals.max(initial=0.0))
    nodes = np.arange(len(grid))
    for (f, zs), res, reach in zip(groups, residuals, reaches):
        gaps = f.directed_gaps()
        finite = ~np.isnan(gaps)
        if finite.any():
            report.lsc_gap = max(report.lsc_gap, float(gaps[finite].max()))
        lost = finite & (gaps >= eps)
        on = psi.counts[:, zs] > 0
        fails = np.zeros(on.shape, dtype=bool)
        at, x = np.nonzero(reach & ((f.counts == 0) | (res > tol)))  # res is 0 where F is empty
        _mark_balls(fails, grid, radii, zs, at, x)
        at, k = np.nonzero(lost)
        if strict:
            fails[at] = True
        else:
            both = reach[at, pi[k]] & reach[at, pj[k]]
            _mark_balls(fails, grid, radii, zs, at[both], pi[k[both]], pj[k[both]])
            fails[at] |= ~on[at]
        for t, c in np.argwhere(fails).tolist():
            z, pairs, kind = zs[c], np.flatnonzero(lost[t]), "lsc-offsection"
            if on[t, c]:
                cell, kind = grid.distances(nodes, [z])[:, 0] < radii[t, z], "lsc"
                for x in np.flatnonzero(cell & (f.counts[t] == 0)).tolist():
                    report.failures.append(("nonempty", t, z, x, "local value empty in ball"))
                for x in np.flatnonzero(cell & (res[t] > tol)).tolist():
                    report.failures.append(("inclusion", t, z, x,
                                            f"local value escapes psi by {res[t, x]:.3e}"))
                if not strict:
                    pairs = pairs[cell[pi[pairs]] & cell[pj[pairs]]]
            for k in pairs.tolist():
                report.failures.append((kind, t, z, int(pi[k]),
                                        f"value point lost toward node {int(pj[k])}"))
    report.ok = not report.failures
    return report


@dataclass
class ScipReport:
    """Outcome of the strong-variant checks, on top of a CipReport."""

    ok: bool
    mode: str
    failures: list = field(default_factory=list)
    hull_modulus: float = 0.0  # indexed mode: discrete modulus of z -> con F_z(t,x)


def scip_verify(
    psi: Corr,
    w: CipWitness,
    part: InfoPartition,
    cip: CipReport,
    tol: float = SET_EQUALITY_TOL,
) -> ScipReport:
    """Verify the strong continuous inclusion property on top of cip, the
    finished plain verification of (psi, w): joint lower measurability of
    the local hulls (cell-wise constancy in t) and the mode-specific
    conditions.  Each measurability check compares every atom's table
    with its cell head's (InfoPartition.head); the locals' values go
    through one cell_varying call, which names each one's first failing
    node.  The ball checks read the metric only where a ball's radius
    differs from its cell head's (_ball_changes), and the hull modulus
    measures each pair of adjacent locals once (_hull_modulus)."""
    if not cip.ok:
        raise PreconditionError("plain continuous-inclusion verification failed")
    report = ScipReport(True, w.mode)

    groups = w.distinct_locals()
    ordered = sorted(groups, key=lambda group: group[1][0])
    for (_, zs), varying in zip(ordered, cell_varying([f for f, _ in ordered], part)):
        for x, t in _atom_failures(varying, part)[:1]:
            report.failures.append(
                ("measurability", t, f"F_{zs[0]}", x, "local value not cell-constant")
            )

    if w.mode == "countable":
        # finiteness of the tables is automatic; the ball-membership
        # indicator {(t,x): x in O_z^t} must be cell-constant in t
        t, x, z = _ball_changes(psi.grid, _ball_radii(psi, w), part.head)
        for z, x, c in _distinct(np.column_stack([z, x, part.cell_index[t]])).tolist():
            report.failures.append(("ball-measurability", part.cells[c][0], z, x,
                                    "ball indicator not cell-constant"))
    elif w.mode == "indexed":
        # domain of psi must be cell-constant in t
        nonempty = psi.counts > 0
        t, z = np.nonzero(nonempty != nonempty[part.head])
        for z, c in _distinct(np.column_stack([z, part.cell_index[t]])).tolist():
            report.failures.append(("domain-measurability", part.cells[c][0], z, -1,
                                    "nonemptiness not cell-constant"))
        # the capture-index map must have cell-constant (finite) values
        t, x, _ = _ball_changes(psi.grid, _ball_radii(psi, w), part.head)
        changed = np.zeros(psi.counts.shape, dtype=bool)
        changed[t, x] = True
        for x, t in _atom_failures(changed, part):
            report.failures.append(
                ("index-measurability", t, -1, x, "capture set not cell-constant")
            )
        if w.box is None:
            report.failures.append(("box", -1, -1, -1, "indexed mode requires a bounding box"))
        else:
            lo, hi = w.box
            worst = 0.0
            for f, _ in groups:
                v = f.points[_segment_rows(f.segment_index()[0])[0]]  # every cell's points
                worst = max(worst, float(np.maximum(v - hi, 0.0).max(initial=0.0)),
                            float(np.maximum(lo - v, 0.0).max(initial=0.0)))
            if worst > tol:
                report.failures.append(("box", -1, -1, -1, f"values escape the box by {worst:.3e}"))
        # discrete modulus of z -> local value at fixed (t, x), finite by construction
        report.hull_modulus = _hull_modulus(psi, w, groups)
    report.ok = not report.failures
    return report


def _hull_modulus(psi: Corr, w: CipWitness, groups: list) -> float:
    """Max over (t, x) and adjacent node pairs at a positive distance d of
    the Hausdorff distance of the two ends' nonempty local values over d.
    Ends sharing one local read 0.0 or NaN and are skipped; each other
    pair of locals (groups) is measured once, at its shortest d, as
    fl(h / d) rises with h and falls with d: one _packed_gaps call over
    the _stacked segments of all locals."""
    pi, pj = (p[:len(p) // 2] for p in psi.grid.directed_pair_arrays())
    group = np.full(len(psi.grid), -1)
    for g, (_, zs) in enumerate(groups):
        group[zs] = g
    ends = np.column_stack([pi, pj]).ravel()
    for z in ends[group[ends] < 0][:1]:
        w.local(int(z))  # raises for the first node without a local, in pair order
    d = psi.grid.pair_distances()[:len(pi)]
    keep = (group[pi] != group[pj]) & (d > 0)
    lo, hi = np.sort(group[np.stack([pi, pj])[:, keep]], axis=0)
    order = np.lexsort((d[keep], hi, lo))  # each pair of locals at its shortest d first
    key, first = np.unique((lo * len(groups) + hi)[order], return_index=True)
    cells = psi.counts.size
    rows = np.stack(np.divmod(key, len(groups)))[..., None] * cells + np.arange(cells)
    points, bounds = _stacked([f for f, _ in groups])
    gaps = _packed_gaps(points, bounds.reshape(-1, 2), rows[0].ravel(), rows[1].ravel())
    ratio = gaps.max(axis=0) / np.repeat(d[keep][order][first], cells)
    return float(ratio[~np.isnan(ratio)].max(initial=0.0))


def pool_captured(psi: Corr, w: CipWitness, interior: bool = False) -> Corr:
    """Pool, at every (t, x), the local values over the witness nodes
    whose ball captures x, or only the points of each value interior to
    that value's own hull when interior (_pool)."""
    groups = w.distinct_locals()
    return _pool(psi, groups, _reach_masks(psi.grid, _ball_radii(psi, w), groups), interior)


def _pool(psi: Corr, groups: list, reaches: np.ndarray, interior: bool) -> Corr:
    """pool_captured from w's (local, zs) groups and their _reach_masks.
    Each local's captured cells come from one array pass over its
    segments: a mask of the cells, and for interior the local's cached
    Corr.segment_margins, gathered once per distinct segment.  One local
    (every shared witness) keeps that table.  Several are pooled in one
    array pass: each cell's captured segments back to back in group
    order, the cells in C order (_segments), and only a cell whose
    sorted first coordinates come within DEDUP_TOL goes through _dedup.
    The points and bounds are those of Corr.from_function over one
    PointSet.of(np.vstack(...)) per cell, bit for bit."""
    parts = [_captured_part(f, reach & (f.counts > 0), interior)
             for (f, _), reach in zip(groups, reaches)]
    if len(parts) == 1:
        return Corr(psi.space, psi.grid, psi.dim, *parts[0])
    sizes = [len(points) for points, _ in parts]
    starts = np.cumsum(sizes) - sizes
    segs = np.stack([bounds + k for (_, bounds), k in zip(parts, starts)], axis=2)
    rows, _ = _segment_rows(segs.reshape(-1, 2))
    points = np.concatenate([points for points, _ in parts])[rows]
    counts = (segs[..., 1] - segs[..., 0]).sum(axis=2).ravel()
    # a cell holds a close pair only if two of its sorted first coordinates do
    cell = np.repeat(np.arange(len(counts)), counts)
    order = np.lexsort((points[:, 0], cell))
    x, cell = points[order, 0], cell[order]
    near = (cell[1:] == cell[:-1]) & ~(x[1:] - x[:-1] > DEDUP_TOL)
    suspect = _distinct(cell[1:][near])
    if len(suspect):
        first, chunks, done = np.cumsum(counts) - counts, [], 0
        for c in suspect.tolist():
            a, b = first[c], first[c] + counts[c]
            kept = _dedup(points[a:b])
            chunks += [points[done:a], kept]
            counts[c], done = len(kept), b
        points = np.concatenate(chunks + [points[done:]])
    return Corr(psi.space, psi.grid, psi.dim, points, _segments(counts.reshape(psi.counts.shape)))


def _captured_part(f: Corr, on: np.ndarray, interior: bool) -> tuple[np.ndarray, np.ndarray]:
    """(points, bounds) of f on the cells of the mask on, empty elsewhere;
    with interior, only the points with a positive margin in their own
    value's hull, laid out once per distinct segment in sorted order."""
    bounds = np.where(on[..., None], f.bounds, 0)
    if not interior:
        return f.points, bounds
    segs, cell_seg = f.segment_index()
    used = _distinct(cell_seg[on])
    counts = segs[:, 1] - segs[:, 0]
    owner = np.repeat(np.arange(len(segs)), counts)
    picked = np.zeros(len(segs), dtype=bool)
    picked[used] = True
    keep = picked[owner] & (f.segment_margins(used) > 0.0)
    kept = np.bincount(owner[keep], minlength=len(segs))[used]
    bounds[on] = _segments(kept)[np.searchsorted(used, cell_seg[on])]
    return f.points[_segment_rows(segs)[0][keep]], bounds


def k_operator(psi: Corr, w: CipWitness) -> Corr:
    """Collect, at every (t, x), the witness sample points interior to
    their own local hull, over all witness nodes whose ball captures x
    (pool_captured with interior, so the margins are the locals' cached
    ones).  Empty wherever no local value has ambient interior."""
    return pool_captured(psi, w, interior=True)

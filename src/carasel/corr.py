"""Tabulated correspondences on (atom space) x (metric grid).

A correspondence assigns a possibly-empty point set in R^n to every
(atom, grid node) pair.  This module carries the discrete surrogates of
lower/upper semicontinuity and lower measurability, the verification of
the continuous inclusion property and its strong variants, and the
operator collecting interiors of the local inclusion witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError
from .measure import AtomSpace, InfoPartition
from .setops import (
    ConvexSet,
    PointSet,
    _cross_dists,
    convex_distance,
    hausdorff_dist,
    vertex_margins,
)

SET_EQUALITY_TOL = 1e-9
METRIC_TOL = 1e-9
ADJ_TOL = 1e-12
# Padded distance entries (pairs x kmax x kmax) evaluated at once by
# Corr.directed_gaps; bounds its temporaries to a few MiB.
GAP_CHUNK = 1 << 18


@dataclass(frozen=True)
class GridSpace:
    """A finite net of points in R^m with an explicit metric.

    mesh is the claimed covering radius of the net; adjacency_radius
    bounds which node pairs count as neighbors for the discrete
    semicontinuity checks (default twice the mesh).
    """

    points: np.ndarray
    metric: np.ndarray = None
    mesh: float = None
    adjacency_radius: float = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or len(pts) == 0:
            raise DomainError("grid points must form a nonempty 2-d array")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

        user_metric = self.metric is not None
        if user_metric:
            d = np.asarray(self.metric, dtype=float)
            if d.shape != (len(pts), len(pts)):
                raise DomainError("metric must be a square pairwise-distance matrix")
            _validate_metric(d)
        else:
            d = _cross_dists(pts, pts)
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "metric", d)

        mesh = self.mesh
        if mesh is None:
            if len(pts) == 1:
                mesh = 1.0
            else:
                off = d + np.diag(np.full(len(pts), np.inf))
                mesh = float(off.min(axis=1).max())  # max nearest-neighbor gap
        if mesh <= 0:
            raise DomainError("mesh must be positive")
        object.__setattr__(self, "mesh", float(mesh))

        radius = self.adjacency_radius
        if radius is None:
            radius = 2.0 * mesh
        if radius <= 0:
            raise DomainError("adjacency_radius must be positive")
        object.__setattr__(self, "adjacency_radius", float(radius))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def diameter(self) -> float:
        return float(self.metric.max())

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        """Unordered node pairs (i < j) within the adjacency radius."""
        cached = self.__dict__.get("_pairs")
        if cached is None:
            i, j = np.nonzero(self.metric <= self.adjacency_radius + ADJ_TOL)
            cached = [(int(a), int(b)) for a, b in zip(i, j) if a < b]
            object.__setattr__(self, "_pairs", cached)
        return cached

    def directed_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (sources, targets) listing every adjacent pair in
        both directions; the first half is (i, j) with i < j."""
        cached = self.__dict__.get("_pair_arrays")
        if cached is None:
            pairs = self.adjacent_pairs()
            pi = np.array([i for (i, j) in pairs] + [j for (i, j) in pairs], dtype=int)
            pj = np.array([j for (i, j) in pairs] + [i for (i, j) in pairs], dtype=int)
            cached = (pi, pj)
            object.__setattr__(self, "_pair_arrays", cached)
        return cached

    def neighbors(self, i: int) -> list[int]:
        row = self.metric[i]
        return [int(j) for j in np.nonzero(row <= self.adjacency_radius + ADJ_TOL)[0] if j != i]

    def is_connected(self) -> bool:
        """Connectivity of the adjacency graph (informative; a grid that
        discretizes a connected space should be connected)."""
        n = len(self)
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in self.neighbors(i):
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n


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


@dataclass(frozen=True)
class Corr:
    """Correspondence table: (atom index, node index) -> finite point set,
    packed as one read-only (P, dim) points array and an int bounds array
    of shape (atoms, nodes, 2) whose [start, stop) rows index the points
    of each cell; cells holding one value share one segment."""

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
        given one PointSet object share its segment."""
        seen, chunks, size = {}, [np.zeros((0, dim))], 0
        bounds = np.zeros((len(space), len(grid), 2), dtype=int)
        for t in range(len(space)):
            for z in range(len(grid)):
                ps = fn(t, z)
                if not isinstance(ps, PointSet) or ps.dim != dim:
                    raise DomainError("all values must be PointSets of the common dim")
                if id(ps) not in seen:  # holding ps keeps its id unique
                    seen[id(ps)] = (ps, size, size + len(ps))
                    chunks.append(ps.points)
                    size += len(ps)
                bounds[t, z] = seen[id(ps)][1:]
        return cls(space, grid, dim, np.concatenate(chunks), bounds)

    @classmethod
    def constant(cls, space: AtomSpace, grid: GridSpace, value: PointSet) -> "Corr":
        return cls.from_function(space, grid, value.dim, lambda t, z: value)

    def value(self, t: int, z: int) -> PointSet:
        """The cell's points: an unvalidated PointSet view of its slice."""
        start, stop = self.bounds[t, z]
        return PointSet._view(self.dim, self.points[start:stop])

    def directed_gaps(self, t: int) -> np.ndarray:
        """Per-directed-adjacent-pair one-sided gaps of the atom-t row:
        entry k is the farthest any point of the value at source k must
        travel to reach the value at target k; NaN when either side is
        empty, 0.0 when both ends share one segment.  Both gaps of every
        other pair come from array reductions over the pairs' segments,
        padded to a common width, in chunks of at most about GAP_CHUNK
        distance entries.  Cached (the table is immutable)."""
        cache = self.__dict__.setdefault("_gap_cache", {})
        if t not in cache:
            pi, pj = self.grid.directed_pair_arrays()
            cache[t] = _packed_gaps(self.points, self.bounds[t], pi, pj)
        return cache[t]

    def nonempty_at(self, t: int, z: int) -> bool:
        return bool(self.counts[t, z])

    def t_section(self, t: int) -> list[int]:
        """Nodes where atom t has a nonempty value."""
        return np.flatnonzero(self.counts[t]).tolist()


def _segments(counts: np.ndarray) -> np.ndarray:
    """The [start, stop) rows that lay out segments of the given lengths
    back to back, in C order of counts."""
    stop = np.cumsum(counts).reshape(np.shape(counts))
    return np.stack([stop - counts, stop], axis=-1)


def _packed_gaps(points: np.ndarray, bounds: np.ndarray, pi: np.ndarray,
                 pj: np.ndarray) -> np.ndarray:
    """Both one-sided gaps of every adjacent pair of one correspondence
    row (see Corr.directed_gaps).  A shorter segment is padded by
    repeating its first point, as _pack_hulls does, which changes no
    nearest distance and no farthest one.  Squared distances are reduced
    before the square root, which is exact: sqrt is monotone and
    correctly rounded, so it commutes with min and max."""
    half = len(pi) // 2
    out = np.full(len(pi), np.nan)
    src, dst = pi[:half], pj[:half]
    start, counts = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    live = (counts[src] > 0) & (counts[dst] > 0)
    same = live & (start[src] == start[dst]) & (counts[src] == counts[dst])
    out[:half][same] = 0.0
    out[half:][same] = 0.0
    todo = np.nonzero(live & ~same)[0]
    if not len(todo):
        return out
    slot = np.arange(counts.max())
    take = start[:, None] + np.where(slot < counts[:, None], slot, 0)
    # widest pairs first, so each chunk is padded only to its own widest value
    width = np.maximum(counts[src[todo]], counts[dst[todo]])
    order = np.argsort(-width, kind="stable")
    todo, width = todo[order], width[order]
    first = 0
    while first < len(todo):
        m = int(width[first])
        k = todo[first:first + max(1, GAP_CHUNK // (m * m))]
        first += len(k)
        diff = points[take[src[k], :m]][:, :, None, :] - points[take[dst[k], :m]][:, None, :, :]
        d2 = np.einsum("pijk,pijk->pij", diff, diff)
        out[k] = np.sqrt(d2.min(axis=2).max(axis=1))
        out[k + half] = np.sqrt(d2.min(axis=1).max(axis=1))
    return out


def domain(psi: Corr) -> frozenset:
    """U = {(t, z) : value nonempty}."""
    return frozenset(map(tuple, np.argwhere(psi.counts).tolist()))


@dataclass
class SemicontinuityReport:
    """Outcome of a discrete semicontinuity check over adjacent pairs.

    max_gap is the largest point-to-neighbor-set distance the check had
    to absorb; the check passes at any eps strictly above it.
    """

    ok: bool
    violations: list = field(default_factory=list)  # (z, z_adj, witness point)
    max_gap: float = 0.0


def _lost_point(a: PointSet, b: PointSet) -> np.ndarray:
    d = _cross_dists(a.points, b.points).min(axis=1)
    return a.points[int(d.argmax())]


def lsc_check(psi: Corr, t: int, eps: float) -> SemicontinuityReport:
    """Discrete lower-semicontinuity surrogate for psi(t, .): for every
    ordered adjacent pair (z, z') with both values nonempty, every point
    of the value at z must lie within eps of the value at z' (no value
    point may vanish when stepping to a neighbor)."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    pi, pj = psi.grid.directed_pair_arrays()
    gaps = psi.directed_gaps(t)
    mask = ~np.isnan(gaps)
    if not mask.any():
        return SemicontinuityReport(True, [], 0.0)
    max_gap = float(gaps[mask].max())
    violations = []
    for k in np.nonzero(mask & (gaps >= eps))[0]:
        z, z_adj = int(pi[k]), int(pj[k])
        violations.append((z, z_adj, _lost_point(psi.value(t, z), psi.value(t, z_adj))))
    return SemicontinuityReport(not violations, violations, max_gap)


def usc_check(psi: Corr, t: int, eps: float) -> SemicontinuityReport:
    """Discrete upper-semicontinuity surrogate for psi(t, .): for every
    unordered adjacent pair with both values nonempty, at least one value
    must collapse into the eps-neighborhood of the other (growth at a
    node is tolerated, mutual separation is not).
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    pi, pj = psi.grid.directed_pair_arrays()
    gaps = psi.directed_gaps(t)
    half = len(pi) // 2
    fwd, bwd = gaps[:half], gaps[half:]
    mask = ~np.isnan(fwd)
    if not mask.any():
        return SemicontinuityReport(True, [], 0.0)
    pair_gap = np.minimum(fwd, bwd)
    max_gap = float(pair_gap[mask].max())
    violations = []
    for k in np.nonzero(mask & (pair_gap >= eps))[0]:
        i, j = int(pi[k]), int(pj[k])
        a, b = psi.value(t, i), psi.value(t, j)
        src, dst = (a, b) if fwd[k] <= bwd[k] else (b, a)
        violations.append((i, j, _lost_point(src, dst)))
    return SemicontinuityReport(not violations, violations, max_gap)


def lower_measurable_check(psi: Corr, part: InfoPartition, z: int) -> bool:
    """Sufficient-condition check for lower measurability of t -> psi(t,z)
    under a finite partition: the value is constant as a set (within
    1e-9) on every cell."""
    for cell in part.cells:
        for t in cell[1:]:
            if not psi.value(t, z).same_as(psi.value(cell[0], z), SET_EQUALITY_TOL):
                return False
    return True


@dataclass(frozen=True)
class CipWitness:
    """Local-inclusion witness family for a correspondence psi.

    locals maps each node index z to the correspondence F_z; radii maps
    each (t, z) in the domain of psi to the radius of the open ball
    around node z inside which F_z must include into psi.  mode selects
    which strong-variant conditions scip_verify tests; box (lo, hi) is
    the compact bounding box required by the indexed mode.
    """

    mode: str
    locals: dict
    radii: dict
    box: tuple | None = None

    def __post_init__(self):
        if self.mode not in ("shared", "countable", "indexed"):
            raise DomainError(f"unknown witness mode {self.mode!r}")
        locs = dict(self.locals)
        if not locs:
            raise DomainError("a witness needs at least one local correspondence")
        if self.mode == "shared":
            first = next(iter(locs.values()))
            if any(f is not first for f in locs.values()):
                raise DomainError("shared mode requires one common local correspondence")
        radii = {}
        for key, r in dict(self.radii).items():
            t, z = int(key[0]), int(key[1])
            r = float(r)
            if r <= 0:
                raise DomainError("witness radii must be positive")
            radii[(t, z)] = r
        box = self.box
        if box is not None:
            lo = np.asarray(box[0], dtype=float).reshape(-1)
            hi = np.asarray(box[1], dtype=float).reshape(-1)
            if lo.shape != hi.shape or np.any(lo > hi):
                raise DomainError("box must be (lo, hi) with lo <= hi")
            box = (lo, hi)
        object.__setattr__(self, "locals", locs)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "box", box)

    @classmethod
    def shared(cls, grid: GridSpace, f: Corr, radii: dict, box=None) -> "CipWitness":
        return cls("shared", {z: f for z in range(len(grid))}, radii, box)

    def local(self, z: int) -> Corr:
        try:
            return self.locals[z]
        except KeyError:
            raise DomainError(f"witness has no local correspondence at node {z}") from None

    def radius(self, t: int, z: int) -> float:
        try:
            return self.radii[(t, z)]
        except KeyError:
            raise DomainError(f"witness has no radius at (t={t}, z={z})") from None

    def distinct_locals(self) -> list:
        """(local, sorted node indices sharing it), grouped by identity;
        shared witnesses collapse to a single group."""
        groups: dict[int, tuple[Corr, list[int]]] = {}
        for z, f in self.locals.items():
            groups.setdefault(id(f), (f, []))[1].append(z)
        return [(f, sorted(zs)) for f, zs in groups.values()]


def capture_matrix(psi: Corr, w: CipWitness, t: int) -> np.ndarray:
    """Boolean matrix M[x, z]: witness node z has a nonempty value of psi
    at atom t and its ball reaches x."""
    radius_row = np.full(len(psi.grid), -np.inf)
    for z in psi.t_section(t):
        radius_row[z] = w.radius(t, z)
    return psi.grid.metric < radius_row[None, :]


def canonical_witness(psi: Corr) -> CipWitness:
    """The witness induced by a correspondence that is itself l.s.c.:
    every node shares psi as its local correspondence, and each ball is
    as large as possible while staying inside the nonempty section
    (radius up to the nearest empty node, or past the grid diameter when
    the section is full)."""
    big = psi.grid.diameter + 1.0
    radii = {}
    for t in range(len(psi.space)):
        nonempty = psi.counts[t] > 0
        if nonempty.all():
            reach = np.full(len(psi.grid), big)
        else:
            reach = psi.grid.metric[:, ~nonempty].min(axis=1)
        for z in np.flatnonzero(nonempty):
            radii[(t, int(z))] = float(reach[z])
    return CipWitness.shared(psi.grid, psi, radii)


@dataclass
class CipReport:
    """Outcome of verifying the continuous inclusion property."""

    ok: bool
    failures: list = field(default_factory=list)  # (kind, t, z, x, detail)
    inclusion_residual: float = 0.0
    lsc_gap: float = 0.0
    eps: float = 0.0


def _local_hull(f: Corr, t: int, x: int) -> ConvexSet:
    return ConvexSet.from_point_set(f.value(t, x))


def _inclusion_residual(points: PointSet, target: PointSet) -> float:
    """Max distance from the points to the convex hull of the target;
    zero fast path when the point arrays coincide or every point appears
    in the target list."""
    if target.is_empty:
        return float("inf")
    if points.points is target.points or np.array_equal(points.points, target.points):
        return 0.0
    pts = points.points
    literal = (pts[:, None, :] == target.points[None, :, :]).all(axis=2).any(axis=1)
    rest = pts[~literal]  # a point that is one of the target samples is at 0
    if not len(rest):
        return 0.0
    return float(convex_distance(rest, ConvexSet.from_point_set(target)).max())


def _residual_row(psi: Corr, f: Corr, t: int) -> np.ndarray:
    """Inclusion residual of F(t, x) in psi(t, x) at every node x, 0
    where F(t, x) is empty or is psi's own segment."""
    res = np.zeros(len(psi.grid))
    same = (f.points is psi.points) & (f.bounds[t] == psi.bounds[t]).all(axis=1)
    for x in np.flatnonzero((f.counts[t] > 0) & ~same):
        res[x] = _inclusion_residual(f.value(t, x), psi.value(t, x))
    return res


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
    psi(t, z) empty.

    The directed pairs that lose a value point at eps are found once per
    (local, atom); each witness node keeps those with both ends in its
    ball, or all of them when strict or off the section.
    """
    report = CipReport(True, eps=eps)
    n_nodes = len(psi.grid)
    metric = psi.grid.metric
    pi, pj = psi.grid.directed_pair_arrays()
    for f, zs in w.distinct_locals():
        if f.grid is not psi.grid and len(f.grid) != n_nodes:
            raise DomainError("witness locals must live on psi's grid")
        for t in range(len(psi.space)):
            gaps = f.directed_gaps(t)
            finite = ~np.isnan(gaps)
            if finite.any():
                report.lsc_gap = max(report.lsc_gap, float(np.nanmax(gaps)))
            lost = np.nonzero(finite & (gaps >= eps))[0]
            empty = f.counts[t] == 0
            res = None  # residual row, computed once the first ball needs it
            for z in zs:
                if psi.nonempty_at(t, z):
                    in_ball = metric[:, z] < w.radius(t, z)
                    for x in np.nonzero(in_ball & empty)[0]:
                        report.failures.append(
                            ("nonempty", t, z, int(x), "local value empty in ball")
                        )
                    usable = in_ball & ~empty
                    if usable.any():
                        if res is None:
                            res = _residual_row(psi, f, t)
                        worst = float(res[usable].max())
                        report.inclusion_residual = max(report.inclusion_residual, worst)
                        for x in np.nonzero(usable & (res > tol))[0]:
                            report.failures.append((
                                "inclusion", t, z, int(x),
                                f"local value escapes psi by {res[x]:.3e}",
                            ))
                    kind = "lsc"
                    scoped = lost if strict else lost[in_ball[pi[lost]] & in_ball[pj[lost]]]
                else:
                    kind, scoped = "lsc-offsection", lost
                for k in scoped:
                    report.failures.append((
                        kind, t, z, int(pi[k]),
                        f"value point lost toward node {int(pj[k])}",
                    ))
    report.ok = not report.failures
    return report


@dataclass
class ScipReport:
    """Outcome of the strong-variant checks, on top of a CipReport."""

    ok: bool
    mode: str
    cip: CipReport
    failures: list = field(default_factory=list)
    hull_modulus: float = 0.0  # indexed mode: discrete modulus of z -> con F_z(t,x)


def _cell_constant_local(f: Corr, part: InfoPartition, z_label: str, failures: list) -> None:
    for x in range(len(f.grid)):
        for cell in part.cells:
            base = f.value(cell[0], x)
            for t in cell[1:]:
                if not f.value(t, x).same_as(base, SET_EQUALITY_TOL):
                    failures.append(
                        ("measurability", t, z_label, x, "local value not cell-constant")
                    )
                    return


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
    conditions."""
    if not cip.ok:
        raise PreconditionError("plain continuous-inclusion verification failed")
    report = ScipReport(True, w.mode, cip)

    groups = w.distinct_locals()
    for f, zs in sorted(groups, key=lambda group: group[1][0]):
        _cell_constant_local(f, part, f"F_{zs[0]}", report.failures)

    if w.mode == "shared":
        if len(groups) > 1:
            report.failures.append(("mode", -1, -1, -1, "locals differ in shared mode"))
    elif w.mode == "countable":
        # finiteness of the tables is automatic; the ball-membership
        # indicator {(t,x): x in O_z^t} must be cell-constant in t
        caps = np.array([capture_matrix(psi, w, t) for t in range(len(psi.space))])
        varies = np.array([(caps[list(cell)] != caps[cell[0]]).any(axis=0)
                           for cell in part.cells])
        for z, x, c in np.argwhere(varies.transpose(2, 1, 0)):
            report.failures.append(("ball-measurability", part.cells[c][0], int(z), int(x),
                                    "ball indicator not cell-constant"))
    elif w.mode == "indexed":
        # domain of psi must be cell-constant in t
        nonempty = psi.counts > 0
        varies = [(nonempty[list(cell)] != nonempty[cell[0]]).any(axis=0) for cell in part.cells]
        for z, c in np.argwhere(np.transpose(varies)):
            report.failures.append(("domain-measurability", part.cells[c][0], int(z), -1,
                                    "nonemptiness not cell-constant"))
        # the capture-index map must have cell-constant (finite) values
        caps = np.array([capture_matrix(psi, w, t) for t in range(len(psi.space))])
        for x in range(len(psi.grid)):
            for cell in part.cells:
                for t in cell[1:]:
                    if (caps[t, x] != caps[cell[0], x]).any():
                        report.failures.append(
                            ("index-measurability", t, -1, x, "capture set not cell-constant")
                        )
        if w.box is None:
            report.failures.append(("box", -1, -1, -1, "indexed mode requires a bounding box"))
        else:
            lo, hi = w.box
            worst = 0.0
            for f, _ in groups:
                # the rows some cell's segment covers
                edges = np.zeros(len(f.points) + 1, dtype=int)
                np.add.at(edges, f.bounds[..., 0].ravel(), 1)
                np.add.at(edges, f.bounds[..., 1].ravel(), -1)
                v = f.points[np.cumsum(edges)[:-1] > 0]
                worst = max(worst, float(np.maximum(v - hi, 0.0).max(initial=0.0)),
                            float(np.maximum(lo - v, 0.0).max(initial=0.0)))
            if worst > tol:
                report.failures.append(("box", -1, -1, -1, f"values escape the box by {worst:.3e}"))
        # discrete modulus of z -> local value at fixed (t, x): finite by
        # construction; record the largest ratio over adjacent node pairs
        modulus = 0.0
        pairs = psi.grid.adjacent_pairs()
        for t in range(len(psi.space)):
            for x in range(len(psi.grid)):
                for (i, j) in pairs:
                    a = w.local(i).value(t, x)
                    b = w.local(j).value(t, x)
                    if a.is_empty or b.is_empty:
                        continue
                    d = psi.grid.metric[i, j]
                    if d <= 0:
                        continue
                    modulus = max(modulus, hausdorff_dist(a, b) / d)
        report.hull_modulus = modulus
    report.ok = not report.failures
    return report


def pool_captured(psi: Corr, w: CipWitness, take=None) -> Corr:
    """Pool, at every (t, x), take(local value) over the witness nodes
    whose ball captures x (all of the value when take is None).  One
    local (every shared witness) keeps its own table with its segments
    masked, take applied once per distinct segment; several are pooled
    cell by cell."""
    groups = w.distinct_locals()
    captures = [capture_matrix(psi, w, t) for t in range(len(psi.space))]
    active = np.array([[c[:, zs].any(axis=1) for c in captures] for _, zs in groups])
    if len(groups) > 1:
        def pooled(t, x):
            vals = [f.value(t, x) for (f, _), on in zip(groups, active[:, t]) if on[x]]
            pts = [fv.points if take is None else take(fv) for fv in vals if not fv.is_empty]
            return PointSet.of(psi.dim, np.vstack(pts)) if pts else PointSet.empty(psi.dim)

        return Corr.from_function(psi.space, psi.grid, psi.dim, pooled)
    f = groups[0][0]
    on = active[0] & (f.counts > 0)
    points, bounds = f.points, np.where(on[..., None], f.bounds, 0)
    if take is not None:
        segs, inv = np.unique(bounds[on], axis=0, return_inverse=True)
        chunks = [take(PointSet._view(f.dim, points[a:b])) for a, b in segs]
        bounds[on] = _segments(np.array([len(c) for c in chunks], dtype=int))[inv.ravel()]
        points = np.concatenate([np.zeros((0, f.dim))] + chunks)
    return Corr(psi.space, psi.grid, psi.dim, points, bounds)


def _interior_samples(fv: PointSet) -> np.ndarray:
    """Points of a nonempty list interior to the list's own hull."""
    return fv.points[vertex_margins(ConvexSet.from_point_set(fv)) > 0.0]


def k_operator(psi: Corr, w: CipWitness) -> Corr:
    """Collect, at every (t, x), the witness sample points interior to
    their own local hull, over all witness nodes whose ball captures x.
    Empty wherever no local value has ambient interior."""
    return pool_captured(psi, w, _interior_samples)


def n_operator(t: int, x: int, c, w: CipWitness) -> PointSet:
    """Union of the (closed) convex hulls of the local values at (t, x)
    over witness nodes z in c, returned as the pooled vertex list (the
    union of V-polytopes, not their joint hull)."""
    pts = [w.local(z).value(t, x).points for z in sorted(int(z) for z in c)]
    dim = next(iter(w.locals.values())).dim
    return PointSet.of(dim, np.vstack(pts)) if pts else PointSet.empty(dim)

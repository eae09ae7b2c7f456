"""Gluing constructions and certified selections.

A verified inclusion witness is glued into a sub-correspondence that is
lower semicontinuous per atom, shares the original domain, and is
measurable cell by cell; a solve then extracts a single-valued
selection through it (of least Lipschitz modulus in R^1, of low
Dirichlet energy otherwise), certified by direct membership and a
Lipschitz modulus rather than by the construction that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corr import (
    CipWitness,
    Corr,
    GridSpace,
    SET_EQUALITY_TOL,
    _absorbed,
    _ball_radii,
    _pool,
    _reach_masks,
    _residuals,
    _segments,
    cell_varying,
    pool_captured,
)
from .errors import ConstructionError, DomainError, PreconditionError
from .grid import _neighbour_table
from .measure import InfoPartition
from .reporting import CheckSet
from .setops import (
    ConvexSet,
    _distinct,
    _interval_ends,
    _padded_rows,
    _segment_rows,
    _WarmProjector,
    convex_distance,
    segment_distances,
)

DEFAULT_SELECTION_TOL = 1e-7
DEFAULT_K_MAX = 40
DEFAULT_RESTARTS = 8
DEFAULT_MAX_SWEEPS = 40
_SWEEP_STOP = 1e-10
_RELAXATION = 0.7


@dataclass(frozen=True, eq=False)
class Selection:
    """A single-valued certified selection on the domain of a
    correspondence psi: values maps exactly the (t, z) with psi(t, z)
    nonempty to a point; also a per-adjacent-pair Lipschitz modulus, the
    worst membership residual, and the executed checks."""

    values: dict
    modulus: float
    membership_residual: float
    checks: CheckSet

    def value(self, t: int, z: int) -> np.ndarray:
        return self.values[(t, z)]


@dataclass
class PhiResult:
    """A glued sub-correspondence with its executed property checks:
    (A) inclusion, (B) domain equality, (C) per-atom l.s.c., (D)
    cell-wise measurability, (E) interiority where the interior-union
    operator (k_operator) is nonempty."""

    phi: Corr
    certificate: CheckSet


@dataclass
class AtomSelection:
    """Per-atom output of the grid solve (grid_select)."""

    values: dict  # node -> vector
    modulus: float
    residual: float


@dataclass
class GlueResult:
    """A glued correspondence together with the preservation checks of
    the gluing (upper/lower semicontinuity, measurability), each run on
    the fallback and on the glued table and reported, never assumed."""

    glued: Corr
    checks: CheckSet


def construct_phi(
    psi: Corr,
    w: CipWitness,
    part: InfoPartition,
    eps: float = None,
    atomic: bool = False,
) -> PhiResult:
    """Glue the witness family into a sub-correspondence of psi.

    In shared mode (unless atomic gluing is forced) the result is the
    common local correspondence read as its convex hulls (the local
    itself when it lives on psi's space and grid); otherwise each value
    pools the local values over every witness node whose ball captures
    the point, representing the hull of the union.  eps is the l.s.c.
    tolerance the witness was certified at (default: the grid's
    adjacency radius), positive; the phi-lsc check reads every atom's
    row of phi's directed gaps at once (lsc_check per atom).  The balls'
    reach (_reach_masks) is computed once, for the pooling and the
    interiority check.

    phi-inclusion reads the residuals cip_verify keeps on psi (corr.
    _residuals), so a witness verified first is not measured again.  In
    shared mode phi holds the local's points and segments, so the
    local's residuals are phi's, on every cell where psi is nonempty.  A
    pooled phi(t, x) holds the values of the locals whose balls reach x,
    so its residual is the largest of those locals' residuals over the
    cells where psi is nonempty.  That equals phi's own bit for bit, but
    in two cases: a point pooling dropped within DEDUP_TOL of a kept one
    can only raise it, by at most DEDUP_TOL, the safe side; and a local
    sharing psi's own segment at a cell reads the exact 0 that
    _residuals gives such a cell.

    The interiority check builds no interior-union table: it is
    nonempty where a local whose ball captures the cell has interior
    there (Corr.interior_cells, once per distinct local).  Wherever psi
    is nonempty too, phi's value must carry a sample interior to its own
    hull, from phi's cached margins (the local's own in shared mode).
    """
    if eps is None:
        eps = psi.grid.adjacency_radius
    groups = w.distinct_locals()
    reaches = _reach_masks(psi.grid, _ball_radii(psi, w), groups)
    on = psi.counts > 0
    if w.mode == "shared" and not atomic:
        phi, cells = _glued_phi(psi, w), on[None]
    else:
        phi, cells = _pool(psi, groups, reaches, False), reaches & on

    cert = CheckSet()
    worst_inclusion = float(_residuals(psi, [f for f, _ in groups], cells).max(initial=0.0))
    cert.add("phi-inclusion", worst_inclusion, SET_EQUALITY_TOL,
             "every glued vertex lies in the hull of the original value")

    mismatches = np.count_nonzero(on != (phi.counts > 0))
    cert.add("phi-domain-equality", mismatches, 0, "glued and original domains coincide")

    if not eps > 0:  # NaN too: it compares false with every gap
        raise DomainError("eps must be positive")
    gaps = phi.directed_gaps()
    gaps = gaps[~np.isnan(gaps)]
    cert.add("phi-lsc", float("inf") if (gaps >= eps).any() else float(gaps.max(initial=0.0)),
             eps, f"per-atom l.s.c. at the certified eps={eps:g}")

    bad_nodes = np.count_nonzero(cell_varying([phi], part)[0].any(axis=0))
    cert.add("phi-measurability", bad_nodes, 0, "cell-wise set constancy per node")

    need = on & np.any([f.interior_cells(reach) for (f, _), reach in zip(groups, reaches)],
                       axis=0)
    interiority_failures = np.count_nonzero(need & ~phi.interior_cells(need))
    detail = ("interior margin positive wherever the interior union is nonempty" if need.any()
              else "interior union empty everywhere (vacuous)")
    cert.add("phi-interiority", interiority_failures, 0, detail)

    return PhiResult(phi, cert)


def _glued_phi(psi: Corr, w: CipWitness) -> Corr:
    """construct_phi's sub-correspondence without its checks: the shared
    local itself where its space equals psi's and its grid is psi's, so
    its cached gaps and margins serve phi, else pool_captured."""
    if w.mode == "shared":
        phi = next(iter(w.locals.values()))
        if phi.space == psi.space and phi.grid is psi.grid and phi.dim == psi.dim:
            return phi
        return Corr(psi.space, psi.grid, psi.dim, phi.points, phi.bounds)
    return pool_captured(psi, w)


def _layout(phi: Corr, on: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat layout of the cells of phi that the (atoms, nodes) mask
    on selects, all nonempty, in C order: their [start, stop) rows of
    phi.points, and each cell's atom and node."""
    atom, node = np.nonzero(on)
    return phi.bounds[atom, node], atom, node


def _edges(grid: GridSpace, on: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adjacent pairs of the cells of one atom that on selects, in
    both directions, atom by atom in directed_pair_arrays order, as
    (sources, targets) positions in _layout's cell order and their
    distances."""
    cell = np.where(on, np.cumsum(on).reshape(on.shape) - 1, -1)  # each cell's row, or -1
    pi, pj = grid.directed_pair_arrays()
    src, dst = cell[:, pi], cell[:, pj]
    inside = (src >= 0) & (dst >= 0)  # (atoms, pairs)
    return src[inside], dst[inside], grid.pair_distances()[inside.nonzero()[1]]


def _barycenters(points: np.ndarray, segs: np.ndarray, draws: np.ndarray = ()) -> np.ndarray:
    """The mean of the points of every nonempty [start, stop) row, then
    its mean weighted by each row of draws (a weight per point, the rows'
    points side by side), as (1 + len(draws), rows, dim); one (rows, k,
    dim) block per row length k, each reducing as the row's own slice."""
    counts = segs[:, 1] - segs[:, 0]
    out = np.empty((1 + len(draws), len(segs), points.shape[1]))
    for k in _distinct(counts):
        rows = np.flatnonzero(counts == k)
        verts = points[segs[rows, :1] + np.arange(k)]
        out[0, rows] = verts.mean(axis=1)
        for r, d in enumerate(draws, 1):  # C-contiguous u: rows reduce as lone vectors do
            u = d[(np.cumsum(counts) - counts)[rows, None] + np.arange(k)]
            out[r, rows] = ((u / u.sum(axis=1, keepdims=True))[:, None] @ verts)[:, 0]
    return out


def _modulus(x: np.ndarray, edges: tuple) -> float:
    """The largest ratio |x_i - x_j| / d(i, j) over the pairs with d > 0;
    in R^1 |x_i - x_j| itself, since a norm squares the difference and a
    difference below about 1e-154 would lose digits to underflow."""
    src, dst, dist = edges
    positive = dist > 0
    diff = x[src[positive]] - x[dst[positive]]
    gaps = np.abs(diff[:, 0]) if x.shape[1] == 1 else np.linalg.norm(diff, axis=1)
    return float((gaps / dist[positive]).max(initial=0.0))


def _envelope(top: np.ndarray, on: np.ndarray, table: tuple, step: np.ndarray,
              paths: bool = False) -> tuple[np.ndarray, ...]:
    """The least u <= top with u[i, a] <= u[j, a] + step[k, c, a] for
    every column c of a grid's neighbour table (nodes, near, dist), its
    node i = nodes[c] and k-th neighbour j = near[k, c], and every atom a
    that the (nodes, atoms) mask on keeps at [c, a]: the min-plus
    relaxation u[i, a] <- min(u[i, a], u[j, a] + step[k, c, a]),
    repeated until no entry changes.  top is a (grid nodes + 1, atoms)
    block whose last row is the padding the table points at; entries
    that on does not keep stay as they are (+inf blocks a path).  Each Jacobi step fetches every neighbour's row, all
    atoms at once, with one take down the block, and updates the kept
    entries from the same old values.  Values only fall, through a finite
    set of floats, so the loop ends; with positive steps it takes at most
    one step per node.  Returns (u,), or with paths (u, source, length):
    for each entry the flat index into top where its path starts (in the
    same atom column) and the path's length (a sum of dist), u =
    top.flat[source] + slope * length up to rounding, carried through the
    same steps, which give the same u; argmin keeps the first neighbour
    of a tie."""
    nodes, near, dist = table
    value = top.copy()
    flat = value.reshape(-1)
    width = top.shape[1]
    place = np.add.outer(nodes * width, np.arange(width)).ravel()  # each (node, atom) in flat
    on = on.ravel()
    if paths:
        source, length = np.arange(value.size), np.zeros(value.size)
        cols = np.arange(len(place))
    cand = np.empty(near.shape + (width,))  # one buffer for every step's candidates
    flat_cand = cand.reshape(len(near), len(place))
    # checked once here, so each step can take with mode "clip": mode
    # "raise" copies through a second buffer of cand's size
    if near.size and not 0 <= near.min() <= near.max() < len(top):
        raise IndexError("neighbour table entry outside the envelope")
    while len(nodes):
        np.add(value.take(near, axis=0, out=cand, mode="clip"), step, out=cand)
        if paths:
            k = flat_cand.argmin(axis=0)
            best = flat_cand[k, cols]
        else:
            best = flat_cand.min(axis=0)
        better = np.flatnonzero((best < flat[place]) & on)
        if not len(better):
            break
        flat[place[better]] = best[better]
        if paths:
            k, r = k[better], better // width
            via = near[k, r] * width + better % width
            source[place[better]] = source[via]
            length[place[better]] = length[via] + dist[k, r]
    if paths:
        return value, source.reshape(top.shape), length.reshape(top.shape)
    return (value,)


def _least_modulus(points: np.ndarray, segs: np.ndarray, atom: np.ndarray, node: np.ndarray,
                   grid: GridSpace) -> tuple[np.ndarray, np.ndarray]:
    """The selection of least Lipschitz modulus in R^1 for every atom at
    once, on the cells of _layout (their segs, atoms and nodes of grid),
    with each atom's modulus L, a lower bound on the modulus of any
    selection over the adjacent pairs of cells of one atom.

    Each cell's hull is its interval [lo, hi] (setops._interval_ends).
    L starts at the adjacent bound max(0, (lo_i - hi_j) / d(i, j)) over
    the atom's adjacent pairs.  The upper envelope u_i = min_j hi_j + L
    d_G(i, j) (McShane 1934) and the lower one l_i = max_j lo_j - L
    d_G(i, j) (Whitney 1934), d_G the path metric of those pairs, are
    both L-Lipschitz on every pair, and lo <= l, u <= hi.  Where l <= u
    everywhere, the midpoint lies in every interval with modulus L.
    Where l_i > u_i, the path from l_i's source j through i to u_i's
    source k forces a modulus of at least (lo_j - hi_k) / (its length) >
    L: the envelopes are rebuilt with their paths, L rises to the worst
    such ratio of the atom, and both are solved again (Dinkelbach 1967).
    L only rises, through the finite set of path ratios; a rise that
    rounding leaves at L ends the loop.

    The envelopes live in (nodes + 1, atoms) blocks, +inf off the cells
    and on the last row, the padding of the grid's cached
    neighbour_table, which they relax over as the grid keeps it (its
    padding distance 1.0 never counts against +inf).  Each round builds
    one (max degree, nodes, atoms) step table dist * L, which both
    envelopes share.  Returns (cells, 1) points clipped into their
    intervals and L per atom, atoms ascending."""
    lo, hi = _interval_ends(points, segs)
    rank = np.cumsum(np.diff(atom, prepend=-1) > 0) - 1  # atoms ascend over the cells
    table = grid.neighbour_table()
    nodes, near, dist = table
    ends = np.full((2, len(grid) + 1, rank[-1] + 1), np.inf)
    ends[0, node, rank], ends[1, node, rank] = hi, -lo
    on = np.zeros(ends.shape[1:], dtype=bool)
    on[node, rank] = True
    on = on[nodes]  # the cells of the nodes with neighbours
    # lo_i - hi_j is -inf off the cells and at the padding, so only the
    # atom's adjacent pairs of cells count
    ratio = ends[0].take(near, axis=0)
    np.subtract(-ends[1][nodes], ratio, out=ratio)
    ratio /= dist[..., None]
    # the last maximum takes 0.0 over a zero of either sign
    bound = np.maximum(ratio.max(axis=0, initial=-np.inf).max(axis=0, initial=-np.inf), 0.0)
    step = ratio  # the bound is read, so its buffer holds each round's step table
    while True:
        for a, slope in enumerate(bound):  # one strided product per atom
            np.multiply(dist, slope, out=step[..., a])
        (u,), (l,) = (_envelope(end, on, table, step) for end in ends)
        u, l = u[node, rank], -l[node, rank]
        bad = np.flatnonzero(l > u)
        raised = bound.copy()
        if len(bad):
            _, u_from, u_len = _envelope(ends[0], on, table, step, paths=True)
            _, l_from, l_len = _envelope(ends[1], on, table, step, paths=True)
            at = node[bad], rank[bad]
            np.maximum.at(raised, rank[bad], (-ends[1].take(l_from[at]) - ends[0].take(u_from[at]))
                          / (l_len[at] + u_len[at]))
        if not (raised > bound).any():
            return np.clip((u + l) / 2, lo, hi)[:, None], bound
        bound = raised


def _sweep(points: np.ndarray, segs: np.ndarray, edges: tuple, atom: np.ndarray,
           starts: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Damped Jacobi sweeps of project-onto-value steps minimizing the sum
    of squared adjacent differences, for many groups at once, in dim 2 or
    more (R^1 takes _least_modulus).  segs, edges and atom lay out C cells
    as _layout and _edges give them; row r * C + c of the (R * C, dim)
    starts is restart r of cell c, and each (restart, atom) is a group.

    The padded vertex block of the hulls is gathered once, and so are the
    rows with neighbours, their group runs and limits, and their
    _neighbour_table, padded with the index of a zero row kept after the
    iterate.  Each sweep sums every row's neighbours with one take and
    one sum down the table's columns, which adds the same terms in the
    same order as a bincount over the edges (a padding +0.0 changes no
    sum), and projects the row set in one step of a setops._WarmProjector
    built once over their fixed hulls: a row whose cached Wolfe support
    still gives an optimal point keeps it, the others (every row on the
    first sweep) take the kernel, whose supports the step caches.  A group
    freezes once no row moved more than _SWEEP_STOP times its hull scale
    (compared in squares): a mask keeps its rows, and sweeps stop when no
    group is live.  When every row has neighbours, each sweep reads and
    writes the iterate as the view X[:-1], and relaxes, divides by the
    degree and squares the move in place.  Steps combine feasible
    points, so iterates stay feasible; the caller certifies them against
    psi's hulls (_select_table), on every atom, also those that took a
    cell head's solve and were not laid out here.  Returns the rows, as
    laid out."""
    reps = len(starts) // len(segs)
    rank = np.cumsum(np.diff(atom, prepend=-1) > 0) - 1  # atoms ascend over the cells
    group = (np.arange(reps)[:, None] * (rank[-1] + 1) + rank).ravel()
    first = np.flatnonzero(np.diff(group, prepend=-1))
    dim = starts.shape[1]
    V = points[_padded_rows(np.tile(segs, (reps, 1)))]
    X = np.zeros((len(starts) + 1, dim))  # the iterate, then the zero row padding points at
    X[:-1] = starts
    flat = X.ravel()
    src, dst = (np.add.outer(np.arange(reps) * len(segs), e).ravel() for e in edges[:2])
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(V).max(axis=(1, 2)), first))
    rows, (table,) = _neighbour_table(src, len(starts), (dst, len(starts)))
    deg = np.bincount(src)[rows, None]
    near = table[..., None] * dim + np.arange(dim)  # (max degree, rows, dim) places in flat
    runs = np.flatnonzero(np.diff(group[rows], prepend=-1))  # rows ascend by group
    size = np.diff(runs, append=len(rows))
    limit2 = (_SWEEP_STOP * scale[group[rows[runs]]]) ** 2
    step = _WarmProjector(V[rows])
    live = np.ones(len(runs), dtype=bool)  # the groups with a row with neighbours
    at = slice(-1) if len(rows) == len(starts) else rows  # every row has neighbours: a view
    for _ in range(max_sweeps):
        if not live.any():
            break
        target = flat.take(near).sum(axis=0, initial=0.0)
        target /= deg
        projected = step.project(target, slice(None))
        old = X[at]
        new = (1.0 - _RELAXATION) * old
        projected *= _RELAXATION
        new += projected  # (1 - w) old + w projected: the same products, summed once
        move = np.subtract(new, old, out=projected)
        X[at] = new if live.all() else np.where(np.repeat(live, size)[:, None], new, old)
        move *= move
        live &= np.maximum.reduceat(move.sum(axis=1), runs) > limit2

    return X[:-1]


def grid_select(phi: Corr, t: int, tol: float) -> AtomSelection:
    """Select one point per node of phi(t, .) on its nonempty section by
    the pipelines' closed-valued solve (_select_table) on a copy of phi
    that keeps atom t and leaves every other atom empty: in R^1 the
    least-modulus selection, otherwise damped Jacobi sweeps from each
    hull's barycenter.  Errors name atom t.  The output is deterministic;
    the returned modulus is the achieved per-adjacent-pair Lipschitz
    ratio and the residual the worst distance to phi's hulls."""
    if not 0 <= t < len(phi.space):
        raise DomainError(f"atom {t} is outside [0, {len(phi.space)})")
    bounds = np.zeros_like(phi.bounds)
    bounds[t] = phi.bounds[t]
    one = Corr(phi.space, phi.grid, phi.dim, phi.points, bounds)
    table, residual = _select_table(one, one, InfoPartition.finest(phi.space), tol)
    on = one.counts > 0
    return AtomSelection(dict(zip(np.flatnonzero(on[t]).tolist(), table[on])),
                         _modulus(table[on], _edges(phi.grid, on)), residual)


def _halving_weights(count: int, k_max: int) -> np.ndarray:
    """The fixed weights of a k_max-term halving series cycling through
    count points: term k puts 2^-k on point (k - 1) mod count, and the
    truncated tail mass 2^-k_max goes to the first point, so they sum
    to 1."""
    if k_max < 1:
        raise DomainError("k_max must be a positive integer")
    terms = 0.5 ** np.arange(1, k_max + 1)
    weights = np.bincount(np.arange(k_max) % count, terms, minlength=count)
    weights[0] += terms[-1]
    return weights


def interior_series(b: ConvexSet, dense, k_max: int) -> np.ndarray:
    """Geometric series reaching a non-support point of b from a point
    list covering it: each term pushes the base point toward (and one
    unit past, when far) a cover point, weights halve, and the truncated
    tail mass is assigned to the first term (_halving_weights).
    Truncation error is at most 2^-k_max times the diameter scale of b."""
    pts = [np.asarray(p, dtype=float).reshape(-1) for p in dense]
    if len(pts) < 2:
        raise PreconditionError("the dense list needs at least two points")
    weights = _halving_weights(len(pts), k_max)
    if any(p.shape[0] != b.dim for p in pts):
        raise DomainError("dense points must match the ambient dim")
    y = np.array(pts)
    if convex_distance(y, b).max() > SET_EQUALITY_TOL:
        raise PreconditionError("dense point outside the set")
    diff = y - y[0]
    return weights @ (y + diff / np.maximum(1.0, np.linalg.norm(diff, axis=1))[:, None])


def _head_map(tables: list, part: InfoPartition) -> np.ndarray:
    """Each atom's cell head where every table's row at the atom equals
    the head's bit for bit, else the atom itself: equal rows have the
    same nonempty nodes, and each such cell the same points in the same
    order.  Cells sharing the head's segment are equal unread; the other
    cells of rows of equal counts compare their points' bits in one
    gather per table, for all atoms at once."""
    atoms = np.arange(len(part.head))
    same = part.head != atoms  # the atoms still equal to their heads
    for f in dict.fromkeys(tables):
        if not same.any():
            break
        t = np.flatnonzero(same)
        h = part.head[t]
        same[t] = (f.counts[t] == f.counts[h]).all(axis=1)
        t, h = t[same[t]], h[same[t]]
        r, z = np.nonzero((f.bounds[t, :, 0] != f.bounds[h, :, 0]) & (f.counts[t] > 0))
        bits = f.points.view(np.int64)
        a, b = (bits[_segment_rows(f.bounds[s[r], z])[0]] for s in (t, h))
        differ = (a != b).any(axis=1)
        same[t[np.repeat(r, f.counts[t[r], z])[differ]]] = False
    return np.where(same, part.head, atoms)


def _select_table(psi: Corr, phi: Corr, part: InfoPartition, tol: float,
                  weights: np.ndarray | None = None,
                  seed: int = 0) -> tuple[np.ndarray, float]:
    """The selection through phi, a glued sub-correspondence of psi, as an
    (atoms, nodes, dim) table of points (zero off phi's domain), with the
    worst membership residual in psi's hulls.

    Only the cell heads of part and the atoms whose row of phi differs
    from their head's are solved: an atom whose row equals its head's
    bit for bit (_head_map) takes the head's points, which its own solve
    would give bit for bit, as atoms never interact in either solve and
    draw by their head's seed.  In R^1 every solved atom takes its
    least-modulus selection (_least_modulus), on which every restart
    would land, so no start is drawn and the series is the identity.
    Otherwise every (restart, solved atom) group is solved in one sweep:
    from the barycenters only when weights is None (the closed-valued
    branch), or also from len(weights) - 1 random feasible starts drawn
    per atom by its cell head's seed, whose pushed results the halving
    series weights combine with the barycentric one.  Raises a
    DomainError unless tol is positive, and a ConstructionError where
    phi is empty on psi's domain, or where a selected point lies farther
    than tol from psi's hull.  That is the one membership pass, over
    every domain cell of every atom, copies included: the sweep's steps
    stay in phi's hulls, which phi-inclusion certifies inside psi's, so
    the sweep has no escape check of its own."""
    if not tol > 0:  # NaN too: no residual exceeds it
        raise DomainError("tol must be positive")
    source = _head_map([phi], part)
    on = (phi.counts > 0) & (source == np.arange(len(source)))[:, None]  # the cells solved
    segs, atom, node = _layout(phi, on)
    table = np.zeros(psi.counts.shape + (psi.dim,))  # the selected points, by (t, z)
    if len(segs) and phi.dim == 1:
        table[on] = _least_modulus(phi.points, segs, atom, node, phi.grid)[0]
    elif len(segs):
        first = np.flatnonzero(np.diff(atom, prepend=-1))  # each atom's first cell
        draws = ()
        if weights is not None and len(weights) > 1:  # one draw per atom, by its cell head
            seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=len(psi.space))
            draws = np.hstack([  # (restarts - 1, points), each cell's points side by side
                np.random.default_rng(int(seeds[part.head[t]])).exponential(
                    size=(len(weights) - 1, n))
                for t, n in zip(atom[first], np.add.reduceat(segs[:, 1] - segs[:, 0], first))])
        starts = _barycenters(phi.points, segs, draws)  # restart by restart, cell by cell
        x = _sweep(phi.points, segs, _edges(phi.grid, on), atom, starts.reshape(-1, phi.dim),
                   DEFAULT_MAX_SWEEPS)
        if weights is not None:  # the series over the base and the pushed restarts, atom by atom
            x = x.reshape(starts.shape)
            diff = x - x[0]
            pushed = x[0] + diff / np.maximum(1.0, np.linalg.norm(diff, axis=2))[..., None]
            x = np.concatenate([np.tensordot(weights, p, axes=1)
                                for p in np.split(pushed, first[1:], axis=1)])
        table[on] = x
    table = table[source]  # each copy takes its head's points

    t, z = np.nonzero(psi.counts > 0)  # the domain, in sorted order
    missing = np.flatnonzero(phi.counts[t, z] == 0)
    if len(missing):
        raise ConstructionError(f"no selected value at (t={t[missing[0]]}, z={z[missing[0]]})")
    res = segment_distances(table[t, z], psi.points, psi.bounds[t, z])
    worst = float(res.max(initial=0.0))
    if worst > tol:
        k = int(res.argmax())
        raise ConstructionError(
            f"membership certification failed at (t={t[k]}, z={z[k]}): "
            f"residual {worst:.3e} > tol {tol:g}"
        )
    return table, worst


def caratheodory_select(
    psi: Corr,
    w: CipWitness,
    part: InfoPartition,
    closed_valued: bool = False,
    tol: float = DEFAULT_SELECTION_TOL,
    eps: float = None,
    atomic: bool = False,
    k_max: int = DEFAULT_K_MAX,
    restarts: int = DEFAULT_RESTARTS,
    seed: int = 0,
) -> Selection:
    """Produce a certified selection through psi on its domain.

    Pipeline: glue the witness into the sub-correspondence
    (construct_phi), then solve it with _select_table.  In R^1 that is
    the least-modulus selection, whatever the branch: restarts, k_max
    and seed have no effect there (but are validated).  Otherwise the
    sweeps start from the barycenters only (closed-valued branch), or
    also from restarts - 1 random feasible starts combined by the
    halving series (general branch).  An atom whose row of phi equals
    its cell head's bit for bit takes the head's solve.  The certificate
    is independent of the branch, and every check runs on every atom:
    phi's five checks, direct membership of every selected point in the
    hull of psi's value within tol, the achieved modulus, and cell-wise
    measurability whenever the inputs are cell-wise constant.
    """
    if restarts < 1:
        raise DomainError("restarts must be a positive integer")
    weights = _halving_weights(restarts, k_max)
    phi_res = construct_phi(psi, w, part, eps=eps, atomic=atomic)
    phi = phi_res.phi
    table, worst = _select_table(psi, phi, part, tol, None if closed_valued else weights, seed)

    checks = CheckSet()
    checks.extend(phi_res.certificate)
    checks.add("selection-membership", worst, tol,
               "selected point inside the hull of the original value at every domain node")
    t, z = np.nonzero(psi.counts > 0)
    values = dict(zip(zip(t.tolist(), z.tolist()), table[t, z]))
    if _inputs_cell_constant(psi, w, part):
        # the inputs fix each cell's presence pattern, so every selected
        # point has one at its cell head to compare with (0 - 0 elsewhere)
        diff = table - table[part.head]
        gap = float(np.sqrt(np.vecdot(diff, diff)).max(initial=0.0))
        checks.add("selection-measurability", gap, SET_EQUALITY_TOL,
                   "cell-wise constant selection under cell-wise constant inputs")
    else:
        checks.add("selection-measurability", 0.0, 0.0,
                   "trivially measurable (finest partition)")

    on = phi.counts > 0
    return Selection(values, _modulus(table[on], _edges(phi.grid, on)), worst, checks)


def _inputs_cell_constant(psi: Corr, w: CipWitness, part: InfoPartition) -> bool:
    """psi, every witness local and the radii (NaN where absent) are
    constant on every cell of a coarser than finest partition: equal to
    the cell head's bit for bit (_head_map), or else within
    SET_EQUALITY_TOL as sets (cell_varying), which measures the gaps."""
    if part.is_finest or not np.array_equal(w.radii, w.radii[part.head], equal_nan=True):
        return False
    tables = [psi] + [f for f, _ in w.distinct_locals()]
    return (np.array_equal(_head_map(tables, part), part.head)
            or not cell_varying(tables, part).any())


def glue(
    psi: Corr,
    sel: Selection,
    fallback: Corr,
    part: InfoPartition = None,
) -> GlueResult:
    """Replace psi by the singleton selection on its domain and by the
    fallback elsewhere, and run the preservation checks: wherever the
    fallback (together with the selection, for measurability) passes a
    semicontinuity or cell-constancy check, the glued table must pass it
    too.  Semicontinuity is usc_check's and lsc_check's at the grid's
    adjacency radius, decided for all atoms from both gap tables."""
    on = psi.counts > 0
    t, z = np.nonzero(on)
    single = [sel.values.get(key) for key in zip(t.tolist(), z.tolist())]
    if len(sel.values) != len(single) or any(v is None for v in single):
        raise DomainError("selection domain differs from the correspondence domain")
    table = np.zeros(on.shape + (psi.dim,))
    table[on] = np.reshape(single, (-1, psi.dim))
    if part is None:
        part = InfoPartition.finest(psi.space)
    return _glue_table(psi, table, fallback, part)


def _glue_table(psi: Corr, table: np.ndarray, fallback: Corr, part: InfoPartition) -> GlueResult:
    """glue's body on an (atoms, nodes, dim) table of selected points, as
    _select_table gives it, read on psi's domain only."""
    on = psi.counts > 0
    off = np.argwhere(~on & (fallback.counts == 0))
    if len(off):
        t, z = off[0]
        raise DomainError(f"fallback is empty off the domain at (t={t}, z={z})")
    # one singleton row per domain cell, in (t, z) order, after the fallback's points
    bounds = np.array(fallback.bounds)
    bounds[on] = len(fallback.points) + _segments(np.ones(np.count_nonzero(on), dtype=int))
    glued = Corr(psi.space, psi.grid, psi.dim, np.concatenate([fallback.points, table[on]]), bounds)

    checks = CheckSet()
    for name, upper, sc in (("glue-usc-preserved", True, "u.s.c."),
                            ("glue-lsc-preserved", False, "l.s.c.")):
        fails = [(_absorbed(f.directed_gaps(), upper) >= psi.grid.adjacency_radius).any(axis=1)
                 for f in (fallback, glued)]
        checks.add(name, np.count_nonzero(~fails[0] & fails[1]), 0,
                   f"atoms where the fallback is {sc} but the glued table is not")

    # nodes where the fallback and the selection (its presence and its
    # points, the glued singletons on the domain) are cell-constant but
    # the glued table is not
    varying, fallback_varying = cell_varying([glued, fallback], part)
    sel_varies = (on != on[part.head]) | (on & varying)
    broken_meas = np.count_nonzero(~fallback_varying.any(axis=0)
                                   & ~sel_varies.any(axis=0) & varying.any(axis=0))
    checks.add("glue-measurability-preserved", broken_meas, 0,
               "nodes where cell-constant inputs fail to glue to a cell-constant table")
    return GlueResult(glued, checks)

"""Gluing constructions and certified selections.

A verified inclusion witness is glued into a sub-correspondence that is
lower semicontinuous per atom, shares the original domain, and is
measurable cell by cell; an energy-minimizing solve then extracts a
single-valued selection through it, certified by direct membership and a
Lipschitz modulus rather than by the construction that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corr import (
    CipWitness,
    Corr,
    SET_EQUALITY_TOL,
    _absorbed,
    _residuals,
    _segments,
    cell_varying,
    k_operator,
    pool_captured,
)
from .errors import ConstructionError, DomainError, PreconditionError
from .measure import InfoPartition
from .reporting import CheckSet
from .setops import (
    ConvexSet,
    _distinct,
    _interval_ends,
    _padded_rows,
    _project_to_intervals,
    convex_distance,
    convex_project,
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
    operator is nonempty."""

    phi: Corr
    certificate: CheckSet
    interior_union: Corr  # the tabulated interior-collecting operator


@dataclass
class AtomSelection:
    """Per-atom output of the energy-minimizing grid solve."""

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
    row of phi's directed gaps at once (lsc_check per atom).

    The interiority check is one array pass: wherever psi and the
    interior-union table are both nonempty, phi's value must carry a
    sample interior to its own hull, read from phi's cached segment
    margins (Corr.interior_cells), which in shared mode are the ones
    k_operator has just computed for the same local.
    """
    if eps is None:
        eps = psi.grid.adjacency_radius
    phi = _glued_phi(psi, w, atomic)

    cert = CheckSet()
    worst_inclusion = float(_residuals(psi, [phi], (psi.counts > 0)[None]).max(initial=0.0))
    cert.add("phi-inclusion", worst_inclusion, SET_EQUALITY_TOL,
             "every glued vertex lies in the hull of the original value")

    mismatches = np.count_nonzero((psi.counts > 0) != (phi.counts > 0))
    cert.add("phi-domain-equality", mismatches, 0, "glued and original domains coincide")

    if not eps > 0:  # NaN too: it compares false with every gap
        raise DomainError("eps must be positive")
    gaps = phi.directed_gaps()
    gaps = gaps[~np.isnan(gaps)]
    cert.add("phi-lsc", float("inf") if (gaps >= eps).any() else float(gaps.max(initial=0.0)),
             eps, f"per-atom l.s.c. at the certified eps={eps:g}")

    bad_nodes = np.count_nonzero(cell_varying([phi], part)[0].any(axis=0))
    cert.add("phi-measurability", bad_nodes, 0, "cell-wise set constancy per node")

    kpsi = k_operator(psi, w)
    need = (psi.counts > 0) & (kpsi.counts > 0)
    interiority_failures = np.count_nonzero(need & ~phi.interior_cells(need))
    detail = ("interior margin positive wherever the interior union is nonempty" if need.any()
              else "interior union empty everywhere (vacuous)")
    cert.add("phi-interiority", interiority_failures, 0, detail)

    return PhiResult(phi, cert, kpsi)


def _glued_phi(psi: Corr, w: CipWitness, atomic: bool = False) -> Corr:
    """construct_phi's sub-correspondence without its checks: the shared
    local (on psi's space and grid) unless atomic, else pool_captured."""
    if w.mode == "shared" and not atomic:
        phi = next(iter(w.locals.values()))
        if phi.space is psi.space and phi.grid is psi.grid and phi.dim == psi.dim:
            return phi
        return Corr(psi.space, psi.grid, psi.dim, phi.points, phi.bounds)
    return pool_captured(psi, w)


def _layout(phi: Corr, on: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The flat layout of the cells of phi that the (atoms, nodes) mask
    on selects, in C order: their [start, stop) rows of phi.points, each
    cell's atom, and the adjacent pairs of cells of one atom in both
    directions, atom by atom in directed_pair_arrays order, as (sources,
    targets) cell positions and their distances."""
    atom, node = np.nonzero(on)
    segs = phi.bounds[atom, node]
    empty = np.flatnonzero(segs[:, 1] == segs[:, 0])
    if len(empty):
        raise ConstructionError(f"inconsistent domain: empty value at node {node[empty[0]]} "
                                f"of atom {atom[empty[0]]}")
    cell = np.where(on, np.cumsum(on).reshape(on.shape) - 1, -1)  # each cell's row, or -1
    pi, pj = phi.grid.directed_pair_arrays()
    src, dst = cell[:, pi], cell[:, pj]
    inside = (src >= 0) & (dst >= 0)  # (atoms, pairs)
    return segs, atom, (src[inside], dst[inside], phi.grid.metric[pi, pj][inside.nonzero()[1]])


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
    """The largest ratio |x_i - x_j| / d(i, j) over the pairs with d > 0."""
    src, dst, dist = edges
    positive = dist > 0
    gaps = np.linalg.norm(x[src[positive]] - x[dst[positive]], axis=1)
    return float((gaps / dist[positive]).max(initial=0.0))


def _sweep(points: np.ndarray, segs: np.ndarray, edges: tuple, atom: np.ndarray,
           starts: np.ndarray, tol: float, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Damped Jacobi sweeps of project-onto-value steps minimizing the sum
    of squared adjacent differences, for many groups at once.  segs, edges
    and atom lay out C cells as _layout gives them; row r * C + c of the
    (R * C, dim) starts is restart r of cell c, and each (restart, atom)
    is a group.

    The hulls are gathered once: in R^1 a (rows, 2, 1) block of each
    cell's interval ends (setops._interval_ends), otherwise the padded
    vertex block.  So are the rows with neighbours, their group runs and
    limits, and a neighbour table: column i lists the neighbours of the
    i-th such row in edge order, padded to the largest degree with the
    index of a zero row kept after the iterate, so it holds rows x max
    degree entries.  Each sweep sums every row's neighbours with one take
    and one sum down the table's columns, which adds the same terms in
    the same order as a bincount over the edges (a padding +0.0 changes
    no sum), and projects the row set in one _project_to_intervals (R^1)
    or convex_project call.  A group freezes once no row moved more than
    _SWEEP_STOP times its hull scale: a mask keeps its rows, and sweeps
    stop when no group is live.  Steps combine feasible points, so
    iterates stay feasible; a residual above tol raises, naming the lowest
    such atom.  Returns the rows, as laid out, and each group's residual."""
    reps = len(starts) // len(segs)
    rank = np.cumsum(np.diff(atom, prepend=-1) > 0) - 1  # atoms ascend over the cells
    group = (np.arange(reps)[:, None] * (rank[-1] + 1) + rank).ravel()
    first = np.flatnonzero(np.diff(group, prepend=-1))
    dim = starts.shape[1]
    if dim == 1:
        V = np.tile(np.column_stack(_interval_ends(points, segs)), (reps, 1))[..., None]
    else:
        V = points[_padded_rows(np.tile(segs, (reps, 1)))]
    X = np.zeros((len(starts) + 1, dim))  # the iterate, then the zero row padding points at
    X[:-1] = starts
    flat = X.ravel()
    src, dst = (np.add.outer(np.arange(reps) * len(segs), e).ravel() for e in edges[:2])
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(V).max(axis=(1, 2)), first))
    degree = np.bincount(src, minlength=len(starts))
    rows = np.flatnonzero(degree)
    count = degree[rows]
    deg = count[:, None]
    # entry [k, i]: the target of the k-th edge out of rows[i], in edge order
    order = np.argsort(src, kind="stable")
    slot = np.arange(len(src)) - np.repeat(np.cumsum(count) - count, count)
    table = np.full((count.max(initial=0), len(rows)), len(starts))
    table[slot, (np.cumsum(degree > 0) - 1)[src[order]]] = dst[order]
    near = table[..., None] * dim + np.arange(dim)  # (max degree, rows, dim) places in flat
    runs = np.flatnonzero(np.diff(group[rows], prepend=-1))  # rows ascend by group
    size = np.diff(runs, append=len(rows))
    limit = _SWEEP_STOP * scale[group[rows[runs]]]
    hulls = (V[rows, 0], V[rows, 1]) if dim == 1 else V[rows]
    live = np.ones(len(runs), dtype=bool)  # the groups with a row with neighbours
    for _ in range(max_sweeps):
        if not live.any():
            break
        target = flat.take(near).sum(axis=0, initial=0.0) / deg
        projected = (_project_to_intervals(target, *hulls) if dim == 1
                     else convex_project(target, hulls)[0])
        old = X[rows]
        new = (1.0 - _RELAXATION) * old + _RELAXATION * projected
        X[rows] = new if live.all() else np.where(np.repeat(live, size)[:, None], new, old)
        live &= np.maximum.reduceat(np.linalg.norm(new - old, axis=1), runs) > limit

    X = X[:-1]
    residual = np.maximum.reduceat(convex_distance(X, V), first)
    by_atom = residual.reshape(reps, -1).T.ravel()  # groups atom by atom, restarts within
    g = int(np.argmax(by_atom > tol))  # the first group above tol, if any
    if by_atom[g] > tol:
        raise ConstructionError(f"selection escaped its value set by {by_atom[g]:.3e} "
                                f"at atom {atom[first[g // reps]]}")
    return X, residual


def grid_select(
    phi: Corr,
    t: int,
    tol: float,
    nodes=None,
    init: dict | None = None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> AtomSelection:
    """Select one point per node of phi(t, .) on its nonempty section (or
    the given distinct nodes), minimizing the sum of squared adjacent
    differences by damped Jacobi sweeps from init (default: each hull's
    barycenter): the sweep caratheodory_select runs, on the layout of a
    one-atom mask with one restart.  The output is deterministic; the
    returned modulus is the achieved per-adjacent-pair Lipschitz ratio."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    if not 0 <= t < len(phi.space):
        raise DomainError(f"atom {t} is outside [0, {len(phi.space)})")
    nodes = np.flatnonzero(phi.counts[t]) if nodes is None else list(nodes)
    on = np.zeros(phi.counts.shape, dtype=bool)
    on[t] = np.isin(np.arange(len(phi.grid)), nodes)
    if np.count_nonzero(on) != len(nodes):
        raise DomainError(f"nodes must be distinct and lie in [0, {len(phi.grid)})")
    segs, atom, edges = _layout(phi, on)
    section = np.flatnonzero(on[t]).tolist()
    init = init or {}
    stray = [z for z in init if z not in section]
    if stray:
        raise DomainError(f"init node {stray[0]!r} is not a solved node")
    if any(np.shape(v) != (phi.dim,) for v in init.values()):
        raise DomainError(f"init values must be length-{phi.dim} vectors")
    if not section:
        return AtomSelection({}, 0.0, 0.0)
    x = _barycenters(phi.points, segs)[0]
    for z, v in init.items():
        x[section.index(z)] = v
    x, residual = _sweep(phi.points, segs, edges, atom, x, tol, max_sweeps)
    return AtomSelection(dict(zip(section, x)), _modulus(x, edges), float(residual[0]))


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


def _select_table(psi: Corr, phi: Corr, part: InfoPartition, tol: float,
                  weights: np.ndarray | None = None,
                  seed: int = 0) -> tuple[np.ndarray, tuple, float]:
    """The selection through phi, a glued sub-correspondence of psi, as an
    (atoms, nodes, dim) table of points (zero off phi's domain), with the
    edges of its _layout and the worst membership residual in psi's hulls.

    Every (restart, atom) group is solved in one sweep: from the
    barycenters only when weights is None (the closed-valued branch), or
    also from len(weights) - 1 random feasible starts drawn per atom by
    its cell head's seed, whose pushed results the halving series weights
    combine with the barycentric one.  Raises a ConstructionError where
    the sweep escapes phi's hulls, where phi is empty on psi's domain, or
    where a selected point lies farther than tol from psi's hull."""
    on = phi.counts > 0
    segs, atom, edges = _layout(phi, on)
    table = np.zeros(psi.counts.shape + (psi.dim,))  # the selected points, by (t, z)
    if len(segs):
        heads = np.flatnonzero(np.diff(atom, prepend=-1))  # each atom's first cell
        draws = ()
        if weights is not None and len(weights) > 1:  # one draw per atom, by its cell head
            seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=len(psi.space))
            draws = np.hstack([  # (restarts - 1, points), each cell's points side by side
                np.random.default_rng(int(seeds[part.head[t]])).exponential(
                    size=(len(weights) - 1, n))
                for t, n in zip(atom[heads], np.add.reduceat(segs[:, 1] - segs[:, 0], heads))])
        starts = _barycenters(phi.points, segs, draws)  # restart by restart, cell by cell
        x = _sweep(phi.points, segs, edges, atom, starts.reshape(-1, phi.dim), tol,
                   DEFAULT_MAX_SWEEPS)[0]
        if weights is not None:  # the series over the base and the pushed restarts, atom by atom
            x = x.reshape(starts.shape)
            diff = x - x[0]
            pushed = x[0] + diff / np.maximum(1.0, np.linalg.norm(diff, axis=2))[..., None]
            x = np.concatenate([np.tensordot(weights, p, axes=1)
                                for p in np.split(pushed, heads[1:], axis=1)])
        table[on] = x

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
    return table, edges, worst


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
    (construct_phi), then solve it with _select_table: from the
    barycenters only (closed-valued branch), or also from restarts - 1
    random feasible starts combined by the halving series (general
    branch).  The certificate is independent of the branch: phi's five
    checks, direct membership of every selected point in the hull of
    psi's value within tol, the achieved modulus, and cell-wise
    measurability whenever the inputs are cell-wise constant.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if restarts < 1:
        raise DomainError("restarts must be a positive integer")
    weights = _halving_weights(restarts, k_max)
    phi_res = construct_phi(psi, w, part, eps=eps, atomic=atomic)
    phi = phi_res.phi
    table, edges, worst = _select_table(psi, phi, part, tol,
                                        None if closed_valued else weights, seed)

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

    return Selection(values, _modulus(table[phi.counts > 0], edges), worst, checks)


def _inputs_cell_constant(psi: Corr, w: CipWitness, part: InfoPartition) -> bool:
    """psi, every witness local and the radii (NaN where absent) are
    constant on every cell of a coarser than finest partition."""
    if part.is_finest:
        return False
    return (np.array_equal(w.radii, w.radii[part.head], equal_nan=True)
            and not cell_varying([psi] + [f for f, _ in w.distinct_locals()], part).any())


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

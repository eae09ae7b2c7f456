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
    _residual_row,
    _segments,
    domain,
    k_operator,
    lower_measurable_check,
    lsc_check,
    pool_captured,
    usc_check,
)
from .errors import ConstructionError, DomainError, PreconditionError
from .measure import InfoPartition
from .reporting import CheckSet
from .setops import (
    ConvexSet,
    _pack_hulls,
    convex_distance,
    convex_project,
    max_vertex_margin,
)

DEFAULT_SELECTION_TOL = 1e-7
DEFAULT_K_MAX = 40
DEFAULT_RESTARTS = 8
DEFAULT_MAX_SWEEPS = 40
_SWEEP_STOP = 1e-10
_RELAXATION = 0.7


@dataclass(frozen=True)
class Selection:
    """A single-valued certified selection on the domain of a
    correspondence: values per (atom, node), a per-adjacent-pair Lipschitz
    modulus, the worst membership residual, and the executed checks."""

    domain: frozenset
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
    adjacency radius).
    """
    if eps is None:
        eps = psi.grid.adjacency_radius
    if w.mode == "shared" and not atomic:
        phi = next(iter(w.locals.values()))
        if not (phi.space is psi.space and phi.grid is psi.grid and phi.dim == psi.dim):
            phi = Corr(psi.space, psi.grid, psi.dim, phi.points, phi.bounds)
    else:
        phi = pool_captured(psi, w)

    cert = CheckSet()
    u_psi = domain(psi)

    worst_inclusion = max(float(_residual_row(psi, phi, t)[psi.counts[t] > 0].max(initial=0.0))
                          for t in range(len(psi.space)))
    cert.add("phi-inclusion", worst_inclusion, SET_EQUALITY_TOL,
             "every glued vertex lies in the hull of the original value")

    mismatches = len(u_psi.symmetric_difference(domain(phi)))
    cert.add("phi-domain-equality", mismatches, 0, "glued and original domains coincide")

    worst_gap = 0.0
    lsc_ok = True
    for t in range(len(psi.space)):
        rep = lsc_check(phi, t, eps)
        worst_gap = max(worst_gap, rep.max_gap)
        lsc_ok = lsc_ok and rep.ok
    cert.add("phi-lsc", worst_gap if lsc_ok else float("inf"), eps,
             f"per-atom l.s.c. at the certified eps={eps:g}")

    bad_nodes = sum(
        0 if lower_measurable_check(phi, part, z) else 1 for z in range(len(psi.grid))
    )
    cert.add("phi-measurability", bad_nodes, 0, "cell-wise set constancy per node")

    kpsi = k_operator(psi, w)
    interiority_failures = 0
    k_nonempty = 0
    for (t, z) in sorted(u_psi):
        if kpsi.nonempty_at(t, z):
            k_nonempty += 1
            hull = ConvexSet.from_point_set(phi.value(t, z))
            if max_vertex_margin(hull) <= 0.0:
                interiority_failures += 1
    detail = "interior margin positive wherever the interior union is nonempty"
    if k_nonempty == 0:
        detail = "interior union empty everywhere (vacuous)"
    cert.add("phi-interiority", interiority_failures, 0, detail)

    return PhiResult(phi, cert, kpsi)


def _atom_block(phi: Corr, t: int, section: list) -> tuple[list, tuple]:
    """The hulls of phi(t, z) over a section and the section's adjacent
    pairs in both directions: (sources, targets) as section positions,
    and their distances."""
    hulls = []
    for z in section:
        v = phi.value(t, z)
        if v.is_empty:
            raise ConstructionError(
                f"inconsistent domain: empty value at node {z} of atom {t}"
            )
        hulls.append(ConvexSet.from_point_set(v))
    pos = np.full(len(phi.grid), -1)
    pos[section] = np.arange(len(section))
    pi, pj = phi.grid.directed_pair_arrays()
    inside = (pos[pi] >= 0) & (pos[pj] >= 0)
    pi, pj = pi[inside], pj[inside]
    return hulls, (pos[pi], pos[pj], phi.grid.metric[pi, pj])


def _modulus(x: np.ndarray, edges: tuple) -> float:
    """The largest ratio |x_i - x_j| / d(i, j) over the pairs with d > 0."""
    src, dst, dist = edges
    positive = dist > 0
    gaps = np.linalg.norm(x[src[positive]] - x[dst[positive]], axis=1)
    return float((gaps / dist[positive]).max(initial=0.0))


def _sweep(blocks: list, tol: float, max_sweeps: int) -> tuple[list, np.ndarray]:
    """Damped Jacobi sweeps of project-onto-value steps minimizing the sum
    of squared adjacent differences, for many groups at once.  blocks
    lists (t, section, hulls, edges, starts), hulls and edges as
    _atom_block gives them and starts an (R, n, dim) stack: R groups,
    disjoint row blocks of one stack.  Each sweep projects the rows with
    neighbours of every live group in one convex_project call; a group
    freezes once no row moved more than _SWEEP_STOP times its hull scale.
    Steps combine feasible points, so iterates stay feasible, and a
    residual above tol raises.  Returns the (R, n, dim) results per block
    and the residual per group."""
    groups = [(t, hulls, edges) for t, _, hulls, edges, starts in blocks for _ in starts]
    first = np.cumsum([0] + [len(hulls) for _, hulls, _ in groups])[:-1]
    V = _pack_hulls([h for _, hulls, _ in groups for h in hulls])
    X = np.concatenate([starts.reshape(-1, starts.shape[-1]) for *_, starts in blocks])
    group = np.repeat(np.arange(len(groups)), [len(hulls) for _, hulls, _ in groups])
    src = np.concatenate([edges[0] + f for (_, _, edges), f in zip(groups, first)])
    dst = np.concatenate([edges[1] + f for (_, _, edges), f in zip(groups, first)])
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(V).max(axis=(1, 2)), first))
    degree = np.bincount(src, minlength=len(X))
    edge_group = group[src]
    live = np.bincount(edge_group, minlength=len(groups)) > 0
    for _ in range(max_sweeps):
        rows = np.flatnonzero(live[group] & (degree > 0))
        if not rows.size:
            break
        edges = live[edge_group]
        sums = np.column_stack([
            np.bincount(src[edges], X[dst[edges], k], len(X)) for k in range(X.shape[1])
        ])
        projected = convex_project(sums[rows] / degree[rows, None], V[rows])[0]
        new = (1.0 - _RELAXATION) * X[rows] + _RELAXATION * projected
        move = np.zeros(len(groups))
        np.maximum.at(move, group[rows], np.linalg.norm(new - X[rows], axis=1))
        X[rows] = new
        live &= move > _SWEEP_STOP * scale

    residual = np.maximum.reduceat(convex_distance(X, V), first)
    g = int(np.argmax(residual > tol))  # the first group above tol, if any
    if residual[g] > tol:
        raise ConstructionError(
            f"selection escaped its value set by {residual[g]:.3e} at atom {groups[g][0]}"
        )
    splits = np.cumsum([len(starts) * len(section) for _, section, *_, starts in blocks])[:-1]
    return [x.reshape(starts.shape)
            for x, (*_, starts) in zip(np.split(X, splits), blocks)], residual


def grid_select(
    phi: Corr,
    t: int,
    tol: float,
    nodes=None,
    init: dict | None = None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> AtomSelection:
    """Select one point per node of phi(t, .) on its nonempty section (or
    the given nodes), minimizing the sum of squared adjacent differences
    by damped Jacobi sweeps from init (default: each hull's barycenter):
    the one-group case of the sweep caratheodory_select runs for all its
    atoms and restarts.  The output is deterministic; the returned
    modulus is the achieved per-adjacent-pair Lipschitz ratio."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    section = phi.t_section(t) if nodes is None else sorted(nodes)
    hulls, edges = _atom_block(phi, t, section)
    if not section:
        return AtomSelection({}, 0.0, 0.0)
    init = init or {}
    x = np.array([np.asarray(init[z], dtype=float) if z in init else h.vertices.mean(axis=0)
                  for z, h in zip(section, hulls)])
    (solved,), residual = _sweep([(t, section, hulls, edges, x[None])], tol, max_sweeps)
    return AtomSelection(dict(zip(section, solved[0])), _modulus(solved[0], edges),
                         float(residual[0]))


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

    Pipeline: glue the witness into the sub-correspondence, then solve
    every atom in one sweep loop (see grid_select): from the barycenters
    only (closed-valued branch), or also from restarts - 1 random
    feasible starts per atom, whose pushed results the halving series
    combines with the barycentric one (general branch).  The certificate is
    independent of the branch: direct membership of every selected point
    in the hull of psi's value within tol, the achieved modulus, and
    cell-wise measurability whenever the inputs are cell-wise constant.
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if restarts < 1:
        raise DomainError("restarts must be a positive integer")
    weights = _halving_weights(restarts, k_max)
    phi_res = construct_phi(psi, w, part, eps=eps, atomic=atomic)
    phi = phi_res.phi
    u_psi = domain(psi)

    rng = np.random.default_rng(seed)
    atom_seeds = rng.integers(0, 2 ** 31 - 1, size=len(psi.space))
    blocks = []
    for t in range(len(psi.space)):
        section = phi.t_section(t)
        if not section:
            continue
        hulls, edges = _atom_block(phi, t, section)
        starts = [[h.vertices.mean(axis=0) for h in hulls]]
        arng = np.random.default_rng(int(atom_seeds[part.cell_of(t)[0]]))
        for _ in range(0 if closed_valued else restarts - 1):
            wts = [arng.exponential(size=len(h.vertices)) for h in hulls]
            starts.append([h.vertices.T @ (u / u.sum()) for h, u in zip(hulls, wts)])
        blocks.append((t, section, hulls, edges, np.array(starts)))
    solved = _sweep(blocks, tol, DEFAULT_MAX_SWEEPS)[0] if blocks else []

    values = {}
    modulus = 0.0
    for (t, section, _, edges, _), x in zip(blocks, solved):
        if closed_valued:
            x = x[0]
        else:  # the series over the base and the restarts pushed from it
            diff = x - x[0]
            pushed = x[0] + diff / np.maximum(1.0, np.linalg.norm(diff, axis=2))[..., None]
            x = np.tensordot(weights, pushed, axes=1)
        modulus = max(modulus, _modulus(x, edges))
        values.update({(t, z): v for z, v in zip(section, x)})

    checks = CheckSet()
    checks.extend(phi_res.certificate)

    nodes = sorted(u_psi)
    for (t, z) in nodes:
        if (t, z) not in values:
            raise ConstructionError(f"no selected value at (t={t}, z={z})")
    worst = 0.0
    if nodes:
        V = _pack_hulls([ConvexSet.from_point_set(psi.value(t, z)) for t, z in nodes])
        res = convex_distance(np.array([values[key] for key in nodes]), V)
        worst_node = nodes[int(res.argmax())]
        worst = float(res.max())
    checks.add("selection-membership", worst, tol,
               "selected point inside the hull of the original value at every domain node")
    if worst > tol:
        raise ConstructionError(
            f"membership certification failed at (t={worst_node[0]}, z={worst_node[1]}): "
            f"residual {worst:.3e} > tol {tol:g}"
        )

    measurable_inputs = _inputs_cell_constant(psi, w, part)
    if measurable_inputs:
        gap = 0.0
        for cell in part.cells:
            for z in range(len(psi.grid)):
                present = [t for t in cell if (t, z) in values]
                for t in present[1:]:
                    gap = max(gap, float(np.linalg.norm(values[(t, z)] - values[(present[0], z)])))
        checks.add("selection-measurability", gap, SET_EQUALITY_TOL,
                   "cell-wise constant selection under cell-wise constant inputs")
    else:
        checks.add("selection-measurability", 0.0, 0.0,
                   "trivially measurable (finest partition)")

    return Selection(u_psi, values, modulus, worst, checks)


def _inputs_cell_constant(psi: Corr, w: CipWitness, part: InfoPartition) -> bool:
    if part.is_finest:
        return False
    for z in range(len(psi.grid)):
        if not lower_measurable_check(psi, part, z):
            return False
    for f, _ in w.distinct_locals():
        for z in range(len(psi.grid)):
            if not lower_measurable_check(f, part, z):
                return False
    for cell in part.cells:
        for z in range(len(psi.grid)):
            rs = {w.radii.get((t, z)) for t in cell}
            if len(rs) > 1:
                return False
    return True


def glue(
    psi: Corr,
    sel: Selection,
    fallback: Corr,
    part: InfoPartition = None,
    eps: float = None,
) -> GlueResult:
    """Replace psi by the singleton selection on its domain and by the
    fallback elsewhere, and run the preservation checks: wherever the
    fallback (together with the selection, for measurability) passes a
    semicontinuity or cell-constancy check, the glued table must pass it
    too."""
    if sel.domain != domain(psi):
        raise DomainError("selection domain differs from the correspondence domain")
    if eps is None:
        eps = psi.grid.adjacency_radius
    if part is None:
        part = InfoPartition.finest(psi.space)
    on = psi.counts > 0
    off = np.argwhere(~on & (fallback.counts == 0))
    if len(off):
        t, z = off[0]
        raise DomainError(f"fallback is empty off the domain at (t={t}, z={z})")
    # one singleton row per domain cell, in (t, z) order, after the fallback's points
    bounds = np.array(fallback.bounds)
    bounds[on] = len(fallback.points) + _segments(np.ones(np.count_nonzero(on), dtype=int))
    single = [sel.value(t, z) for t, z in np.argwhere(on).tolist()]
    glued = Corr(psi.space, psi.grid, psi.dim,
                 np.concatenate([fallback.points, np.reshape(single, (-1, psi.dim))]), bounds)

    checks = CheckSet()
    broken_usc = broken_lsc = 0
    for t in range(len(psi.space)):
        if usc_check(fallback, t, eps).ok and not usc_check(glued, t, eps).ok:
            broken_usc += 1
        if lsc_check(fallback, t, eps).ok and not lsc_check(glued, t, eps).ok:
            broken_lsc += 1
    checks.add("glue-usc-preserved", broken_usc, 0,
               "atoms where the fallback is u.s.c. but the glued table is not")
    checks.add("glue-lsc-preserved", broken_lsc, 0,
               "atoms where the fallback is l.s.c. but the glued table is not")

    broken_meas = 0
    for z in range(len(psi.grid)):
        if not lower_measurable_check(fallback, part, z):
            continue
        if not _selection_cell_constant(sel, part, z):
            continue
        if not lower_measurable_check(glued, part, z):
            broken_meas += 1
    checks.add("glue-measurability-preserved", broken_meas, 0,
               "nodes where cell-constant inputs fail to glue to a cell-constant table")
    return GlueResult(glued, checks)


def _selection_cell_constant(sel: Selection, part: InfoPartition, z: int) -> bool:
    """Selection values (and their presence pattern) constant per cell."""
    for cell in part.cells:
        present = [t for t in cell if (t, z) in sel.domain]
        if present and len(present) != len(cell):
            return False
        for t in present[1:]:
            if np.linalg.norm(sel.value(t, z) - sel.value(present[0], z)) > SET_EQUALITY_TOL:
                return False
    return True

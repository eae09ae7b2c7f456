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

from . import runtime
from .corr import (
    CipWitness,
    Corr,
    SET_EQUALITY_TOL,
    _inclusion_residual,
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
    PointSet,
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
            phi = Corr(psi.space, psi.grid, psi.dim, phi.values)
    else:
        phi = pool_captured(psi, w)

    cert = CheckSet()
    u_psi = domain(psi)

    worst_inclusion = 0.0
    for (t, z) in sorted(u_psi):
        worst_inclusion = max(
            worst_inclusion, _inclusion_residual(phi.value(t, z), psi.value(t, z))
        )
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


def grid_select(
    phi: Corr,
    t: int,
    tol: float,
    nodes=None,
    init: dict | None = None,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    relaxation: float = 0.7,
) -> AtomSelection:
    """Select one point per node of phi(t, .) on its nonempty section,
    minimizing the sum of squared adjacent differences by damped Jacobi
    sweeps of project-onto-value steps.  Every step combines feasible
    points, so iterates stay feasible; the output is deterministic and
    the returned modulus is the achieved per-adjacent-pair Lipschitz
    ratio."""
    if tol <= 0:
        raise DomainError("tol must be positive")
    section = phi.t_section(t) if nodes is None else sorted(nodes)
    hulls = {}
    for z in section:
        v = phi.value(t, z)
        if v.is_empty:
            raise ConstructionError(
                f"inconsistent domain: empty value at node {z} of atom {t}"
            )
        hulls[z] = ConvexSet.from_point_set(v)
    if not section:
        return AtomSelection({}, 0.0, 0.0)

    n = len(section)
    pos = {z: k for k, z in enumerate(section)}
    V = _pack_hulls([hulls[z] for z in section])
    x = np.empty((n, phi.dim))
    for k, z in enumerate(section):
        if init is not None and z in init:
            x[k] = np.asarray(init[z], dtype=float)
        else:
            x[k] = hulls[z].vertices.mean(axis=0)

    in_section = set(section)
    nbr_rows, nbr_cols = [], []
    for z in section:
        for j in phi.grid.neighbors(z):
            if j in in_section:
                nbr_rows.append(pos[z])
                nbr_cols.append(pos[j])
    weights = np.zeros((n, n))
    if nbr_rows:
        weights[nbr_rows, nbr_cols] = 1.0
        degree = weights.sum(axis=1)
        moving = np.flatnonzero(degree > 0)
        weights[moving] /= degree[moving, None]
    else:
        moving = np.zeros(0, dtype=int)
    V_moving = V[moving]

    scale = max(1.0, max(float(np.abs(h.vertices).max()) for h in hulls.values()))
    for _ in range(max_sweeps):
        target = (weights @ x)[moving]
        projected = convex_project(target, V_moving)[0]
        new = (1.0 - relaxation) * x[moving] + relaxation * projected
        move = float(np.linalg.norm(new - x[moving], axis=1).max(initial=0.0))
        x[moving] = new
        if move <= _SWEEP_STOP * scale:
            break

    values = {z: x[k].copy() for k, z in enumerate(section)}
    modulus = 0.0
    if nbr_rows:
        diffs = np.linalg.norm(x[nbr_rows] - x[nbr_cols], axis=1)
        dists = np.array([
            phi.grid.metric[section[r], section[c]] for r, c in zip(nbr_rows, nbr_cols)
        ])
        positive = dists > 0
        if positive.any():
            modulus = float((diffs[positive] / dists[positive]).max())

    residual = float(convex_distance(x, V).max())
    if residual > tol:
        raise ConstructionError(
            f"selection escaped its value set by {residual:.3e} at atom {t}"
        )
    return AtomSelection(values, modulus, residual)


def interior_series(b: ConvexSet, dense, k_max: int) -> np.ndarray:
    """Geometric series reaching a non-support point of b from a point
    list covering it: each term pushes the base point toward (and one
    unit past, when far) a cover point, weights halve, and the truncated
    tail mass is assigned to the first term.  Truncation error is at most
    2^-k_max times the diameter scale of b."""
    if k_max < 1:
        raise DomainError("k_max must be a positive integer")
    pts = [np.asarray(p, dtype=float).reshape(-1) for p in dense]
    if len(pts) < 2:
        raise PreconditionError("the dense list needs at least two points")
    if any(p.shape[0] != b.dim for p in pts):
        raise DomainError("dense points must match the ambient dim")
    if convex_distance(np.array(pts), b).max() > SET_EQUALITY_TOL:
        raise PreconditionError("dense point outside the set")

    y1 = pts[0]
    total = np.zeros(b.dim)
    for i in range(1, k_max + 1):
        yi = pts[(i - 1) % len(pts)]
        diff = yi - y1
        zi = yi + diff / max(1.0, float(np.linalg.norm(diff)))
        total += 0.5 ** i * zi
    total += 0.5 ** k_max * y1  # tail mass on the first term (z_1 = y_1)
    return total


def _series_combine(base: np.ndarray, others: list[np.ndarray], k_max: int) -> np.ndarray:
    """Halving-weight combination of pushed selections with the base as
    first term and the tail mass on it."""
    count = len(others) + 1
    total = np.zeros_like(base)
    for k in range(1, k_max + 1):
        idx = (k - 1) % count
        if idx == 0:
            pushed = base
        else:
            diff = others[idx - 1] - base
            pushed = base + diff / max(1.0, float(np.linalg.norm(diff)))
        total += 0.5 ** k * pushed
    total += 0.5 ** k_max * base
    return total


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
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> Selection:
    """Produce a certified selection through psi on its domain.

    Pipeline: glue the witness into the sub-correspondence, then either
    select once per atom (closed-valued branch) or combine a finite
    family of perturbed energy-minimal selections through the halving
    series (general branch).  The certificate is independent of the
    branch: direct membership of every selected point in the hull of
    psi's value within tol, the achieved modulus, and cell-wise
    measurability whenever the inputs are cell-wise constant.
    """
    phi_res = construct_phi(psi, w, part, eps=eps, atomic=atomic)
    phi = phi_res.phi
    u_psi = domain(psi)

    atoms = list(range(len(psi.space)))
    rng = np.random.default_rng(seed)
    atom_seeds = rng.integers(0, 2 ** 31 - 1, size=len(atoms))

    def solve_atom(t: int) -> AtomSelection:
        base = grid_select(phi, t, tol, max_sweeps=max_sweeps)
        if closed_valued or not base.values:
            return base
        arng = np.random.default_rng(int(atom_seeds[t]))
        section = sorted(base.values)
        family: list[dict] = []
        for _ in range(max(0, restarts - 1)):
            init = {}
            for z in section:
                verts = phi.value(t, z).points
                wts = arng.exponential(size=len(verts))
                wts /= wts.sum()
                init[z] = verts.T @ wts
            family.append(
                grid_select(phi, t, tol, init=init, max_sweeps=max_sweeps).values
            )
        values = {}
        for z in section:
            values[z] = _series_combine(base.values[z], [f[z] for f in family], k_max)
        modulus = 0.0
        for z in section:
            for j in phi.grid.neighbors(z):
                if j in values:
                    d = phi.grid.metric[z, j]
                    if d > 0:
                        modulus = max(
                            modulus, float(np.linalg.norm(values[z] - values[j])) / d
                        )
        return AtomSelection(values, modulus, base.residual)

    solved = runtime.atom_map(solve_atom, atoms)

    values = {}
    modulus = 0.0
    for t, sel in zip(atoms, solved):
        modulus = max(modulus, sel.modulus)
        for z, v in sel.values.items():
            values[(t, z)] = v

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
    for t in range(len(psi.space)):
        for z in range(len(psi.grid)):
            if (t, z) not in sel.domain and fallback.value(t, z).is_empty:
                raise DomainError(f"fallback is empty off the domain at (t={t}, z={z})")

    def build(t: int, z: int) -> PointSet:
        if (t, z) in sel.domain:
            return PointSet(psi.dim, sel.value(t, z).reshape(1, -1))
        return fallback.value(t, z)

    glued = Corr.from_function(psi.space, psi.grid, psi.dim, build)

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

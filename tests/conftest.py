"""Shared fixtures: the jump-discontinuity correspondence, small
builder helpers and the reference oracles used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from carasel import AtomSpace, CipWitness, Corr, DomainError, GridSpace, PointSet
from carasel.corr import _ball_radii, _packed_gaps, _stacked
from carasel.setops import DEDUP_TOL, _cross_dists, _solve_blocks


def jump_problem():
    """The 1-d jump table: value [0,1] (11 samples) at the node x=0,
    {0} everywhere else; 4 atoms; 21 nodes on [-1, 1]."""
    space = AtomSpace(("t1", "t2", "t3", "t4"), [0.25] * 4)
    grid = GridSpace(np.linspace(-1.0, 1.0, 21).reshape(-1, 1), mesh=0.1)
    seg = PointSet.of(1, np.linspace(0.0, 1.0, 11).reshape(-1, 1))
    zero = PointSet.of(1, [[0.0]])
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: seg if abs(grid.points[z, 0]) < 1e-12 else zero,
    )
    return space, grid, psi


def jump_witness(space, grid):
    """Shared constant witness {0} with balls covering the whole grid."""
    zero = PointSet.of(1, [[0.0]])
    f = Corr.constant(space, grid, zero)
    radii = {(t, z): 2.5 for t in range(len(space)) for z in range(len(grid))}
    return CipWitness.shared(grid, f, radii)


@pytest.fixture
def jump():
    space, grid, psi = jump_problem()
    return space, grid, psi, jump_witness(space, grid)


def line_grid(n: int, lo: float = 0.0, hi: float = 1.0) -> GridSpace:
    return GridSpace(np.linspace(lo, hi, n).reshape(-1, 1))


def single_atom() -> AtomSpace:
    return AtomSpace(("w",), [1.0])


def same_set(a: PointSet, b: PointSet, tol: float = DEDUP_TOL) -> bool:
    """Set equality within tol (both empty, or mutual containment), the
    per-pair comparison the packed cell-wise checks replaced."""
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty
    d = _cross_dists(a.points, b.points)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max())) <= tol


def dense_metric(grid: GridSpace) -> np.ndarray:
    """The whole (n, n) metric of grid, read through grid.distances: a
    reference for tests, which no package code builds."""
    nodes = np.arange(len(grid))
    return grid.distances(nodes, nodes)


def capture_matrix(psi: Corr, w: CipWitness) -> np.ndarray:
    """Boolean (atoms, nodes, nodes) stack M[t, x, z]: witness node z has
    a nonempty value of psi at atom t and its ball reaches x, d(x, z) <
    r(t, z), filled in row blocks of the metric (x the row).  Raises as
    corr._ball_radii.  The dense ball stack scip_verify's countable and
    indexed checks once compared cell by cell, kept as their reference."""
    radii = _ball_radii(psi, w)
    nodes = np.arange(len(psi.grid))
    caps = np.empty((len(radii), len(nodes), len(nodes)), dtype=bool)
    for lo, block in psi.grid._row_blocks(nodes, nodes):
        np.less(block, radii[:, None, :], out=caps[:, lo:lo + len(block)])
    return caps


def all_pairs_hull_modulus(psi: Corr, w: CipWitness, groups: list) -> float:
    """scip_verify's indexed-mode hull modulus over every adjacent node
    pair at a positive distance and every (t, x) cell, shared locals
    included, from one (2, pairs, atoms * nodes) block of row indices:
    the all-pairs form corr._hull_modulus had before it measured each
    distinct pair of locals once, kept as its reference."""
    pi, pj = (p[:len(p) // 2] for p in psi.grid.directed_pair_arrays())
    group = np.full(len(psi.grid), -1)
    for g, (_, zs) in enumerate(groups):
        group[zs] = g
    ends = np.column_stack([pi, pj]).ravel()
    for z in ends[group[ends] < 0][:1]:
        w.local(int(z))  # raises for the first node without a local, in pair order
    d = psi.grid.pair_distances()[:len(pi)]
    cells = psi.counts.size
    rows = group[np.stack([pi, pj])[:, d > 0]][..., None] * cells + np.arange(cells)
    points, bounds = _stacked([f for f, _ in groups])
    gaps = _packed_gaps(points, bounds.reshape(-1, 2), rows[0].ravel(), rows[1].ravel())
    ratio = gaps.max(axis=0) / np.repeat(d[d > 0], cells)
    return float(ratio[~np.isnan(ratio)].max(initial=0.0))


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


def hausdorff_by_bisection(a: PointSet, b: PointSet) -> float:
    """The Hausdorff distance by an independent route: the infimum of eps
    with mutual inclusion in the open eps-neighborhoods, located by
    bisection."""
    lo, hi = 0.0, 1.0
    while not (eps_neighborhood_contains(a, b, hi) and eps_neighborhood_contains(b, a, hi)):
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if eps_neighborhood_contains(a, b, mid) and eps_neighborhood_contains(b, a, mid):
            hi = mid
        else:
            lo = mid
    return hi


def fixed_points_per_atom(table: np.ndarray, points: np.ndarray, faces: list,
                          tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The per-atom fixed-point solve random_fixed_point made before it
    batched the atoms, as an oracle.  Per atom t, over the displacements
    table[t] - points: each face size's KKT blocks solved together, the
    faces with nonsingular blocks and nonnegative weights kept in (size,
    face) order, and of their points the one within tol nearest the
    barycenter of points (first on ties), else the least residual.
    (values, residuals, singular blocks met), values (atoms, dim)."""
    bary = points.mean(axis=0)
    values, residuals, n_singular = [], [], 0
    for t in range(len(table)):
        disp = table[t] - points
        xs, res = [], []
        for f in faces:
            g, k = disp[f], f.shape[1]
            K = np.ones((len(f), k + 1, k + 1))
            K[:, :k, :k] = g @ g.transpose(0, 2, 1)
            K[:, k, k] = 0.0
            lam, singular = _solve_blocks(K, np.eye(k + 1)[k])
            n_singular += int(singular.sum())
            keep = ~singular & (lam >= 0).all(axis=1)
            lam = lam[keep] / lam[keep].sum(axis=1, keepdims=True)
            xs.append(np.einsum("fk,fkd->fd", lam, points[f[keep]]))
            res.append(np.linalg.norm(np.einsum("fk,fkd->fd", lam, g[keep]), axis=1))
        x, r = np.concatenate(xs), np.concatenate(res)
        key = np.where(r <= tol, np.linalg.norm(x - bary, axis=1), np.inf)
        best = int((key if (r <= tol).any() else r).argmin())
        values.append(x[best])
        residuals.append(r[best])
    return np.array(values), np.array(residuals), n_singular

"""Random instance generators with analytically known guarantees.

Each generated inclusion-property instance carries the eps at which its
witness is guaranteed to pass the discrete l.s.c. checks, derived from
the Lipschitz constants the generator itself chose, so certificates are
checked against a bound known in advance rather than tuned afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from carasel import (
    AtomSpace,
    CipWitness,
    Corr,
    GridSpace,
    InfoPartition,
    PointSet,
)


def domain(psi: Corr) -> frozenset:
    """U = {(t, z) : psi(t, z) nonempty}, as (atom, node) index pairs."""
    return frozenset(map(tuple, np.argwhere(psi.counts).tolist()))


@dataclass
class CipInstance:
    psi: Corr
    witness: CipWitness
    part: InfoPartition
    eps: float
    style: str


def _random_partition(rng, n_atoms: int, space: AtomSpace) -> InfoPartition:
    choice = rng.integers(3)
    if choice == 0:
        return InfoPartition.finest(space)
    if choice == 1:
        return InfoPartition.trivial(space)
    split = int(rng.integers(1, n_atoms))
    return InfoPartition(space, (tuple(range(split)), tuple(range(split, n_atoms))))


def _random_cloud(rng, dim: int) -> np.ndarray:
    if rng.random() < 0.5:
        # box corners plus center: full-dimensional with an interior sample
        corners = np.array(list(np.ndindex(*(2,) * dim)), dtype=float)
        cloud = np.vstack([corners, corners.mean(axis=0, keepdims=True)])
        return 0.2 + 0.6 * cloud * rng.uniform(0.3, 1.0)
    k = int(rng.integers(3, 7))
    return rng.uniform(0.1, 0.9, size=(k, dim))


def random_cip_instance(rng: np.random.Generator) -> CipInstance:
    """A correspondence with a witness that provably satisfies the
    inclusion property, in one of three styles: the table as its own
    witness (canonical), one shared singleton sub-value, or node-indexed
    singleton sub-values drifting slowly across witness nodes."""
    dim = int(rng.integers(1, 4))
    n_nodes = int(rng.integers(5, 26))
    n_atoms = 3
    grid = GridSpace(np.linspace(0.0, 1.0, n_nodes).reshape(-1, 1))
    space = AtomSpace(tuple(f"a{k}" for k in range(n_atoms)),
                      rng.uniform(0.2, 1.0, size=n_atoms))
    part = _random_partition(rng, n_atoms, space)
    style = ("canonical", "singleton", "moving")[int(rng.integers(3))]

    cell_of = [part.cell_id(t) for t in range(n_atoms)]
    n_cells = len(part.cells)
    clouds = [_random_cloud(rng, dim) for _ in range(n_cells)]
    drifts = [rng.uniform(-1.0, 1.0, size=dim) * 0.2 for _ in range(n_cells)]
    l_x = max(float(np.linalg.norm(d)) for d in drifts)
    diam_cloud = max(
        float(np.linalg.norm(c[i] - c[j]))
        for c in clouds for i in range(len(c)) for j in range(len(c))
    ) if max(len(c) for c in clouds) > 1 else 0.0

    # optional per-cell empty suffix of nodes
    empty_from = []
    for _ in range(n_cells):
        if rng.random() < 0.3 and n_nodes >= 8:
            empty_from.append(int(rng.integers(n_nodes - 3, n_nodes)))
        else:
            empty_from.append(n_nodes)

    def psi_value(t: int, z: int) -> PointSet:
        c = cell_of[t]
        if z >= empty_from[c]:
            return PointSet.empty(dim)
        pts = clouds[c] + drifts[c] * grid.points[z, 0]
        return PointSet.of(dim, pts)

    psi = Corr.from_function(space, grid, dim, psi_value)

    # radii: positive, cell-constant, never reaching an empty node
    radii = {}
    r_max = 0.0
    for t in range(n_atoms):
        c = cell_of[t]
        for z in range(empty_from[c]):
            if empty_from[c] < n_nodes:
                gap_to_empty = float(grid.distances([z], np.arange(empty_from[c], n_nodes)).min())
            else:
                gap_to_empty = np.inf
            r = min(float(rng.uniform(0.6, 3.0)) * grid.mesh, gap_to_empty)
            # keep radii cell-constant by keying the draw on the cell
            radii[(t, z)] = r if t == part.cells[c][0] else radii[(part.cells[c][0], z)]
            r_max = max(r_max, radii[(t, z)])

    if style == "canonical":
        witness = CipWitness.shared(grid, psi, radii)
        eps = l_x * grid.adjacency_radius + 1e-6
    elif style == "singleton":
        weights = {c: _simplex_weights(rng, len(clouds[c])) for c in range(n_cells)}

        def g_value(t: int, z: int) -> PointSet:
            v = psi_value(t, z)
            if v.is_empty:
                return v
            lam = weights[cell_of[t]]
            return PointSet.of(dim, (v.points.T @ lam).reshape(1, dim))

        g = Corr.from_function(space, grid, dim, g_value)
        witness = CipWitness.shared(grid, g, radii)
        eps = l_x * grid.adjacency_radius + 1e-6
    else:
        l_z = 0.3
        mode = "countable" if rng.random() < 0.5 else "indexed"

        def local_for(zw: int) -> Corr:
            s = 0.2 + 0.6 * (0.5 + 0.5 * np.sin(l_z * zw * grid.mesh * 2 * np.pi))

            def value(t: int, z: int) -> PointSet:
                v = psi_value(t, z)
                if v.is_empty:
                    return v
                p0, p1 = v.points[0], v.points[min(1, len(v.points) - 1)]
                return PointSet.of(dim, ((1 - s) * p0 + s * p1).reshape(1, dim))

            return Corr.from_function(space, grid, dim, value)

        locs = {z: local_for(z) for z in range(n_nodes)}
        box = (np.full(dim, -10.0), np.full(dim, 10.0)) if mode == "indexed" else None
        witness = CipWitness(mode, locs, radii, box)
        # J-pooled values mix witness nodes within each ball: own-node
        # motion plus the drift of the blend weight across the ball
        eps = l_x * grid.adjacency_radius + \
            diam_cloud * l_z * 2 * np.pi * (r_max + grid.adjacency_radius) + 1e-6
    return CipInstance(psi, witness, part, float(eps), style)


def _simplex_weights(rng, k: int) -> np.ndarray:
    w = rng.exponential(size=k)
    return w / w.sum()


def random_point_set(rng: np.random.Generator, dim: int, max_pts: int = 6) -> PointSet:
    k = int(rng.integers(1, max_pts + 1))
    return PointSet.of(dim, rng.uniform(-5.0, 5.0, size=(k, dim)))

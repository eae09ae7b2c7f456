"""Gluing, grid selection, interior series, certified selection, glue."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from carasel import (
    AtomSpace,
    CipWitness,
    ConstructionError,
    Corr,
    ConvexSet,
    DomainError,
    GridSpace,
    InfoPartition,
    PointSet,
    PreconditionError,
    canonical_witness,
    caratheodory_select,
    construct_phi,
    convex_distance,
    convex_membership,
    convex_project,
    glue,
    grid_select,
    interior_point_margin,
    interior_series,
    k_operator,
    lsc_check,
    pref_from_payoff,
    usc_check,
)

import carasel.corr
import carasel.grid
import carasel.selection
from carasel.grid import ADJ_TOL
from carasel.reporting import CheckSet
from carasel.selection import Selection
from carasel.selection import (
    DEFAULT_MAX_SWEEPS,
    _barycenters,
    _edges,
    _envelope,
    _head_map,
    _layout,
    _least_modulus,
    _modulus,
    _select_table,
)
from carasel.setops import _nearest_in_hulls, _padded_rows, _project_to_intervals
from conftest import dense_metric, jump_problem, line_grid, same_set, single_atom
from instances import domain, random_cip_instance
from test_corr import max_vertex_margin
from test_equilibria import _quadratic_game
from test_setops import pack_hulls


# ------------------------------------------------------------ construct_phi

def test_phi_jump_shared_collapses_to_constant(jump):
    space, grid, psi, witness = jump
    part = InfoPartition.finest(space)
    res = construct_phi(psi, witness, part, eps=0.1)
    for t in range(4):
        for z in range(21):
            assert np.allclose(res.phi.value(t, z).points, [[0.0]])
    names = {c.name: c for c in res.certificate}
    for key in ("phi-inclusion", "phi-domain-equality", "phi-lsc", "phi-measurability"):
        assert names[key].ok
    assert "vacuous" in names["phi-interiority"].detail
    assert names["phi-interiority"].ok


def test_phi_canonical_witness_reproduces_table():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(9)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[0.0], [grid.points[z, 0]]]),
    )
    res = construct_phi(psi, canonical_witness(psi), part=InfoPartition.finest(space),
                        eps=2 * grid.mesh + 1e-9)
    assert res.certificate.ok
    assert domain(res.phi) == domain(psi)
    for (t, z) in domain(psi):
        assert same_set(res.phi.value(t, z), psi.value(t, z))


def test_phi_shared_local_on_psi_grid_is_reused():
    # the glued table is the witness's own table, so its gap cache from
    # the inclusion check carries over instead of being recomputed
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(9)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[0.0], [grid.points[z, 0]]]),
    )
    part = InfoPartition.finest(space)
    assert construct_phi(psi, canonical_witness(psi), part).phi is psi
    moved = Corr.from_function(space, line_grid(9), 1, psi.value)  # equal grid, other object
    res = construct_phi(psi, CipWitness.shared(grid, moved, canonical_witness(psi).radii), part)
    assert res.phi is not moved and res.phi.grid is grid


def test_phi_empty_domain_vacuous():
    space = single_atom()
    grid = line_grid(4)
    psi = Corr.constant(space, grid, PointSet.empty(1))
    witness = CipWitness.shared(grid, psi, {})
    res = construct_phi(psi, witness, InfoPartition.finest(space), eps=0.5)
    assert domain(res.phi) == frozenset()
    assert res.certificate.ok


def test_phi_interiority_reported_when_k_nonempty():
    space = single_atom()
    grid = line_grid(5)
    interval = PointSet.of(1, [[0.0], [0.5], [1.0]])
    psi = Corr.constant(space, grid, interval)
    res = construct_phi(psi, canonical_witness(psi), InfoPartition.finest(space), eps=0.1)
    names = {c.name: c for c in res.certificate}
    assert names["phi-interiority"].ok
    assert "vacuous" not in names["phi-interiority"].detail


# -------------------------------------------------------------- grid_select

def test_grid_select_forced_singletons():
    space = single_atom()
    grid = line_grid(7)
    c = PointSet.of(1, [[0.42]])
    phi = Corr.constant(space, grid, c)
    sel = grid_select(phi, 0, tol=1e-9)
    assert all(np.allclose(v, [0.42]) for v in sel.values.values())
    assert sel.modulus == pytest.approx(0.0)


def test_grid_select_sliding_intervals_members():
    space = single_atom()
    grid = line_grid(5)
    phi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(
            1, [[grid.points[z, 0]], [grid.points[z, 0] + 0.5], [grid.points[z, 0] + 1.0]]
        ),
    )
    sel = grid_select(phi, 0, tol=1e-9)
    for (_, z), v in sel.values.items():
        lo = grid.points[z, 0]
        assert lo - 1e-9 <= v[0] <= lo + 1.0 + 1e-9
    # brute-force feasibility oracle: fine enumeration finds no selection
    # with all values outside what the solve certifies (membership only)
    for z in range(5):
        candidates = np.linspace(grid.points[z, 0], grid.points[z, 0] + 1.0, 21)
        assert any(abs(sel.values[0, z][0] - c) <= 0.05 + 1e-9 for c in candidates)


def _neighbors(grid, z):
    """The nodes within the adjacency radius of node z, z excluded: the
    per-node adjacency list the references walk."""
    row = grid.distances([z], np.arange(len(grid)))[0]
    return [j for j in np.flatnonzero(row <= grid.adjacency_radius + ADJ_TOL) if j != z]


def _grid_select_reference(phi, t, init=None, max_sweeps=DEFAULT_MAX_SWEEPS, relaxation=0.7):
    """The per-node loop grid_select ran before it projected a whole sweep
    in one kernel call, kept as its reference: one convex_project per
    node with neighbours per sweep, one convex_distance per node for the
    residual.  Returns (values, modulus, residual)."""
    section = np.flatnonzero(phi.counts[t]).tolist()
    hulls = {z: ConvexSet(phi.dim, phi.value(t, z).points) for z in section}
    n = len(section)
    pos = {z: k for k, z in enumerate(section)}
    x = np.array([np.asarray(init[z], dtype=float) if init and z in init
                  else hulls[z].vertices.mean(axis=0) for z in section])
    pairs = [(pos[z], pos[j]) for z in section for j in _neighbors(phi.grid, z) if j in pos]
    weights = np.zeros((n, n))
    for r, c in pairs:
        weights[r, c] = 1.0
    degree = weights.sum(axis=1)
    has_nbrs = degree > 0
    weights[has_nbrs] /= degree[has_nbrs, None]
    scale = max(1.0, max(float(np.abs(h.vertices).max()) for h in hulls.values()))
    for _ in range(max_sweeps):
        target = weights @ x
        projected = x.copy()
        for z in section:
            if has_nbrs[pos[z]]:
                projected[pos[z]] = convex_project(target[pos[z]], hulls[z])[0]
        new = np.where(has_nbrs[:, None], (1.0 - relaxation) * x + relaxation * projected, x)
        move = float(np.linalg.norm(new - x, axis=1).max())
        x = new
        if move <= 1e-10 * scale:
            break
    metric = dense_metric(phi.grid)
    modulus = max((np.linalg.norm(x[r] - x[c]) / metric[section[r], section[c]]
                   for r, c in pairs), default=0.0)
    residual = max(convex_distance(x[pos[z]], hulls[z]) for z in section)
    return {z: x[pos[z]] for z in section}, modulus, residual


def _swept(phi, t, init, max_sweeps=DEFAULT_MAX_SWEEPS):
    """_sweep on atom t of phi, in dim 2 or more, from each hull's
    barycenter but at the nodes of init (node -> point), for at most
    max_sweeps sweeps: the one-atom solve from a given start.  Returns
    (values, modulus) as grid_select's fields."""
    on = np.zeros(phi.counts.shape, dtype=bool)
    on[t] = phi.counts[t] > 0
    segs, atom, node = _layout(phi, on)
    edges = _edges(phi.grid, on)
    x = _barycenters(phi.points, segs)[0]
    for z, v in init.items():
        x[node == z] = v
    x = carasel.selection._sweep(phi.points, segs, edges, atom, x, max_sweeps)
    return dict(zip(node.tolist(), x)), _modulus(x, edges)


def test_grid_select_matches_per_node_projection_reference():
    # grid_select from the barycenters; _sweep from a random start at atom 0
    rng = np.random.default_rng(8)
    per_dim = {2: 0, 3: 0}  # two instances in each of dims 2 and 3
    while min(per_dim.values()) < 2:
        psi = random_cip_instance(rng).psi
        if per_dim.get(psi.dim, 2) == 2:
            continue
        per_dim[psi.dim] += 1
        for t in range(len(psi.space)):
            section = np.flatnonzero(psi.counts[t]).tolist()
            init = None
            if t == 0:  # a random feasible start as caratheodory_select's restarts use
                init = {}
                for z in section:
                    wts = rng.exponential(size=len(psi.value(t, z)))
                    init[z] = psi.value(t, z).points.T @ (wts / wts.sum())
            values, modulus, residual = _grid_select_reference(psi, t, init=init)
            scale = max(1.0, max(float(np.abs(psi.value(t, z).points).max()) for z in section))
            if t == 0:
                got = _swept(psi, t, init)
            else:
                sel = grid_select(psi, t, tol=1e-7)
                got = sel.table[t], sel.modulus
                assert abs(sel.membership_residual - residual) <= 1e-12 * scale
            for z in section:
                assert np.abs(got[0][z] - values[z]).max() <= 1e-12 * scale
            assert abs(got[1] - modulus) <= 1e-12 * scale


def test_grid_select_sweeps_follow_the_damped_rate():
    space = single_atom()
    tri = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    phi = Corr.constant(space, line_grid(2), tri)
    start = {0: [0.0, 0.0], 1: [1.0, 0.0]}
    # two nodes pulled together: each moves 0.7 of their gap g toward the
    # other, so g shrinks by -0.4 per sweep
    done = _swept(phi, 0, start)[0]
    assert np.allclose(done[0], [0.5, 0.0]) and np.allclose(done[1], [0.5, 0.0])
    capped = _swept(phi, 0, start, max_sweeps=5)[0]
    gap = 0.4 ** 5  # node 0 ends at 0.5 + gap / 2 after five sweeps
    assert np.allclose(capped[0], [0.5 + gap / 2, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(capped[1], [0.5 - gap / 2, 0.0], rtol=0, atol=1e-12)
    empty = Corr.from_function(space, line_grid(2), 2, lambda t, z: PointSet.empty(2))
    assert grid_select(empty, 0, tol=1e-9).values == {}


@pytest.mark.parametrize("t, message", [
    (-1, "atom -1 is outside"),  # would solve the last atom
    (2, "atom 2 is outside"),
])
def test_grid_select_rejects_indices_outside_the_table(t, message):
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    phi = Corr.constant(space, line_grid(5), PointSet.of(1, [[0.0], [1.0]]))
    with pytest.raises(DomainError, match=message):
        grid_select(phi, t, tol=1e-9)


@pytest.mark.parametrize("tol", [0.0, -1e-7, float("nan")])
def test_grid_select_and_caratheodory_select_reject_a_nonpositive_tol(jump, tol):
    # a NaN tol compares false with every residual, so no check could
    # decide membership against it
    space, grid, psi, witness = jump
    with pytest.raises(DomainError, match="tol must be positive"):
        grid_select(psi, 0, tol=tol)
    with pytest.raises(DomainError, match="tol must be positive"):
        caratheodory_select(psi, witness, InfoPartition.finest(space), tol=tol)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_select_is_a_row_of_the_closed_valued_selection(dim, monkeypatch):
    # the one-atom solve is the pipelines' solve on atom t alone: its
    # values are row t of the closed-valued table bit for bit, and its
    # errors name atom t, not the first atom of the copy
    rng = np.random.default_rng(30 + dim)
    solved = 0
    while solved < 3:
        inst = random_cip_instance(rng)
        if inst.psi.dim != dim:
            continue
        sel = caratheodory_select(inst.psi, inst.witness, inst.part, closed_valued=True,
                                  eps=inst.eps)
        phi = construct_phi(inst.psi, inst.witness, inst.part, eps=inst.eps).phi
        for t in range(len(phi.space)):
            one = grid_select(phi, t, tol=1e-7)
            assert list(one.values) == [(t, z) for z in np.flatnonzero(phi.counts[t]).tolist()]
            assert all(v.tobytes() == sel.values[key].tobytes() for key, v in one.values.items())
            assert one.membership_residual <= 1e-7 and np.isfinite(one.modulus)
            assert [c.name for c in one.checks] == ["selection-membership"] and one.checks.ok
        solved += 1
    t = len(phi.space) - 1
    # a selected point off its hull fails the membership check
    if dim == 1:
        least = carasel.selection._least_modulus
        monkeypatch.setattr(carasel.selection, "_least_modulus",
                            lambda *args: (least(*args)[0] + 1e3,))
    else:
        project = carasel.setops._WarmProjector.project
        monkeypatch.setattr(carasel.setops._WarmProjector, "project",
                            lambda step, x, rows: project(step, x, rows) + 1e3)
    with pytest.raises(ConstructionError, match=rf"membership certification failed at \(t={t}, "):
        grid_select(phi, t, tol=1e-7)


# ---------------------------------------------------------- interior_series

def test_interior_series_reciprocal_dense_list():
    b = ConvexSet(1, [[0.0], [1.0]])
    dense = [[0.0], [1.0]] + [[0.5 ** k] for k in range(1, 60)]
    z = interior_series(b, dense, k_max=40)
    assert z[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_interior_series_all_equal_returns_the_point():
    b = ConvexSet(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z = interior_series(b, [[0.25, 0.25], [0.25, 0.25]], k_max=30)
    assert np.allclose(z, [0.25, 0.25])


def test_interior_series_square_vertices_strictly_inside():
    square = ConvexSet(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dense = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    z = interior_series(square, dense, k_max=50)
    assert interior_point_margin(z, square) > 0.0


def test_interior_series_truncation_error():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        verts = rng.uniform(-2, 2, size=(dim + 2, dim))
        b = ConvexSet(dim, verts)
        lam = rng.exponential(size=(6, len(b.vertices)))
        lam /= lam.sum(axis=1, keepdims=True)
        dense = lam @ b.vertices
        z40 = interior_series(b, dense, k_max=40)
        z80 = interior_series(b, dense, k_max=80)
        assert np.linalg.norm(z40 - z80) <= 1e-10


def test_interior_series_rejects_outside_point():
    b = ConvexSet(1, [[0.0], [1.0]])
    with pytest.raises(PreconditionError):
        interior_series(b, [[0.0], [2.0]], k_max=10)


# ------------------------------------------------------- caratheodory_select

def test_select_jump_is_zero_with_zero_modulus(jump):
    space, grid, psi, witness = jump
    part = InfoPartition.finest(space)
    sel = caratheodory_select(psi, witness, part)
    assert sel.membership_residual == 0.0
    assert sel.modulus == 0.0
    assert set(sel.values) == domain(psi)
    for (t, z) in sel.values:
        assert np.allclose(sel.values[t, z], [0.0])
    assert sel.checks.ok


def test_select_triangle_single_node():
    space = single_atom()
    grid = GridSpace(np.array([[0.0]]), mesh=1.0)
    tri = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    psi = Corr.constant(space, grid, tri)
    sel = caratheodory_select(psi, canonical_witness(psi), InfoPartition.finest(space))
    v = sel.values[0, 0]
    assert convex_membership(v, ConvexSet(tri.dim, tri.points), 1e-9)


def test_select_sliding_intervals_closed_branch():
    space = single_atom()
    grid = line_grid(5)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(
            1, [[grid.points[z, 0]], [grid.points[z, 0] + 0.5], [grid.points[z, 0] + 1.0]]
        ),
    )
    sel = caratheodory_select(psi, canonical_witness(psi),
                              InfoPartition.finest(space), closed_valued=True)
    for z in range(5):
        lo = grid.points[z, 0]
        assert lo - 1e-9 <= sel.values[0, z][0] <= lo + 1.0 + 1e-9


def test_select_series_branch_stays_inside():
    rng = np.random.default_rng(21)
    for _ in range(5):
        inst = random_cip_instance(rng)
        sel = caratheodory_select(inst.psi, inst.witness, inst.part,
                                  closed_valued=False, restarts=4, eps=inst.eps)
        assert sel.membership_residual <= 1e-7
        assert np.isfinite(sel.modulus)


def test_select_deterministic_given_seed():
    rng = np.random.default_rng(33)
    inst = random_cip_instance(rng)
    a = caratheodory_select(inst.psi, inst.witness, inst.part, seed=7, eps=inst.eps)
    b = caratheodory_select(inst.psi, inst.witness, inst.part, seed=7, eps=inst.eps)
    assert a.values.keys() == b.values.keys()
    for key in a.values:
        assert np.array_equal(a.values[key], b.values[key])


def test_select_measurability_under_coarse_partition():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(6)
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.2], [0.8]]))
    part = InfoPartition.trivial(space)
    sel = caratheodory_select(psi, canonical_witness(psi), part, closed_valued=True)
    names = {c.name: c for c in sel.checks}
    assert names["selection-measurability"].ok
    assert "trivially" not in names["selection-measurability"].detail
    for z in range(6):
        assert np.array_equal(sel.values[0, z], sel.values[1, z])


def test_series_selection_measurable_under_coarse_partitions():
    # atoms of one cell draw their restarts from the cell's first atom, and
    # in R^1 equal tables solve to equal values, so cell-constant inputs
    # give cell-constant selections
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(40):
        inst = random_cip_instance(rng)
        if inst.part.is_finest:
            continue
        sel = caratheodory_select(inst.psi, inst.witness, inst.part, eps=inst.eps)
        check = next(c for c in sel.checks if c.name == "selection-measurability")
        assert check.ok, (checked, check.residual)
        checked += 1
    assert checked == 27


def _caratheodory_reference(inst, closed_valued, k_max=40, restarts=8, seed=0):
    """caratheodory_select as it ran before one sweep took every atom and
    restart: a grid_select call per restart with the same draws, the
    halving series as a term-by-term loop, and the modulus as a loop over
    each node's neighbours.  Returns (values, modulus)."""
    phi = construct_phi(inst.psi, inst.witness, inst.part, eps=inst.eps).phi
    metric = dense_metric(phi.grid)
    atom_seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=len(phi.space))
    values, modulus = {}, 0.0
    for t in range(len(phi.space)):
        base = {z: v for (_, z), v in grid_select(phi, t, 1e-7).values.items()}
        family = []
        arng = np.random.default_rng(int(atom_seeds[inst.part.cell_of(t)[0]]))
        for _ in range(0 if closed_valued or not base else restarts - 1):
            init = {}
            for z in base:
                verts = phi.value(t, z).points
                wts = arng.exponential(size=len(verts))
                init[z] = verts.T @ (wts / wts.sum())
            family.append(base if phi.dim == 1 else _swept(phi, t, init)[0])
        for z in base:
            if closed_valued:
                values[(t, z)] = base[z]
                continue
            total = np.zeros_like(base[z])
            for k in range(1, k_max + 1):
                idx = (k - 1) % restarts
                pushed = base[z]
                if idx > 0:
                    diff = family[idx - 1][z] - base[z]
                    pushed = base[z] + diff / max(1.0, float(np.linalg.norm(diff)))
                total += 0.5 ** k * pushed
            values[(t, z)] = total + 0.5 ** k_max * base[z]
        for z in base:
            for j in _neighbors(phi.grid, z):
                if j in base and metric[z, j] > 0:
                    gap = np.linalg.norm(values[(t, z)] - values[(t, j)])
                    modulus = max(modulus, float(gap) / metric[z, j])
    return values, modulus


def test_caratheodory_select_matches_per_restart_reference():
    # in R^1 every restart of the reference lands on the least-modulus
    # table, and the halving series of equal tables is that table
    rng = np.random.default_rng(12)
    per_dim = {1: 0, 2: 0, 3: 0}  # two instances in each of dims 1-3
    while min(per_dim.values()) < 2:
        inst = random_cip_instance(rng)
        if per_dim[inst.psi.dim] == 2:
            continue
        per_dim[inst.psi.dim] += 1
        scale = max(1.0, max(float(np.abs(inst.psi.value(t, z).points).max())
                             for t, z in domain(inst.psi)))
        for closed_valued in (False, True):
            sel = caratheodory_select(inst.psi, inst.witness, inst.part,
                                      closed_valued=closed_valued, eps=inst.eps)
            values, modulus = _caratheodory_reference(inst, closed_valued)
            assert sel.values.keys() == values.keys()
            for key in values:
                assert np.abs(sel.values[key] - values[key]).max() <= 1e-12 * scale
            assert abs(sel.modulus - modulus) <= 1e-12 * scale


def _sweep_per_coordinate(points, segs, edges, atom, starts, max_sweeps):
    """selection._sweep as it was before its neighbour sums became one
    bincount and before it took the flat layout: the (atom, restart)
    groups stacked atom by atom, the live edges refiltered every sweep
    and one bincount per coordinate, projecting only the live rows with
    the same warm-started projection step.  Takes and returns what _sweep
    does."""
    sel = carasel.selection
    cells = len(segs)
    reps = len(starts) // cells
    blocks = [np.flatnonzero(atom == t) for t in np.unique(atom)]
    order = np.concatenate([r * cells + b for b in blocks for r in range(reps)])
    place = np.empty_like(order)
    place[order] = np.arange(len(order))  # each flat row's place in the stack
    sizes = [len(b) for b in blocks for _ in range(reps)]
    first = np.cumsum([0] + sizes)[:-1]
    group = np.repeat(np.arange(len(sizes)), sizes)
    shift = np.arange(reps)[:, None] * cells
    src, dst = place[(shift + edges[0]).ravel()], place[(shift + edges[1]).ravel()]
    V = points[_padded_rows(np.tile(segs, (reps, 1))[order])]
    X = starts[order]
    scale = np.maximum(1.0, np.maximum.reduceat(np.abs(V).max(axis=(1, 2)), first))
    degree = np.bincount(src, minlength=len(X))
    live = np.bincount(group[src], minlength=len(sizes)) > 0
    step = carasel.setops._WarmProjector(V)
    for _ in range(max_sweeps):
        rows = np.flatnonzero(live[group] & (degree > 0))
        if not rows.size:
            break
        edges = live[group[src]]
        sums = np.column_stack([
            np.bincount(src[edges], X[dst[edges], k], len(X)) for k in range(X.shape[1])
        ])
        projected = step.project(sums[rows] / degree[rows, None], rows)
        new = (1.0 - sel._RELAXATION) * X[rows] + sel._RELAXATION * projected
        move = np.zeros(len(sizes))
        np.maximum.at(move, group[rows], np.linalg.norm(new - X[rows], axis=1))
        X[rows] = new
        live &= move > sel._SWEEP_STOP * scale
    return X[place]


def test_sweep_matches_per_coordinate_reference(monkeypatch):
    # bincount adds each bin's weights in input order, so the one-bincount
    # sums, refiltered only after a group froze, give bit-identical values
    # (R^1 takes the least-modulus solve, not the sweep)
    rng = np.random.default_rng(21)
    instances = [inst for inst in (random_cip_instance(rng) for _ in range(12))
                 if inst.psi.dim > 1]
    selected = [caratheodory_select(inst.psi, inst.witness, inst.part, eps=inst.eps)
                for inst in instances]
    monkeypatch.setattr(carasel.selection, "_sweep", _sweep_per_coordinate)
    assert {inst.psi.dim for inst in instances} == {2, 3} and len(instances) == 7
    for inst, sel in zip(instances, selected):
        ref = caratheodory_select(inst.psi, inst.witness, inst.part, eps=inst.eps)
        assert sel.values.keys() == ref.values.keys()
        for key in ref.values:
            assert np.array_equal(sel.values[key], ref.values[key])


@pytest.mark.parametrize("cells", [((0,), (1,), (2,), (3,)), ((0, 2), (1, 3))])
def test_sweep_matches_per_coordinate_reference_on_preference_tables(cells, monkeypatch):
    # 1-D own strategies on a 9x9 joint grid, 4 atoms: the R^1 selection
    # is the least-modulus solve, so the reference sweep changes no bit
    g, part, _ = _quadratic_game(np.random.default_rng(len(cells)), 9, cells)
    prefs = [pref_from_payoff(g, i) for i in range(2)]
    assert {p.dim for p in prefs} == {1} and prefs[0].grid.dim == 2
    runs = [(p, canonical_witness(p), closed) for p in prefs for closed in (True, False)]
    selected = [caratheodory_select(p, w, part, closed_valued=closed) for p, w, closed in runs]
    monkeypatch.setattr(carasel.selection, "_sweep", _sweep_per_coordinate)
    for (p, w, closed), sel in zip(runs, selected):
        ref = caratheodory_select(p, w, part, closed_valued=closed)
        assert sel.values.keys() == ref.values.keys() and len(ref.values) > 0
        assert all(np.array_equal(sel.values[key], ref.values[key]) for key in ref.values)
        assert sel.membership_residual == ref.membership_residual
        assert sel.modulus == ref.modulus


def _staggered_layout(dim):
    """Two atoms of one hull on a 2-node line grid, each solved from three
    starts whose gaps (1, 1e-5, 1e-9) shrink by 0.4 per sweep, so the
    groups freeze at different sweeps: (points, segs, edges, atom, starts)."""
    # the unit simplex in 2-d; twice as wide in 3-d, so one sweep stays inside
    hull = np.vstack([np.zeros(dim), np.eye(dim) * (dim - 1)])
    phi = Corr.constant(AtomSpace(("a", "b"), [1.0, 1.0]), line_grid(2), PointSet.of(dim, hull))
    segs, atom, _ = _layout(phi, phi.counts > 0)
    edges = _edges(phi.grid, phi.counts > 0)
    centre = np.full(dim, 0.25)
    step = np.eye(dim)[0] / 2
    starts = np.array([[(centre + side * gap * step) * (1 + t) for t in range(2) for side in (-1, 1)]
                       for gap in (1.0, 1e-5, 1e-9)])
    return phi.points, segs, edges, atom, starts.reshape(-1, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_groups_freezing_at_different_sweeps_match_reference(dim, monkeypatch):
    layout = _staggered_layout(dim)
    sizes = []
    project = carasel.setops._WarmProjector.project
    monkeypatch.setattr(carasel.setops._WarmProjector, "project",
                        lambda step, x, rows: sizes.append(len(x)) or project(step, x, rows))
    for max_sweeps in (1, 3, DEFAULT_MAX_SWEEPS):
        sizes.clear()
        solved = carasel.selection._sweep(*layout, max_sweeps)
        assert len(sizes) <= max_sweeps
        if max_sweeps == DEFAULT_MAX_SWEEPS:
            # every sweep projects the same 12 rows; frozen groups are masked
            assert set(sizes) == {12} and len(sizes) < max_sweeps
        assert np.array_equal(solved, _sweep_per_coordinate(*layout, max_sweeps))


def _star_grid(n):
    """n nodes on a line under a user metric: node 0 at distance 1 from
    every other node, the others 2 apart, so only node 0 has more than
    one neighbour (degrees n - 1 and 1)."""
    metric = np.full((n, n), 2.0) - 2.0 * np.eye(n)
    metric[0, 1:] = metric[1:, 0] = 1.0
    grid = GridSpace(np.arange(float(n))[:, None], metric=metric, mesh=1.0, adjacency_radius=1.0)
    assert np.array_equal(np.bincount(grid.directed_pair_arrays()[0]), [n - 1] + [1] * (n - 1))
    return grid


def _random_layout(rng, grid, dim, restarts):
    """Two atoms of random 1-5 point values on grid, every cell nonempty,
    with restarts starts per cell (barycentric, then random feasible):
    (points, segs, edges, atom, starts) as _sweep takes them."""
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    values = [[PointSet.of(dim, rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), dim)))
               for _ in range(len(grid))] for _ in range(2)]
    phi = Corr.from_function(space, grid, dim, lambda t, z: values[t][z])
    segs, atom, _ = _layout(phi, phi.counts > 0)
    edges = _edges(phi.grid, phi.counts > 0)
    draws = rng.exponential(size=(restarts - 1, int((segs[:, 1] - segs[:, 0]).sum())))
    starts = _barycenters(phi.points, segs, draws).reshape(-1, dim)
    return phi.points, segs, edges, atom, starts


@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_matches_reference_on_uneven_degrees_and_without_edges(dim):
    # the neighbour table pads every column to node 0's degree, n - 1;
    # a grid whose adjacency radius joins no pair leaves it empty
    rng = np.random.default_rng(40 + dim)
    no_edges = GridSpace(np.arange(6.0)[:, None], adjacency_radius=0.5)
    assert len(no_edges.directed_pair_arrays()[0]) == 0
    for grid in (_star_grid(12), no_edges):
        layout = _random_layout(rng, grid, dim, 3)
        for max_sweeps in (1, DEFAULT_MAX_SWEEPS):
            solved = carasel.selection._sweep(*layout, max_sweeps)
            assert solved.tobytes() == _sweep_per_coordinate(*layout, max_sweeps).tobytes()
        if grid is no_edges:
            assert np.array_equal(solved, layout[-1])


def _least_modulus_of(phi):
    """_least_modulus on the whole domain of phi, with the segs and edges
    of its layout: (x, bound, segs, edges)."""
    on = phi.counts > 0
    segs, atom, node = _layout(phi, on)
    return (*_least_modulus(phi.points, segs, atom, node, phi.grid), segs, _edges(phi.grid, on))


def test_one_dimensional_sweep_takes_interval_ends_not_padded_rows(monkeypatch):
    # the R^1 solve reads each cell's interval once, as its two ends
    phi = _random_table(np.random.default_rng(3), 1, _star_grid(9))
    want = _least_modulus_of(phi)
    monkeypatch.setattr(carasel.selection, "_padded_rows",
                        lambda *_: pytest.fail("the R^1 solve padded its rows"))
    got = _least_modulus_of(phi)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got[:2], want[:2]))
    ends = [phi.points[a:b, 0] for a, b in got[2]]
    assert all(v.min() <= x <= v.max() for v, x in zip(ends, got[0][:, 0]))


def test_one_dimensional_sweep_makes_no_convex_project_call_per_sweep(monkeypatch):
    # the R^1 selection of a preference table is the least-modulus solve:
    # no projection at all, and every envelope ends at an exact fixed point
    g, _, _ = _quadratic_game(np.random.default_rng(5), 9, ((0,), (1,), (2,), (3,)))
    p = pref_from_payoff(g, 0)
    calls, relaxed = [], []
    for name in ("convex_project", "_nearest_in_hulls"):
        monkeypatch.setattr(carasel.setops, name, lambda *args, f=name: calls.append(f))
    monkeypatch.setattr(carasel.selection, "_sweep", lambda *_: pytest.fail("R^1 swept"))
    envelope = carasel.selection._envelope
    monkeypatch.setattr(carasel.selection, "_envelope", lambda *args, **kw: relaxed.append(
        (args, envelope(*args, **kw))) or relaxed[-1][1])
    table = _select_table(p, p, InfoPartition.finest(p.space), 1e-7)[0]
    x, bound, _, edges = _least_modulus_of(p)
    assert calls == [] and len(relaxed) == 4
    assert table[p.counts > 0].tobytes() == x.tobytes()
    assert _modulus(x, edges) == pytest.approx(bound.max(), rel=1e-12, abs=0.0)
    for (top, on, (nodes, near, _), step), (u,) in relaxed:
        assert (u <= top).all()
        # one more relaxation step changes no kept entry
        assert not (((u[near] + step).min(axis=0) < u[nodes]) & on).any()


@pytest.mark.parametrize("bad", [-1, 4])
def test_envelope_rejects_a_neighbour_outside_the_table(bad):
    # the relaxation takes candidates with mode "clip", so an entry
    # outside the block's rows [0, len(top)) must raise rather than read
    # an end row
    table = (np.arange(3), np.array([[1, 0, bad]]), np.ones((1, 3)))
    with pytest.raises(IndexError):
        _envelope(np.zeros((4, 2)), np.ones((3, 2), dtype=bool), table, np.ones((1, 3, 2)))


def test_least_modulus_reads_one_cached_neighbour_table(monkeypatch):
    # both players' R^1 selections on the shared joint grid build its
    # neighbour table once; the cached table is read-only and equals a
    # fresh build
    g, _, _ = _quadratic_game(np.random.default_rng(6), 9, ((0,), (1, 2)))
    prefs = [pref_from_payoff(g, i) for i in range(2)]
    grid = prefs[0].grid
    assert prefs[1].grid is grid
    builds, build = [], carasel.grid._neighbour_table
    monkeypatch.setattr(carasel.grid, "_neighbour_table",
                        lambda *args: builds.append(args) or build(*args))
    tables, envelope = [], carasel.selection._envelope
    monkeypatch.setattr(carasel.selection, "_envelope",
                        lambda top, on, table, *rest, **kw: tables.append(table)
                        or envelope(top, on, table, *rest, **kw))
    for p in prefs:
        _least_modulus_of(p)
    assert len(builds) == 1
    pi, pj = grid.directed_pair_arrays()
    nodes, (near, dist) = build(pi, len(grid), (pj, len(grid)), (dense_metric(grid)[pi, pj], 1.0))
    cached = grid.neighbour_table()
    assert all(a.tobytes() == b.tobytes() and not a.flags.writeable
               for a, b in zip(cached, (nodes, near, dist)))
    # every relaxation reads the grid's cached arrays themselves, no copy
    assert len(tables) >= 4
    assert all(got is want for table in tables for got, want in zip(table, cached, strict=True))


@st.composite
def _interval_tables(draw):
    """A small R^1 table: 2-7 distinct nodes of a 4 x 4 lattice at a drawn
    spacing and adjacency radius, 1-3 atoms, each cell holding 0-3 values
    in [-2, 2] (0: off the domain).  (points, radius, cells[t][z])."""
    nodes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=2, max_size=7, unique=True))
    spacing = draw(st.sampled_from([0.1, 1.0, 3.0]))
    radius = draw(st.sampled_from([1.0, 1.5, 2.5])) * spacing
    value = st.lists(st.floats(-2.0, 2.0), max_size=3)
    row = st.lists(value, min_size=len(nodes), max_size=len(nodes))
    return np.array(nodes) * spacing, radius, draw(st.lists(row, min_size=1, max_size=3))


def _least_modulus_oracle(psi, t):
    """The least modulus of any selection of atom t of the R^1 table psi:
    max(0, max over domain nodes j, k joined by a path of
    (lo_j - hi_k) / d_G(j, k)), d_G the all-pairs shortest paths over the
    adjacent domain pairs (scipy.sparse.csgraph)."""
    nodes = np.flatnonzero(psi.counts[t])
    lo = np.array([psi.value(t, z).points.min() for z in nodes])
    hi = np.array([psi.value(t, z).points.max() for z in nodes])
    d = dense_metric(psi.grid)[np.ix_(nodes, nodes)]
    adjacent = (d <= psi.grid.adjacency_radius + ADJ_TOL) & ~np.eye(len(nodes), dtype=bool)
    dist = shortest_path(csr_matrix(np.where(adjacent, d, 0.0)), directed=False)
    joined = np.isfinite(dist) & (dist > 0)
    return max(0.0, float(((lo[:, None] - hi[None, :])[joined] / dist[joined]).max(initial=0.0)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_interval_tables())
@example((np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 1.0, [[[1.0], [0.0, 1.0], [0.0]]]))
def test_least_modulus_matches_the_shortest_path_oracle(table):
    # the chain example has no adjacent bound (0) but a path bound of 1/2
    # through its middle node, so the Dinkelbach step must raise L
    points, radius, cells = table
    grid = GridSpace(points, adjacency_radius=radius)
    space = AtomSpace(tuple(f"w{t}" for t in range(len(cells) + 1)), [1.0] * (len(cells) + 1))
    cells = cells + cells[:1]  # the last atom repeats the first, in its information cell
    psi = Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(
        1, [[v] for v in cells[t][z]]) if cells[t][z] else PointSet.empty(1))
    if not psi.counts.any():
        return
    x, bound, segs, (src, dst, dist) = _least_modulus_of(psi)
    atom = np.nonzero(psi.counts)[0]
    lo, hi = carasel.setops._interval_ends(psi.points, segs)
    assert ((lo <= x[:, 0]) & (x[:, 0] <= hi)).all()
    # the modulus is read off rounded values: allow a few roundings of the
    # values' scale over the shortest edge besides the relative 1e-12
    floor = 8 * np.finfo(float).eps * np.abs(psi.points).max() / dist.min(initial=np.inf)
    for rank, t in enumerate(np.unique(atom)):
        want = _least_modulus_oracle(psi, t)
        assert bound[rank] == pytest.approx(want, rel=1e-12, abs=0.0)
        mine = atom[src] == t
        ratios = np.abs(x[src[mine], 0] - x[dst[mine], 0]) / dist[mine]
        assert ratios.max(initial=0.0) == pytest.approx(want, rel=1e-12, abs=floor)
    last = len(cells) - 1
    part = InfoPartition(space, ((0, last),) + tuple((t,) for t in range(1, last)))
    sel = caratheodory_select(psi, canonical_witness(psi), part)
    assert next(c for c in sel.checks if c.name == "selection-measurability").ok
    assert all(sel.values[0, z].tobytes() == sel.values[last, z].tobytes()
               for z in np.flatnonzero(psi.counts[0]))


def test_modulus_in_r1_is_the_exact_difference_ratio():
    # squaring 8.7e-161 underflows to a subnormal, so a norm loses digits;
    # the R^1 modulus reads |x_i - x_j| / d itself
    grid = GridSpace(np.array([[0.0], [0.1]]), adjacency_radius=0.1)
    values = [[[0.0]], [[8.7e-161]]]
    psi = Corr.from_function(single_atom(), grid, 1, lambda t, z: PointSet.of(1, values[z]))
    sel = grid_select(psi, 0, tol=1e-9)
    assert sel.modulus == 8.7e-161 / 0.1
    assert _modulus(np.array([[8.7e-161], [0.0]]), _edges(grid, psi.counts > 0)) == 8.7e-161 / 0.1


def test_least_modulus_raises_past_the_adjacent_bound():
    # [1, 1], [0, 1], [0, 0] on a unit chain: every adjacent pair allows
    # modulus 0, the path from node 0 to node 2 forces 1/2
    chain = [[[1.0]], [[0.0], [1.0]], [[0.0]]]
    grid = GridSpace(np.arange(3.0)[:, None], adjacency_radius=1.0)
    psi = Corr.from_function(single_atom(), grid, 1, lambda t, z: PointSet.of(1, chain[z]))
    x, bound, _, edges = _least_modulus_of(psi)
    assert x[:, 0].tolist() == [1.0, 0.5, 0.0] and bound.tolist() == [0.5]
    assert _modulus(x, edges) == 0.5
    sel = grid_select(psi, 0, tol=1e-9)
    assert [sel.values[0, z][0] for z in range(3)] == [1.0, 0.5, 0.0] and sel.modulus == 0.5


# The per-cell R^1 solve as it stood before the envelopes moved to
# (nodes + 1, atoms) blocks: an (atoms, nodes + 1) flat vector relaxed over
# per-cell copies of the grid's neighbour table.  The block solve must
# match it bit for bit, paths included.

def _per_cell_envelope(top, rows, near, dist, slope, paths=False):
    value = top.copy()
    source, length = np.arange(len(value)), np.zeros(len(value))
    step = slope * dist
    cols = np.arange(len(rows))
    cand = np.empty(near.shape)
    if near.size and not 0 <= near.min() <= near.max() < len(value):
        raise IndexError("neighbour table entry outside the envelope")
    while len(rows):
        np.add(value.take(near, out=cand, mode="clip"), step, out=cand)
        if paths:
            k = cand.argmin(axis=0)
            best = cand[k, cols]
        else:
            best = cand.min(axis=0)
        better = np.flatnonzero(best < value[rows])
        if not len(better):
            break
        value[rows[better]] = best[better]
        if paths:
            via = near[k[better], better]
            source[rows[better]] = source[via]
            length[rows[better]] = length[via] + dist[k[better], better]
    return (value, source, length) if paths else (value,)


def _per_cell_least_modulus(points, segs, atom, node, grid, relax=_per_cell_envelope):
    lo, hi = carasel.setops._interval_ends(points, segs)
    rank = np.cumsum(np.diff(atom, prepend=-1) > 0) - 1
    width = len(grid) + 1
    cell = rank * width + node
    nodes, near, dist = grid.neighbour_table()
    column = np.full(len(grid), -1)
    column[nodes] = np.arange(len(nodes))
    inner = np.flatnonzero(column[node] >= 0)
    rows = cell[inner]
    near = near.take(column[node[inner]], axis=1)
    near += rank[inner] * width
    dist = dist.take(column[node[inner]], axis=1)
    ends = [np.full((rank[-1] + 1) * width, np.inf) for _ in range(2)]
    ends[0][cell], ends[1][cell] = hi, -lo
    bound = np.zeros(rank[-1] + 1)
    if len(rows):
        first = np.flatnonzero(np.diff(rank[inner], prepend=-1))
        ratio = ends[0].take(near)
        np.subtract(lo[inner], ratio, out=ratio)
        ratio = np.divide(ratio, dist, out=ratio).max(axis=0)
        bound[rank[inner[first]]] = np.maximum.reduceat(ratio, first)
    bound = np.maximum(bound, 0.0)
    while True:
        slope = bound[rank[inner]]
        (u,), (l,) = (relax(end, rows, near, dist, slope) for end in ends)
        u, l = u[cell], -l[cell]
        bad = np.flatnonzero(l > u)
        raised = bound.copy()
        if len(bad):
            _, u_from, u_len = relax(ends[0], rows, near, dist, slope, paths=True)
            _, l_from, l_len = relax(ends[1], rows, near, dist, slope, paths=True)
            at = cell[bad]
            np.maximum.at(raised, rank[bad], (-ends[1][l_from[at]] - ends[0][u_from[at]])
                          / (l_len[at] + u_len[at]))
        if not (raised > bound).any():
            return np.clip((u + l) / 2, lo, hi)[:, None], bound
        bound = raised


def _block_matches_per_cell(psi):
    """Solve psi's whole domain both ways and compare the points, the
    moduli and every path run's sources and lengths at the cells, bit for
    bit; returns the number of path runs."""
    segs, atom, node = _layout(psi, psi.counts > 0)
    rank = np.cumsum(np.diff(atom, prepend=-1) > 0) - 1
    width, atoms = len(psi.grid) + 1, rank[-1] + 1
    old_paths, new_paths = [], []

    def per_cell(*args, paths=False):
        out = _per_cell_envelope(*args, paths=paths)
        if paths:  # flat place rank * width + node
            source, length = out[1][rank * width + node], out[2][rank * width + node]
            assert np.array_equal(source // width, rank)
            old_paths.append((source % width, length))
        return out

    block = carasel.selection._envelope

    def blocked(*args, paths=False):
        out = block(*args, paths=paths)
        if paths:  # flat place node * atoms + rank
            source, length = out[1][node, rank], out[2][node, rank]
            assert np.array_equal(source % atoms, rank)
            new_paths.append((source // atoms, length))
        return out

    want = _per_cell_least_modulus(psi.points, segs, atom, node, psi.grid, relax=per_cell)
    with mock.patch.object(carasel.selection, "_envelope", blocked):
        got = _least_modulus(psi.points, segs, atom, node, psi.grid)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
    assert len(new_paths) == len(old_paths)
    for (a, b), (c, d) in zip(new_paths, old_paths):
        assert a.tobytes() == c.tobytes() and b.tobytes() == d.tobytes()
    return len(new_paths)


def _interval_table(points, radius, cells):
    grid = GridSpace(np.asarray(points, dtype=float), adjacency_radius=radius)
    space = AtomSpace(tuple(f"w{t}" for t in range(len(cells))), [1.0] * len(cells))
    return Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(
        1, [[v] for v in cells[t][z]]) if cells[t][z] else PointSet.empty(1))


_CHAIN = (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0]]), 1.0,
          [[[1.0], [0.0, 1.0], [0.0], [0.5]], [[], [0.0, 1.0], [0.0], []],
           [[1.0], [0.0, 1.0], [0.0], [2.0]]])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_interval_tables())
@example(_CHAIN)
@example((np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), 1.0, [[[-0.0], [0.0], [-0.0]]]))
def test_block_least_modulus_matches_the_per_cell_solve(table):
    # drawn: isolated nodes, off-domain cells, 1-3 atoms and Dinkelbach
    # rounds, whose paths the block relaxation must trace the same way;
    # the zeros of both signs must give the same modulus +0.0
    psi = _interval_table(*table)
    if psi.counts.any():
        _block_matches_per_cell(psi)


def test_block_least_modulus_traces_the_per_cell_paths():
    # the chain forces a Dinkelbach round in atoms 0 and 2, around atom
    # 1's off-domain cells and an isolated node 3
    psi = _interval_table(*_CHAIN)
    assert psi.grid.neighbour_table()[0].tolist() == [0, 1, 2]
    assert _block_matches_per_cell(psi) == 2


def test_interval_closed_form_is_the_kernels_r1_output():
    # every point against every interval: inside, beyond either end, on
    # an exact end, and both signs of zero at a zero end
    xs = [-2.0, -1.0, -0.0, 0.0, 0.25, 1.0, 3.0, 5.0, 6.0]
    hulls = [[-0.0, 0.0], [0.0, 1.0], [1.0, 0.0, 0.5], [-1.0, -0.0], [-0.0, -0.0], [5.0, 5.0]]
    pairs = [(x, h) for x in xs for h in hulls]
    X = np.array([[x] for x, _ in pairs])
    m = max(len(h) for h in hulls)
    V = np.array([[[v] for v in h + h[:1] * (m - len(h))] for _, h in pairs])
    P, d, support = _nearest_in_hulls(X, V)
    assert support is None  # the closed form combines no vertices
    lo, hi = V[:, :, 0].min(axis=1), V[:, :, 0].max(axis=1)
    closed = _project_to_intervals(X[:, 0], lo, hi)
    assert P[:, 0].tobytes() == closed.tobytes()  # bit for bit, the sign of zero too
    assert d.tobytes() == np.abs(X[:, 0] - closed).tobytes()
    # the sweep's (rows, 1) layout gives the same bits
    assert _project_to_intervals(X, V.min(axis=1), V.max(axis=1)).tobytes() == P.tobytes()
    inside = (lo <= X[:, 0]) & (X[:, 0] <= hi)
    assert np.array_equal(closed[inside], X[inside, 0])
    assert np.array_equal(closed[X[:, 0] < lo], lo[X[:, 0] < lo])
    assert np.array_equal(closed[X[:, 0] > hi], hi[X[:, 0] > hi])


@pytest.mark.parametrize("dim", [2, 3])
def test_a_sweep_whose_rows_keep_their_supports_takes_the_kernel_once(dim, monkeypatch):
    # a work count: every node's value is one simplex and every start lies
    # inside it, so every projection is its own point and every cached
    # support, the whole simplex, stays optimal; the kernel sees each row
    # once, on sweep 1
    hull = np.vstack([np.zeros(dim), 4.0 * np.eye(dim)])
    phi = Corr.constant(AtomSpace(("a",), [1.0]), line_grid(7), PointSet.of(dim, hull))
    rng = np.random.default_rng(dim)
    init = {z: rng.dirichlet(np.ones(dim + 1)) @ hull for z in range(7)}
    kernel, sent, sweeps = carasel.setops._nearest_in_hulls, [], []
    monkeypatch.setattr(carasel.setops, "_nearest_in_hulls",
                        lambda X, V: sent.append(len(X)) or kernel(X, V))
    project = carasel.setops._WarmProjector.project
    monkeypatch.setattr(carasel.setops._WarmProjector, "project",
                        lambda step, x, rows: sweeps.append(len(x)) or project(step, x, rows))
    values, _ = _swept(phi, 0, init)
    assert len(sweeps) > 3 and sent == [7]
    assert len(values) == 7
    assert convex_distance(np.array(list(values.values())), ConvexSet(dim, hull)).max() <= 1e-12


@pytest.mark.parametrize("seed, share", [(1, 0.05), (6, 0.02)])
def test_warm_projections_keep_most_sweep_rows_off_the_kernel(seed, share, monkeypatch):
    # a count of work, not of time: after the first sweep, which sends
    # every row to the kernel, at most `share` of the rows of the 2-D
    # instance (canonical at seed 1, 2.7% measured; moving singletons at
    # seed 6, 0.5%) miss their cached support and take the kernel again
    inst = random_cip_instance(np.random.default_rng(seed))
    assert inst.psi.dim == 2
    rows, cold = [], []
    warm = carasel.setops._WarmProjector._warm

    def counted(step, X, which):
        P, lam, ok = warm(step, X, which)
        rows.append(len(X))
        cold.append(int(np.count_nonzero(~ok)))
        return P, lam, ok
    monkeypatch.setattr(carasel.setops._WarmProjector, "_warm", counted)
    caratheodory_select(inst.psi, inst.witness, inst.part, eps=inst.eps)
    assert len(rows) == DEFAULT_MAX_SWEEPS and cold[0] == rows[0]
    assert sum(cold[1:]) <= share * sum(rows[1:])


def test_caratheodory_select_projects_all_restarts_of_all_atoms_per_sweep(monkeypatch):
    # one projection step per sweep for every restart of every atom,
    # where one grid_select per restart made up to max_sweeps calls each
    rng = np.random.default_rng(4)
    while True:  # a glued table whose values are not all single points, in 2 or more atoms
        inst = random_cip_instance(rng)
        phi = construct_phi(inst.psi, inst.witness, inst.part, eps=inst.eps).phi
        if inst.psi.dim > 1 and sum(len(phi.value(t, z)) > 1 for t, z in domain(phi)) > 20:
            break
    calls = []
    project = carasel.setops._WarmProjector.project
    monkeypatch.setattr(carasel.setops._WarmProjector, "project",
                        lambda step, x, rows: calls.append(len(x)) or project(step, x, rows))
    caratheodory_select(inst.psi, inst.witness, inst.part, restarts=8, eps=inst.eps)
    assert 0 < len(calls) <= DEFAULT_MAX_SWEEPS
    # every node of every section has a neighbour; an atom equal to its
    # cell head takes the head's solve, so only the heads' domain is swept
    solved = _head_map([phi], inst.part) == np.arange(len(phi.space))
    assert calls[0] == 8 * np.count_nonzero(phi.counts[solved])


class _RecordingGenerator:
    """A numpy Generator that records what its exponential calls return."""

    def __init__(self, gen, draws):
        self._gen, self._draws = gen, draws

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def exponential(self, *args, **kwargs):
        out = self._gen.exponential(*args, **kwargs)
        self._draws.append(out)
        return out


def test_caratheodory_select_makes_one_sweep_and_one_draw_per_atom(monkeypatch):
    # atoms in cells (0, 2) and (1, 3), atom 3 empty everywhere: atoms 0
    # and 1 draw, each in one call for all its restarts and cells, and
    # atom 2, equal to its cell head atom 0, takes atom 0's solve and
    # draws nothing
    space = AtomSpace(("a", "b", "c", "d"), [1.0] * 4)
    tri = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    psi = Corr.from_function(space, line_grid(6), 2,
                             lambda t, z: PointSet.empty(2) if t == 3 else tri)
    part = InfoPartition(space, ((0, 2), (1, 3)))
    draws, sweeps = [], []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: _RecordingGenerator(default_rng(*args), draws))
    sweep = carasel.selection._sweep
    monkeypatch.setattr(carasel.selection, "_sweep", lambda *args: sweeps.append(1) or sweep(*args))
    sel = caratheodory_select(psi, canonical_witness(psi), part, restarts=5)
    assert len(sweeps) == 1 and len(draws) == 2
    assert all(d.shape == (4, 6 * 3) for d in draws)  # (restarts - 1, points of the atom)
    assert not np.array_equal(draws[0], draws[1])
    assert all(np.array_equal(sel.values[0, z], sel.values[2, z]) for z in range(6))


@st.composite
def _cell_tables(draw):
    """A small table on a coarse partition: dim 1-3, 3-6 nodes of a line,
    2-4 atoms in 1-2 cells with at least one cell of two atoms.  Each
    head row holds 0-3 points per node in [-2, 2]; every other atom
    shares its head's PointSets ("share"), copies their points into new
    ones ("copy"), moves one coordinate of one point by one ulp ("ulp")
    or draws its own row ("fresh").  (dim, nodes, cells, rows, kinds)."""
    dim, nodes = draw(st.integers(1, 3)), draw(st.integers(3, 6))
    cell = draw(st.lists(st.integers(0, 1), min_size=2, max_size=4))
    if len(set(cell)) == len(cell):
        cell[1] = cell[0]
    cells = tuple(tuple(t for t in range(len(cell)) if cell[t] == c) for c in sorted(set(cell)))
    point = st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim)
    row = st.lists(st.lists(point, max_size=3), min_size=nodes, max_size=nodes)
    rows, kinds = [None] * len(cell), [None] * len(cell)
    for c in cells:
        rows[c[0]] = draw(row)
        for t in c[1:]:
            kinds[t] = draw(st.sampled_from(["share", "copy", "ulp", "fresh"]))
            rows[t] = draw(row) if kinds[t] == "fresh" else [list(map(list, v)) for v in rows[c[0]]]
            full = [z for z, v in enumerate(rows[t]) if v]
            if kinds[t] == "ulp" and full:
                z = draw(st.sampled_from(full))
                k, d = draw(st.integers(0, len(rows[t][z]) - 1)), draw(st.integers(0, dim - 1))
                rows[t][z][k][d] = float(np.nextafter(rows[t][z][k][d], np.inf))
    return dim, nodes, cells, rows, kinds


def _solved(psi, part, weights):
    """_select_table's (table bytes, worst residual), or its error text."""
    try:
        table, worst = _select_table(psi, psi, part, 1e-7, weights, seed=3)
    except ConstructionError as e:
        return str(e)
    return table.tobytes(), worst


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_cell_tables())
def test_select_table_solving_cell_heads_matches_the_per_atom_solve(case):
    # an atom whose row equals its cell head's bit for bit takes the
    # head's solve; the table must be the one a solve of every atom gives,
    # in R^1, the closed-valued branch and the restarts branch
    dim, nodes, cells, rows, kinds = case
    space = AtomSpace(tuple(f"w{t}" for t in range(len(rows))), [1.0] * len(rows))
    part = InfoPartition(space, cells)
    sets = {}
    for t, row in enumerate(rows):
        for z, v in enumerate(row):
            sets[(t, z)] = (sets[(part.head[t], z)] if kinds[t] == "share" else
                            PointSet.of(dim, v) if v else PointSet.empty(dim))
    psi = Corr.from_function(space, line_grid(nodes), dim, lambda t, z: sets[(t, z)])
    # the head map against a per-node comparison of the points' bytes
    equal = [all(psi.value(t, z).points.tobytes() == psi.value(part.head[t], z).points.tobytes()
                 for z in range(nodes)) for t in range(len(rows))]
    heads = _head_map([psi], part)
    assert heads.tolist() == [int(part.head[t]) if equal[t] else t for t in range(len(rows))]
    assert all(heads[t] == part.head[t] for t in range(len(rows)) if kinds[t] in ("share", "copy"))
    assert all(heads[t] == t for t in range(len(rows))
               if kinds[t] == "ulp" and (psi.counts[t] == psi.counts[part.head[t]]).all()
               and psi.counts[t].any())
    for weights in (None, carasel.selection._halving_weights(4, 40)):
        mine = _solved(psi, part, weights)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(carasel.selection, "_head_map", lambda tables, part: np.arange(len(part.head)))
            assert mine == _solved(psi, part, weights)


def test_selection_escaping_its_value_set_raises(monkeypatch):
    # a projection that lands outside its hull is caught by the membership
    # certification after the sweeps, naming the worst cell, in both the
    # one-atom and the all-atoms solve
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    tri = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    psi = Corr.constant(space, line_grid(5), tri)
    project = carasel.setops._WarmProjector.project
    monkeypatch.setattr(carasel.setops._WarmProjector, "project",
                        lambda step, x, rows: project(step, x, rows) + 5.0)
    with pytest.raises(ConstructionError, match=r"membership certification failed at \(t=1, "):
        grid_select(psi, 1, tol=1e-9)
    with pytest.raises(ConstructionError, match=r"membership certification failed at \(t=[01], "):
        caratheodory_select(psi, canonical_witness(psi), InfoPartition.finest(space))


@pytest.mark.parametrize("option", [{"k_max": 0}, {"k_max": -3}, {"restarts": 0},
                                    {"restarts": -2}])
def test_caratheodory_select_rejects_series_bounds(jump, option):
    space, grid, psi, witness = jump
    with pytest.raises(DomainError):
        caratheodory_select(psi, witness, InfoPartition.finest(space), **option)


# --------------------------------------------------------------------- glue

def test_glue_full_domain_is_singleton_table(jump):
    space, grid, psi, witness = jump
    part = InfoPartition.finest(space)
    sel = caratheodory_select(psi, witness, part)
    fallback = Corr.constant(space, grid, PointSet.of(1, grid.points))
    res = glue(psi, sel, fallback, part=part)
    for (t, z) in domain(psi):
        assert np.allclose(res.glued.value(t, z).points, [[0.0]])
    assert usc_check(res.glued, 0, eps=0.1).ok
    assert res.checks.ok


def test_glue_empty_domain_returns_fallback():
    space = single_atom()
    grid = line_grid(4)
    psi = Corr.constant(space, grid, PointSet.empty(1))
    witness = CipWitness.shared(grid, psi, {})
    sel = caratheodory_select(psi, witness, InfoPartition.finest(space))
    fallback = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    res = glue(psi, sel, fallback)
    for z in range(4):
        assert same_set(res.glued.value(0, z), fallback.value(0, z))


def test_glue_reports_lsc_break_at_boundary():
    # fallback is a large constant set, the domain covers half the grid:
    # the l.s.c. preservation claim fails at the boundary and the check
    # reports it rather than assuming the claim
    space = single_atom()
    grid = line_grid(8)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[0.0]]) if z < 4 else PointSet.empty(1),
    )
    witness = canonical_witness(psi)
    sel = caratheodory_select(psi, witness, InfoPartition.finest(space))
    fallback = Corr.constant(space, grid, PointSet.of(1, grid.points))
    res = glue(psi, sel, fallback)
    names = {c.name: c for c in res.checks}
    assert not names["glue-lsc-preserved"].ok
    assert names["glue-usc-preserved"].ok


def test_glue_rejects_a_selection_of_another_domain(jump):
    # a selection certified on the full domain glued into a psi with one
    # empty cell: glue decides the two domains differ before any check
    space, grid, psi, witness = jump
    sel = caratheodory_select(psi, witness, InfoPartition.finest(space))
    holed = Corr.from_function(space, grid, 1, lambda t, z: PointSet.empty(1) if (t, z) == (2, 7)
                               else psi.value(t, z))
    fallback = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    with pytest.raises(DomainError, match="selection domain differs from the correspondence "
                                          "domain"):
        glue(holed, sel, fallback)


def test_glue_rejects_a_fallback_empty_off_the_domain():
    # psi is empty at nodes 4-7 and the fallback empty at nodes 6 and 7:
    # the glued table would be empty at (0, 6), named in the error
    space = single_atom()
    grid = line_grid(8)
    psi = Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(1, [[0.0]]) if z < 4
                             else PointSet.empty(1))
    sel = caratheodory_select(psi, canonical_witness(psi), InfoPartition.finest(space))
    fallback = Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(1, [[0.5]]) if z < 6
                                  else PointSet.empty(1))
    with pytest.raises(DomainError, match=r"fallback is empty off the domain at \(t=0, z=6\)"):
        glue(psi, sel, fallback)


def test_selection_values_are_the_table_on_the_domain():
    # values lists the domain cells in C order under Python-int (t, z)
    # keys, each mapped to its row of table; table is zero off the domain
    rng = np.random.default_rng(41)
    for _ in range(4):
        inst = random_cip_instance(rng)
        sel = caratheodory_select(inst.psi, inst.witness, inst.part, eps=inst.eps)
        assert np.array_equal(sel.domain, inst.psi.counts > 0)
        t, z = np.nonzero(sel.domain)
        assert list(sel.values) == list(zip(t.tolist(), z.tolist()))
        assert all(type(a) is int and type(b) is int for a, b in sel.values)
        assert all(np.array_equal(v, sel.table[key]) for key, v in sel.values.items())
        assert not sel.table[~sel.domain].any() and not sel.table.flags.writeable
        with pytest.raises(TypeError):
            sel.values[(0, 0)] = np.zeros(inst.psi.dim)
    # a shared local nonempty off psi's domain: phi-domain-equality fails,
    # and the table still reads zero there
    space, grid = single_atom(), line_grid(5)
    psi = Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(1, [[0.0], [1.0]]) if z < 3
                             else PointSet.empty(1))
    local = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    sel = caratheodory_select(psi, CipWitness.shared(grid, local, {(0, z): 0.5 for z in range(5)}),
                              InfoPartition.finest(space))
    assert not next(c for c in sel.checks if c.name == "phi-domain-equality").ok
    assert sel.table[0, :, 0].tolist() == [0.5, 0.5, 0.5, 0.0, 0.0]


# ------------------------------------------- array passes against per-cell code

def _random_table(rng, dim, grid, empty_share=0.2):
    """Three atoms of values with 1-7 points at scales 1e-2..1e2, some
    empty, and one PointSet object shared by several nodes."""
    space = AtomSpace(("a", "b", "c"), [1.0, 1.0, 1.0])
    shared = PointSet.of(dim, rng.normal(size=(4, dim)))

    def value(t, z):
        u = rng.uniform()
        if u < empty_share:
            return PointSet.empty(dim)
        if u < empty_share + 0.2:
            return shared
        k = int(rng.integers(1, 8))
        return PointSet.of(dim, rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-2, 3))

    return Corr.from_function(space, grid, dim, value)


def _atom_block(phi, t, section):
    """The per-atom layout selection._layout replaced, kept as its
    reference: the [start, stop) rows of phi(t, z) over a section and the
    section's adjacent pairs in both directions, (sources, targets) as
    section positions, and their distances."""
    segs = phi.bounds[t, section]
    pos = np.full(len(phi.grid), -1)
    pos[section] = np.arange(len(section))
    pi, pj = phi.grid.directed_pair_arrays()
    inside = (pos[pi] >= 0) & (pos[pj] >= 0)
    pi, pj = pi[inside], pj[inside]
    return segs, (pos[pi], pos[pj], dense_metric(phi.grid)[pi, pj])


def _layout_per_atom(phi, on):
    """_layout's segs and atom with _edges' pairs, from one _atom_block
    per atom, each atom's pairs shifted past the cells of the atoms
    before it."""
    segs, atom, src, dst, dist = [], [], [], [], []
    for t in range(len(phi.space)):
        section = np.flatnonzero(on[t]).tolist()
        block, (i, j, d) = _atom_block(phi, t, section)
        segs.append(block)
        src.append(i + len(atom))
        dst.append(j + len(atom))
        dist.append(d)
        atom += [t] * len(section)
    return (np.concatenate(segs), np.array(atom, dtype=int),
            tuple(np.concatenate(x) for x in (src, dst, dist)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_selection_blocks_match_per_node_hulls(dim):
    rng = np.random.default_rng(70 + dim)
    for _ in range(4):
        phi = _random_table(rng, dim, line_grid(int(rng.integers(2, 16))))
        all_segs, all_hulls = [], []
        for t in range(len(phi.space)):
            section = np.flatnonzero(phi.counts[t]).tolist()
            if not section:
                continue
            segs, _ = _atom_block(phi, t, section)
            hulls = [ConvexSet(phi.dim, phi.value(t, z).points) for z in section]
            assert np.array_equal(phi.points[_padded_rows(segs)], pack_hulls(hulls))
            draws = rng.exponential(size=(3, int(np.diff(segs).sum())))
            bary = _barycenters(phi.points, segs, draws)
            assert np.array_equal(bary[0], np.array([h.vertices.mean(axis=0) for h in hulls]))
            # each weighted mean has the bits of the per-segment draw it replaced
            cuts = np.cumsum(np.diff(segs).ravel())[:-1]
            for d, got in zip(draws, bary[1:]):
                assert np.array_equal(got, [phi.points[a:b].T @ (u / u.sum())
                                            for (a, b), u in zip(segs, np.split(d, cuts))])
            all_segs.append(segs)
            all_hulls += hulls
        # the sweep packs every atom at once, padded to the widest value
        assert np.array_equal(phi.points[_padded_rows(np.concatenate(all_segs))],
                              pack_hulls(all_hulls))
        # the flat layout is the per-atom blocks one after another, on the
        # whole domain and on a random part of it
        for on in (phi.counts > 0, (phi.counts > 0) & (rng.uniform(size=phi.counts.shape) < 0.7)):
            (segs, atom, node), want = _layout(phi, on), _layout_per_atom(phi, on)
            assert np.array_equal(segs, want[0]) and np.array_equal(atom, want[1])
            assert np.array_equal(node, np.nonzero(on)[1])
            assert all(np.array_equal(x, y) for x, y in zip(_edges(phi.grid, on), want[2]))


def _interiority_reference(psi, w, phi):
    """The per-cell interiority loop of construct_phi before it read
    phi's cached segment margins: (failures, cells checked)."""
    kpsi = k_operator(psi, w)
    failures = checked = 0
    for (t, z) in sorted(domain(psi)):
        if kpsi.counts[t, z] > 0:
            checked += 1
            if max_vertex_margin(ConvexSet(phi.dim, phi.value(t, z).points)) <= 0.0:
                failures += 1
    return failures, checked


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_phi_interiority_matches_per_cell_reference(dim):
    rng = np.random.default_rng(80 + dim)
    checked = 0
    for _ in range(3):
        grid = line_grid(int(rng.integers(3, 12)))
        psi = _random_table(rng, dim, grid)
        radii = {key: float(rng.uniform(0.5, 3.0)) * grid.mesh for key in domain(psi)}
        locs = [_random_table(rng, dim, grid, empty_share=0.0) for _ in range(3)]
        part = InfoPartition.finest(psi.space)
        for w, atomic in ((canonical_witness(psi), False), (canonical_witness(psi), True),
                          (CipWitness.shared(grid, locs[0], radii), False),
                          (CipWitness("countable", {z: locs[z % 3] for z in range(len(grid))},
                                      radii), False)):
            res = construct_phi(psi, w, part, atomic=atomic)
            got = next(c for c in res.certificate if c.name == "phi-interiority")
            failures, n = _interiority_reference(psi, w, res.phi)
            assert got.residual == failures
            assert ("vacuous" in got.detail) == (n == 0)
            checked += n
    assert checked > 0


# ------------------------------- semicontinuity checks from whole gap tables

def _residual(checks, name):
    return next(c.residual for c in checks if c.name == name)


def _phi_lsc_reference(phi, eps):
    """construct_phi's phi-lsc residual as the per-atom lsc_check loop
    gave it before the check read phi's whole gap table."""
    reps = [lsc_check(phi, t, eps) for t in range(len(phi.space))]
    worst = max((rep.max_gap for rep in reps), default=0.0)
    return worst if all(rep.ok for rep in reps) else float("inf")


def _glue_broken_reference(fallback, glued, check):
    """glue's per-atom preservation count before the whole-table pass:
    the atoms where check passes on the fallback but not on the glued
    table, at the grid's adjacency radius."""
    eps = glued.grid.adjacency_radius
    return sum(check(fallback, t, eps).ok and not check(glued, t, eps).ok
               for t in range(len(glued.space)))


@pytest.mark.parametrize("dim", [1, 2])
def test_semicontinuity_checks_match_per_atom_reference(dim):
    """phi-lsc and glue's two preservation counts equal the per-atom
    lsc_check/usc_check loops on tables with empty cells and shared
    segments, at eps below, at (a planted violation) and above the
    largest gap; half the fallback's atoms hold one shared value, so
    the fallback passes there and the glued table may break it."""
    rng = np.random.default_rng(90 + dim)
    phi_inf = phi_finite = broken = 0
    for grid in (line_grid(int(rng.integers(3, 14))), GridSpace(rng.uniform(size=(12, 2)))):
        for _ in range(3):
            psi = _random_table(rng, dim, grid)
            part = InfoPartition.finest(psi.space)
            gaps = psi.directed_gaps()
            top = float(np.nanmax(gaps, initial=0.0))
            for eps in (0.5 * top or 1.0, top or 1.0, 2.0 * top + 1.0):
                for atomic in (False, True):
                    res = construct_phi(psi, canonical_witness(psi), part, eps=eps, atomic=atomic)
                    got = _residual(res.certificate, "phi-lsc")
                    assert got == _phi_lsc_reference(res.phi, eps)
                    phi_inf += got == float("inf")
                    phi_finite += got < float("inf")
            table = _random_table(rng, dim, grid, empty_share=0.0)
            steady = rng.uniform(size=(len(table.space), 1, 1)) < 0.5
            fallback = Corr(table.space, grid, dim, table.points,
                            np.where(steady, table.bounds[:1, :1], table.bounds))
            flat = rng.uniform(size=len(psi.space)) < 0.5
            point = rng.normal(size=dim)
            on = psi.counts > 0
            table = np.zeros(on.shape + (dim,))
            for t, z in zip(*np.nonzero(on)):
                table[t, z] = point if flat[t] else rng.normal(size=dim)
            glued = glue(psi, Selection(table, on, 0.0, 0.0, CheckSet()), fallback)
            for name, check in (("glue-usc-preserved", usc_check),
                                ("glue-lsc-preserved", lsc_check)):
                want = _glue_broken_reference(fallback, glued.glued, check)
                assert _residual(glued.checks, name) == want
                broken += want
    assert phi_inf and phi_finite and broken


def test_usc_check_is_glue_usc_preserved_per_atom():
    """usc_check, kept as the per-atom report of glue-usc-preserved's
    decision: on the glued tables glue builds from random_cip_instance
    selections and a fallback holding a common point c, or c and a
    scattered point, at the grid's adjacency radius, each atom's ok is
    the glued table's side of that decision (no absorbed gap at or above
    the radius) and its max_gap is the largest finite absorbed gap.  The
    fallback's one-sided gaps differ by direction ({c} lies in {c, s}),
    so reading either side alone would change the decisions."""
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(10):
        inst = random_cip_instance(rng)
        psi, radius = inst.psi, inst.psi.grid.adjacency_radius
        sel = caratheodory_select(psi, inst.witness, inst.part, closed_valued=True, eps=inst.eps)
        scatter = rng.uniform(-5.0, 5.0, size=psi.counts.shape + (psi.dim,))
        lone = rng.uniform(size=psi.counts.shape) < 0.5
        fallback = Corr.from_function(psi.space, psi.grid, psi.dim, lambda t, z: PointSet.of(
            psi.dim, np.vstack([np.zeros((1, psi.dim)), scatter[t, z:z + 1 - lone[t, z]]])))
        glued = glue(psi, sel, fallback, inst.part).glued
        absorbed = carasel.corr._absorbed(glued.directed_gaps(), upper=True)
        fails = (absorbed >= radius).any(axis=1)
        for t, row in enumerate(absorbed):
            report = usc_check(glued, t, radius)
            assert report.ok == (not fails[t])
            assert report.max_gap == row[~np.isnan(row)].max(initial=0.0)
            seen.add(report.ok)
    assert seen == {True, False}


@pytest.mark.parametrize("eps", [0.0, -0.5, float("nan")])
def test_phi_and_selection_reject_nonpositive_eps(jump, eps):
    space, grid, psi, witness = jump
    part = InfoPartition.finest(space)
    with pytest.raises(DomainError, match="eps must be positive"):
        construct_phi(psi, witness, part, eps=eps)
    with pytest.raises(DomainError, match="eps must be positive"):
        caratheodory_select(psi, witness, part, eps=eps)


def test_phi_and_glue_run_no_per_atom_semicontinuity_check(monkeypatch):
    def per_atom(*_):
        raise AssertionError("a per-atom semicontinuity check ran")

    for module in (carasel.corr, carasel.selection):
        for name in ("lsc_check", "usc_check", "_semicontinuity"):
            monkeypatch.setattr(module, name, per_atom, raising=False)
    space, grid, psi = jump_problem()
    witness = canonical_witness(psi)
    part = InfoPartition.finest(space)
    sel = caratheodory_select(psi, witness, part)
    res = glue(psi, sel, Corr.constant(space, grid, PointSet.of(1, grid.points)), part=part)
    assert {c.name for c in sel.checks} >= {"phi-lsc"}
    assert {c.name for c in res.checks} >= {"glue-usc-preserved", "glue-lsc-preserved"}

"""Gluing, grid selection, interior series, certified selection, glue."""

import numpy as np
import pytest

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
    domain,
    glue,
    grid_select,
    interior_point_margin,
    interior_series,
    usc_check,
)

import carasel.selection
from carasel.selection import DEFAULT_MAX_SWEEPS
from conftest import line_grid, single_atom
from instances import random_cip_instance


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
        assert res.phi.value(t, z).same_as(psi.value(t, z))


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
    for z, v in sel.values.items():
        lo = grid.points[z, 0]
        assert lo - 1e-9 <= v[0] <= lo + 1.0 + 1e-9
    # brute-force feasibility oracle: fine enumeration finds no selection
    # with all values outside what the solve certifies (membership only)
    for z in range(5):
        candidates = np.linspace(grid.points[z, 0], grid.points[z, 0] + 1.0, 21)
        assert any(abs(sel.values[z][0] - c) <= 0.05 + 1e-9 for c in candidates)


def _grid_select_reference(phi, t, init=None, max_sweeps=DEFAULT_MAX_SWEEPS, relaxation=0.7):
    """The per-node loop grid_select ran before it projected a whole sweep
    in one kernel call, kept as its reference: one convex_project per
    node with neighbours per sweep, one convex_distance per node for the
    residual.  Returns (values, modulus, residual)."""
    section = phi.t_section(t)
    hulls = {z: ConvexSet.from_point_set(phi.value(t, z)) for z in section}
    n = len(section)
    pos = {z: k for k, z in enumerate(section)}
    x = np.array([np.asarray(init[z], dtype=float) if init and z in init
                  else hulls[z].vertices.mean(axis=0) for z in section])
    pairs = [(pos[z], pos[j]) for z in section for j in phi.grid.neighbors(z) if j in pos]
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
    modulus = max((np.linalg.norm(x[r] - x[c]) / phi.grid.metric[section[r], section[c]]
                   for r, c in pairs), default=0.0)
    residual = max(convex_distance(x[pos[z]], hulls[z]) for z in section)
    return {z: x[pos[z]] for z in section}, modulus, residual


def test_grid_select_matches_per_node_projection_reference():
    rng = np.random.default_rng(8)
    per_dim = {2: 0, 3: 0}  # two instances in each of dims 2 and 3
    while min(per_dim.values()) < 2:
        psi = random_cip_instance(rng).psi
        if per_dim.get(psi.dim, 2) == 2:
            continue
        per_dim[psi.dim] += 1
        for t in range(len(psi.space)):
            section = psi.t_section(t)
            init = None
            if t == 0:  # a random feasible start as caratheodory_select's restarts use
                init = {}
                for z in section:
                    wts = rng.exponential(size=len(psi.value(t, z)))
                    init[z] = psi.value(t, z).points.T @ (wts / wts.sum())
            sel = grid_select(psi, t, tol=1e-7, init=init)
            values, modulus, residual = _grid_select_reference(psi, t, init=init)
            scale = max(1.0, max(float(np.abs(psi.value(t, z).points).max()) for z in section))
            for z in section:
                assert np.abs(sel.values[z] - values[z]).max() <= 1e-12 * scale
            assert abs(sel.modulus - modulus) <= 1e-12 * scale
            assert abs(sel.residual - residual) <= 1e-12 * scale


def test_grid_select_sweeps_follow_the_damped_rate():
    space = single_atom()
    tri = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    phi = Corr.constant(space, line_grid(2), tri)
    start = {0: [0.0, 0.0], 1: [1.0, 0.0]}
    # two nodes pulled together: each moves 0.7 of their gap g toward the
    # other, so g shrinks by -0.4 per sweep
    done = grid_select(phi, 0, tol=1e-9, init=start)
    assert np.allclose(done.values[0], [0.5, 0.0]) and np.allclose(done.values[1], [0.5, 0.0])
    capped = grid_select(phi, 0, tol=1e-9, init=start, max_sweeps=5)
    gap = 0.4 ** 5  # node 0 ends at 0.5 + gap / 2 after five sweeps
    assert np.allclose(capped.values[0], [0.5 + gap / 2, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(capped.values[1], [0.5 - gap / 2, 0.0], rtol=0, atol=1e-12)
    empty = Corr.from_function(space, line_grid(2), 2, lambda t, z: PointSet.empty(2))
    assert grid_select(empty, 0, tol=1e-9).values == {}


def test_grid_select_inconsistent_domain_raises():
    space = single_atom()
    grid = line_grid(3)
    phi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.empty(1) if z == 1 else PointSet.of(1, [[0.0]]),
    )
    with pytest.raises(ConstructionError):
        grid_select(phi, 0, tol=1e-9, nodes=[0, 1, 2])


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
    for (t, z) in sel.domain:
        assert np.allclose(sel.value(t, z), [0.0])
    assert sel.checks.ok


def test_select_triangle_single_node():
    space = single_atom()
    grid = GridSpace(np.array([[0.0]]), mesh=1.0)
    tri = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    psi = Corr.constant(space, grid, tri)
    sel = caratheodory_select(psi, canonical_witness(psi), InfoPartition.finest(space))
    v = sel.value(0, 0)
    assert convex_membership(v, ConvexSet.from_point_set(tri), 1e-9)


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
        assert lo - 1e-9 <= sel.value(0, z)[0] <= lo + 1.0 + 1e-9


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
    assert a.domain == b.domain
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
        assert np.array_equal(sel.value(0, z), sel.value(1, z))


def test_series_selection_measurable_under_coarse_partitions():
    # atoms of one cell draw their restarts from the cell's first atom, so
    # cell-constant inputs give cell-constant selections
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
    atom_seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=len(phi.space))
    values, modulus = {}, 0.0
    for t in range(len(phi.space)):
        base = grid_select(phi, t, 1e-7).values
        family = []
        arng = np.random.default_rng(int(atom_seeds[inst.part.cell_of(t)[0]]))
        for _ in range(0 if closed_valued or not base else restarts - 1):
            init = {}
            for z in base:
                verts = phi.value(t, z).points
                wts = arng.exponential(size=len(verts))
                init[z] = verts.T @ (wts / wts.sum())
            family.append(grid_select(phi, t, 1e-7, init=init).values)
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
            for j in phi.grid.neighbors(z):
                if j in base and phi.grid.metric[z, j] > 0:
                    gap = np.linalg.norm(values[(t, z)] - values[(t, j)])
                    modulus = max(modulus, float(gap) / phi.grid.metric[z, j])
    return values, modulus


def test_caratheodory_select_matches_per_restart_reference():
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


def test_caratheodory_select_projects_all_restarts_of_all_atoms_per_sweep(monkeypatch):
    # one convex_project call per sweep for every restart of every atom,
    # where one grid_select per restart made up to max_sweeps calls each
    rng = np.random.default_rng(4)
    while True:  # a glued table whose values are not all single points, in 2 or more atoms
        inst = random_cip_instance(rng)
        phi = construct_phi(inst.psi, inst.witness, inst.part, eps=inst.eps).phi
        if inst.psi.dim > 1 and sum(len(phi.value(t, z)) > 1 for t, z in domain(phi)) > 20:
            break
    calls = []
    project = carasel.selection.convex_project
    monkeypatch.setattr(carasel.selection, "convex_project",
                        lambda *args: calls.append(len(args[0])) or project(*args))
    caratheodory_select(inst.psi, inst.witness, inst.part, restarts=8, eps=inst.eps)
    assert 0 < len(calls) <= DEFAULT_MAX_SWEEPS
    assert calls[0] == 8 * len(domain(phi))  # every node of every section has a neighbour


def test_selection_escaping_its_value_set_raises(monkeypatch):
    # a projection that lands outside its hull is caught after the sweeps,
    # naming the atom, in both the one-group and the all-atoms solve
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    tri = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    psi = Corr.constant(space, line_grid(5), tri)
    project = carasel.selection.convex_project
    monkeypatch.setattr(carasel.selection, "convex_project",
                        lambda x, c: (project(x, c)[0] + 5.0, None))
    with pytest.raises(ConstructionError, match="escaped its value set .* at atom 1"):
        grid_select(psi, 1, tol=1e-9)
    with pytest.raises(ConstructionError, match="escaped its value set .* at atom 0"):
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
        assert res.glued.value(0, z).same_as(fallback.value(0, z))


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

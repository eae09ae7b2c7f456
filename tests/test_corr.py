"""Correspondence tables: domains, semicontinuity surrogates,
measurability, inclusion-property verification, the interior-union and
hull-union operators."""

import numpy as np
import pytest
from carasel import (
    AtomSpace,
    CipWitness,
    Corr,
    DomainError,
    GridSpace,
    InfoPartition,
    PointSet,
    canonical_witness,
    cip_verify,
    domain,
    hausdorff_dist,
    k_operator,
    lower_measurable_check,
    lsc_check,
    n_operator,
    scip_verify,
    usc_check,
)
from carasel.corr import (
    SET_EQUALITY_TOL,
    CipReport,
    _inclusion_residual,
    _interior_samples,
    capture_matrix,
    pool_captured,
)
from carasel.setops import ConvexSet, _cross_dists, convex_distance

from conftest import jump_problem, line_grid
from instances import random_cip_instance


# ------------------------------------------------------------------ domain

def test_domain_total_and_empty():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(3)
    full = Corr.constant(space, grid, PointSet.of(1, [[0.0]]))
    assert domain(full) == {(t, z) for t in range(2) for z in range(3)}
    empty = Corr.constant(space, grid, PointSet.empty(1))
    assert domain(empty) == frozenset()


def test_domain_jump_table_is_full():
    space, grid, psi = jump_problem()
    assert len(domain(psi)) == 4 * 21


# --------------------------------------------------------- semicontinuity

def test_lsc_fails_on_jump_with_witness_point_one(jump):
    space, grid, psi, _ = jump
    for t in range(4):
        rep = lsc_check(psi, t, eps=0.1)
        assert not rep.ok
        z, z_adj, point = rep.violations[0]
        assert grid.points[z, 0] == pytest.approx(0.0)
        assert point[0] == pytest.approx(1.0)


def test_lsc_constant_ok_any_eps():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(5)
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.3], [0.7]]))
    assert lsc_check(psi, 0, eps=1e-6).ok


def test_lsc_growing_interval_ok_at_double_mesh():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(11)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[0.0], [grid.points[z, 0]]]),
    )
    assert lsc_check(psi, 0, eps=2 * grid.mesh + 1e-12).ok


def test_usc_jump_table_ok():
    space, grid, psi = jump_problem()
    for t in range(4):
        assert usc_check(psi, t, eps=0.1).ok


def test_usc_constant_ok():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(5)
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.25]]))
    assert usc_check(psi, 0, eps=0.01).ok


def test_usc_two_sided_separation_fails():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(11)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[1.0]]) if z == 0 else PointSet.of(1, [[0.0]]),
    )
    assert not usc_check(psi, 0, eps=0.5).ok


# ----------------------------------------------------------- measurability

def test_lower_measurable_finest_always():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(3)
    psi = Corr.from_function(
        space, grid, 1, lambda t, z: PointSet.of(1, [[float(t)]])
    )
    part = InfoPartition.finest(space)
    assert all(lower_measurable_check(psi, part, z) for z in range(3))


def test_lower_measurable_one_cell():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(3)
    part = InfoPartition.trivial(space)
    varying = Corr.from_function(
        space, grid, 1, lambda t, z: PointSet.of(1, [[float(t)]])
    )
    assert not lower_measurable_check(varying, part, 0)
    constant = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    assert lower_measurable_check(constant, part, 0)


# ------------------------------------------------------------ verification

def test_cip_jump_shared_witness_ok(jump):
    space, grid, psi, witness = jump
    rep = cip_verify(psi, witness, eps=0.1)
    assert rep.ok
    assert rep.inclusion_residual <= 1e-12


def test_cip_planted_violation_names_node(jump):
    space, grid, psi, _ = jump
    # local value 2.0 at one node is not inside any psi hull there
    bad = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[2.0]]) if (t, z) == (1, 3) else PointSet.of(1, [[0.0]]),
    )
    radii = {(t, z): 2.5 for t in range(4) for z in range(21)}
    witness = CipWitness.shared(grid, bad, radii)
    rep = cip_verify(psi, witness, eps=0.1)
    assert not rep.ok
    assert any(kind == "inclusion" and (t, x) == (1, 3)
               for (kind, t, z, x, _) in rep.failures)


def test_cip_canonical_witness_on_lsc_table():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(11)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[0.0], [grid.points[z, 0] / 2], [grid.points[z, 0]]])
        if grid.points[z, 0] > 0 else PointSet.of(1, [[0.0]]),
    )
    rep = cip_verify(psi, canonical_witness(psi), eps=2 * grid.mesh + 1e-9)
    assert rep.ok


def _canonical_radii_reference(psi):
    """The radii canonical_witness took with one generator per (atom,
    node) before it reduced each atom's metric columns at once, kept as
    its reference."""
    big = psi.grid.diameter + 1.0
    radii = {}
    for t in range(len(psi.space)):
        empty_nodes = [z for z in range(len(psi.grid)) if not psi.nonempty_at(t, z)]
        for z in range(len(psi.grid)):
            if psi.nonempty_at(t, z):
                radii[(t, z)] = (float(min(psi.grid.metric[z, e] for e in empty_nodes))
                                 if empty_nodes else big)
    return radii


def test_canonical_witness_radii_match_generator_reference():
    rng = np.random.default_rng(4)
    space = AtomSpace(("a", "b", "c"), [1.0, 1.0, 1.0])
    grid = GridSpace(rng.uniform(0.0, 1.0, size=(30, 2)))
    empty = rng.random((3, 30)) < np.array([[0.0], [0.3], [0.9]])  # none, some, most
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.empty(1) if empty[t, z] else PointSet.of(1, [[float(z)]]),
    )
    radii = canonical_witness(psi).radii
    want = _canonical_radii_reference(psi)
    assert radii == want  # same keys, bit-identical floats
    assert all(type(r) is float for r in radii.values())
    for inst_seed in range(3):
        inst = random_cip_instance(np.random.default_rng(inst_seed))
        assert canonical_witness(inst.psi).radii == _canonical_radii_reference(inst.psi)


def test_cip_strict_flag_checks_whole_grid():
    # sub-mesh balls contain single nodes, so the ball-restricted check
    # sees no pairs; only the whole-grid form catches the jump in F
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(11)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.of(1, [[0.0], [0.9]]) if z == 10 else PointSet.of(1, [[0.0]]),
    )
    f = Corr.from_function(space, grid, 1, psi.value)
    radii = {(0, z): 0.05 for z in range(11)}
    witness = CipWitness.shared(grid, f, radii)
    lenient = cip_verify(psi, witness, eps=0.05)
    strict = cip_verify(psi, witness, eps=0.05, strict=True)
    assert lenient.ok
    assert not strict.ok
    assert any(kind == "lsc" for (kind, *_rest) in strict.failures)


def _per_node_cip_reference(psi, w, eps, strict, residuals, tol=SET_EQUALITY_TOL):
    """The per-node loop cip_verify ran before it found the lost pairs
    once per (local, atom), kept as its reference.  residuals caches each
    (local, atom) residual row across calls on the same psi."""
    report = CipReport(True, eps=eps)
    metric = psi.grid.metric
    pi, pj = psi.grid.directed_pair_arrays()
    n = len(psi.grid)
    for f, zs in w.distinct_locals():
        for t in range(len(psi.space)):
            gaps = f.directed_gaps(t)
            finite = ~np.isnan(gaps)
            if finite.any():
                report.lsc_gap = max(report.lsc_gap, float(np.nanmax(gaps)))
            empty = np.array([f.value(t, x).is_empty for x in range(n)])
            key = (id(f), t)
            if key not in residuals:
                residuals[key] = np.array([0.0 if empty[x] else
                                           _inclusion_residual(f.value(t, x), psi.value(t, x))
                                           for x in range(n)])
            residual = residuals[key]
            for z in zs:
                if psi.nonempty_at(t, z):
                    in_ball = metric[:, z] < w.radius(t, z)
                    for x in np.nonzero(in_ball & empty)[0]:
                        report.failures.append(
                            ("nonempty", t, z, int(x), "local value empty in ball"))
                    usable = in_ball & ~empty
                    if usable.any():
                        worst = float(residual[usable].max())
                        report.inclusion_residual = max(report.inclusion_residual, worst)
                        if worst > tol:
                            for x in np.nonzero(usable)[0]:
                                r = residual[x]
                                if r > tol:
                                    report.failures.append((
                                        "inclusion", t, z, int(x),
                                        f"local value escapes psi by {r:.3e}"))
                    if len(pi):
                        scope = finite if strict else finite & in_ball[pi] & in_ball[pj]
                        for k in np.nonzero(scope & (gaps >= eps))[0]:
                            report.failures.append((
                                "lsc", t, z, int(pi[k]),
                                f"value point lost toward node {int(pj[k])}"))
                elif len(pi):
                    for k in np.nonzero(finite & (gaps >= eps))[0]:
                        report.failures.append((
                            "lsc-offsection", t, z, int(pi[k]),
                            f"value point lost toward node {int(pj[k])}"))
    report.ok = not report.failures
    return report


def _planted(rng, f):
    """f with one value moved far outside every psi hull and one value
    emptied, at random (atom, node) pairs."""
    far = (int(rng.integers(len(f.space))), int(rng.integers(len(f.grid))))
    gone = (int(rng.integers(len(f.space))), int(rng.integers(len(f.grid))))

    def value(t, x):
        if (t, x) == far:
            return PointSet.of(f.dim, np.full((1, f.dim), 5.0))
        if (t, x) == gone:
            return PointSet.empty(f.dim)
        return f.value(t, x)

    return Corr.from_function(f.space, f.grid, f.dim, value)


def test_cip_matches_per_node_reference():
    kinds, modes, offsection = set(), set(), False
    for seed in range(9):  # all three styles, both multi-local modes
        rng = np.random.default_rng(seed)
        inst = random_cip_instance(rng)
        w = inst.witness
        swap = {id(f): _planted(rng, f) for f, _ in w.distinct_locals()[:3]}
        planted = CipWitness(w.mode, {z: swap.get(id(f), f) for z, f in w.locals.items()},
                             w.radii, w.box)
        offsection |= not all(inst.psi.nonempty_at(t, z) for t in range(len(inst.psi.space))
                              for z in range(len(inst.psi.grid)))
        residuals = {}
        for witness in (w, planted):
            modes.add((witness.mode, len(witness.distinct_locals()) > 1))
            for eps in (inst.eps, inst.eps / 100):
                for strict in (False, True):
                    got = cip_verify(inst.psi, witness, eps, strict=strict)
                    want = _per_node_cip_reference(inst.psi, witness, eps, strict, residuals)
                    assert got.failures == want.failures
                    assert got.inclusion_residual == want.inclusion_residual
                    assert got.lsc_gap == want.lsc_gap
                    assert got.ok == want.ok
                    kinds |= {kind for kind, *_ in got.failures}
    assert kinds == {"nonempty", "inclusion", "lsc", "lsc-offsection"}
    assert {("shared", False), ("countable", True), ("indexed", True)} <= modes
    assert offsection


def test_scip_shared_mode_jump(jump):
    space, grid, psi, witness = jump
    part = InfoPartition.trivial(space)
    rep = scip_verify(psi, witness, part, cip_verify(psi, witness, eps=0.1))
    assert rep.ok and rep.mode == "shared"


def test_scip_countable_mode_rejects_non_measurable_radii():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(5)
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.0]]))
    f = Corr.constant(space, grid, PointSet.of(1, [[0.0]]))
    part = InfoPartition.trivial(space)
    # radii differ across atoms of one cell: the ball indicator is not
    # cell-constant
    radii = {(t, z): (0.35 if t == 0 else 0.15) for t in range(2) for z in range(5)}
    witness = CipWitness("countable", {z: f for z in range(5)}, radii)
    rep = scip_verify(psi, witness, part, cip_verify(psi, witness, eps=0.5))
    assert not rep.ok
    assert any(kind == "ball-measurability" for (kind, *_unused) in rep.failures)


def test_scip_indexed_mode_moving_point():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(6)
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.0], [1.0]]))
    locs = {
        zw: Corr.constant(space, grid, PointSet.of(1, [[0.1 + 0.1 * zw]]))
        for zw in range(6)
    }
    radii = {(0, z): 0.45 for z in range(6)}
    witness = CipWitness("indexed", locs, radii, box=([-5.0], [5.0]))
    part = InfoPartition.finest(space)
    rep = scip_verify(psi, witness, part, cip_verify(psi, witness, eps=0.5))
    assert rep.ok
    assert rep.hull_modulus == pytest.approx(0.5, rel=1e-6)  # 0.1 per 0.2 step


def _box_case(box):
    """Indexed witness whose local values sit at 3.0 (atom 0, node 2) and
    -2.5 (atom 1, node 1), 0.0 elsewhere, empty at node 4 like psi."""
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(5)
    wide, empty = PointSet.of(1, [[-3.0], [4.0]]), PointSet.empty(1)
    psi = Corr.from_function(space, grid, 1, lambda t, z: empty if z == 4 else wide)
    spots = {(0, 2): 3.0, (1, 1): -2.5}
    f = Corr.from_function(space, grid, 1, lambda t, x: empty if x == 4
                           else PointSet.of(1, [[spots.get((t, x), 0.0)]]))
    radii = {(t, z): 0.1 for t in range(2) for z in range(4)}
    witness = CipWitness("indexed", {z: f for z in range(5)}, radii, box=box)
    part = InfoPartition.finest(space)
    return scip_verify(psi, witness, part, cip_verify(psi, witness, eps=10.0))


def test_scip_indexed_box_failures():
    assert _box_case(([-3.0], [3.0])).ok
    escaped = _box_case(([-1.0], [2.0]))
    assert escaped.failures == [("box", -1, -1, -1, "values escape the box by 1.500e+00")]
    missing = _box_case(None)
    assert missing.failures == [("box", -1, -1, -1, "indexed mode requires a bounding box")]


def test_scip_indexed_domain_measurability():
    # atom t is empty from node 5 - t on: nonemptiness varies inside cell
    # (2, 3) at node 2 and inside cell (0, 1) at node 4
    space = AtomSpace(("a", "b", "c", "d"), [1.0] * 4)
    grid = line_grid(5)
    zero, empty = PointSet.of(1, [[0.0]]), PointSet.empty(1)
    psi = Corr.from_function(space, grid, 1, lambda t, z: empty if z >= 5 - t else zero)
    f = Corr.constant(space, grid, zero)
    radii = {(t, z): 0.1 for t in range(4) for z in range(5) if z < 5 - t}
    witness = CipWitness("indexed", {z: f for z in range(5)}, radii, box=([-1.0], [1.0]))
    part = InfoPartition(space, ((0, 1), (2, 3)))
    rep = scip_verify(psi, witness, part, cip_verify(psi, witness, eps=0.5))
    assert [fl for fl in rep.failures if fl[0] == "domain-measurability"] == [
        ("domain-measurability", 2, 2, -1, "nonemptiness not cell-constant"),
        ("domain-measurability", 0, 4, -1, "nonemptiness not cell-constant"),
    ]


def _loop_capture_failures(psi, w, part):
    """Reference: the ball- and index-measurability failures computed
    entry by entry, in the order scip_verify reports them."""
    n = len(psi.grid)

    def captures(t, x, z):
        return psi.nonempty_at(t, z) and psi.grid.metric[x, z] < w.radius(t, z)

    ball = [("ball-measurability", cell[0], z, x, "ball indicator not cell-constant")
            for z in range(n) for x in range(n) for cell in part.cells
            if len({captures(t, x, z) for t in cell}) > 1]
    index = [("index-measurability", t, -1, x, "capture set not cell-constant")
             for x in range(n) for cell in part.cells for t in cell[1:]
             if any(captures(t, x, z) != captures(cell[0], x, z) for z in range(n))]
    return ball, index


@pytest.mark.parametrize("seed", range(3))
def test_scip_capture_checks_match_loop_reference(seed):
    rng = np.random.default_rng(seed)
    space = AtomSpace(("a", "b", "c", "d"), [1.0] * 4)
    grid = line_grid(7)
    part = InfoPartition(space, ((0, 1, 2), (3,)))
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.0], [1.0]]))
    f = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    radii = {(t, z): float(rng.choice([0.1, 0.2, 0.4])) for t in range(4) for z in range(7)}
    ball, index = _loop_capture_failures(psi, CipWitness.shared(grid, f, radii), part)
    for mode, kind, expected in (("countable", "ball-measurability", ball),
                                 ("indexed", "index-measurability", index)):
        witness = CipWitness(mode, {z: f for z in range(7)}, radii, box=([-1.0], [2.0]))
        rep = scip_verify(psi, witness, part, cip_verify(psi, witness, eps=10.0))
        assert expected
        assert [fl for fl in rep.failures if fl[0] == kind] == expected


def test_scip_requires_cip():
    space, grid, psi = jump_problem()
    bad = Corr.constant(space, grid, PointSet.of(1, [[5.0]]))
    radii = {(t, z): 2.5 for t in range(4) for z in range(21)}
    witness = CipWitness.shared(grid, bad, radii)
    from carasel import PreconditionError

    with pytest.raises(PreconditionError):
        scip_verify(psi, witness, InfoPartition.trivial(space),
                    cip_verify(psi, witness, eps=0.1))


# --------------------------------------------------------------- operators

def test_k_operator_singletons_have_no_interior(jump):
    space, grid, psi, witness = jump
    k = k_operator(psi, witness)
    assert all(k.value(t, z).is_empty for t in range(4) for z in range(21))


def test_k_operator_interval_with_midpoint_everywhere():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(5)
    interval = PointSet.of(1, [[0.0], [0.5], [1.0]])
    psi = Corr.constant(space, grid, interval)
    witness = canonical_witness(psi)
    k = k_operator(psi, witness)
    assert all(not k.value(0, z).is_empty for z in range(5))
    assert all(np.allclose(k.value(0, z).points, [[0.5]]) for z in range(5))


def test_k_operator_empty_domain():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(4)
    psi = Corr.constant(space, grid, PointSet.empty(1))
    witness = CipWitness.shared(grid, psi, {})
    k = k_operator(psi, witness)
    assert all(k.value(0, z).is_empty for z in range(4))


def test_k_operator_values_inside_hull_of_psi():
    rng = np.random.default_rng(7)
    for _ in range(10):
        inst = random_cip_instance(rng)
        k = k_operator(inst.psi, inst.witness)
        for (t, z) in domain(inst.psi):
            kv = k.value(t, z)
            if kv.is_empty:
                continue
            hull = ConvexSet.from_point_set(inst.psi.value(t, z))
            assert max(convex_distance(p, hull) for p in kv.points) <= 1e-9


def _pool_reference(psi, w, take=None):
    """The per-(t, x) loop pool_captured ran for every witness before it
    masked a single local's segments, kept as its reference."""
    groups = w.distinct_locals()
    rows = []
    for t in range(len(psi.space)):
        captures = capture_matrix(psi, w, t)
        active = [captures[:, zs].any(axis=1) for (_, zs) in groups]
        row = []
        for x in range(len(psi.grid)):
            pts = []
            for (f, _), on in zip(groups, active):
                fv = f.value(t, x)
                if on[x] and not fv.is_empty:
                    pts.append(fv.points if take is None else take(fv))
            pts = [p for p in pts if len(p)]
            row.append(PointSet.of(psi.dim, np.vstack(pts)) if pts else PointSet.empty(psi.dim))
        rows.append(row)
    return rows


def test_pool_captured_one_local_matches_cell_loop():
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 8:
        inst = random_cip_instance(rng)
        if inst.witness.mode == "shared":
            cases.append((inst.psi, inst.witness))
    # one shared segment, and balls that miss the nodes where psi is empty
    space, grid = AtomSpace(("a", "b"), [1.0, 1.0]), line_grid(9)
    seg = PointSet.of(1, [[0.0], [0.5], [1.0]])
    psi = Corr.from_function(space, grid, 1, lambda t, z: PointSet.empty(1) if z > 4 + t else seg)
    radii = {key: 0.1 for key in domain(psi)}
    cases.append((psi, CipWitness.shared(grid, Corr.constant(space, grid, seg), radii)))
    for psi, w in cases:
        for take in (None, _interior_samples):
            pooled = pool_captured(psi, w, take)
            want = _pool_reference(psi, w, take)
            for t in range(len(psi.space)):
                for x in range(len(psi.grid)):
                    assert np.array_equal(pooled.value(t, x).points, want[t][x].points)


def test_constant_stores_its_value_once():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = GridSpace(np.random.default_rng(2).uniform(size=(12, 2)))
    value = PointSet.of(2, [[0.0, 0.0], [1.0, 0.5], [0.2, 0.9]])
    psi = Corr.constant(space, grid, value)
    assert len(psi.points) == len(value)
    for t in range(2):
        gaps = psi.directed_gaps(t)
        assert len(gaps) and np.all(gaps == 0.0)


def test_n_operator_union_not_hull():
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(2)
    locs = {
        0: Corr.constant(space, grid, PointSet.of(1, [[0.0]])),
        1: Corr.constant(space, grid, PointSet.of(1, [[1.0]])),
    }
    witness = CipWitness("indexed", locs, {(0, 0): 1.0, (0, 1): 1.0},
                         box=([-2.0], [2.0]))
    out = n_operator(0, 0, [0, 1], witness)
    assert sorted(out.points[:, 0]) == [0.0, 1.0]
    single = n_operator(0, 0, [0], witness)
    assert np.allclose(single.points, [[0.0]])
    assert n_operator(0, 0, [], witness).is_empty


def test_n_operator_monotone():
    rng = np.random.default_rng(3)
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(6)
    locs = {
        zw: Corr.constant(space, grid,
                          PointSet.of(2, rng.uniform(0, 1, size=(3, 2))))
        for zw in range(6)
    }
    witness = CipWitness("indexed", locs, {(0, z): 1.0 for z in range(6)},
                         box=([-2.0, -2.0], [2.0, 2.0]))
    small = n_operator(0, 0, [1, 3], witness)
    big = n_operator(0, 0, [1, 2, 3], witness)
    for p in small.points:
        assert any(np.allclose(p, q) for q in big.points)


def test_n_operator_hausdorff_continuity_bound():
    # locals move 1-Lipschitz-in-position times `slope`; the pooled union
    # inherits H(N(C), N(C')) <= slope * H(C, C')
    space = AtomSpace(("a",), [1.0])
    grid = line_grid(9)
    slope = 0.7
    locs = {
        zw: Corr.constant(space, grid, PointSet.of(1, [[slope * grid.points[zw, 0]]]))
        for zw in range(9)
    }
    witness = CipWitness("indexed", locs, {(0, z): 1.0 for z in range(9)},
                         box=([-2.0], [2.0]))
    rng = np.random.default_rng(11)
    for _ in range(50):
        c1 = sorted(rng.choice(9, size=rng.integers(1, 5), replace=False).tolist())
        c2 = sorted(rng.choice(9, size=rng.integers(1, 5), replace=False).tolist())
        n1, n2 = n_operator(0, 0, c1, witness), n_operator(0, 0, c2, witness)
        hc = hausdorff_dist(PointSet.of(1, grid.points[c1]),
                            PointSet.of(1, grid.points[c2]))
        assert hausdorff_dist(n1, n2) <= slope * hc + 1e-9


# -------------------------------------------------------------- grid space

def test_grid_metric_validation():
    with pytest.raises(DomainError):
        GridSpace(np.array([[0.0], [1.0]]), metric=np.array([[0.0, 1.0], [2.0, 0.0]]))
    bad_triangle = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(DomainError):
        GridSpace(np.array([[0.0], [1.0], [2.0]]), metric=bad_triangle)


def test_grid_defaults_and_connectivity():
    grid = line_grid(5)
    assert grid.mesh == pytest.approx(0.25)
    assert grid.adjacency_radius == pytest.approx(0.5)
    assert grid.is_connected()
    sparse = GridSpace(np.array([[0.0], [10.0]]), mesh=0.5)
    assert not sparse.is_connected()


# ---------------------------------------------------------- packed gap kernel

def _pair_loop_gaps(psi, t):
    """The per-pair loop the packed kernel replaced, kept as its reference."""
    pi, pj = psi.grid.directed_pair_arrays()
    half = len(pi) // 2
    out = np.full(len(pi), np.nan)
    row = [psi.value(t, z) for z in range(len(psi.grid))]
    for k in range(half):
        a, b = row[pi[k]], row[pj[k]]
        if a.is_empty or b.is_empty:
            continue
        if a is b:
            out[k] = out[k + half] = 0.0
            continue
        d = _cross_dists(a.points, b.points)
        out[k] = d.min(axis=1).max()
        out[k + half] = d.min(axis=0).max()
    return out


def _random_rows(rng, dim, grid):
    """Two atoms of values with 0-8 points at scales 1e-3..1e3, empty
    values, and one PointSet object shared by several nodes."""
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    shared = PointSet.of(dim, rng.normal(size=(3, dim)))

    def value(t, z):
        u = rng.uniform()
        if u < 0.3:
            return shared
        k = int(rng.integers(0, 9))
        return PointSet.of(dim, rng.normal(size=(k, dim)) * 10.0 ** rng.integers(-3, 4))

    return Corr.from_function(space, grid, dim, value)


def _same_report(a, b):
    assert a.ok == b.ok
    assert a.max_gap == b.max_gap
    assert [(z, y) for z, y, _ in a.violations] == [(z, y) for z, y, _ in b.violations]
    for (_, _, p), (_, _, q) in zip(a.violations, b.violations):
        assert np.array_equal(p, q)


@pytest.mark.parametrize("seed", range(4))
def test_packed_gaps_match_pair_loop_reference(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    grids = [
        GridSpace(rng.uniform(size=(int(rng.integers(2, 30)), 2))),
        line_grid(int(rng.integers(2, 20))),
        GridSpace(np.array([[0.0], [10.0]]), mesh=0.5),  # no adjacent pairs
    ]
    cases = [_random_rows(rng, dim, grid) for dim in (1, 2, 3) for grid in grids]
    packed = []
    for psi in cases:
        for t in range(len(psi.space)):
            gaps = psi.directed_gaps(t)
            assert np.array_equal(gaps, _pair_loop_gaps(psi, t), equal_nan=True)
            finite = gaps[~np.isnan(gaps)]
            eps = float(np.median(finite)) if len(finite) and np.median(finite) > 0 else 1.0
            packed.append((eps, lsc_check(psi, t, eps), usc_check(psi, t, eps)))

    monkeypatch.setattr(Corr, "directed_gaps", _pair_loop_gaps)
    reports = iter(packed)
    for psi in cases:
        for t in range(len(psi.space)):
            eps, lsc, usc = next(reports)
            _same_report(lsc, lsc_check(psi, t, eps))
            _same_report(usc, usc_check(psi, t, eps))

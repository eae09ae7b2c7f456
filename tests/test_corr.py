"""Correspondence tables: domains, semicontinuity surrogates,
measurability, inclusion-property verification, the interior-union and
hull-union operators."""

import gc
import re
import tracemalloc
import weakref

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
    Selection,
    canonical_witness,
    caratheodory_select,
    cip_verify,
    construct_phi,
    hausdorff_dist,
    k_operator,
    lsc_check,
    pref_from_payoff,
    scip_verify,
    usc_check,
)
import carasel.corr as corr
import carasel.grid as grid_module
from carasel.corr import (
    SET_EQUALITY_TOL,
    CipReport,
    _segments,
    cell_varying,
    pool_captured,
)
from carasel.reporting import CheckSet
from carasel.selection import _inputs_cell_constant
from carasel.setops import (
    DEDUP_TOL,
    ConvexSet,
    _cross_dists,
    convex_distance,
    segment_margins,
)

from conftest import (
    all_pairs_hull_modulus,
    capture_matrix,
    dense_metric,
    jump_problem,
    line_grid,
    single_atom,
)
from instances import domain, random_cip_instance
from test_equilibria import _quadratic_game


def vertex_margins(c: ConvexSet) -> np.ndarray:
    """interior_point_margin of every vertex/sample of c, in order, from
    one hull: segment_margins over a single segment.  The per-hull
    reference for Corr.segment_margins, also used by the other test
    modules."""
    return segment_margins(c.vertices, np.array([[0, len(c.vertices)]]))


def max_vertex_margin(c: ConvexSet) -> float:
    """max over the vertex/sample list of interior_point_margin; positive
    iff the list carries a point interior to its own hull.  The per-hull
    reference for Corr.interior_cells, also used by the other test
    modules."""
    return float(vertex_margins(c).max())


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


def test_from_function_rejects_a_value_that_is_not_a_pointset_of_the_dim():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(3)
    good = PointSet.of(2, [[0.0, 1.0]])
    for bad in ([[0.0, 1.0]], np.zeros((1, 2)), None, PointSet.of(1, [[0.0]]),
                PointSet.empty(3)):
        # the bad value at the last cell: every earlier cell was read
        def fn(t, z, bad=bad):
            return bad if (t, z) == (1, 2) else good
        with pytest.raises(DomainError, match="PointSets of the common dim"):
            Corr.from_function(space, grid, 2, fn)


def test_from_function_shares_one_segment_per_pointset_object():
    # one object at many cells is one segment; an equal but distinct
    # object is another; the bounds are the cells' rows in C order
    space = AtomSpace(("a", "b", "c"), [1.0, 1.0, 1.0])
    grid = line_grid(4)
    shared = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0]])
    twin = PointSet.of(2, [[0.0, 0.0], [1.0, 0.0]])
    empty = PointSet.empty(2)
    values = {(0, 0): twin, (1, 1): empty, (2, 3): PointSet.of(2, [[5.0, 5.0]])}
    psi = Corr.from_function(space, grid, 2, lambda t, z: values.get((t, z), shared))
    assert psi.bounds.shape == (3, 4, 2) and psi.bounds.dtype == np.dtype(int)
    assert psi.bounds[0, 0].tolist() == [0, 2] and psi.bounds[0, 1].tolist() == [2, 4]
    assert psi.bounds[1, 1].tolist() == [4, 4] and psi.bounds[2, 3].tolist() == [4, 5]
    rows = {tuple(psi.bounds[t, z]) for t in range(3) for z in range(4)
            if (t, z) not in values}
    assert rows == {(2, 4)} and len(psi.points) == 5
    assert np.array_equal(psi.points[2:4], shared.points)
    none = Corr.from_function(AtomSpace(("a",), [1.0]), line_grid(2), 2, lambda t, z: empty)
    assert none.bounds.tolist() == [[[0, 0], [0, 0]]] and none.points.shape == (0, 2)


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
    assert not cell_varying([psi], part).any()


def test_lower_measurable_one_cell():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(3)
    part = InfoPartition.trivial(space)
    varying = Corr.from_function(
        space, grid, 1, lambda t, z: PointSet.of(1, [[float(t)]])
    )
    assert cell_varying([varying], part)[0, :, 0].any()
    constant = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    assert not cell_varying([constant], part)[0, :, 0].any()


# ------------------------------------------------------------ verification

def test_cip_jump_shared_witness_ok(jump):
    space, grid, psi, witness = jump
    rep = cip_verify(psi, witness, eps=0.1)
    assert rep.ok
    assert rep.inclusion_residual <= 1e-12


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_witness_radii_must_be_finite_and_positive(jump, bad):
    # a NaN ball captures nothing, so cip_verify would pass it vacuously
    space, grid, psi, w = jump
    f = w.locals[0]
    with pytest.raises(DomainError, match="radii must be finite and positive"):
        CipWitness.shared(grid, f, {**dict(np.ndenumerate(w.radii)), (0, 0): bad})
    # in a table NaN means no radius; every other entry is checked the same way
    table = np.array(w.radii)
    table[0, 0] = bad
    if np.isnan(bad):
        assert np.isnan(CipWitness.shared(grid, f, table).radii[0, 0])
    else:
        with pytest.raises(DomainError, match="radii must be finite and positive"):
            CipWitness.shared(grid, f, table)


def test_missing_radius_raises_for_the_first_section_cell():
    """cip_verify and capture_matrix read the radii from one table, NaN
    where absent, and name the first (t, z) of psi's section without a
    radius; a radius off the section is never read, and a key outside
    the table is rejected."""
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    grid = line_grid(6)
    psi = Corr.from_function(space, grid, 1, lambda t, z: PointSet.empty(1) if (t, z) == (1, 0)
                             else PointSet.of(1, [[0.0]]))
    w = canonical_witness(psi)
    radii = {key: r for key, r in np.ndenumerate(w.radii)
             if not np.isnan(r) and key not in ((1, 4), (1, 2))}
    radii[(1, 0)] = 9.0
    for key in ((2, 0), (0, 6), (-1, 0), (0, -1)):
        with pytest.raises(DomainError, match=r"key \(.*\) is not an \(atom, node\) index pair"):
            CipWitness.shared(grid, psi, {**radii, key: 1.0})
    gapped = CipWitness.shared(grid, psi, radii)
    table = gapped.radii
    assert np.argwhere(np.isnan(table)).tolist() == [[1, 2], [1, 4]]
    assert table[1, 0] == 9.0 and not table.flags.writeable
    with pytest.raises(DomainError, match=r"no radius at \(t=1, z=2\)"):
        cip_verify(psi, gapped, eps=1.0)
    with pytest.raises(DomainError, match=r"no radius at \(t=1, z=2\)"):
        capture_matrix(psi, gapped)
    assert np.array_equal(table[0], w.radii[0])
    off_section = np.array(w.radii)
    off_section[1, 0] = 9.0
    off_section = CipWitness.shared(grid, psi, off_section)
    caps = capture_matrix(psi, off_section)
    assert not caps[1, :, 0].any()
    assert np.array_equal(caps, capture_matrix(psi, w))


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
    metric = dense_metric(psi.grid)
    radii = {}
    for t in range(len(psi.space)):
        empty_nodes = [z for z in range(len(psi.grid)) if psi.counts[t, z] == 0]
        for z in range(len(psi.grid)):
            if psi.counts[t, z] > 0:
                radii[(t, z)] = (float(min(metric[z, e] for e in empty_nodes))
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
    want = _radius_table(_canonical_radii_reference(psi), psi.counts.shape)
    assert radii.dtype == float
    assert np.array_equal(radii, want, equal_nan=True)  # same cells, bit-identical floats
    for inst_seed in range(3):
        inst = random_cip_instance(np.random.default_rng(inst_seed))
        assert np.array_equal(canonical_witness(inst.psi).radii,
                              _radius_table(_canonical_radii_reference(inst.psi),
                                            inst.psi.counts.shape), equal_nan=True)


def _radius_table(radii, shape):
    """A {(t, z): r} mapping as an (atoms, nodes) table filled one entry
    at a time, NaN where absent."""
    table = np.full(shape, np.nan)
    for (t, z), r in radii.items():
        table[t, z] = r
    return table


def _canonical_witness_loop_reference(psi):
    """The radii canonical_witness filled with one dict entry per nonempty
    node of each atom before it built them from one nonzero pass, kept
    as its reference."""
    big = psi.grid.diameter + 1.0
    radii = {}
    for t in range(len(psi.space)):
        nonempty = psi.counts[t] > 0
        if nonempty.all():
            reach = np.full(len(psi.grid), big)
        else:
            reach = dense_metric(psi.grid)[:, ~nonempty].min(axis=1)
        for z in np.flatnonzero(nonempty):
            radii[(t, int(z))] = float(reach[z])
    return radii


def _witness_radii_loop_reference(radii):
    """CipWitness's radii validated and normalised one entry at a time,
    as __post_init__ did before its one array test, kept as its
    reference."""
    out = {}
    for key, r in dict(radii).items():
        t, z = int(key[0]), int(key[1])
        r = float(r)
        if not 0 < r < np.inf:
            raise DomainError("witness radii must be finite and positive")
        out[(t, z)] = r
    return out


def _witness_tables():
    """Nash preference tables (a 4-atom quadratic game on an 11x11 joint
    grid, with and without a strict margin) and random_cip_instance
    tables."""
    g, _, _ = _quadratic_game(np.random.default_rng(9), 11, ((0,), (1,), (2, 3)))
    prefs = [pref_from_payoff(g, i, margin) for i in range(2) for margin in (0.0, 0.05)]
    return prefs + [random_cip_instance(np.random.default_rng(s)).psi for s in range(6)]


def test_canonical_witness_matches_loop_reference():
    tables = _witness_tables()
    partial = [((p.counts > 0).any(axis=1) & (p.counts == 0).any(axis=1)).any() for p in tables]
    assert all(partial[:4])  # every preference table has an atom with some empty nodes
    for psi in tables:
        w = canonical_witness(psi)
        ref = _canonical_witness_loop_reference(psi)
        want = _radius_table(ref, psi.counts.shape)
        assert np.array_equal(w.radii, want, equal_nan=True)  # bit-identical floats
        assert w.radii.dtype == float and not w.radii.flags.writeable
        # the same radii given as the mapping build the same table
        assert np.array_equal(CipWitness.shared(psi.grid, psi, ref).radii, w.radii,
                              equal_nan=True)


def test_witness_radii_match_entry_loop_reference():
    for k, psi in enumerate(_witness_tables()):
        # keys and radii of mixed Python and numpy types
        radii = {}
        table = canonical_witness(psi).radii
        for n, (t, z) in enumerate(np.argwhere(~np.isnan(table)).tolist()):
            r = float(table[t, z])
            key = [(np.int64(t), z), (t, np.int32(z)), (t, z)][(n + k) % 3]
            radii[key] = [np.float64(r), r, max(1, int(r))][(n + k) % 3]
        w = CipWitness.shared(psi.grid, psi, radii)
        ref = _witness_radii_loop_reference(radii)
        assert np.array_equal(w.radii, _radius_table(ref, psi.counts.shape), equal_nan=True)
        assert w.radii.dtype == float and not w.radii.flags.writeable
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        radii = {(0, 0): 1.0, (0, 1): bad}
        with pytest.raises(DomainError) as got:
            CipWitness.shared(psi.grid, psi, radii)
        with pytest.raises(DomainError) as want:
            _witness_radii_loop_reference(radii)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("key", [(0, 21), (0, 999), (0, -3), (4, 0), (-1, 0), (0, 2.5),
                                 (0.5, 1), ("0", 1), (0,), (0, 1, 2), 3])
def test_witness_rejects_radius_keys_off_the_table(jump, key):
    # before, an out-of-range key was dropped and a negative one would
    # have written a real cell of the table
    space, grid, psi, w = jump
    radii = {**dict(np.ndenumerate(w.radii)), key: 1.0}
    with pytest.raises(DomainError, match=re.escape(f"witness radius key {key!r} is not an "
                                                    "(atom, node) index pair inside the 4 x 21")):
        CipWitness.shared(grid, w.locals[0], radii)


def test_witness_radius_table_must_have_the_locals_shape(jump):
    space, grid, psi, w = jump
    with pytest.raises(DomainError, match=r"locals' shape \(4, 21\)"):
        CipWitness.shared(grid, w.locals[0], np.ones((4, 20)))
    assert w.radius(3, 20) == 2.5
    for t, z in ((4, 0), (0, 21), (-1, 0)):
        with pytest.raises(DomainError, match=re.escape(f"no radius at (t={t}, z={z})")):
            w.radius(t, z)


@pytest.mark.parametrize("key", [21, 99, -1, 2.5, 1.0, "1", "3", None])
def test_witness_rejects_local_keys_off_the_grid(jump, key):
    # the error names the first bad key in the locals' order, not the
    # later 22; a key takes node 1's place, so that 1.0 stays a float key
    space, grid, psi, w = jump
    f = w.locals[0]
    locs = {0: f, key: f, **{z: f for z in range(2, 21)}, 22: f}
    with pytest.raises(DomainError, match=re.escape(f"witness local key {key!r} is not a node "
                                                    "index in [0, 21)")):
        CipWitness("countable", locs, w.radii)
    assert CipWitness("countable", {np.int64(z): f for z in range(21)}, w.radii).local(20) is f


def test_witness_locals_share_one_shape(jump):
    space, grid, psi, w = jump
    f = w.locals[0]
    fewer_atoms = Corr.constant(AtomSpace(("a",), [1.0]), grid, PointSet.of(1, [[0.0]]))
    fewer_nodes = Corr.constant(space, line_grid(20), PointSet.of(1, [[0.0]]))
    for other in (fewer_atoms, fewer_nodes):
        with pytest.raises(DomainError, match=r"share one \(atoms, nodes\) shape"):
            CipWitness("countable", {**{z: f for z in range(20)}, 20: other}, w.radii)


class _CountingLocal:
    """A local correspondence that counts the reads of its counts."""

    def __init__(self, f):
        self.f, self.reads = f, 0

    def __getattr__(self, name):
        self.reads += name == "counts"
        return getattr(self.f, name)


@pytest.mark.parametrize("mode", ["shared", "countable"])
def test_witness_checks_each_distinct_local_once(jump, mode):
    # the sharing and shape checks run once per distinct local object,
    # not once per node, and keep their errors
    space, grid, psi, w = jump
    f = _CountingLocal(w.locals[0])
    assert CipWitness(mode, {z: f for z in range(21)}, w.radii).local(20) is f
    assert f.reads <= 2
    g = _CountingLocal(Corr.constant(space, grid, PointSet.of(1, [[0.5]])))
    mixed = {z: (g if z % 2 else f) for z in range(21)}
    if mode == "shared":
        with pytest.raises(DomainError, match="shared mode requires one common local correspondence"):
            CipWitness(mode, mixed, w.radii)
    else:
        assert CipWitness(mode, mixed, w.radii).local(1) is g
    wider = _CountingLocal(Corr.constant(space, line_grid(22), PointSet.of(1, [[0.0]])))
    with pytest.raises(DomainError, match=r"share one \(atoms, nodes\) shape"):
        CipWitness("countable", {**{z: f for z in range(20)}, 20: wider}, w.radii)
    assert wider.reads == 1


def test_witness_locals_are_read_only(jump):
    # a built witness cannot drift from what __post_init__ checked, so a
    # shared witness always has one local
    space, grid, psi, w = jump
    other = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    with pytest.raises(TypeError):
        w.locals[3] = other
    assert all(f is w.locals[0] for f in w.locals.values())
    with pytest.raises(DomainError, match="shared mode requires one common local correspondence"):
        CipWitness("shared", {**w.locals, 3: other}, w.radii)


@pytest.mark.parametrize("dim", [0, 2, 3])
def test_indexed_box_must_have_the_locals_dim(jump, dim):
    # a 3-d box used to broadcast against the 1-d values and certify
    space, grid, psi, w = jump
    locs = dict(w.locals)
    with pytest.raises(DomainError, match=f"box has dim {dim}, the locals have dim 1"):
        CipWitness("indexed", locs, w.radii, box=([-1.0] * dim, [1.0] * dim))
    assert CipWitness("indexed", locs, w.radii, box=([-1.0], [1.0])).box[0].shape == (1,)


@pytest.mark.parametrize("seed", range(4))
def test_mapping_and_table_witnesses_agree(seed):
    """A witness given its radii as a {(t, z): r} mapping and one given the
    same radii as a table hold equal tables and give identical
    cip_verify and caratheodory_select output."""
    inst = random_cip_instance(np.random.default_rng(seed))
    w = inst.witness
    mapping = {(t, z): r for (t, z), r in np.ndenumerate(w.radii) if not np.isnan(r)}
    table = _radius_table(mapping, w.radii.shape)
    a = CipWitness(w.mode, w.locals, mapping, w.box)
    b = CipWitness(w.mode, w.locals, table, w.box)
    assert np.array_equal(a.radii, b.radii, equal_nan=True)
    assert np.array_equal(a.radii, table, equal_nan=True)
    ra, rb = (cip_verify(inst.psi, x, eps=inst.eps) for x in (a, b))
    assert (ra.ok, ra.failures, ra.inclusion_residual, ra.lsc_gap) == \
        (rb.ok, rb.failures, rb.inclusion_residual, rb.lsc_gap)
    sa, sb = (caratheodory_select(inst.psi, x, inst.part, eps=inst.eps, restarts=3, seed=seed)
              for x in (a, b))
    assert list(sa.values) == list(sb.values)
    assert all(np.array_equal(sa.values[key], sb.values[key]) for key in sa.values)
    assert (sa.modulus, sa.membership_residual, sa.checks.checks) == \
        (sb.modulus, sb.membership_residual, sb.checks.checks)


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


def _inclusion_residual(points, target):
    """Max distance from the points to the convex hull of the target, one
    projection call per node: the per-node residual cip_verify computed
    before its grouped pass, with its zero fast paths (the point arrays
    coincide, or every point appears in the target list)."""
    if target.is_empty:
        return float("inf")
    if points.points is target.points or np.array_equal(points.points, target.points):
        return 0.0
    pts = points.points
    literal = (pts[:, None, :] == target.points[None, :, :]).all(axis=2).any(axis=1)
    rest = pts[~literal]  # a point that is one of the target samples is at 0
    if not len(rest):
        return 0.0
    return float(convex_distance(rest, ConvexSet(target.dim, target.points)).max())


def _per_node_cip_reference(psi, w, eps, strict, residuals, tol=SET_EQUALITY_TOL):
    """The per-node loop cip_verify ran before it found the lost pairs
    once per (local, atom), kept as its reference.  residuals caches each
    (local, atom) residual row across calls on the same psi."""
    report = CipReport(True, eps=eps)
    metric = dense_metric(psi.grid)
    pi, pj = psi.grid.directed_pair_arrays()
    n = len(psi.grid)
    for f, zs in w.distinct_locals():
        for t in range(len(psi.space)):
            gaps = f.directed_gaps()[t]
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
                if psi.counts[t, z] > 0:
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
        offsection |= not all(inst.psi.counts[t, z] > 0 for t in range(len(inst.psi.space))
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


def test_phi_inclusion_matches_per_node_reference():
    # pooled witnesses (countable and indexed) glue values that are not
    # psi's own segments, so every nonempty cell goes through the grouped
    # pass; its worst residual must be the per-node loop's, bit for bit
    modes = set()
    for seed in range(40):
        inst = random_cip_instance(np.random.default_rng(seed))
        if inst.style != "moving":
            continue
        modes.add(inst.witness.mode)
        res = construct_phi(inst.psi, inst.witness, inst.part, eps=inst.eps)
        psi, phi = inst.psi, res.phi
        cells = np.argwhere((psi.counts > 0) & (phi.counts > 0)).tolist()
        want = max((_inclusion_residual(phi.value(t, x), psi.value(t, x)) for t, x in cells),
                   default=0.0)
        got = next(c.residual for c in res.certificate if c.name == "phi-inclusion")
        assert got == want
    assert modes == {"countable", "indexed"}


def test_cip_rejects_a_local_on_other_grid_points():
    space = AtomSpace(("a",), [1.0])
    psi = Corr.constant(space, line_grid(5), PointSet.of(1, [[0.5]]))
    far = line_grid(5, 10.0, 20.0)  # as many nodes as psi's grid, other points
    f = Corr.constant(space, far, PointSet.of(1, [[0.5]]))
    witness = CipWitness.shared(far, f, {(0, z): 0.3 for z in range(5)})
    with pytest.raises(DomainError, match="grid"):
        cip_verify(psi, witness, eps=0.5)
    # psi's points with a wider adjacency radius: a gap table of 18 pairs
    # to psi's 14, which psi's pairs would misread
    wide = GridSpace(psi.grid.points, adjacency_radius=3.5 * psi.grid.mesh)
    assert len(wide.directed_pair_arrays()[0]) == 18
    f = Corr.from_function(space, wide, 1, lambda t, z: PointSet.of(1, [[float(z % 2)]]))
    witness = CipWitness.shared(wide, f, {(0, z): 0.3 for z in range(5)})
    with pytest.raises(DomainError, match="witness locals must live on psi's grid"):
        cip_verify(psi, witness, eps=0.5)
    # the same points on another grid object are psi's grid
    same = Corr.constant(space, line_grid(5), PointSet.of(1, [[0.5]]))
    witness = CipWitness.shared(same.grid, same, {(0, z): 0.3 for z in range(5)})
    assert cip_verify(psi, witness, eps=0.5).ok


@pytest.mark.parametrize("t", [-1, 2, 1.0, np.float64(0.0), "0", None])
def test_semicontinuity_checks_reject_an_atom_outside_the_table(t):
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    psi = Corr.constant(space, line_grid(5), PointSet.of(1, [[0.0], [1.0]]))
    for check in (lsc_check, usc_check):
        with pytest.raises(DomainError, match=re.escape(f"atom {t!r} is outside [0, 2)")):
            check(psi, t, 0.5)
        assert check(psi, np.int64(1), 0.5).ok


def test_cip_rejects_a_local_with_fewer_atoms():
    grid = line_grid(5)
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    f = Corr.constant(AtomSpace(("a",), [1.0]), grid, PointSet.of(1, [[0.5]]))
    # radii for psi's two atoms do not fit the local's one-atom table
    with pytest.raises(DomainError, match=r"key \(1, 0\) is not an \(atom, node\) index pair"):
        CipWitness.shared(grid, f, {(t, z): 0.3 for t in range(2) for z in range(5)})
    witness = CipWitness.shared(grid, f, {(0, z): 0.3 for z in range(5)})
    with pytest.raises(DomainError, match="atoms"):
        cip_verify(psi, witness, eps=0.5)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
def test_cip_rejects_nonpositive_eps(eps):
    # at eps <= 0 every adjacent pair would read as an l.s.c. failure, and
    # at NaN none would, so a table that jumps would pass
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    psi = Corr.constant(space, line_grid(5), PointSet.of(1, [[0.0], [1.0]]))
    with pytest.raises(DomainError, match="eps must be positive"):
        cip_verify(psi, canonical_witness(psi), eps=eps)
    for check in (lsc_check, usc_check):
        with pytest.raises(DomainError, match="eps must be positive"):
            check(psi, 0, eps)


def test_ball_tables_reject_a_witness_of_another_shape():
    # the witness is valid on its own one-atom table, not on psi's two atoms
    grid = line_grid(5)
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    f = Corr.constant(AtomSpace(("a",), [1.0]), grid, PointSet.of(1, [[0.5]]))
    w = CipWitness("countable", {z: f for z in range(5)}, {(0, z): 0.3 for z in range(5)})
    for call in (capture_matrix, k_operator,
                 lambda psi, w: construct_phi(psi, w, InfoPartition.finest(space))):
        with pytest.raises(DomainError, match="witness locals must live on psi's atoms and grid"):
            call(psi, w)


def test_witness_without_a_local_at_a_section_node_raises():
    # nodes 0-3 carry a local, node 4 none, and psi is nonempty at node 4:
    # nothing witnesses (t=0, z=4), which cip_verify used to certify ok
    grid = line_grid(5)
    space = single_atom()
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    w = CipWitness("countable", {z: psi for z in range(4)}, {(0, z): 0.1 for z in range(5)})
    no_local = "witness has no local correspondence at node 4"
    for call in (lambda: cip_verify(psi, w, eps=0.5),
                 lambda: scip_verify(psi, w, InfoPartition.finest(space), CipReport(True)),
                 lambda: pool_captured(psi, w), lambda: capture_matrix(psi, w)):
        with pytest.raises(DomainError, match=no_local):
            call()
    # a node outside psi's section needs no local
    part = Corr.from_function(space, grid, 1, lambda t, z: psi.value(t, z) if z < 4
                              else PointSet.empty(1))
    assert cip_verify(part, CipWitness("countable", {z: part for z in range(4)},
                                       {(0, z): 0.1 for z in range(4)}), eps=0.5).ok


def test_array_dataclasses_compare_by_identity(jump):
    # a field-wise == would compare their arrays and raise
    space, grid, psi, w = jump
    value = PointSet.of(1, [[0.0]])
    pairs = [(GridSpace(grid.points), GridSpace(grid.points)),
             (Corr.constant(space, grid, value), Corr.constant(space, grid, value)),
             (CipWitness.shared(grid, psi, w.radii), CipWitness.shared(grid, psi, w.radii)),
             (Selection(np.zeros((1, 1, 1)), np.ones((1, 1), bool), 0.0, 0.0, CheckSet()),
              Selection(np.zeros((1, 1, 1)), np.ones((1, 1), bool), 0.0, 0.0, CheckSet()))]
    for a, b in pairs:
        assert (a == b) is False and (a != b) is True
        assert a == a


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
    metric = dense_metric(psi.grid)

    def captures(t, x, z):
        return psi.counts[t, z] > 0 and metric[x, z] < w.radius(t, z)

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


def _stack_scip_reference(psi, w, part):
    """The ball- and index-measurability failures and the hull modulus as
    scip_verify computed them from the dense (atoms, nodes, nodes) ball
    stack and the all-pairs modulus block."""
    caps = capture_matrix(psi, w)
    varying = caps != caps[part.head]
    rows = np.argwhere(varying.T)  # (z, x, t) ascending
    rows[:, -1] = part.cell_index[rows[:, -1]]
    ball = [("ball-measurability", part.cells[c][0], z, x, "ball indicator not cell-constant")
            for z, x, c in np.unique(rows, axis=0).tolist()]
    index = [("index-measurability", t, -1, x, "capture set not cell-constant")
             for x, t in corr._atom_failures(varying.any(axis=2), part)]
    return ball, index, all_pairs_hull_modulus(psi, w, w.distinct_locals())


def _scip_ball_case(rng):
    """(psi, part, locals, radii, box) on a random grid: a line, a 2-D
    lattice, a random cloud, or a lattice under a user metric that is
    symmetric and triangular only within METRIC_TOL, each entry moved by
    up to 3e-10, so a radius at a lattice distance can hold x in the
    ball of z and not z in the ball of x.  The atoms fall into random
    cells, psi and the locals have empty cells, and each local's cells
    share PointSet objects; the locals are one object at every node or a
    mix of three.  Radii come from a small set of lattice distances, a
    non-head atom's mostly its cell head's."""
    n_atoms = int(rng.integers(2, 6))
    space = AtomSpace(tuple(f"t{k}" for k in range(n_atoms)), [1.0] * n_atoms)
    labels = rng.integers(0, int(rng.integers(1, n_atoms + 1)), size=n_atoms)
    part = InfoPartition(space, tuple(tuple(np.flatnonzero(labels == c).tolist())
                                      for c in rng.permutation(np.unique(labels))))
    kind = int(rng.integers(4))
    if kind == 0:
        grid = line_grid(int(rng.integers(4, 12)))
    elif kind == 2:
        grid = GridSpace(rng.uniform(size=(int(rng.integers(8, 30)), 2)))
    else:
        side = int(rng.integers(3, 7))
        grid = GridSpace(_lattice(side, 2), mesh=1.0 / (side - 1))
        if kind == 3:
            metric = dense_metric(grid) + rng.uniform(-3e-10, 3e-10, size=(len(grid),) * 2)
            np.fill_diagonal(metric, 0.0)
            grid = GridSpace(grid.points, metric=metric, mesh=grid.mesh)
    n, dim = len(grid), int(rng.integers(1, 3))
    steps = np.array([1.0, 1.5, 2.0, np.sqrt(2.0)]) * grid.mesh

    def table():
        shared = [PointSet.of(dim, rng.normal(size=(k, dim))) for k in (1, 2, 3)]
        values = [[shared[int(rng.integers(3))] if rng.random() < 0.5
                   else PointSet.of(dim, rng.normal(size=(int(rng.integers(0, 4)), dim)))
                   for _ in range(n)] for _ in range(n_atoms)]
        return Corr.from_function(space, grid, dim, lambda t, z: values[t][z])

    psi = table()
    tables = [table() for _ in range(3)]
    locs = ({z: tables[0] for z in range(n)} if rng.random() < 0.4
            else {z: tables[int(rng.integers(3))] for z in range(n)})
    radii = rng.choice(steps, size=(n_atoms, n))
    keep = rng.random(radii.shape) < 0.6
    radii = np.where(keep, radii[part.head], radii)
    return psi, part, locs, radii, (np.full(dim, -1e4), np.full(dim, 1e4))


@pytest.mark.parametrize("seed", range(12))
def test_scip_ball_checks_and_hull_modulus_match_the_dense_stack(seed):
    rng = np.random.default_rng(seed)
    found = {"ball-measurability": 0, "index-measurability": 0}
    moduli = 0
    for _ in range(4):
        psi, part, locs, radii, box = _scip_ball_case(rng)
        for mode in ("countable", "indexed"):
            w = CipWitness(mode, locs, radii, box)
            ball, index, modulus = _stack_scip_reference(psi, w, part)
            kind, want = (("ball-measurability", ball) if mode == "countable"
                          else ("index-measurability", index))
            rep = scip_verify(psi, w, part, CipReport(True))
            assert [fl for fl in rep.failures if fl[0] == kind] == want
            found[kind] += len(want)
            if mode == "indexed":
                assert rep.hull_modulus.hex() == modulus.hex()
                moduli += modulus > 0.0
    assert all(found.values()) and moduli > 0


@pytest.mark.parametrize("mode", ["countable", "indexed"])
def test_scip_ball_checks_on_a_100_by_100_grid_stay_small(mode):
    # the dense ball stack alone would be 4 x 10^4 x 10^4 bytes, 381 MiB,
    # and the all-pairs modulus block of a shared local far more
    space = AtomSpace(("a", "b", "c", "d"), [1.0] * 4)
    grid = GridSpace(_lattice(100, 2), mesh=1.0 / 99)
    part = InfoPartition(space, ((0, 1), (2, 3)))
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.0], [1.0]]))
    f = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    radii = np.full((4, len(grid)), 1.5 * grid.mesh)
    moved = ((1, 0), (1, 5050), (3, 5050), (3, 9999))
    for t, z in moved:
        radii[t, z] = 3.0 * grid.mesh
    w = CipWitness(mode, {z: f for z in range(len(grid))}, radii, box=([-1.0], [2.0]))
    cip = CipReport(True)
    tracemalloc.start()
    try:
        rep = scip_verify(psi, w, part, cip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20
    # each moved ball adds the nodes at distance in [1.5, 3) meshes
    hits = []
    for t, z in moved:
        d = grid.distances(np.arange(len(grid)), [z])[:, 0]
        hits += [(t, x, z) for x in np.flatnonzero((d >= 1.5 * grid.mesh) & (d < 3.0 * grid.mesh))]
    if mode == "countable":
        want = [("ball-measurability", part.cells[c][0], z, int(x),
                 "ball indicator not cell-constant")
                for z, x, c in sorted({(z, x, part.cell_index[t]) for t, x, z in hits})]
    else:
        want = [("index-measurability", t, -1, int(x), "capture set not cell-constant")
                for x, t in sorted({(x, t) for t, x, _ in hits})]
    assert len(want) > 20 and rep.failures == want and rep.hull_modulus == 0.0


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
            hull = ConvexSet(inst.psi.dim, inst.psi.value(t, z).points)
            assert max(convex_distance(p, hull) for p in kv.points) <= 1e-9


def _interior_samples(fv):
    """Points of a nonempty list interior to the list's own hull: the
    per-cell take the interior pooling ran before it read each local's
    cached segment margins."""
    return fv.points[vertex_margins(ConvexSet(fv.dim, fv.points)) > 0.0]


def _pool_reference(psi, w, take=None):
    """The per-(t, x) loop pool_captured ran for every witness before it
    masked a single local's segments, kept as its reference."""
    groups = w.distinct_locals()
    rows = []
    for t in range(len(psi.space)):
        captures = capture_matrix(psi, w)[t]
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
            pooled = pool_captured(psi, w, interior=take is not None)
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
        gaps = psi.directed_gaps()[t]
        assert len(gaps) and np.all(gaps == 0.0)


def n_operator(t: int, x: int, c, w: CipWitness) -> PointSet:
    """Union of the (closed) convex hulls of the local values at (t, x)
    over witness nodes z in c, as the pooled vertex list (the union of
    V-polytopes, not their joint hull): the per-cell oracle of
    pool_captured's array pooling."""
    pts = [w.local(z).value(t, x).points for z in sorted(int(z) for z in c)]
    dim = next(iter(w.locals.values())).dim
    return PointSet.of(dim, np.vstack(pts)) if pts else PointSet.empty(dim)


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


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["mesh", "adjacency_radius"])
def test_grid_mesh_and_radius_must_be_finite_and_positive(field, bad):
    # a NaN radius would leave the grid with no adjacent pairs and make
    # every semicontinuity check vacuous
    with pytest.raises(DomainError, match=f"{field} must be finite and positive"):
        GridSpace(np.linspace(0.0, 1.0, 5).reshape(-1, 1), **{field: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("mesh", [None, 0.5])
def test_grid_points_must_be_finite(mesh, bad):
    # with a mesh given, a NaN node used to build: it has no neighbours,
    # so every check at it passed vacuously
    with pytest.raises(DomainError, match="grid points must be finite"):
        GridSpace([[0.0], [bad], [1.0]], mesh=mesh)
    with pytest.raises(DomainError, match="grid points must be finite"):
        GridSpace([[0.0, 0.0], [0.5, bad]], mesh=mesh)


def test_grid_defaults_and_connectivity():
    grid = line_grid(5)
    assert grid.mesh == pytest.approx(0.25)
    assert grid.adjacency_radius == pytest.approx(0.5)


@pytest.mark.parametrize("seed", range(3))
def test_directed_pairs_match_list_reference(seed):
    # the pairs as a list of tuples filtered from the full mask, the
    # representation the arrays used to be built from
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(int(rng.integers(2, 25)), 2))
    d = _cross_dists(pts, pts) * rng.uniform(1.0, 1.2)
    for grid in (GridSpace(pts), GridSpace(pts, metric=d, adjacency_radius=0.4)):
        i, j = np.nonzero(dense_metric(grid) <= grid.adjacency_radius + 1e-12)
        pairs = [(int(a), int(b)) for a, b in zip(i, j) if a < b]
        pi, pj = grid.directed_pair_arrays()
        assert list(zip(pi.tolist(), pj.tolist())) == pairs + [(b, a) for a, b in pairs]


@pytest.mark.parametrize("mesh", [None, 0.5])
def test_grid_rejects_repeated_nodes(mesh):
    # a repeated node used to build: the metric read 0 between two nodes,
    # and a problem file with such a grid certified ok
    for points in ([[0.0], [0.5], [0.0]], [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5 + 1e-13]]):
        with pytest.raises(DomainError, match="grid points must be distinct"):
            GridSpace(points, mesh=mesh)
    zero = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(DomainError, match="grid points must be distinct under the metric"):
        GridSpace([[0.0], [0.5], [1.0]], metric=zero, mesh=mesh)
    with pytest.raises(DomainError, match="grid points must be distinct"):
        GridSpace([[0.0], [0.0], [1.0]], metric=zero + 1.0 - np.eye(3), mesh=mesh)
    assert len(GridSpace([[0.0], [1e-11], [1.0]], mesh=mesh)) == 3


def _lattice(n, dim):
    """The n^dim product lattice of n points in [0, 1] per axis."""
    return np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, n)] * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_grid_metric_matches_cross_dists(dim):
    # the metric is summed in place one coordinate at a time: bit for bit
    # the einsum reference in dims 1 and 2, within 4 ulp beyond
    rng = np.random.default_rng(dim)
    clouds = [rng.normal(size=(60, dim)) * 10.0 ** rng.integers(-3, 4, size=(60, 1)),
              _lattice({1: 41, 2: 21, 3: 7, 4: 4}[dim], dim)]
    if dim == 2:
        clouds += [_lattice(n, 2) for n in (31, 51)]
    for pts in clouds:
        got, want = dense_metric(GridSpace(pts)), _cross_dists(pts, pts)
        if dim <= 2:
            assert np.array_equal(got, want)
        else:
            assert (np.abs(got - want) <= 4 * np.spacing(want)).all()


def test_grid_metric_build_peaks_below_two_buffers():
    # one (n, n) block of the metric and one scratch buffer; the einsum
    # build took a (n, n, 2) difference stack, its squares' sum, a sqrt
    # copy and a copy
    pts = _lattice(31, 2)
    grid = GridSpace(pts)
    tracemalloc.start()
    try:
        dense_metric(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * len(pts) ** 2 * 8


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("block", [1, 7, 1 << 17])
def test_grid_metric_blocks_match_the_whole_buffer_build(dim, block, monkeypatch):
    # row blocks of one row, of a few rows and of many rows make the same
    # elementwise operations as one (n, n) scratch buffer, in every dim
    pts = np.random.default_rng(dim).normal(size=(90, dim))
    d, scratch = np.zeros((90, 90)), np.empty((90, 90))
    for x in pts.T:
        np.subtract.outer(x, x, out=scratch)
        d += np.multiply(scratch, scratch, out=scratch)
    monkeypatch.setattr(grid_module, "METRIC_BLOCK", block)
    nodes = np.arange(90)
    rows = np.concatenate([b for _, b in GridSpace(pts)._row_blocks(nodes, nodes)])
    assert rows.tobytes() == np.sqrt(d).tobytes()


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


def _saturated_cells(psi):
    """Boolean (atoms, nodes) table of the R^1 cells whose distinct values
    are all the distinct values of psi's nonempty cells inside their
    hull, False where empty: the saturation rule, by Python sets."""
    x = psi.points[:, 0].tolist()
    table = {v for s, e in psi.bounds[psi.counts > 0].tolist() for v in x[s:e]}
    full = np.zeros(psi.counts.shape, dtype=bool)
    for t, z in np.argwhere(psi.counts > 0).tolist():
        s, e = psi.bounds[t, z].tolist()
        values = set(x[s:e])
        full[t, z] = values == {v for v in table if min(values) <= v <= max(values)}
    return full


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
            gaps = psi.directed_gaps()[t]
            assert np.array_equal(gaps, _pair_loop_gaps(psi, t), equal_nan=True)
            finite = gaps[~np.isnan(gaps)]
            eps = float(np.median(finite)) if len(finite) and np.median(finite) > 0 else 1.0
            packed.append((eps, lsc_check(psi, t, eps), usc_check(psi, t, eps)))

    monkeypatch.setattr(Corr, "directed_gaps", lambda psi: np.stack(
        [_pair_loop_gaps(psi, t) for t in range(len(psi.space))]))
    reports = iter(packed)
    for psi in cases:
        for t in range(len(psi.space)):
            eps, lsc, usc = next(reports)
            _same_report(lsc, lsc_check(psi, t, eps))
            _same_report(usc, usc_check(psi, t, eps))


def _ordered_rows(rng, kind, grid):
    """A 1-D table built with Corr(...) directly: segments drawn at
    random over one points array, so they overlap, repeat and are shared
    by several cells, with values of the given kind."""
    n_points = int(rng.integers(1, 40))
    if kind == "lattice":  # equidistant neighbours: every nearest distance ties
        x = rng.integers(-4, 5, size=n_points) * 0.5
    elif kind == "signed-zero":
        x = rng.choice([0.0, -0.0, 0.5, -0.5], size=n_points)
    elif kind == "tiny":  # squared differences underflow
        x = rng.integers(-3, 4, size=n_points) * 1e-200
    else:
        x = rng.normal(size=n_points) * 10.0 ** rng.integers(-3, 4)
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    start = rng.integers(0, n_points + 1, size=(2, len(grid)))
    stop = np.minimum(n_points, start + rng.integers(0, 9, size=start.shape))
    bounds = np.stack([start, stop], axis=-1)
    shared = rng.uniform(size=start.shape) < 0.3
    bounds[shared] = bounds[0, 0]
    return Corr(space, grid, 1, x.reshape(-1, 1), bounds)


@pytest.mark.parametrize("chunk", [16, 64, 1 << 18])
@pytest.mark.parametrize("kind", ["lattice", "signed-zero", "tiny", "scaled"])
def test_ordered_gaps_match_pair_loop_reference(kind, chunk, monkeypatch):
    """The 1-D kernel gives the pair loop's gaps, with == , chunk by
    chunk (GAP_CHUNK // 16 source points per chunk, so 16 forces one
    pair per chunk)."""
    monkeypatch.setattr(corr, "GAP_CHUNK", chunk)
    rng = np.random.default_rng(len(kind) * chunk)
    checked = 0
    for grid in (line_grid(int(rng.integers(2, 25))), GridSpace(rng.uniform(size=(20, 2)))):
        for _ in range(6):
            psi = _ordered_rows(rng, kind, grid)
            pi, pj = grid.directed_pair_arrays()
            for t in range(2):
                gaps = psi.directed_gaps()[t]
                want = _pair_loop_gaps(psi, t)
                assert np.array_equal(gaps, want, equal_nan=True)
                assert np.array_equal(np.signbit(gaps), np.signbit(want))
                measured = (psi.bounds[t, pi] != psi.bounds[t, pj]).any(axis=1)
                checked += np.count_nonzero(measured & ~np.isnan(gaps))
    assert checked > 50


def _saturation_rows(rng, kind, grid):
    """An R^1 table built with Corr(...) from rows over a lattice of
    values of the given kind: runs of consecutive lattice values,
    repeated and shuffled, which are saturated unless another row holds
    a value inside their hull that they lack; runs that skip every other
    value; and runs with a midpoint added off the lattice, so nearest
    distances tie.  Cells draw from these rows, some laid out twice, and
    about a fifth are empty."""
    if kind == "signed-zero":
        lattice = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
    else:
        lattice = np.arange(-4, 5) * (1e-200 if kind == "tiny" else 0.5)
    half = (lattice[1] - lattice[0]) / 2
    rows = []
    for _ in range(8):
        i = int(rng.integers(0, len(lattice)))
        run = lattice[i:int(rng.integers(i + 1, len(lattice) + 1))]
        u = rng.uniform()
        if u < 0.6:
            rows.append(rng.permutation(np.repeat(run, rng.integers(1, 3, size=len(run)))))
        elif u < 0.8:
            rows.append(run[::2])
        else:
            rows.append(np.append(run, run[-1] - half))
    rows += rows[:2]  # equal values in distinct segments
    segs = _segments(np.array([len(r) for r in rows]))
    bounds = segs[rng.integers(0, len(segs), size=(2, len(grid)))]
    bounds[rng.uniform(size=(2, len(grid))) < 0.2] = [0, 0]
    return Corr(AtomSpace(("a", "b"), [0.5, 0.5]), grid, 1,
                np.concatenate(rows).reshape(-1, 1), bounds)


@pytest.mark.parametrize("kind", ["lattice", "signed-zero", "tiny"])
def test_saturated_row_gaps_match_pair_loop_reference(kind, monkeypatch):
    """R^1 tables mixing saturated and unsaturated rows, with repeated
    values in a row, +-0.0, 1e-200 steps and tied nearest distances,
    give the pair loop's gaps, with == and the same sign bits, both in
    the directions toward a saturated row, measured in closed form, and
    in those that reach _ordered_gaps."""
    kernel_pairs = []

    def recording(points, bounds, src, dst, kernel=corr._ordered_gaps):
        kernel_pairs.append(len(src))
        return kernel(points, bounds, src, dst)

    monkeypatch.setattr(corr, "_ordered_gaps", recording)
    rng = np.random.default_rng(len(kind))
    closed = open_ = 0  # directions toward a saturated row, and toward another
    for grid in (line_grid(25), GridSpace(rng.uniform(size=(20, 2)))):
        pi, pj = grid.directed_pair_arrays()
        for _ in range(6):
            psi = _saturation_rows(rng, kind, grid)
            full = _saturated_cells(psi)
            live = (psi.counts[:, pi] > 0) & (psi.counts[:, pj] > 0)
            closed += np.count_nonzero(live & full[:, pj])
            open_ += np.count_nonzero(live & ~full[:, pj])
            for t in range(2):
                gaps, want = psi.directed_gaps()[t], _pair_loop_gaps(psi, t)
                assert np.array_equal(gaps, want, equal_nan=True)
                assert np.array_equal(np.signbit(gaps), np.signbit(want))
    assert closed > 100 and open_ > 100 and sum(kernel_pairs) > 0


@pytest.mark.parametrize("seed", range(3))
def test_concave_preference_gaps_skip_keying_and_kernel(seed, monkeypatch):
    """A concave payoff makes every improvement set a run of consecutive
    own-grid nodes, so every nonempty cell of a pref_from_payoff table
    is saturated: its gaps, the pair loop's, come from the closed form
    alone, with no pair key sorted and no _ordered_gaps call."""
    def refuse(*_):
        raise AssertionError("a saturated pair reached the R^1 kernel")

    rng = np.random.default_rng(seed)
    g, _, _ = _quadratic_game(rng, int(rng.integers(5, 16)), ((0,), (1, 2)))
    for i in range(2):
        p = pref_from_payoff(g, i)
        assert _saturated_cells(p)[p.counts > 0].all()
        sorts, unique = [], np.unique
        monkeypatch.setattr(np, "unique", lambda a, **kw: sorts.append(len(a)) or unique(a, **kw))
        monkeypatch.setattr(corr, "_ordered_gaps", refuse)
        gaps = p.directed_gaps()
        monkeypatch.undo()
        segs = p.segment_index()[0]
        assert len(segs) > 1 and (p.counts == 0).any()
        # the segment codes of every row, then the values of the distinct rows
        assert sorts == [p.counts.size, (segs[:, 1] - segs[:, 0]).sum()]
        for t in range(len(p.space)):
            assert np.array_equal(gaps[t], _pair_loop_gaps(p, t), equal_nan=True)


def test_ordered_gaps_form_no_padded_block(monkeypatch):
    def padded(*_):
        raise AssertionError("the 1-D gap kernel padded its rows")

    monkeypatch.setattr(corr, "_padded_rows", padded)
    psi = _ordered_rows(np.random.default_rng(3), "scaled", line_grid(12))
    assert np.array_equal(psi.directed_gaps()[0], _pair_loop_gaps(psi, 0), equal_nan=True)
    with pytest.raises(AssertionError, match="padded"):
        _random_rows(np.random.default_rng(3), 2, line_grid(12)).directed_gaps()[0]


def test_ordered_gaps_peak_memory_within_padded_path():
    """On a 1-D table with at least 8 chunks of source points, the 1-D
    kernel's traced peak is no higher than the padded (dim > 1) path's
    on the same segments, the points given a zero second coordinate."""
    rng = np.random.default_rng(8)
    grid = line_grid(300)
    k = 120
    x = rng.normal(size=(len(grid) * k, 1))
    bounds = np.stack([np.arange(len(grid)) * k, np.arange(1, len(grid) + 1) * k], axis=-1)
    pi, pj = grid.directed_pair_arrays()
    assert k * len(pi) >= 8 * (corr.GAP_CHUNK // 16)

    def peak(points):
        tracemalloc.start()
        try:
            corr._packed_gaps(points, bounds, pi[:len(pi) // 2], pj[:len(pj) // 2])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(x) <= peak(np.hstack([x, np.zeros_like(x)]))


def _shared_rows(rng, dim, grid):
    """A table built with Corr(...) directly whose cells point at a few
    segments: every segment serves many cells, two distinct segments
    hold equal values (a block laid out twice), others overlap, and
    about a fifth of the cells are empty.  Lattice values make nearest
    and farthest distances tie."""
    k = int(rng.integers(1, 5))
    block = rng.integers(-3, 4, size=(k, dim)) * 0.5
    points = np.vstack([block, block, rng.integers(-6, 7, size=(12, dim)) * 0.25])
    segs = np.array([[0, k], [k, 2 * k], [0, 1], [2 * k, 2 * k + 4],
                     [2 * k + 2, 2 * k + 12], [2 * k + 5, 2 * k + 6]])
    bounds = segs[rng.integers(0, len(segs), size=(2, len(grid)))]
    bounds[rng.uniform(size=(2, len(grid))) < 0.2] = [3, 3]
    return Corr(AtomSpace(("a", "b"), [0.5, 0.5]), grid, dim, points, bounds)


@pytest.mark.parametrize("chunk", [16, 1 << 18])
@pytest.mark.parametrize("dim", [1, 2])
def test_gaps_of_shared_segments_match_pair_loop_reference(dim, chunk, monkeypatch):
    """Cells sharing a few segments give the pair loop's gaps, 0.0
    wherever both ends share a segment."""
    monkeypatch.setattr(corr, "GAP_CHUNK", chunk)
    rng = np.random.default_rng(10 * dim + chunk.bit_length())
    checked = 0
    for grid in (line_grid(25), GridSpace(rng.uniform(size=(30, 2)))):
        pi, pj = grid.directed_pair_arrays()
        for _ in range(4):
            psi = _shared_rows(rng, dim, grid)
            for t in range(2):
                gaps = psi.directed_gaps()[t]
                assert np.array_equal(gaps, _pair_loop_gaps(psi, t), equal_nan=True)
                shared = (psi.bounds[t, pi] == psi.bounds[t, pj]).all(axis=1)
                assert (gaps[shared & ~np.isnan(gaps)] == 0.0).all()
                checked += np.count_nonzero(~np.isnan(gaps) & ~shared)
    assert checked > 200


@pytest.mark.parametrize("dim", [1, 2])
def test_one_segment_table_gaps_skip_keying_and_kernels(dim, monkeypatch):
    """A table whose nonempty cells all hold one segment, an empty cell
    included, reads the gaps of the general path from its counts alone,
    without stacking the table, sorting a key or running a kernel.  The
    general path is forced by one more, unreferenced row of bounds: it
    keys every live pair to the diagonal, or in R^1 finds every row
    saturated and measures each pair in closed form."""
    rng = np.random.default_rng(dim)
    grid = GridSpace(rng.uniform(size=(20, 2)))
    value = PointSet.of(dim, rng.uniform(size=(4, dim)))
    bounds = np.full((2, len(grid), 2), [0, 4])
    bounds[1, 3] = [0, 0]
    psi = Corr(AtomSpace(("a", "b"), [0.5, 0.5]), grid, dim, value.points, bounds)
    pi, pj = grid.directed_pair_arrays()
    rows = np.arange(2 * len(grid)).reshape(2, -1)
    src, dst = rows[:, pi[:len(pi) // 2]].ravel(), rows[:, pj[:len(pj) // 2]].ravel()
    keyed = corr._packed_gaps(psi.points, np.vstack([bounds.reshape(-1, 2), [[0, 1]]]), src, dst)

    def forbidden(*_, **__):
        raise AssertionError("the one-segment table was keyed or measured")

    for name in ("_ordered_gaps", "_padded_gaps", "_packed_gaps", "_stacked"):
        monkeypatch.setattr(corr, name, forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    gaps = psi.directed_gaps()
    monkeypatch.undo()
    # (directions, atoms, pairs) -> (atoms, directions * pairs), as _cache_gaps lays out
    want = keyed.reshape(2, 2, -1).transpose(1, 0, 2).reshape(2, -1)
    assert gaps.tobytes() == want.tobytes()
    assert (gaps[0] == 0.0).all() and np.isnan(gaps[1]).any()


@pytest.mark.parametrize("dim", [1, 2])
def test_gap_kernel_measures_each_distinct_segment_pair_once(dim, monkeypatch):
    """The kernel behind directed_gaps runs once per table, on the first
    read, and receives every pair of distinct segments that a live
    adjacent pair of any atom joins, each exactly once, except the
    pairs measured in closed form, and no pair of one segment.  In R^1
    a pair is one direction, source then target, and only a direction
    toward an unsaturated target reaches the kernel; otherwise a pair is
    unordered, and only pairs of two single points are left out."""
    calls = []
    for name in ("_ordered_gaps", "_padded_gaps"):
        def recording(points, bounds, src, dst, kernel=getattr(corr, name)):
            pairs = zip(map(tuple, bounds[src].tolist()), map(tuple, bounds[dst].tolist()))
            calls.append([pair if dim == 1 else tuple(sorted(pair)) for pair in pairs])
            return kernel(points, bounds, src, dst)

        monkeypatch.setattr(corr, name, recording)
    rng = np.random.default_rng(dim)
    for grid in (line_grid(40), GridSpace(rng.uniform(size=(30, 2)))):
        pi, pj = grid.directed_pair_arrays()
        psi = _shared_rows(rng, dim, grid)
        calls.clear()
        for t in (1, 0):
            psi.directed_gaps()[t]
        a, b = psi.bounds[:, pi], psi.bounds[:, pj]
        live = (psi.counts[:, pi] > 0) & (psi.counts[:, pj] > 0) & (a != b).any(axis=-1)
        if dim == 1:  # pi, pj list each pair in both directions
            closed, key = _saturated_cells(psi)[:, pj], tuple
        else:
            closed, key = (psi.counts[:, pi] == 1) & (psi.counts[:, pj] == 1), sorted
        want = {tuple(key(pair)) for pair in zip(map(tuple, a[live & ~closed].tolist()),
                                                  map(tuple, b[live & ~closed].tolist()))}
        assert (live & closed).any()
        assert len(calls) == 1
        assert len(calls[0]) == len(want) < live.sum() // 2
        assert set(calls[0]) == want


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_closed_form_gaps_match_the_kernels(dim, monkeypatch):
    """A pair of two single points, measured in closed form, gets the
    kernel's gaps bit for bit, in one call with pairs that do reach the
    kernel; a table of one segment gets 0.0 on every live pair with no
    kernel call."""
    rng = np.random.default_rng(dim)
    points = np.vstack([rng.normal(size=(30, dim)) * 10.0 ** rng.integers(-3, 4, size=(30, 1)),
                        rng.integers(-3, 4, size=(30, dim)) * 0.25])
    bounds = np.vstack([np.column_stack([np.arange(60), np.arange(1, 61)]),
                        [[0, 5], [10, 12], [40, 50], [7, 7]]])
    src, dst = rng.integers(0, len(bounds), size=(2, 400))
    gaps = corr._packed_gaps(points, bounds, src, dst)
    counts = bounds[:, 1] - bounds[:, 0]
    live = (counts[src] > 0) & (counts[dst] > 0) & (src != dst)
    assert ((counts[src] == 1) & (counts[dst] == 1) & live).sum() > 300
    if dim == 1:  # one direction per call
        want = np.stack([corr._ordered_gaps(points, bounds, s[live], d[live])
                         for s, d in ((src, dst), (dst, src))])
    else:
        want = corr._padded_gaps(points, bounds, src[live], dst[live])
    assert np.array_equal(gaps[:, live], want)

    def refuse(*args):
        raise AssertionError("a one-segment table reached the kernel")

    monkeypatch.setattr(corr, "_ordered_gaps", refuse)
    monkeypatch.setattr(corr, "_padded_gaps", refuse)
    space, grid = AtomSpace(("a", "b"), [0.5, 0.5]), line_grid(7)
    for size in (1, 3):
        f = Corr.constant(space, grid, PointSet.of(dim, rng.normal(size=(size, dim))))
        assert (f.directed_gaps() == 0.0).all()
    assert np.isnan(Corr.constant(space, grid, PointSet.empty(dim)).directed_gaps()).all()


@pytest.mark.parametrize("dim", [1, 2])
def test_single_point_pairs_are_measured_before_keying(dim, monkeypatch):
    """A glued table gives every domain cell its own single point: those
    pairs are measured before keying, so no pair of two single-point
    rows reaches a kernel.  Only the pairs with a longer row are keyed;
    in R^1 only their directions toward an unsaturated row, here a
    fallback of three points with singletons inside its hull.  Every
    gap matches a per-pair cross-distance reference."""
    rng = np.random.default_rng(dim)
    grid = GridSpace(rng.uniform(size=(40, 2)))
    on = rng.uniform(size=(2, len(grid))) < 0.7
    fallback = rng.normal(size=(3, dim))
    bounds = np.zeros((2, len(grid), 2), dtype=int)
    bounds[~on] = [0, 3]
    bounds[on] = 3 + _segments(np.ones(on.sum(), dtype=int))
    bounds[1, 5] = [0, 0]  # an empty cell
    points = np.vstack([fallback, rng.normal(size=(on.sum(), dim))])
    psi = Corr(AtomSpace(("a", "b"), [0.5, 0.5]), grid, dim, points, bounds)
    pi, pj = grid.directed_pair_arrays()
    pairs, keyed = [], []
    for name in ("_ordered_gaps", "_padded_gaps"):
        def recording(points, rows, src, dst, kernel=getattr(corr, name)):
            pairs.extend(zip((rows[src, 1] - rows[src, 0]).tolist(),
                             (rows[dst, 1] - rows[dst, 0]).tolist()))
            return kernel(points, rows, src, dst)

        monkeypatch.setattr(corr, name, recording)
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda a, **kw: keyed.append(len(a)) or unique(a, **kw))
    gaps = psi.directed_gaps()
    monkeypatch.undo()
    count = psi.counts
    live = (count[:, pi] > 0) & (count[:, pj] > 0)
    longer = live & ((count[:, pi] > 1) | (count[:, pj] > 1))
    # the segment codes of every row, then one key per unordered pair left
    codes, left = [bounds.size // 2], longer.sum() // 2
    if dim == 1:  # the values of the distinct rows are ranked in between
        full = _saturated_cells(psi)
        assert full[count == 1].all() and not full[count == 3].any()
        longer &= ~full[:, pj]  # pi, pj list each pair in both directions
        codes.append(3 + np.count_nonzero(count == 1))
        left = longer.sum()  # one key per direction left
    assert pairs and (1, 1) not in pairs
    assert (live & ~longer).sum() > longer.sum() > 0
    assert keyed[:len(codes) + 1] == codes + [left]
    for t in range(2):
        for k in range(len(pi)):
            if not live[t, k]:
                assert np.isnan(gaps[t, k])
                continue
            a, b = bounds[t, pi[k]], bounds[t, pj[k]]
            near = _cross_dists(points[a[0]:a[1]], points[b[0]:b[1]]).min(axis=1)
            assert gaps[t, k] == near.max()


def _old_pair_arrays(grid):
    """directed_pair_arrays as it was, through a triu copy of the mask."""
    close = dense_metric(grid) <= grid.adjacency_radius + grid_module.ADJ_TOL
    i, j = np.nonzero(np.triu(close, 1))
    return np.concatenate([i, j]), np.concatenate([j, i])


def test_pair_arrays_and_diameter_match_the_old_forms(monkeypatch):
    # bit for bit the triu form and a fresh metric.max(), on random
    # Euclidean grids, a user metric and one node; the diameter is
    # computed once
    rng = np.random.default_rng(6)
    metric = np.array([[0.0, 1.0, 2.0, 1.5], [1.0, 0.0, 1.0, 2.0],
                       [2.0, 1.0, 0.0, 1.0], [1.5, 2.0, 1.0, 0.0]])
    grids = [GridSpace(rng.uniform(size=(int(rng.integers(2, 60)), int(rng.integers(1, 4)))))
             for _ in range(6)]
    grids += [GridSpace(np.arange(4.0)[:, None], metric=metric, mesh=1.0, adjacency_radius=1.0),
              GridSpace([[0.3, 0.7]])]
    for grid in grids:
        for got, want in zip(grid.directed_pair_arrays(), _old_pair_arrays(grid)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        want = float(dense_metric(grid).max())
        assert grid.diameter == want and isinstance(grid.diameter, float)
    assert len(grids[-1].directed_pair_arrays()[0]) == 0 and grids[-1].diameter == 0.0
    fresh = GridSpace(rng.uniform(size=(30, 2)))
    first = fresh.diameter
    # a second read computes no distance
    monkeypatch.setattr(grid_module, "_distances", None)
    assert fresh.diameter == first


def _loop_hull_modulus(psi, w):
    """scip_verify's indexed-mode modulus as the per-(t, x, pair) loop it
    was before it went through the gap kernel."""
    modulus = 0.0
    metric = dense_metric(psi.grid)
    pi, pj = psi.grid.directed_pair_arrays()
    pairs = list(zip(pi[:len(pi) // 2].tolist(), pj[:len(pj) // 2].tolist()))
    for t in range(len(psi.space)):
        for x in range(len(psi.grid)):
            for (i, j) in pairs:
                a = w.local(i).value(t, x)
                b = w.local(j).value(t, x)
                if a.is_empty or b.is_empty:
                    continue
                d = metric[i, j]
                if d <= 0:
                    continue
                modulus = max(modulus, hausdorff_dist(a, b) / d)
    return modulus


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hull_modulus_matches_loop_reference(dim):
    rng = np.random.default_rng(dim)
    space = AtomSpace(("a", "b", "c"), [1.0] * 3)
    for grid in (line_grid(9), GridSpace(rng.uniform(size=(12, 2)))):
        psi = _random_rows(rng, dim, grid)
        psi = Corr(space, grid, dim, psi.points, np.concatenate([psi.bounds, psi.bounds[:1]]))
        shared = Corr.constant(space, grid, PointSet.of(dim, rng.normal(size=(2, dim))))
        locs = {z: shared if z % 3 == 0 else Corr(space, grid, dim, psi.points,
                                                   rng.permutation(psi.bounds.reshape(-1, 2))
                                                   .reshape(psi.bounds.shape))
                for z in range(len(grid))}
        w = CipWitness("indexed", locs, {}, box=(np.full(dim, -1e4), np.full(dim, 1e4)))
        want = _loop_hull_modulus(psi, w)
        assert want > 0.0
        assert corr._hull_modulus(psi, w, w.distinct_locals()) == want


def test_hull_modulus_missing_local_names_first_node_in_pair_order():
    space, grid = single_atom(), line_grid(6)
    f = Corr.constant(space, grid, PointSet.of(1, [[0.0]]))
    w = CipWitness("indexed", {z: f for z in (0, 1, 2, 4)}, {})
    with pytest.raises(DomainError) as want:
        _loop_hull_modulus(Corr.constant(space, grid, PointSet.of(1, [[0.0]])), w)
    with pytest.raises(DomainError) as got:
        corr._hull_modulus(f, w, w.distinct_locals())
    assert str(got.value) == str(want.value) == "witness has no local correspondence at node 3"


# ------------------------------------------- array passes against per-cell code

def _lost_point(a, b):
    """The per-pair witness point lsc_check and usc_check built before
    they gathered it from the gap kernel: the point of a farthest from b
    (the first such point)."""
    d = _cross_dists(a.points, b.points).min(axis=1)
    return a.points[int(d.argmax())]


def _violations_reference(psi, t, eps, kind):
    """The per-pair violation loops of lsc_check ("lsc") and usc_check
    ("usc") before the array pass."""
    pi, pj = psi.grid.directed_pair_arrays()
    gaps = psi.directed_gaps()[t]
    half = len(pi) // 2
    out = []
    if kind == "lsc":
        for k in np.nonzero(~np.isnan(gaps) & (gaps >= eps))[0]:
            z, y = int(pi[k]), int(pj[k])
            out.append((z, y, _lost_point(psi.value(t, z), psi.value(t, y))))
        return out
    fwd, bwd = gaps[:half], gaps[half:]
    for k in np.nonzero(~np.isnan(fwd) & (np.minimum(fwd, bwd) >= eps))[0]:
        i, j = int(pi[k]), int(pj[k])
        a, b = psi.value(t, i), psi.value(t, j)
        src, dst = (a, b) if fwd[k] <= bwd[k] else (b, a)
        out.append((i, j, _lost_point(src, dst)))
    return out


def test_semicontinuity_violations_match_per_pair_reference():
    rng = np.random.default_rng(21)
    cases = [_random_rows(rng, dim, grid) for dim in (1, 2, 3)
             for grid in (line_grid(int(rng.integers(2, 25))),
                          GridSpace(rng.uniform(size=(int(rng.integers(2, 30)), 2))))]
    # ties: both outer points of {-1, 0, 1} are farthest from {0}
    space = AtomSpace(("a",), [1.0])
    wide, narrow = PointSet.of(1, [[-1.0], [0.0], [1.0]]), PointSet.of(1, [[0.0]])
    cases.append(Corr.from_function(space, line_grid(6), 1,
                                    lambda t, z: wide if z % 2 else narrow))
    seen = 0
    for psi in cases:
        for t in range(len(psi.space)):
            finite = psi.directed_gaps()[t][~np.isnan(psi.directed_gaps()[t])]
            for q in (0.1, 0.5, 0.9):
                eps = float(np.quantile(finite, q)) if len(finite) else 1.0
                eps = eps if eps > 0 else 1e-3
                for kind, check in (("lsc", lsc_check), ("usc", usc_check)):
                    got = check(psi, t, eps).violations
                    want = _violations_reference(psi, t, eps, kind)
                    assert [(z, y) for z, y, _ in got] == [(z, y) for z, y, _ in want]
                    for (_, _, p), (_, _, q_) in zip(got, want):
                        assert np.array_equal(p, q_)
                    seen += len(got)
    assert seen > 100


def test_witness_points_are_found_only_for_reported_violations(monkeypatch):
    """The gap tables hold gaps only: verifying, gluing, selecting and
    the cell-constancy tests never measure a witness point, and
    lsc_check and usc_check measure one pair per violation they report."""
    calls = []
    cross = corr._cross_dists
    monkeypatch.setattr(corr, "_cross_dists", lambda a, b: calls.append(len(a)) or cross(a, b))
    rng = np.random.default_rng(5)
    for seed in range(6):
        inst = random_cip_instance(np.random.default_rng(seed))
        inst.psi.directed_gaps()
        cip_verify(inst.psi, inst.witness, eps=inst.eps)
        cell_varying([inst.psi], inst.part)
        caratheodory_select(inst.psi, inst.witness, inst.part, eps=inst.eps, restarts=2)
    assert calls == []
    reported = 0
    for dim in (1, 2):
        psi = _random_rows(rng, dim, GridSpace(rng.uniform(size=(15, 2))))
        for t in range(len(psi.space)):
            for check in (lsc_check, usc_check):
                for eps in (1e-3, 0.5, 1e9):
                    calls.clear()
                    report = check(psi, t, eps)
                    assert len(calls) == len(report.violations)
                    reported += len(calls)
    assert reported > 20


def _segment_pool_reference(psi, w, take=None):
    """pool_captured as it ran before the interior points came from the
    locals' cached segment margins: take applied once per distinct
    active segment of one local, and per cell when pooling several."""
    groups = w.distinct_locals()
    captures = capture_matrix(psi, w)
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


def _pooling_cases(rng, dim):
    """(psi, witness) pairs with empty cells: a canonical and a shared
    witness, and countable and indexed ones with three distinct locals."""
    grid = line_grid(int(rng.integers(3, 14)))
    psi = _random_rows(rng, dim, grid)
    radii = {key: float(rng.uniform(0.5, 3.0)) * grid.mesh for key in domain(psi)}
    locs = [_random_rows(rng, dim, grid) for _ in range(3)]
    box = (np.full(dim, -1e4), np.full(dim, 1e4))
    return [
        (psi, canonical_witness(psi)),
        (psi, CipWitness.shared(grid, _random_rows(rng, dim, grid), radii)),
        (psi, CipWitness("countable", {z: locs[z % 3] for z in range(len(grid))}, radii)),
        (psi, CipWitness("indexed", {z: locs[z % 2] for z in range(len(grid))}, radii, box)),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_k_operator_matches_per_segment_reference(dim):
    rng = np.random.default_rng(40 + dim)
    interior = 0
    for _ in range(3):
        for psi, w in _pooling_cases(rng, dim):
            pairs = ((k_operator(psi, w), _segment_pool_reference(psi, w, _interior_samples)),
                     (pool_captured(psi, w), _segment_pool_reference(psi, w)))
            for got, want in pairs:
                assert np.array_equal(got.points, want.points)
                assert np.array_equal(got.bounds, want.bounds)
            interior += int(k_operator(psi, w).counts.sum())
    assert interior > 0


def _near_duplicate_family(rng, dim):
    """psi and a countable and an indexed witness pooling three locals:
    one of _random_rows, the same moved by 0.4 DEDUP_TOL (every pooled
    cell holding both keeps only the first's points), and in dim >= 2 the
    same with its first coordinates kept and the others moved by 1.0 (a
    cell that _dedup must look at and keep whole)."""
    grid = line_grid(int(rng.integers(3, 14)))
    psi = _random_rows(rng, dim, grid)
    a = _random_rows(rng, dim, grid)
    apart = a.points + np.r_[0.0, np.ones(dim - 1)] if dim > 1 else a.points + 5.0
    locs = [a] + [Corr(a.space, grid, dim, points, a.bounds)
                  for points in (a.points + 0.4 * DEDUP_TOL, apart)]
    radii = {key: float(rng.uniform(0.5, 3.0)) * grid.mesh for key in domain(psi)}
    box = (np.full(dim, -1e4), np.full(dim, 1e4))
    return psi, [CipWitness("countable", {z: locs[z % 3] for z in range(len(grid))}, radii),
                 CipWitness("indexed", {z: locs[(z + 1) % 3] for z in range(len(grid))},
                            radii, box)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pooling_of_several_locals_matches_per_cell_reference(dim):
    """The one array pass of pool_captured equals Corr.from_function over
    one PointSet.of per cell, points and bounds bit for bit, and at every
    cell the union of the values of the capturing nodes' locals
    (n_operator) as a set, up to the near-duplicates dropped."""
    rng = np.random.default_rng(60 + dim)
    dropped = 0
    for _ in range(3):
        near, witnesses = _near_duplicate_family(rng, dim)
        for psi, w in [(near, w) for w in witnesses] + _pooling_cases(rng, dim)[2:]:
            got = pool_captured(psi, w)
            want = _segment_pool_reference(psi, w)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.bounds, want.bounds)
            captures = capture_matrix(psi, w)
            for t, x in np.ndindex(got.counts.shape):
                union = n_operator(t, x, np.flatnonzero(captures[t, x]), w)
                value = got.value(t, x)
                assert len(value) == len(union)
                if len(value):
                    d = _cross_dists(value.points, union.points)
                    assert d.min(axis=0).max() <= DEDUP_TOL and d.min(axis=1).max() <= DEDUP_TOL
                raw = sum(len(f.value(t, x)) for f, zs in w.distinct_locals()
                          if captures[t, x, zs].any())
                dropped += raw - len(value)
    assert dropped > 0


def test_interior_cells_of_at_most_dim_points_read_no_margins():
    """A table holding at most dim points per cell has no interior cell,
    as the margin path finds, and builds no segment index or margins."""
    rng = np.random.default_rng(70)
    for dim in (1, 2, 3):
        def value(t, z):
            return PointSet.of(dim, rng.normal(size=(int(rng.integers(0, dim + 1)), dim)))

        small = Corr.from_function(AtomSpace(("a", "b"), [0.5, 0.5]), line_grid(9), dim, value)
        assert small.counts.max() == dim
        on = rng.random(small.counts.shape) < 0.7
        got = small.interior_cells(on)
        assert "_segment_index" not in small.__dict__ and "_margins" not in small.__dict__
        want = np.zeros(on.shape, dtype=bool)
        for t, z in np.argwhere(on & (small.counts > 0)):
            want[t, z] = max_vertex_margin(ConvexSet(dim, small.value(t, z).points)) > 0.0
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interior_cells_match_per_cell_margins(dim):
    rng = np.random.default_rng(50 + dim)
    for _ in range(3):
        psi = _random_rows(rng, dim, line_grid(int(rng.integers(2, 14))))
        for on in (psi.counts > 0, rng.random(psi.counts.shape) < 0.4):
            want = np.zeros(psi.counts.shape, dtype=bool)
            for t, z in np.argwhere(on & (psi.counts > 0)):
                want[t, z] = max_vertex_margin(ConvexSet(psi.dim, psi.value(t, z).points)) > 0.0
            assert np.array_equal(psi.interior_cells(on), want)


def _countable_family(seed, dim=2, n=12):
    """psi and a countable witness with one distinct _shared_rows local per
    node (empty cells, shared segments, lattice values), every ball 1.5
    meshes wide; the radii are cell-constant under any partition."""
    rng = np.random.default_rng(seed)
    grid = line_grid(n)
    psi = _shared_rows(rng, dim, grid)
    locs = {z: _shared_rows(rng, dim, grid) for z in range(n)}
    return psi, CipWitness("countable", locs, np.full(psi.counts.shape, 1.5 * grid.mesh))


def test_witness_family_kernel_call_budget(monkeypatch):
    """cip_verify fills every local's gap table with one _packed_gaps call
    and measures all inclusion residuals with one segment_distances call;
    a second cip_verify measures nothing (the residuals are kept on psi)
    and reading a local's gaps later adds no call.  construct_phi after
    cip_verify reads phi-inclusion from those residuals and builds no
    PointSet, pooled or shared; each stacked cell-constancy test is one
    call.  A shared local on a space equal to psi's (not the same object)
    is phi itself, so its phi-lsc check reads the gap table cip_verify
    filled."""
    calls = {"_packed_gaps": 0, "segment_distances": 0, "PointSet.of": 0}
    for name in ("_packed_gaps", "segment_distances"):
        def counting(*args, name=name, kernel=getattr(corr, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(corr, name, counting)
    of = PointSet.of

    def counting_of(cls, *args):
        calls["PointSet.of"] += 1
        return of(*args)

    monkeypatch.setattr(PointSet, "of", classmethod(counting_of))
    psi, w = _countable_family(0)
    assert len(w.distinct_locals()) >= 5
    calls["PointSet.of"] = 0
    report = cip_verify(psi, w, eps=0.3)
    assert report.inclusion_residual > 0.0
    assert calls == {"_packed_gaps": 1, "segment_distances": 1, "PointSet.of": 0}
    cip_verify(psi, w, eps=0.3)  # every local's gaps and residuals are cached now
    assert calls == {"_packed_gaps": 1, "segment_distances": 1, "PointSet.of": 0}
    for f, _ in w.distinct_locals():
        lsc_check(f, 1, 0.3)
    assert calls["_packed_gaps"] == 1
    part = InfoPartition.trivial(psi.space)
    scip_verify(psi, w, part, CipReport(True))
    assert calls["_packed_gaps"] == 2
    _inputs_cell_constant(psi, w, part)
    assert calls["_packed_gaps"] == 3
    shared = CipWitness.shared(psi.grid, w.local(0), w.radii)
    assert cip_verify(psi, shared, eps=0.3).inclusion_residual > 0.0
    measured = calls["segment_distances"]
    for witness in (w, shared):
        res = construct_phi(psi, witness, part, eps=0.3)
        assert (res.phi.points is w.local(0).points) == (witness is shared)
        assert next(c for c in res.certificate if c.name == "phi-inclusion").residual > 0.0
    assert calls["segment_distances"] == measured and calls["PointSet.of"] == 0
    assert shared.local(0).space is not psi.space and shared.local(0).space == psi.space
    gaps = calls["_packed_gaps"]
    assert construct_phi(psi, shared, part, eps=0.3).phi is shared.local(0)
    assert calls["_packed_gaps"] == gaps + 1  # the cell-constancy test alone


def test_residuals_measure_only_the_cells_not_yet_kept(monkeypatch):
    """_residuals under a partial mask, then a wider one, returns what a
    psi with no kept residuals returns under each mask, and the second
    call measures only the points of the cells the first left out."""
    measured = []

    def counting(x, *args, kernel=corr.segment_distances):
        measured.append(len(x))
        return kernel(x, *args)

    rng = np.random.default_rng(5)
    for dim in (1, 2):
        psi, w = _countable_family(20 + dim, dim)
        tables = [psi] + [f for f, _ in w.distinct_locals()]
        narrow = rng.random((len(tables),) + psi.counts.shape) < 0.3
        wide = narrow | (rng.random(narrow.shape) < 0.5)
        for on in (narrow, wide):
            want = corr._residuals(Corr(psi.space, psi.grid, dim, psi.points, psi.bounds),
                                   tables, on)
            monkeypatch.setattr(corr, "segment_distances", counting)
            measured.clear()
            got = corr._residuals(psi, tables, on)
            monkeypatch.undo()
            assert np.array_equal(got, want)
            new = on & ~narrow if on is wide else on
            live = new & (psi.counts > 0) & ~np.stack([(f.bounds == psi.bounds).all(axis=-1)
                                                       & (f.points is psi.points) for f in tables])
            assert sum(measured) == sum(f.counts[m].sum() for f, m in zip(tables, live))
        assert np.isinf(got).any() and (got > 0.0).any()


def test_residual_cache_holds_no_reference_cycle():
    """The residuals kept on psi are keyed weakly by the table: a
    canonical witness's local is psi itself, so a strong key would hold
    psi in a reference cycle until the cycle collector ran.  Once every
    reference to psi is dropped, psi is freed at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        space, grid, psi = jump_problem()
        w = canonical_witness(psi)
        assert cip_verify(psi, w, eps=1.5).ok
        assert psi in psi.__dict__["_residual_cache"]
        gone = weakref.ref(psi)
        del psi, w
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_family_gap_caches_match_fresh_tables(dim):
    """After cip_verify fills the caches of all locals in one pass, each
    local's gaps and l.s.c. violation points equal those of a fresh copy
    of it that computes its own, bit for bit."""
    psi, w = _countable_family(dim, dim)
    cip_verify(psi, w, eps=0.3)
    nan = shared = lost = 0
    for f, _ in w.distinct_locals():
        assert "_gap_cache" in f.__dict__
        fresh = Corr(f.space, f.grid, f.dim, f.points, f.bounds)
        for t in range(len(f.space)):
            gaps = f.directed_gaps()[t]
            assert np.array_equal(gaps, fresh.directed_gaps()[t], equal_nan=True)
            report = lsc_check(f, t, 0.3)
            _same_report(report, lsc_check(fresh, t, 0.3))
            nan += np.isnan(gaps).sum()
            shared += (gaps == 0.0).sum()
            lost += len(report.violations)
    assert nan and shared and lost


@pytest.mark.parametrize("seed", range(4))
def test_residual_chunk_of_one_point_keeps_reports(seed, monkeypatch):
    """The stacked residual pass gives the same CipReport and construct_phi
    certificate when every segment_distances call measures one point."""
    cases = [_countable_family(seed)]
    rng = np.random.default_rng(seed)
    while len(cases) < 3:
        inst = random_cip_instance(rng)
        if inst.style == "moving":
            cases.append((inst.psi, inst.witness))

    def outputs():
        out = []
        for psi, w in cases:
            # a fresh psi keeps no residual from the last pass (corr._residuals)
            psi = Corr(psi.space, psi.grid, psi.dim, psi.points, psi.bounds)
            part = InfoPartition.trivial(psi.space)
            out.append((vars(cip_verify(psi, w, eps=0.3)),
                        [c.as_dict() for c in construct_phi(psi, w, part, eps=0.3).certificate]))
        return out

    want = outputs()
    assert any(report["failures"] for report, _ in want)
    monkeypatch.setattr(corr, "RESIDUAL_CHUNK", 1)
    assert outputs() == want


def _distinct_locals_loop_reference(w):
    """distinct_locals as one identity-keyed setdefault per node, the form
    every mode took before shared witnesses read their one local."""
    groups = {}
    for z, f in w.locals.items():
        groups.setdefault(id(f), (f, []))[1].append(z)
    return [(f, sorted(zs)) for f, zs in groups.values()]


def test_shared_distinct_locals_is_the_grouping_loop():
    space = AtomSpace(("a", "b"), [1.0, 1.0])
    grid = line_grid(6)
    f = Corr.constant(space, grid, PointSet.of(1, [[0.5]]))
    radii = np.full((2, 6), 0.3)
    for locs in ({z: f for z in range(6)}, {z: f for z in reversed(range(6))},
                 {np.int64(z): f for z in (3, 0, 5)}):
        w = CipWitness("shared", locs, radii)
        (got_f, got_zs), = w.distinct_locals()
        (want_f, want_zs), = _distinct_locals_loop_reference(w)
        assert got_f is want_f and got_zs == want_zs == sorted(locs)

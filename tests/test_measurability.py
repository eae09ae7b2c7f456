"""Cell-wise measurability: every check that a table is constant on the
information cells, compared with the per-cell loops it replaced (kept
here as references), on random coarse partitions whose cells are given
out of atom order, with empty cells, shared segments, and values moved
within and just beyond the 1e-9 set-equality tolerance."""

import numpy as np
import pytest

import carasel.corr
from carasel import (
    AtomSpace,
    CipWitness,
    Corr,
    DomainError,
    GameSpec,
    InfoPartition,
    PointSet,
    Selection,
    canonical_witness,
    caratheodory_select,
    construct_phi,
    glue,
    maximal_element,
    scip_verify,
)
from carasel.corr import (
    SET_EQUALITY_TOL,
    CipReport,
    _atom_failures,
    cell_varying,
)
from carasel.equilibria import _payoff_cell_constancy, _profile_cell_constancy
from carasel.reporting import CheckSet
from carasel.selection import _inputs_cell_constant
from conftest import capture_matrix, line_grid, same_set
from instances import domain, random_cip_instance

WITHIN, BEYOND = 0.9e-9, 1.1e-9  # moves on either side of SET_EQUALITY_TOL


# ------------------------------------------------------- random instances

def _random_partition(rng, space: AtomSpace) -> InfoPartition:
    """Random cells, listed in shuffled order, each with its atoms reversed."""
    n = len(space)
    labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    cells = [tuple(np.flatnonzero(labels == c)[::-1].tolist()) for c in np.unique(labels)]
    order = rng.permutation(len(cells))
    return InfoPartition(space, tuple(cells[k] for k in order))


def _moved(rng, ps: PointSet, step: float) -> PointSet:
    """ps with one point moved by step along one axis."""
    pts = ps.points.copy()
    pts[rng.integers(len(pts)), rng.integers(ps.dim)] += step
    return PointSet.of(ps.dim, pts)


def _variant(rng, base: PointSet, kinds) -> PointSet:
    """A value for a non-head atom: base itself (a shared segment), an
    equal set in another order, base moved within or beyond the
    tolerance, the empty set, or another nonempty set."""
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "same" or (base.is_empty and kind != "other"):
        return base
    if kind == "empty":
        return PointSet.empty(base.dim)
    if kind == "other":
        size = (int(rng.integers(1, 4)), base.dim)
        return PointSet.of(base.dim, rng.uniform(0.0, 1.0, size=size))
    if kind == "permuted":
        return PointSet.of(base.dim, base.points[rng.permutation(len(base))])
    return _moved(rng, base, WITHIN if kind == "within" else BEYOND)


ALL_KINDS = ("same", "same", "permuted", "within", "beyond", "other", "empty")


def _random_table(rng, space, grid, dim, part, kinds=ALL_KINDS, p_empty=0.2) -> Corr:
    """A table whose head values are random sets (empty with p_empty) and
    whose other atoms take _variant's values of their cell head's."""
    table = {}
    for cell in part.cells:
        for z in range(len(grid)):
            k = int(rng.integers(1, 4))
            base = (PointSet.empty(dim) if rng.random() < p_empty
                    else PointSet.of(dim, rng.uniform(0.0, 1.0, size=(k, dim))))
            table[(cell[0], z)] = base
            for t in cell[1:]:
                table[(t, z)] = _variant(rng, base, kinds)
    return Corr.from_function(space, grid, dim, lambda t, z: table[(t, z)])


def _random_setup(seed: int):
    rng = np.random.default_rng(seed)
    n_atoms = int(rng.integers(1, 6))
    space = AtomSpace(tuple(f"a{k}" for k in range(n_atoms)), [1.0] * n_atoms)
    grid, dim = line_grid(int(rng.integers(2, 7))), int(rng.integers(1, 4))
    return rng, space, grid, dim, _random_partition(rng, space)


# ------------------------------------------------------------- references

def _constant_at(f: Corr, part: InfoPartition, z: int) -> bool:
    """Whether f's value at node z is constant as a set on every cell of
    part: the per-cell loop over PointSet views."""
    for cell in part.cells:
        for t in cell[1:]:
            if not same_set(f.value(t, z), f.value(cell[0], z), SET_EQUALITY_TOL):
                return False
    return True


def _first_local_failure(f: Corr, part: InfoPartition):
    """scip_verify's single local failure as the per-cell loop found it:
    (t, x) at the first node x, then the first atom in cell order."""
    for x in range(len(f.grid)):
        for cell in part.cells:
            for t in cell[1:]:
                if not same_set(f.value(t, x), f.value(cell[0], x), SET_EQUALITY_TOL):
                    return t, x
    return None


def _scip_measurability_reference(psi, w, part):
    failures = []
    for f, zs in sorted(w.groups, key=lambda group: group[1][0]):
        hit = _first_local_failure(f, part)
        if hit:
            failures.append(("measurability", hit[0], f"F_{zs[0]}", hit[1],
                             "local value not cell-constant"))
    n = len(psi.grid)
    caps = capture_matrix(psi, w)
    if w.mode == "countable":
        failures += [("ball-measurability", cell[0], z, x, "ball indicator not cell-constant")
                     for z in range(n) for x in range(n) for cell in part.cells
                     if len({bool(caps[t, x, z]) for t in cell}) > 1]
    if w.mode == "indexed":
        failures += [("domain-measurability", cell[0], z, -1, "nonemptiness not cell-constant")
                     for z in range(n) for cell in part.cells
                     if len({psi.counts[t, z] > 0 for t in cell}) > 1]
        failures += [("index-measurability", t, -1, x, "capture set not cell-constant")
                     for x in range(n) for cell in part.cells for t in cell[1:]
                     if (caps[t, x] != caps[cell[0], x]).any()]
    return failures


def _selection_constant_at(sel: Selection, part: InfoPartition, z: int) -> bool:
    for cell in part.cells:
        present = [t for t in cell if (t, z) in sel.values]
        if present and len(present) != len(cell):
            return False
        for t in present[1:]:
            if np.linalg.norm(sel.values[t, z] - sel.values[present[0], z]) > SET_EQUALITY_TOL:
                return False
    return True


def _inputs_reference(psi, w, part) -> bool:
    if part.is_finest:
        return False
    n = len(psi.grid)
    if not all(_constant_at(f, part, z) for f in [psi] + [f for f, _ in w.groups]
               for z in range(n)):
        return False
    return all(len({None if np.isnan(w.radii[t, z]) else float(w.radii[t, z]) for t in cell}) == 1
               for cell in part.cells for z in range(n))


def _selection_gap_reference(values: dict, part, n_nodes: int) -> float:
    gap = 0.0
    for cell in part.cells:
        for z in range(n_nodes):
            present = [t for t in cell if (t, z) in values]
            for t in present[1:]:
                gap = max(gap, float(np.linalg.norm(values[(t, z)] - values[(present[0], z)])))
    return gap


def _check(checks, name: str) -> float:
    return next(c.residual for c in checks if c.name == name)


# ------------------------------------------------------------------ tests

def test_partition_heads_follow_the_cells():
    space = AtomSpace(tuple("abcde"), [1.0] * 5)
    part = InfoPartition(space, ((4, 1), (3,), (2, 0)))
    assert part.cells == ((1, 4), (3,), (0, 2))
    assert part.cell_index.tolist() == [2, 0, 2, 1, 0]
    assert part.head.tolist() == [0, 1, 0, 3, 1]
    assert not part.is_finest and InfoPartition.finest(space).is_finest


@pytest.mark.parametrize("seed", range(40))
def test_cell_varying_matches_per_cell_reference(seed):
    rng, space, grid, dim, part = _random_setup(seed)
    f = _random_table(rng, space, grid, dim, part)
    (varying,) = cell_varying([f], part)
    for t in range(len(space)):
        head = part.cell_of(t)[0]
        for z in range(len(grid)):
            same = same_set(f.value(t, z), f.value(head, z), SET_EQUALITY_TOL)
            assert varying[t, z] == (not same)
    for z in range(len(grid)):
        assert (not varying[:, z].any()) == _constant_at(f, part, z)


def test_cell_varying_tolerance_edges():
    space = AtomSpace(("a", "b", "c", "d", "e"), [1.0] * 5)
    grid = line_grid(1)
    part = InfoPartition(space, ((4, 3, 2, 1, 0),))
    base = PointSet.of(2, [[0.25, 0.5], [0.75, 0.5]])
    values = [base, _moved(np.random.default_rng(0), base, WITHIN),
              _moved(np.random.default_rng(0), base, BEYOND), PointSet.empty(2),
              PointSet.of(2, base.points[::-1])]
    f = Corr.from_function(space, grid, 2, lambda t, z: values[t])
    assert cell_varying([f], part)[0, :, 0].tolist() == [False, False, True, True, False]
    empty = Corr.constant(space, grid, PointSet.empty(2))
    assert not cell_varying([empty], part).any()


@pytest.mark.parametrize("seed", range(30))
def test_scip_measurability_failures_match_per_cell_reference(seed):
    rng, space, grid, dim, part = _random_setup(seed)
    psi = _random_table(rng, space, grid, dim, part)
    n = len(grid)
    locals_ = [_random_table(rng, space, grid, dim, part) for _ in range(3)]
    radii = {}
    for t, z in sorted(domain(psi)):
        head = part.cell_of(t)[0]
        keep = (head, z) in radii and rng.random() < 0.7
        radii[(t, z)] = radii[(head, z)] if keep else float(rng.choice([0.1, 0.3, 0.6]))
    box = (np.full(dim, -1.0), np.full(dim, 2.0))
    for mode in ("shared", "countable", "indexed"):
        locs = ({z: locals_[0] for z in range(n)} if mode == "shared"
                else {z: locals_[int(rng.integers(3))] for z in range(n)})
        w = CipWitness(mode, locs, radii, box)
        rep = scip_verify(psi, w, part, CipReport(True))
        kinds = ("measurability", "ball-measurability", "domain-measurability",
                 "index-measurability")
        assert [fl for fl in rep.failures if fl[0] in kinds] == \
            _scip_measurability_reference(psi, w, part)


@pytest.mark.parametrize("seed", range(12))
def test_phi_measurability_count_matches_per_cell_reference(seed):
    rng, space, grid, dim, part = _random_setup(seed)
    psi = _random_table(rng, space, grid, dim, part)
    for atomic in (False, True):
        res = construct_phi(psi, canonical_witness(psi), part, atomic=atomic)
        expected = sum(not _constant_at(res.phi, part, z) for z in range(len(grid)))
        assert _check(res.certificate, "phi-measurability") == expected


@pytest.mark.parametrize("seed", range(12))
def test_maximal_element_measurability_counts_match_per_cell_reference(seed):
    # chain preferences (the nodes above z) whose non-head atoms may drop
    # a point or move one within or beyond the tolerance
    rng = np.random.default_rng(seed)
    space = AtomSpace(tuple(f"a{k}" for k in range(4)), [1.0] * 4)
    grid = line_grid(6)
    part = _random_partition(rng, space)
    table = {}
    for cell in part.cells:
        for z in range(6):
            base = PointSet.of(1, grid.points[z + 1:]) if z < 5 else PointSet.empty(1)
            table[(cell[0], z)] = base
            for t in cell[1:]:
                kind = rng.integers(4) if len(base) > 1 else 0
                table[(t, z)] = (base if kind == 0 else PointSet.of(1, base.points[1:])
                                 if kind == 1 else _moved(rng, base, (WITHIN, BEYOND)[kind - 2]))
    p = Corr.from_function(space, grid, 1, lambda t, z: table[(t, z)])
    w = canonical_witness(p)
    res = maximal_element(p, w, part)
    assert _check(res.checks, "preference-measurability") == \
        sum(not _constant_at(p, part, z) for z in range(6))
    assert _check(res.checks, "witness-measurability") == \
        sum(not _constant_at(f, part, z) for f, _ in w.groups for z in range(6))


def test_measurability_checks_measure_a_repeated_table_once(monkeypatch):
    # a canonical witness's local is the preference table itself: the
    # measurability call of maximal_element sends its 2 non-head atoms x
    # 6 nodes = 12 pairs, not 24, and _inputs_cell_constant sends none,
    # as every atom's row equals its cell head's bit for bit; these are
    # the calls on the table's own points, as the glue's calls stack the
    # glued table and the fallback
    space = AtomSpace(tuple(f"a{k}" for k in range(4)), [1.0] * 4)
    grid = line_grid(6)
    part = InfoPartition(space, ((0, 2), (1, 3)))
    chain = [PointSet.of(1, grid.points[z + 1:]) for z in range(5)] + [PointSet.empty(1)]
    p = Corr.from_function(space, grid, 1, lambda t, z: chain[z])
    w = canonical_witness(p)
    p.directed_gaps()  # the gap table cip_verify reads, filled before recording
    pairs = []
    packed = carasel.corr._packed_gaps
    monkeypatch.setattr(carasel.corr, "_packed_gaps",
                        lambda points, bounds, a, b: (points is p.points and pairs.append(len(a)))
                        or packed(points, bounds, a, b))
    res = maximal_element(p, w, part)
    assert _inputs_cell_constant(p, w, part)
    assert pairs == [12]
    assert _check(res.checks, "preference-measurability") == 0
    assert _check(res.checks, "witness-measurability") == 0


@pytest.mark.parametrize("seed", range(30))
def test_glue_measurability_count_matches_per_cell_reference(seed):
    rng, space, grid, dim, part = _random_setup(seed)
    psi = _random_table(rng, space, grid, dim, part)
    fallback = _random_table(rng, space, grid, dim, part,
                             kinds=("same", "permuted", "within", "beyond"), p_empty=0.0)
    on = psi.counts > 0
    table = np.zeros(on.shape + (dim,))
    for t, z in sorted(domain(psi), key=lambda key: part.cell_of(key[0])[0] != key[0]):
        head = part.cell_of(t)[0]
        kind = rng.integers(4) if on[head, z] and head != t else 3
        step = np.zeros(dim)
        step[0] = (0.0, WITHIN, BEYOND, 0.0)[kind]
        table[t, z] = table[head, z] + step if kind < 3 else rng.uniform(0.0, 1.0, size=dim)
    sel = Selection(table, on, 0.0, 0.0, CheckSet())
    res = glue(psi, sel, fallback, part=part)
    expected = sum(_constant_at(fallback, part, z) and _selection_constant_at(sel, part, z)
                   and not _constant_at(res.glued, part, z) for z in range(len(grid)))
    assert _check(res.checks, "glue-measurability-preserved") == expected


@pytest.mark.parametrize("seed", range(30))
def test_inputs_cell_constant_matches_per_cell_reference(seed):
    rng, space, grid, dim, part = _random_setup(seed)
    kinds = ("same", "permuted", "within") if seed % 2 else ALL_KINDS
    psi = _random_table(rng, space, grid, dim, part, kinds=kinds)
    local = _random_table(rng, space, grid, dim, part, kinds=kinds)
    radii = {}
    for t in range(len(space)):
        head = part.cell_of(t)[0]
        for z in range(len(grid)):
            if seed % 3 == 0 and rng.random() < 0.2:
                continue  # absent
            radii[(t, z)] = radii.get((head, z), 0.5) if rng.random() < 0.9 else 0.25
    with pytest.raises(DomainError, match="not an \\(atom, node\\) index pair"):
        CipWitness.shared(grid, local, {**radii, (len(space), 0): 1.0})  # a key off the table
    w = CipWitness.shared(grid, local, radii)
    assert _inputs_cell_constant(psi, w, part) == _inputs_reference(psi, w, part)


@pytest.mark.parametrize("seed", range(6))
def test_selection_measurability_gap_matches_per_cell_reference(seed):
    # cell-constant inputs whose non-head values differ by up to 0.9e-9,
    # so the selected points differ inside a cell
    rng = np.random.default_rng(seed)
    space = AtomSpace(tuple(f"a{k}" for k in range(4)), [1.0] * 4)
    grid = line_grid(5)
    part = InfoPartition(space, ((3, 1), (2, 0)))
    psi = _random_table(rng, space, grid, 2, part, kinds=("same", "permuted", "within"),
                        p_empty=0.0)
    w = canonical_witness(psi)
    assert _inputs_reference(psi, w, part)
    for closed_valued in (False, True):
        sel = caratheodory_select(psi, w, part, closed_valued=closed_valued, seed=seed)
        gap = _check(sel.checks, "selection-measurability")
        assert gap == _selection_gap_reference(sel.values, part, len(grid))
    assert gap > 0.0


@pytest.mark.parametrize("seed", range(6))
def test_payoff_and_profile_residuals_match_per_cell_reference(seed):
    rng = np.random.default_rng(seed)
    space = AtomSpace(tuple(f"a{k}" for k in range(5)), [1.0] * 5)
    part = _random_partition(rng, space)
    coef = rng.uniform(-1.0, 1.0, size=(2, 5, 2))
    for t in range(5):
        if rng.random() < 0.5:
            coef[:, t] = coef[:, part.cell_of(t)[0]] + rng.choice([0.0, WITHIN, 1e-3])
    payoffs = tuple((lambda i: lambda t, x: float(coef[i, t] @ x))(i) for i in range(2))
    g = GameSpec(("p", "q"), space, (line_grid(3), line_grid(4)), payoffs, (True, True))
    worst = 0.0
    for i in range(2):
        for cell in part.cells:
            for t in cell[1:]:
                gap = np.abs(g.payoff_table(i, t) - g.payoff_table(i, cell[0])).max()
                worst = max(worst, float(gap))
    assert _payoff_cell_constancy(g, part) == worst

    profile = rng.uniform(0.0, 1.0, size=(5, 2))
    for t in range(5):
        head = part.cell_of(t)[0]
        if t != head and rng.random() < 0.5:
            profile[t] = profile[head] + rng.choice([0.0, WITHIN, BEYOND]) * rng.normal(size=2)
    worst = 0.0
    for cell in part.cells:
        for t in cell[1:]:
            worst = max(worst, float(np.linalg.norm(profile[t] - profile[cell[0]])))
    assert _profile_cell_constancy(profile, part) == worst


def test_no_cell_check_compares_point_set_views(monkeypatch):
    # every cell-wise check reads packed tables: no per-pair set comparison
    # (conftest.same_set, once PointSet.same_as) runs, even if put back
    def refuse(self, other, tol=0.0):
        raise AssertionError("PointSet.same_as called")

    monkeypatch.setattr(PointSet, "same_as", refuse, raising=False)
    space = AtomSpace(("a", "b", "c"), [1.0] * 3)
    grid = line_grid(6)
    part = InfoPartition(space, ((2, 0), (1,)))
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.2], [0.8]]))
    locs = {z: psi for z in range(6)}
    radii = {(t, z): 0.3 for t in range(3) for z in range(6)}
    for mode in ("countable", "indexed"):
        w = CipWitness(mode, locs, radii, box=([0.0], [1.0]))
        assert scip_verify(psi, w, part, CipReport(True)).ok
    w = canonical_witness(psi)
    sel = caratheodory_select(psi, w, part)
    assert _check(sel.checks, "selection-measurability") == 0.0
    fallback = Corr.constant(space, grid, PointSet.of(1, grid.points))
    assert _check(glue(psi, sel, fallback, part=part).checks,
                  "glue-measurability-preserved") == 0
    chain = Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(1, grid.points[z + 1:]))
    res = maximal_element(chain, canonical_witness(chain), part)
    assert _check(res.checks, "preference-measurability") == 0


# ------------------------------------------- stacked cell-constancy tests

def _planted(f: Corr, t: int, x: int) -> Corr:
    """f with the value at (t, x) replaced by one far point."""
    bounds = np.array(f.bounds)
    bounds[t, x] = [len(f.points), len(f.points) + 1]
    return Corr(f.space, f.grid, f.dim, np.vstack([f.points, np.full((1, f.dim), 5.0)]), bounds)


def _local_measurability_reference(w: CipWitness, part: InfoPartition) -> list:
    """scip_verify's measurability failures as the per-local loop."""
    failures = []
    for f, zs in sorted(w.groups, key=lambda group: group[1][0]):
        for x, t in _atom_failures(cell_varying([f], part)[0], part)[:1]:
            failures.append(("measurability", t, f"F_{zs[0]}", x, "local value not cell-constant"))
    return failures


def _inputs_constant_reference(psi: Corr, w: CipWitness, part: InfoPartition) -> bool:
    return (not part.is_finest and np.array_equal(w.radii, w.radii[part.head], equal_nan=True)
            and not any(cell_varying([f], part)[0].any()
                        for f in [psi] + [f for f, _ in w.groups]))


def test_stacked_cell_constancy_matches_per_local_loop():
    """scip_verify's measurability failures (in order) and
    _inputs_cell_constant, which test all locals in one cell_varying
    call, equal the per-local loop on random_cip_instance witnesses under
    trivial and split partitions, and again with two locals made
    non-constant at a non-head atom."""
    rng = np.random.default_rng(17)
    seen, planted = set(), 0
    while len(seen) < 2 or planted < 12:
        inst = random_cip_instance(rng)
        psi, w, part = inst.psi, inst.witness, inst.part
        if part.is_finest:
            continue
        seen.add(len(part.cells))
        t = int(np.flatnonzero(part.head != np.arange(len(psi.space)))[0])
        locs = dict(reversed(w.locals.items()))  # the locals in reverse node order
        for z in rng.choice(len(psi.grid), size=2, replace=False).tolist():
            locs[z] = _planted(locs[z], t, int(rng.integers(len(psi.grid))))
        for witness in (w, CipWitness("indexed", locs, w.radii, w.box)):
            failures = [f for f in scip_verify(psi, witness, part, CipReport(True)).failures
                        if f[0] == "measurability"]
            assert failures == _local_measurability_reference(witness, part)
            assert _inputs_cell_constant(psi, witness, part) == \
                _inputs_constant_reference(psi, witness, part)
        planted += 1
        assert len(failures) == 2


@pytest.mark.parametrize("seed", range(6))
def test_maximal_element_stacked_witness_measurability(seed):
    """maximal_element's witness-measurability count, from one cell_varying
    call over the preference and all locals, equals the per-local loop on
    a countable witness of chain preferences with dropped points at
    non-head atoms."""
    rng = np.random.default_rng(seed)
    space = AtomSpace(tuple(f"a{k}" for k in range(4)), [1.0] * 4)
    grid = line_grid(6)
    part = InfoPartition(space, ((0, 2), (1, 3)))
    chain = Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(1, grid.points[z + 1:]))

    def local():
        keep = rng.random(size=(4, 6)) < 0.5
        return Corr.from_function(space, grid, 1, lambda t, z: (
            PointSet.of(1, grid.points[z + 2:]) if t in (2, 3) and z < 4 and not keep[t, z]
            else chain.value(t, z)))

    locs = {z: chain if z % 3 == 0 else local() for z in range(6)}
    w = CipWitness("countable", locs, canonical_witness(chain).radii)
    res = maximal_element(chain, w, part)
    want = sum(np.count_nonzero(cell_varying([f], part)[0].any(axis=0))
               for f, _ in w.groups)
    assert want > 0
    assert _check(res.checks, "witness-measurability") == want
    assert _check(res.checks, "preference-measurability") == \
        np.count_nonzero(cell_varying([chain], part)[0].any(axis=0))

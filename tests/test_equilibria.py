"""Fixed points, preference tables, equilibrium and maximal-element
certificates, conditional-expectation payoffs."""

import hashlib
import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from carasel import (
    AtomSpace,
    BayesSpec,
    CipWitness,
    ConstructionError,
    Corr,
    DomainError,
    GameSpec,
    GridSpace,
    InfoPartition,
    NoCertificateError,
    PointSet,
    PreconditionError,
    Prior,
    bayes_equilibrium,
    bayes_h,
    canonical_witness,
    caratheodory_select,
    glue,
    maximal_element,
    pref_from_payoff,
    random_equilibrium,
    random_fixed_point,
    random_nash,
)
import carasel
import carasel.corr
import carasel.grid
import carasel.equilibria
import carasel.problems
import carasel.selection
from carasel.corr import SET_EQUALITY_TOL, _segments
from carasel.equilibria import DEFAULT_FIXPOINT_TOL, _faces, _reflexive_at
from carasel.grid import METRIC_BLOCK
from carasel.pipelines import run_problem
from carasel.problems import canonical_json, parse_problem
from carasel.reporting import CheckSet
from carasel.selection import DEFAULT_SELECTION_TOL, _glue_table, _glued_phi, _select_table
from carasel.setops import ConvexSet, _segment_rows, convex_membership

from conftest import fixed_points_per_atom, line_grid, single_atom

DOCS = Path(__file__).resolve().parent.parent / "docs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def singleton_map_corr(space, grid, fn):
    """Tabulate a single-valued map as a correspondence."""
    return Corr.from_function(
        space, grid, grid.dim,
        lambda t, z: PointSet.of(grid.dim, [fn(t, grid.points[z])]),
    )


def two_player_game(space, payoffs, n_nodes=21):
    grids = (line_grid(n_nodes), line_grid(n_nodes))
    return GameSpec(("p1", "p2"), space, grids, payoffs, (True, True))


# ------------------------------------------------------------- fixed points

def test_fixed_point_halving_map():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    grid = line_grid(11)
    psi = singleton_map_corr(space, grid, lambda t, x: x / 2.0)
    prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
    for t in range(2):
        assert prof.residuals[t] <= 1e-12
        assert abs(prof.values[t][0]) <= 1e-12


def test_fixed_point_constant_per_atom():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    grid = line_grid(11)
    c = {0: 0.3, 1: 0.8}
    psi = singleton_map_corr(space, grid, lambda t, x: np.array([c[t]]))
    prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
    for t in range(2):
        assert prof.values[t][0] == pytest.approx(c[t], abs=1e-12)


def test_fixed_point_reflection_map():
    space = single_atom()
    grid = GridSpace(np.linspace(0.0, 1.0, 101).reshape(-1, 1), mesh=0.01)
    psi = singleton_map_corr(space, grid, lambda t, x: 1.0 - x)
    prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
    assert abs(prof.values[0][0] - 0.5) <= 1e-12
    assert prof.residuals[0] <= 1e-12


@pytest.mark.parametrize("s, theta", [(1.5, 1.2), (2.0, 1.57), (3.0, 2.0)])
def test_fixed_point_of_expanding_rotation(s, theta):
    # x -> clip(c + s R(theta) (x - c), 0, 1) on an 11x11 grid, fixed at c
    # off the grid; 0.5 I + 0.5 s R(theta) has spectral radius above 1, so
    # a damped iteration diverges here
    c = np.array([0.33, 0.41])
    rot = s * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    xs = np.linspace(0.0, 1.0, 11)
    grid = GridSpace(np.array([[a, b] for a in xs for b in xs]))
    psi = singleton_map_corr(single_atom(), grid, lambda t, x: np.clip(c + rot @ (x - c), 0, 1))
    # the map expands, so its tables pass the l.s.c. check only at an eps
    # above the grid's diameter
    prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6, eps=2.0)
    assert prof.residuals[0] <= 1e-12
    assert np.abs(prof.values[0] - c).max() <= 1e-12
    assert prof.checks.ok


def test_fixed_point_identity_takes_node_nearest_barycenter():
    # every node is a fixed point; the barycenter 0.5 is itself a node
    psi = singleton_map_corr(single_atom(), line_grid(11), lambda t, x: x)
    prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
    assert prof.values[0][0] == 0.5 and prof.residuals[0] == 0.0


def test_fixed_point_equal_tables_in_one_cell_give_equal_points():
    # the identity on a 4x4 planar grid: four nodes tie exactly nearest
    # the barycenter (1.5, 1.5), the lowest index wins, at both atoms
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    xs = np.arange(4.0)
    grid = GridSpace(np.array([[a, b] for a in xs for b in xs]))
    psi = singleton_map_corr(space, grid, lambda t, x: x)
    part = InfoPartition(space, ((0, 1),))
    prof = random_fixed_point(psi, canonical_witness(psi), part, tol=1e-6)
    assert np.array_equal(prof.values[0], prof.values[1])
    assert np.array_equal(prof.values[0], grid.points[5])


def test_fixed_point_unattainable_reports_best():
    space = single_atom()
    grid = line_grid(6)
    psi = singleton_map_corr(space, grid, lambda t, x: x + 0.5)
    with pytest.raises(NoCertificateError) as err:
        random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
    assert err.value.best_residual is not None
    assert err.value.best_residual >= 0.1


def test_fixed_point_requires_total_domain():
    space = single_atom()
    grid = line_grid(4)
    psi = Corr.from_function(
        space, grid, 1,
        lambda t, z: PointSet.empty(1) if z == 0 else PointSet.of(1, [[0.0]]),
    )
    with pytest.raises(PreconditionError):
        random_fixed_point(psi, canonical_witness(psi))


def _fixed_point_layout(rng, dim: int, kind: str) -> Corr:
    """A table on 2-9 (R^1) or 4-9 (R^2) random nodes, or on the integer
    lattice of 2-9 (R^1) or 4 or 9 (R^2) nodes, whose symmetry ties the
    nearest points to the barycenter, with 1-4 atoms, each atom's cells holding an affine map's image of the node, for some
    atoms with a second point within 1e-3.  kind "contract": maps fixing
    the nodes' mean c; "singular": the identity, or in R^2 the map x ->
    (x_0, c_1), whose displacements are 0, or collinear, up to rounding,
    so singular KKT blocks occur; "off": one atom's map fixes a point far
    outside the hull, so no face solves it within tol."""
    n = int(rng.integers(2 if dim == 1 else 4, 10))
    if rng.random() < 0.5:
        grid = GridSpace(rng.uniform(size=(n, dim)))
    else:
        side = n if dim == 1 else int(rng.integers(2, 4))
        grid = GridSpace(np.array(list(itertools.product(range(side), repeat=dim)), dtype=float))
    atoms = int(rng.integers(1, 5))
    space = AtomSpace(tuple(f"a{t}" for t in range(atoms)), [1.0] * atoms)
    c = grid.points.mean(axis=0)
    maps = []  # per atom x -> b + A (x - c), and whether cells hold a second point
    for t in range(atoms):
        A, b = rng.uniform(-0.9, 0.9, size=(dim, dim)) / dim, c
        if kind == "singular":
            A = np.diag([1.0, 0.0]) if dim == 2 and rng.random() < 0.5 else np.eye(dim)
        elif kind == "off" and t == 0:
            b = c + 3.0 * (1.0 + rng.random(dim))
        maps.append((A, b, kind != "singular" and rng.random() < 0.5))

    def cell(t, z):
        A, b, pair = maps[t]
        y = b + A @ (grid.points[z] - c)
        return PointSet.of(dim, [y, y + 1e-3 * rng.uniform(-1.0, 1.0, dim)] if pair else [y])

    return Corr.from_function(space, grid, dim, cell)


def test_fixed_points_match_the_per_atom_reference():
    """random_fixed_point's one batched solve per face size over every
    (atom, face) block equals the per-atom solve it replaced
    (conftest.fixed_points_per_atom) bit for bit, on 48 seeded layouts
    in R^1 and R^2 with 1-4 atoms: the read-only values and residuals
    where it certifies; where an atom has no face within tol (the
    least-residual path), the best residual it raises with."""
    select = carasel.equilibria.caratheodory_select
    seen = Counter()
    for seed in range(48):
        rng = np.random.default_rng(seed)
        dim, kind = 1 + seed % 2, ("contract", "singular", "off")[seed // 2 % 3]
        psi = _fixed_point_layout(rng, dim, kind)
        sels = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(carasel.equilibria, "caratheodory_select",
                      lambda *args, **kwargs: sels.append(select(*args, **kwargs)) or sels[-1])
            try:
                prof, err = random_fixed_point(psi, canonical_witness(psi)), None
            except NoCertificateError as e:
                prof, err = None, e
        values, residuals, singular = fixed_points_per_atom(
            sels[0].table, psi.grid.points, _faces(psi.grid.points), DEFAULT_FIXPOINT_TOL)
        if err is None:
            assert prof.values.tobytes() == values.tobytes()
            assert prof.residuals.tobytes() == residuals.tobytes()
            assert not prof.values.flags.writeable and not prof.residuals.flags.writeable
        else:
            assert err.best_residual == residuals.max() > DEFAULT_FIXPOINT_TOL
        seen[dim, kind, err is None, singular > 0] += 1
    for dim in (1, 2):
        assert seen[dim, "contract", True, False] and seen[dim, "singular", True, True]
        assert sum(seen[dim, "off", False, s] for s in (False, True)) == 8


# ------------------------------------------- gluing without the certificate

def _reference_glue_checks(checks, p, w, part, fallback, suffix=""):
    """The gluing step of the equilibrium paths built the long way: the
    whole certified caratheodory_select, then glue from its values dict,
    keeping only the gluing checks."""
    sel = caratheodory_select(p, w, part, closed_valued=True)
    glued = glue(p, sel, Corr.constant(p.space, p.grid, PointSet.of(p.dim, fallback)), part=part)
    for c in glued.checks:
        if c.name != "glue-lsc-preserved":
            checks.add(c.name + suffix, c.residual, c.tolerance, c.detail)


def _plain(value):
    if isinstance(value, CheckSet):
        return [c.as_dict() for c in value]
    if isinstance(value, dict):
        return sorted([str(k), _plain(v)] for k, v in value.items())
    if isinstance(value, InfoPartition):
        return [[int(t) for t in cell] for cell in value.cells]
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _assert_glued_like_the_reference(p, w, part, fallback):
    """The glued table of the selection core equals glue's on the
    certified selection, point for point: the fallback's points, then the
    selected ones in (atom, node) order."""
    fb = Corr.constant(p.space, p.grid, PointSet.of(p.dim, fallback))
    new = _glue_table(p, _select_table(p, _glued_phi(p, w), part, DEFAULT_SELECTION_TOL)[0],
                      fb, part)
    sel = caratheodory_select(p, w, part, closed_valued=True)
    old = glue(p, sel, fb, part=part)
    assert np.array_equal(old.glued.points,
                          np.concatenate([fb.points, [sel.values[k] for k in sorted(sel.values)]]))
    assert np.array_equal(new.glued.points, old.glued.points)
    assert np.array_equal(new.glued.bounds, old.glued.bounds)
    assert new.checks.checks == old.checks.checks


def _glued_both_ways(monkeypatch, run) -> tuple[str, str]:
    """canonical_json of every field of run()'s certificate, run with
    _add_glue_checks and with the reference construction."""
    def cert_bytes():
        cert = run()
        return canonical_json({f: _plain(getattr(cert, f)) for f in cert.__dataclass_fields__})

    new = cert_bytes()
    with monkeypatch.context() as m:
        m.setattr(carasel.equilibria, "_add_glue_checks", _reference_glue_checks)
        old = cert_bytes()
    return new, old


@pytest.mark.parametrize("cells", [((0,), (1,), (2,)), ((0, 2), (1,))], ids=["finest", "coarse"])
@pytest.mark.parametrize("seed", range(3))
def test_nash_glue_checks_match_the_reference_bytes(monkeypatch, seed, cells):
    g, part, eps_eq = _quadratic_game(np.random.default_rng(seed), 9, cells)
    new, old = _glued_both_ways(monkeypatch, lambda: random_nash(g, part, eps_eq))
    assert new == old
    assert '"glue-usc-preserved-player-1"' in new and '"glue-measurability-preserved' in new
    for i in range(2):
        p = pref_from_payoff(g, i)
        _assert_glued_like_the_reference(p, canonical_witness(p), part, g.strategy_grids[i].points)


@pytest.mark.parametrize("mode", ["countable", "indexed"])
def test_pooled_witness_glue_checks_match_the_reference_bytes(monkeypatch, mode):
    # a witness that is not shared glues through pool_captured; countable
    # uses two local objects (pooled cell by cell), indexed one
    g, part, eps_eq = _quadratic_game(np.random.default_rng(5), 9, ((0, 1), (2,)))
    prefs = [pref_from_payoff(g, i) for i in range(2)]
    witnesses = []
    for p in prefs:
        twin = Corr(p.space, p.grid, p.dim, p.points.copy(), p.bounds.copy()) \
            if mode == "countable" else p
        locs = {z: (p, twin)[z % 2] for z in range(len(p.grid))}
        witnesses.append(CipWitness(mode, locs, canonical_witness(p).radii))
    assert len(witnesses[0].groups) == (2 if mode == "countable" else 1)
    new, old = _glued_both_ways(
        monkeypatch, lambda: random_equilibrium(g, prefs, witnesses, part, eps_eq))
    assert new == old
    assert '"glue-usc-preserved-player-0"' in new
    for i, (p, w) in enumerate(zip(prefs, witnesses)):
        _assert_glued_like_the_reference(p, w, part, g.strategy_grids[i].points)


@pytest.mark.parametrize("seed", range(3))
def test_maximal_glue_checks_match_the_reference_bytes(monkeypatch, seed):
    # the nodes above z, each non-head atom dropping some of them
    rng = np.random.default_rng(seed)
    space = AtomSpace(tuple(f"a{k}" for k in range(4)), [1.0] * 4)
    grid = line_grid(7)
    part = InfoPartition(space, ((0, 2), (1, 3)))
    keep = rng.random((4, 7, 7)) < 0.7
    keep[[0, 1]] = True

    def value(t, z):
        above = np.flatnonzero(keep[t, z, z + 1:]) + z + 1
        return PointSet.of(1, grid.points[above]) if len(above) else PointSet.empty(1)

    p = Corr.from_function(space, grid, 1, value)
    new, old = _glued_both_ways(
        monkeypatch, lambda: maximal_element(p, canonical_witness(p), part))
    assert new == old
    assert '"glue-usc-preserved"' in new


def test_bayes_fixture_glue_checks_match_the_reference_bytes(monkeypatch):
    doc = parse_problem((DOCS / "quadratic-bayes.json").read_text())

    def cert_bytes():
        cert = run_problem(doc).as_dict()
        del cert["provenance"]["timestamp"]
        return canonical_json(cert)

    new = cert_bytes()
    monkeypatch.setattr(carasel.equilibria, "_add_glue_checks", _reference_glue_checks)
    assert new == cert_bytes()
    assert '"glue-usc-preserved-player-0"' in new


def test_random_nash_builds_no_selection_certificate(monkeypatch):
    """With shared canonical witnesses, the gluing step of random_nash
    builds no phi checks, interior-union table or pooled table."""
    def fail(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for name in ("construct_phi", "k_operator", "pool_captured"):
        for module in (carasel, carasel.corr, carasel.equilibria, carasel.selection):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fail(name))
    g, part, eps_eq = _quadratic_game(np.random.default_rng(0), 9, ((0,), (1, 2)))
    cert = random_nash(g, part, eps_eq)
    assert cert.checks.ok
    assert sum(c.name.startswith("glue-") for c in cert.checks) == 2 * g.n_players


def test_random_nash_with_selection_never_builds_the_joint_metric(monkeypatch):
    # the joint grid keeps its points only: pairs, diameter, the canonical
    # radii, cip_verify's balls and the R^1 selection all read distances
    # from them a block at a time, so no (nodes, nodes) metric is built;
    # a 13 x 13 joint grid's metric is larger than one block
    sizes = []
    distances = carasel.grid._distances
    monkeypatch.setattr(carasel.grid, "_distances",
                        lambda a, b: sizes.append(len(a) * len(b)) or distances(a, b))
    g, part, eps_eq = _quadratic_game(np.random.default_rng(1), 13, ((0,), (1, 2)))
    cert = random_nash(g, part, eps_eq)
    assert cert.checks.ok
    assert sum(c.name.startswith("glue-") for c in cert.checks) == 2 * g.n_players
    assert len(g.joint_grid()) ** 2 > METRIC_BLOCK
    assert sizes and max(sizes) <= METRIC_BLOCK


def test_random_nash_keeps_the_membership_guard(monkeypatch):
    # a selected point off the preferred set must still end the solve
    g, part, eps_eq = _quadratic_game(np.random.default_rng(0), 9, ((0,), (1,)))
    solve = carasel.selection._least_modulus
    monkeypatch.setattr(carasel.selection, "_least_modulus",
                        lambda *args: (solve(*args)[0] + 1.0, None))
    with pytest.raises(ConstructionError, match="membership certification failed"):
        random_nash(g, part, eps_eq)


def test_select_table_keeps_the_domain_and_membership_guards():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    grid = line_grid(5)
    part = InfoPartition.finest(space)
    psi = Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(1, [[0.0], [1.0]]))

    def phi(at, point):
        return Corr.from_function(space, grid, 1, lambda t, z: PointSet.of(1, [[0.5]])
                                  if (t, z) != at else point)

    with pytest.raises(ConstructionError, match=r"no selected value at \(t=1, z=2\)"):
        _select_table(psi, phi((1, 2), PointSet.empty(1)), part, DEFAULT_SELECTION_TOL)
    with pytest.raises(ConstructionError, match=r"membership certification failed at "
                                                r"\(t=0, z=3\): residual 5\.000e-01"):
        _select_table(psi, phi((0, 3), PointSet.of(1, [[1.5]])), part, DEFAULT_SELECTION_TOL)


# ------------------------------------------------------- preference tables

@pytest.mark.parametrize("grids", [
    (np.linspace(0.0, 1.0, 4)[:, None], np.array([[0.0], [0.5], [2.0]])),
    (np.array([[0.0], [1.0]]), np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.5]]),
     np.array([[-1.0], [0.25], [3.0], [4.0]])),
], ids=["two-players", "three-players-one-2d"])
def test_joint_nodes_match_the_per_node_concatenation(grids):
    # the broadcast block holds, byte for byte, one concatenation of the
    # players' points per node of itertools.product, lexicographic
    g = GameSpec(tuple(f"p{i}" for i in range(len(grids))), single_atom(),
                 tuple(GridSpace(x) for x in grids), (lambda t, x: 0.0,) * len(grids),
                 (True,) * len(grids))
    want = np.array([np.concatenate(tup) for tup in
                     itertools.product(*(grid.points for grid in g.strategy_grids))])
    got = g.joint_nodes()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes() and got.flags.c_contiguous
    assert not got.flags.writeable and g.joint_nodes() is got


def test_payoff_tables_read_one_cached_row_view_per_node():
    # every table calls the payoff on the same read-only row views of the
    # joint nodes; a non-finite payoff still names its player and atom
    seen = []

    def u(t, x):
        seen.append(x)
        return float(x.sum()) if t == 0 else np.inf

    space = AtomSpace(("a", "b"), [0.5, 0.5])
    g = GameSpec(("p1", "p2"), space, (line_grid(3), line_grid(4)), (u, u), (True, True))
    for i in range(2):
        assert g.payoff_table(i, 0).tobytes() == g.joint_nodes().sum(axis=1).reshape(3, 4).tobytes()
    nodes = g.joint_nodes()
    assert len(seen) == 2 * len(nodes)
    assert all(a is b for a, b in zip(seen[:len(nodes)], seen[len(nodes):]))
    assert all(np.shares_memory(x, nodes) and not x.flags.writeable for x in seen)
    assert all(x.tobytes() == row.tobytes() for x, row in zip(seen, nodes))
    with pytest.raises(DomainError, match="payoff of player 1 not finite at atom 1"):
        g.payoff_table(1, 1)


def test_pref_constant_payoff_empty():
    space = single_atom()
    g = GameSpec(("p",), space, (line_grid(5),), (lambda t, x: 1.0,), (True,))
    p = pref_from_payoff(g, 0)
    assert all(p.value(0, k).is_empty for k in range(5))


def test_pref_linear_payoff():
    space = single_atom()
    g = GameSpec(("p",), space, (line_grid(5),), (lambda t, x: float(x[0]),), (True,))
    p = pref_from_payoff(g, 0)
    assert p.value(0, 4).is_empty            # at the max, nothing improves
    better_at_zero = p.value(0, 0)
    assert sorted(better_at_zero.points[:, 0]) == [0.25, 0.5, 0.75, 1.0]


def test_pref_strict_margin_shrinks_sets():
    space = single_atom()
    g = GameSpec(("p",), space, (line_grid(5),), (lambda t, x: float(x[0]),), (True,))
    p0 = pref_from_payoff(g, 0, strict_margin=0.0)
    p1 = pref_from_payoff(g, 0, strict_margin=0.6)
    assert len(p1.value(0, 0)) < len(p0.value(0, 0))


def _pref_reference(g, i, strict_margin=0.0):
    """The per-node loop pref_from_payoff ran before it built the packed
    table from one improvement mask per atom, kept as its reference."""
    own, shape = g.strategy_grids[i].points, g.joint_shape
    rows = []
    for t in range(len(g.state_space)):
        u = g.payoff_table(i, t)
        moved = np.moveaxis(u, i, -1)
        row = []
        for flat in range(int(np.prod(shape))):
            idx = np.unravel_index(flat, shape)
            rest = tuple(idx[k] for k in range(len(shape)) if k != i)
            better = own[moved[rest] - u[idx] > strict_margin]
            row.append(PointSet.of(own.shape[1], better) if len(better)
                       else PointSet.empty(own.shape[1]))
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", range(3))
def test_pref_matches_per_node_reference(seed):
    rng = np.random.default_rng(seed)
    space = AtomSpace(("a", "b", "c"), [1.0] * 3)
    plane = GridSpace(rng.uniform(size=(4, 2)))
    unsorted = GridSpace(np.array([[0.0], [0.5], [0.25], [1.0], [0.5 + 1e-6]]), mesh=0.5)
    grids = (line_grid(int(rng.integers(2, 7))), plane, unsorted)
    tables = [rng.integers(-2, 3, size=(3, len(grids[0]), 4, 5)).astype(float)
              for _ in grids]
    nodes = {i: {tuple(p): k for k, p in enumerate(g.points)} for i, g in enumerate(grids)}

    def payoff(i):
        def u(t, x):
            idx = []
            for j, g in enumerate(grids):
                part = x[sum(h.dim for h in grids[:j]):][:g.dim]
                idx.append(nodes[j][tuple(part)])
            return tables[i][(t, *idx)]
        return u

    g = GameSpec(("p", "q", "r"), space, grids, tuple(payoff(i) for i in range(3)),
                 (True,) * 3)
    for i in range(3):
        for margin in (0.0, 1.0):
            want = _pref_reference(g, i, margin)
            p = pref_from_payoff(g, i, margin)
            assert p.dim == g.strategy_grids[i].dim
            for t in range(3):
                for z in range(len(g.joint_grid())):
                    assert np.array_equal(p.value(t, z).points, want[t][z].points)


def _quadratic_game(rng, n_nodes, cells):
    """Two players with concave quadratic payoffs on n_nodes x n_nodes
    joint grids, the parameters drawn once per information cell, and
    eps_eq = L * h + 1e-9 as in the acceptance suite."""
    n_atoms = sum(len(c) for c in cells)
    params = np.zeros((2, 4, n_atoms))
    for cell in cells:
        params[:, :, list(cell)] = rng.uniform([0.5, 0.3, -0.6, 0.0], [2.0, 0.7, 0.6, 1.0],
                                               size=(2, 4))[..., None]

    def payoff(i):
        def u(t, x):
            c, a, d, b = params[i, :, t]
            return -c * (x[i] - a) ** 2 - d * c * (x[i] - a) * (x[1 - i] - b)
        return u

    space = AtomSpace(tuple(f"w{t}" for t in range(n_atoms)), [1.0] * n_atoms)
    g = two_player_game(space, (payoff(0), payoff(1)), n_nodes)
    lipschitz = float((2 * params[:, 0] + np.abs(params[:, 2] * params[:, 0])).max())
    return g, InfoPartition(space, cells), lipschitz / (n_nodes - 1) + 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_pref_lays_out_one_segment_per_distinct_improvement_row(seed):
    rng = np.random.default_rng(seed)
    g, _, _ = _quadratic_game(rng, int(rng.integers(5, 16)), ((0,), (1, 2)))
    for i in range(2):
        for margin in (0.0, 0.05):
            rows = {tuple(ps.points.ravel()) for row in _pref_reference(g, i, margin)
                    for ps in row}
            p = pref_from_payoff(g, i, margin)
            assert len(np.unique(p.bounds.reshape(-1, 2), axis=0)) == len(rows)
            assert len(rows) < p.counts.size


def _one_segment_per_cell(p):
    """p laid out as pref_from_payoff laid it out before cells with equal
    preferred sets shared a segment: one segment per cell, in C order."""
    rows = _segment_rows(p.bounds.reshape(-1, 2))[0]
    return Corr(p.space, p.grid, p.dim, p.points[rows], _segments(p.counts))


@pytest.mark.parametrize("cells", [((0,), (1,), (2,)), ((0, 1), (2,))])
def test_random_nash_certificate_matches_one_segment_per_cell_layout(cells, monkeypatch):
    """Sharing segments between equal preferred sets changes no part of
    a seeded certificate: profile, regrets, and every check's residual,
    tolerance and detail."""
    import carasel.equilibria as eq

    g, part, eps_eq = _quadratic_game(np.random.default_rng(len(cells)), 13, cells)
    shared = random_nash(g, part, eps_eq, seed=3)
    original = eq.pref_from_payoff
    separate_prefs = []

    def separate(g, i, *args):
        separate_prefs.append(_one_segment_per_cell(original(g, i, *args)))
        return separate_prefs[-1]

    monkeypatch.setattr(eq, "pref_from_payoff", separate)
    separate_cert = random_nash(g, part, eps_eq, seed=3)
    assert all(len(original(g, i).segment_index()[0]) < len(p.segment_index()[0])
               for i, p in enumerate(separate_prefs))
    assert shared.profile_indices == separate_cert.profile_indices
    assert np.array_equal(shared.profile, separate_cert.profile)
    assert shared.regrets == separate_cert.regrets
    assert shared.warnings == separate_cert.warnings
    assert [(c.name, c.residual, c.tolerance, c.detail) for c in shared.checks] == \
        [(c.name, c.residual, c.tolerance, c.detail) for c in separate_cert.checks]


@pytest.mark.parametrize("seed", range(3))
def test_profile_and_regrets_match_per_atom_reference(seed):
    """random_equilibrium's profile, indices and regrets, read from one
    stacked (atoms, players, nodes) regret array, equal the per-atom loop
    it replaced (np.maximum from zeros, first argmin), bit for bit; the
    rounded game ties many nodes, so the first of them must win."""
    rng = np.random.default_rng(seed)
    g, part, eps_eq = _quadratic_game(rng, int(rng.integers(5, 12)), ((0, 2), (1,)))
    rounded = GameSpec(g.players, g.state_space, g.strategy_grids,
                       tuple(lambda t, x, u=u: round(u(t, x), 1) for u in g.payoffs), (True, True))
    for game in (g, rounded):
        cert = random_nash(game, part, 1.0)
        for t in range(len(game.state_space)):
            worst = np.zeros(len(game.joint_nodes()))
            for i in range(game.n_players):
                worst = np.maximum(worst, game.regret_table(i, t))
            flat = int(worst.argmin())
            assert type(cert.profile_indices[t]) is int and cert.profile_indices[t] == flat
            assert cert.profile[t].tobytes() == game.joint_nodes()[flat].tobytes()
            for i in range(game.n_players):
                assert cert.regrets[(t, i)] == float(game.regret_table(i, t)[flat])
        assert list(cert.regrets) == [(t, i) for t in range(3) for i in range(2)]


# ------------------------------------------------------------- equilibria

def test_random_equilibrium_independent_quadratics():
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    a = {0: (0.31, 0.69), 1: (0.74, 0.18)}

    def u_i(i):
        return lambda t, x: -(x[i] - a[t][i]) ** 2

    g = two_player_game(space, (u_i(0), u_i(1)))
    prefs = [pref_from_payoff(g, i) for i in range(2)]
    witnesses = [canonical_witness(p) for p in prefs]
    part = InfoPartition.finest(space)
    cert = random_equilibrium(g, prefs, witnesses, part, eps_eq=0.01)
    for t in range(2):
        for i in range(2):
            nearest = round(a[t][i] * 20) / 20
            assert cert.profile[t][i] == pytest.approx(nearest, abs=1e-12)
    assert cert.worst_regret <= (0.05 / 2) ** 2 + 1e-12


def test_random_equilibrium_constant_payoffs_zero_regret():
    space = single_atom()
    g = two_player_game(space, (lambda t, x: 0.0, lambda t, x: 0.0), n_nodes=5)
    prefs = [pref_from_payoff(g, i) for i in range(2)]
    witnesses = [canonical_witness(p) for p in prefs]
    cert = random_equilibrium(g, prefs, witnesses, InfoPartition.finest(space), eps_eq=0.0)
    assert cert.worst_regret == 0.0


def test_random_equilibrium_single_player_boundary():
    space = single_atom()
    g = GameSpec(("p",), space, (line_grid(21),), (lambda t, x: float(x[0]),), (True,))
    p = pref_from_payoff(g, 0)
    cert = random_equilibrium(g, [p], [canonical_witness(p)],
                              InfoPartition.finest(space), eps_eq=1e-9)
    assert cert.profile[0][0] == pytest.approx(1.0)


def test_random_equilibrium_irreflexivity_guard():
    space = single_atom()
    # a preference with x_i strictly inside the hull of its preferred set
    g = GameSpec(("p",), space, (line_grid(3),), (lambda t, x: 0.0,), (True,))
    prefs = [Corr.constant(space, g.joint_grid(), PointSet.of(1, [[0.0], [1.0]]))]
    witnesses = [canonical_witness(prefs[0])]
    import carasel.equilibria as eq

    with pytest.raises(PreconditionError):
        eq._check_irreflexivity(g, prefs)


def test_random_nash_dominant_quadratics():
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    g = two_player_game(
        space,
        (lambda t, x: -(x[0] - 0.5) ** 2, lambda t, x: -(x[1] - 0.5) ** 2),
    )
    cert = random_nash(g, InfoPartition.finest(space), eps_eq=1e-9)
    for t in range(2):
        assert np.allclose(cert.profile[t], [0.5, 0.5])
    assert not cert.warnings


def test_random_nash_builds_each_preference_table_once(monkeypatch):
    import carasel.equilibria as eq

    calls = []
    original = eq.pref_from_payoff

    def counting(g, i, *args, **kwargs):
        calls.append(i)
        return original(g, i, *args, **kwargs)

    monkeypatch.setattr(eq, "pref_from_payoff", counting)
    space = single_atom()
    g = two_player_game(
        space,
        (lambda t, x: -(x[0] - 0.5) ** 2, lambda t, x: -(x[1] - 0.5) ** 2),
        n_nodes=5,
    )
    random_nash(g, InfoPartition.finest(space), eps_eq=1e-9)
    assert sorted(calls) == [0, 1]


def test_random_equilibrium_needs_one_table_per_player():
    space = single_atom()
    g = two_player_game(space, (lambda t, x: 0.0, lambda t, x: 0.0), n_nodes=5)
    p = pref_from_payoff(g, 0)
    with pytest.raises(DomainError):
        random_equilibrium(g, [p], [canonical_witness(p)], InfoPartition.finest(space), 0.0)


@pytest.mark.parametrize("value", [[[1.0]], [[5.0]]], ids=["reflexive", "far"])
def test_random_equilibrium_rejects_a_table_of_another_dim(value):
    # player 1 plays on a 2-D grid but is handed a 1-D preference table
    space = single_atom()
    xs = np.array([0.0, 1.0])
    grids = (line_grid(3), GridSpace(np.array([[a, b] for a in xs for b in xs])))
    g = GameSpec(("p", "q"), space, grids, (lambda t, x: 0.0, lambda t, x: 0.0), (True, True))
    prefs = [pref_from_payoff(g, 0), Corr.constant(space, g.joint_grid(), PointSet.of(1, value))]
    with pytest.raises(DomainError, match=r"player 1's preferred sets need values in R\^2"):
        random_equilibrium(g, prefs, [canonical_witness(p) for p in prefs],
                           InfoPartition.finest(space), 0.0)


@pytest.mark.parametrize("kind", ["grid", "space"])
def test_random_equilibrium_rejects_a_table_off_the_game(kind):
    # a one-atom 3 x 3 game: player 1's (empty) preference table on a
    # 4-node line grid, or over a 2-atom space, was certified before
    space = single_atom()
    g = two_player_game(space, (lambda t, x: 0.0, lambda t, x: 0.0), n_nodes=3)
    off = (Corr.constant(space, line_grid(4), PointSet.empty(1)) if kind == "grid" else
           Corr.constant(AtomSpace(("a", "b"), [0.5, 0.5]), g.joint_grid(), PointSet.empty(1)))
    prefs = [pref_from_payoff(g, 0), off]
    message = "the joint grid" if kind == "grid" else "the game's atom space"
    with pytest.raises(DomainError, match=f"player 1's preference table must live on {message}"):
        random_equilibrium(g, prefs, [canonical_witness(p) for p in prefs],
                           InfoPartition.finest(space), 0.0)


def test_random_equilibrium_takes_a_table_on_an_equal_joint_grid():
    # a table on another grid object with the joint grid's points and
    # pairs fits, and certifies as the table on the joint grid itself
    space = single_atom()
    g = two_player_game(space, (lambda t, x: -(x[0] - 0.5) ** 2, lambda t, x: -(x[1] - 0.5) ** 2),
                        n_nodes=5)
    joint = g.joint_grid()
    prefs = [pref_from_payoff(g, i) for i in range(2)]
    twin = GridSpace(joint.points.copy(), mesh=joint.mesh)
    moved = [prefs[0], Corr(space, twin, 1, prefs[1].points, prefs[1].bounds)]
    part = InfoPartition.finest(space)
    got, want = (random_equilibrium(g, ps, [canonical_witness(p) for p in ps], part, 1e-9)
                 for ps in (moved, prefs))
    assert [(c.name, c.residual) for c in got.checks] == [(c.name, c.residual)
                                                          for c in want.checks]


def test_random_nash_builds_each_interval_table_once_and_glues_from_parts(monkeypatch):
    # each preference table's interval table is reduced once, for its
    # irreflexivity pass, gap table, selection and membership pass, and
    # ranked once, for its gap table; each glue hands _ordered_gaps one row per selected point on
    # its domain's boundary (the constant fallback is one segment), and
    # the stacked kernel measures no pair at all
    g, part, eps_eq = _quadratic_game(np.random.default_rng(4), 9, ((0,), (1,), (2,)))
    prefs, build = [], carasel.equilibria.pref_from_payoff
    monkeypatch.setattr(carasel.equilibria, "pref_from_payoff",
                        lambda *args: prefs.append(build(*args)) or prefs[-1])
    reduced, ranked, kernel_rows, stacked_pairs = Counter(), Counter(), [], []
    for name, seen in (("_interval_ends", reduced), ("_saturated_ends", ranked)):
        monkeypatch.setattr(carasel.corr, name, lambda points, segs, real=getattr(
            carasel.corr, name), seen=seen: seen.update([id(points)]) or real(points, segs))
    ordered, packed = carasel.corr._ordered_gaps, carasel.corr._packed_gaps
    monkeypatch.setattr(carasel.corr, "_ordered_gaps", lambda points, bounds, src, dst: (
        kernel_rows.append(len(src)) or ordered(points, bounds, src, dst)))
    monkeypatch.setattr(carasel.corr, "_packed_gaps", lambda points, bounds, a, b: (
        stacked_pairs.append(len(a)) or packed(points, bounds, a, b)))
    assert random_nash(g, part, eps_eq).checks.ok
    pi, pj = (p[:len(p) // 2] for p in g.joint_grid().directed_pair_arrays())
    boundary = []
    for p in prefs:
        assert reduced[id(p.points)] == ranked[id(p.points)] == 1
        on = p.counts > 0
        t, k = np.nonzero(on[:, pi] != on[:, pj])
        cells = np.unique(t * on.shape[1] + np.where(on[t, pi[k]], pi[k], pj[k]))
        assert 0 < len(cells) < len(t) < on[:, pi].size
        boundary.append(len(cells))
    assert len(prefs) == 2 and kernel_rows == boundary
    assert sum(stacked_pairs) == 0


def test_random_nash_zero_payoffs():
    space = single_atom()
    g = two_player_game(space, (lambda t, x: 0.0, lambda t, x: 0.0), n_nodes=5)
    cert = random_nash(g, InfoPartition.finest(space), eps_eq=0.0)
    assert cert.worst_regret == 0.0


def test_random_nash_coupled_chase():
    space = single_atom()
    g = two_player_game(
        space,
        (lambda t, x: -(x[0] - x[1]) ** 2, lambda t, x: -(x[1] - 0.25) ** 2),
    )
    cert = random_nash(g, InfoPartition.finest(space), eps_eq=1e-9)
    assert np.allclose(cert.profile[0], [0.25, 0.25])
    # brute-force oracle: grid best-response fixed point found by scanning
    nodes = np.linspace(0, 1, 21)
    u1 = -(nodes[:, None] - nodes[None, :]) ** 2
    u2 = -(nodes[None, :] - 0.25) ** 2 * np.ones((21, 21))
    r1 = u1.max(axis=0, keepdims=True) - u1
    r2 = u2.max(axis=1, keepdims=True) - u2
    worst = np.maximum(r1, r2)
    k = int(worst.reshape(-1).argmin())
    assert cert.profile_indices[0] == k


def test_random_nash_rejects_cell_varying_payoffs():
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    g = two_player_game(
        space,
        (lambda t, x: float(t), lambda t, x: 0.0),
        n_nodes=5,
    )
    with pytest.raises(PreconditionError):
        random_nash(g, InfoPartition.trivial(space), eps_eq=1.0)


def test_random_nash_concavity_spot_check_warns():
    from carasel.equilibria import _spot_check_quasiconcavity

    space = single_atom()
    g = GameSpec(
        ("p",), space, (line_grid(9),),
        (lambda t, x: abs(x[0] - 0.5),), (True,),  # convex vee: midpoint dips
    )
    warnings = _spot_check_quasiconcavity(g, seed=0)
    assert any("quasi-concavity" in w for w in warnings)
    # the full pipeline rejects the vee even earlier: two-sided improving
    # sets put the own strategy inside their hull
    with pytest.raises(PreconditionError):
        random_nash(g, InfoPartition.finest(space), eps_eq=1.0)


def test_scaling_leaves_profile_fixed_and_scales_regret():
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    a = {0: (0.33, 0.61), 1: (0.12, 0.86)}

    def payoff(i, scale=1.0, shift=0.0):
        return lambda t, x: scale * (-(x[i] - a[t][i]) ** 2) + shift

    g1 = two_player_game(space, (payoff(0), payoff(1)))
    g2 = two_player_game(space, (payoff(0, 3.0, 5.0), payoff(1, 3.0, 5.0)))
    part = InfoPartition.finest(space)
    c1 = random_nash(g1, part, eps_eq=1.0)
    c2 = random_nash(g2, part, eps_eq=3.0)
    assert c1.profile_indices == c2.profile_indices
    for key in c1.regrets:
        assert c2.regrets[key] == pytest.approx(3.0 * c1.regrets[key], abs=1e-12)


def nash_21x21_certificate() -> str:
    """The canonical text of a seeded 21x21, 4-atom concave-quadratic
    random_nash with selection on: every check, the profile, its
    indices, regrets and warnings, and per player the sha256 of the
    selected (atoms, nodes, dim) table that the gluing checks read (its
    float64 bytes) with its worst membership residual."""
    g, part, eps_eq = _quadratic_game(np.random.default_rng(21), 21, ((0, 1), (2,), (3,)))
    cert = random_nash(g, part, eps_eq)
    selections = []
    for i in range(g.n_players):
        p = pref_from_payoff(g, i)
        table, worst = _select_table(p, _glued_phi(p, canonical_witness(p)), part,
                                     DEFAULT_SELECTION_TOL)
        selections.append([hashlib.sha256(table.tobytes()).hexdigest(), worst])
    return canonical_json({
        "checks": [c.as_dict() for c in cert.checks],
        "profile": [[t, cert.profile_indices[t], v]
                    for t, v in enumerate(cert.profile.tolist())],
        "regrets": [[t, i, r] for (t, i), r in sorted(cert.regrets.items())],
        "selections": selections,
        "warnings": list(cert.warnings),
    })


def test_nash_21x21_certificate_matches_golden():
    # a bench-sized layout (1,764 cells per player); pins the selection
    # bit for bit, not only the gluing verdicts
    assert nash_21x21_certificate() == (GOLDEN / "nash-21x21.json").read_text()


# ------------------------------------------------------------------- bayes

def make_bayes(centers, cells, weights=(0.5, 0.5), n_nodes=11):
    space = AtomSpace(tuple(f"w{k+1}" for k in range(len(weights))), list(weights))
    part = InfoPartition(space, cells)

    def u_i(i):
        return lambda t, x: -(x[i] - centers[t][i]) ** 2

    g = two_player_game(space, (u_i(0), u_i(1)), n_nodes=n_nodes)
    priors = (Prior.uniform(space), Prior.uniform(space))
    return BayesSpec(g, part, priors)


def test_bayes_h_state_independent_payoff():
    b = make_bayes({0: (0.5, 0.5), 1: (0.5, 0.5)}, ((0, 1),))
    x = np.array([0.3, 0.7])
    direct = b.game.payoffs[0](0, x)
    assert bayes_h(b, 0, 0, x) == pytest.approx(direct, abs=1e-12)


def test_bayes_h_weighted_sum():
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    part = InfoPartition.trivial(space)
    g = GameSpec(("p",), space, (line_grid(3),),
                 (lambda t, x: 1.0 if t == 0 else 0.0,), (True,))
    prior = Prior(space, [1.2, 0.8])
    b = BayesSpec(g, part, (prior,))
    assert bayes_h(b, 0, 0, np.array([0.0])) == pytest.approx(0.6, abs=1e-12)


def test_bayes_h_singleton_cells_equal_u():
    b = make_bayes({0: (0.1, 0.9), 1: (0.8, 0.2)}, ((0,), (1,)))
    x = np.array([0.4, 0.6])
    for t in range(2):
        for i in range(2):
            assert bayes_h(b, i, t, x) == b.game.payoffs[i](t, x)


def test_bayes_h_cell_measurable():
    b = make_bayes({0: (0.1, 0.9), 1: (0.8, 0.2)}, ((0, 1),))
    x = np.array([0.4, 0.6])
    for i in range(2):
        assert bayes_h(b, i, 0, x) == pytest.approx(bayes_h(b, i, 1, x), abs=1e-12)


def test_bayes_equilibrium_averaged_quadratic():
    b = make_bayes({0: (0.0, 0.0), 1: (1.0, 1.0)}, ((0, 1),))
    cert = bayes_equilibrium(b, eps_eq=0.01)
    for t in range(2):
        assert np.allclose(cert.profile[t], [0.5, 0.5])


def test_bayes_singleton_cells_match_random_nash():
    b = make_bayes({0: (0.23, 0.67), 1: (0.81, 0.14)}, ((0,), (1,)))
    cert_b = bayes_equilibrium(b, eps_eq=0.01, seed=3)
    cert_n = random_nash(b.game, b.partition, eps_eq=0.01, seed=3)
    assert cert_b.profile_indices == cert_n.profile_indices
    for key in cert_b.regrets:
        assert cert_b.regrets[key] == cert_n.regrets[key]


def test_bayes_cell_takes_its_heads_solve_bit_for_bit(monkeypatch):
    # one 2-atom cell: the derived payoffs, so the preference tables, are
    # equal on both atoms, and the glue's selection solves atom 0 alone;
    # the certificate and the selected tables are the per-atom solve's
    # byte for byte
    b = make_bayes({0: (0.23, 0.67), 1: (0.81, 0.14)}, ((0, 1),))
    head_map, select = carasel.selection._head_map, carasel.equilibria._select_table
    maps, tables = [], []
    monkeypatch.setattr(carasel.selection, "_head_map",
                        lambda *args: maps.append(head_map(*args).tolist()) or head_map(*args))
    monkeypatch.setattr(carasel.equilibria, "_select_table",
                        lambda *args: tables.append(select(*args)) or tables[-1])

    def text(cert):
        return canonical_json({
            "checks": [c.as_dict() for c in cert.checks],
            "profile": [[t, cert.profile_indices[t], v]
                        for t, v in enumerate(cert.profile.tolist())],
            "regrets": [[t, i, r] for (t, i), r in sorted(cert.regrets.items())],
            "selections": [[hashlib.sha256(x.tobytes()).hexdigest(), worst] for x, worst in tables],
            "warnings": list(cert.warnings),
        })
    mine = text(bayes_equilibrium(b, eps_eq=0.01, seed=2))
    assert maps and all(m == [0, 0] for m in maps) and len(tables) == 2
    tables.clear()
    monkeypatch.setattr(carasel.selection, "_head_map", lambda tables, part: np.arange(2))
    assert text(bayes_equilibrium(b, eps_eq=0.01, seed=2)) == mine


def test_bayes_zero_payoffs_zero_regret():
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    g = two_player_game(space, (lambda t, x: 0.0, lambda t, x: 0.0), n_nodes=5)
    b = BayesSpec(g, InfoPartition.trivial(space),
                  (Prior.uniform(space), Prior.uniform(space)))
    cert = bayes_equilibrium(b, eps_eq=0.0)
    assert cert.worst_regret == 0.0


def test_regret_bound_equals_empty_margin_preference():
    # the certified regret bound at the profile is the same statement as
    # emptiness of the strict-improvement set at margin eps_eq
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    a = {0: (0.29, 0.63), 1: (0.77, 0.41)}
    g = two_player_game(
        space,
        (lambda t, x: -(x[0] - a[t][0]) ** 2, lambda t, x: -(x[1] - a[t][1]) ** 2),
    )
    eps_eq = 0.01
    cert = random_nash(g, InfoPartition.finest(space), eps_eq)
    for t in range(2):
        for i in range(2):
            survivors = pref_from_payoff(g, i, strict_margin=eps_eq)
            empty_up_to_margin = survivors.value(t, cert.profile_indices[t]).is_empty
            assert empty_up_to_margin == (cert.regrets[(t, i)] <= eps_eq)
            assert empty_up_to_margin


def test_bayes_priors_must_live_on_the_game_space():
    b = make_bayes({0: (0.5, 0.5), 1: (0.5, 0.5), 2: (0.5, 0.5)}, ((0, 1), (2,)),
                   weights=(0.4, 0.3, 0.3))
    copy = AtomSpace(b.game.state_space.atoms, [0.4, 0.3, 0.3])
    assert BayesSpec(b.game, b.partition, (Prior.uniform(copy),) * 2).priors
    two_atoms = AtomSpace(("w1", "w2"), [0.5, 0.5])
    relabelled = AtomSpace(("v1", "v2", "v3"), [0.4, 0.3, 0.3])
    reweighted = AtomSpace(b.game.state_space.atoms, [0.2, 0.3, 0.5])
    for space in (two_atoms, relabelled, reweighted):
        with pytest.raises(DomainError, match="game's atom space"):
            BayesSpec(b.game, b.partition, (Prior.uniform(space),) * 2)
        with pytest.raises(DomainError, match="game's atom space"):
            BayesSpec(b.game, InfoPartition.trivial(space), b.priors)


def test_bayes_requires_concavity_declared():
    b = make_bayes({0: (0.5, 0.5), 1: (0.5, 0.5)}, ((0, 1),))
    g = GameSpec(b.game.players, b.game.state_space, b.game.strategy_grids,
                 b.game.payoffs, (True, False))
    with pytest.raises(PreconditionError):
        bayes_equilibrium(BayesSpec(g, b.partition, b.priors), eps_eq=0.01)


# ------------------------------------------------------------ maximal elts

def chain_preference(space, grid, margin):
    return Corr.from_function(
        space, grid, 1,
        lambda t, z: (lambda better: PointSet.of(1, better.reshape(-1, 1))
                      if len(better) else PointSet.empty(1))(
            grid.points[grid.points[:, 0] > grid.points[z, 0] + margin, 0]),
    )


def test_maximal_chain_returns_top_node():
    space = single_atom()
    grid = line_grid(11)
    p = chain_preference(space, grid, margin=0.05)
    res = maximal_element(p, canonical_witness(p), InfoPartition.finest(space))
    assert res.values[0][0] == pytest.approx(1.0)


def test_maximal_all_empty_any_node():
    space = single_atom()
    grid = line_grid(5)
    p = Corr.constant(space, grid, PointSet.empty(1))
    res = maximal_element(p, canonical_witness(p), InfoPartition.finest(space))
    assert res.indices[0] == 0  # lexicographically first node certifies


def test_maximal_utility_induced_argmax():
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    grid = line_grid(21)
    centers = {0: 0.3, 1: 0.7}

    def pref_value(t, z):
        u = -(grid.points[:, 0] - centers[t]) ** 2
        better = grid.points[u > u[z], 0]
        return PointSet.of(1, better.reshape(-1, 1)) if len(better) else PointSet.empty(1)

    p = Corr.from_function(space, grid, 1, pref_value)
    res = maximal_element(p, canonical_witness(p), InfoPartition.finest(space))
    for t in range(2):
        assert res.values[t][0] == pytest.approx(centers[t], abs=1e-12)
    names = {c.name for c in res.checks}
    assert "preference-measurability" in names and "witness-measurability" in names


def _maximal_reference(p):
    """The per-atom loop maximal_element ran before its one argmax: per
    atom the first node with an empty preferred set, as (indices, values)
    dicts, and the atoms that have none."""
    values, indices, missing = {}, {}, []
    for t in range(len(p.space)):
        empty_nodes = np.flatnonzero(p.counts[t] == 0)
        if not len(empty_nodes):
            missing.append(t)
            continue
        indices[t] = int(empty_nodes[0])
        values[t] = p.grid.points[indices[t]].copy()
    return indices, values, missing


@pytest.mark.parametrize("seed", range(6))
def test_maximal_element_matches_per_atom_reference(seed):
    # strict improvements of a rounded concave payoff on a random line
    # grid: ties leave several nodes empty, so the first must win
    rng = np.random.default_rng(seed)
    atoms = int(rng.integers(1, 5))
    space = AtomSpace(tuple(f"a{t}" for t in range(atoms)), [1.0] * atoms)
    grid = GridSpace(rng.uniform(size=(int(rng.integers(2, 12)), 1)))
    c = rng.uniform(size=atoms)
    g = GameSpec(("p",), space, (grid,), (lambda t, x: round(-(x[0] - c[t]) ** 2, 2),), (True,))
    p = pref_from_payoff(g, 0)
    res = maximal_element(p, canonical_witness(p), InfoPartition.finest(space))
    indices, values, missing = _maximal_reference(p)
    assert not missing and res.indices.tolist() == [indices[t] for t in range(atoms)]
    assert res.values.tobytes() == np.array([values[t] for t in range(atoms)]).tobytes()
    assert not res.indices.flags.writeable and not res.values.flags.writeable


def test_maximal_no_empty_node_names_every_such_atom():
    # atom 0 ranks the nodes, atoms 1 and 2 prefer the other end at each end
    space = AtomSpace(("a", "b", "c"), [1.0] * 3)
    grid = line_grid(5)
    p = Corr.from_function(space, grid, 1, lambda t, z: (
        PointSet.empty(1) if t == 0 and z == 4 else
        PointSet.of(1, [[grid.points[4 if t == 0 or z == 0 else 0, 0]]])))
    assert _maximal_reference(p)[2] == [1, 2]
    with pytest.raises(NoCertificateError, match=r"no empty-preference node at atoms \[1, 2\]"):
        maximal_element(p, canonical_witness(p), InfoPartition.finest(space))


@pytest.mark.parametrize("value", [[[0.5]], [[5.0]], []], ids=["reflexive", "far", "empty"])
def test_maximal_element_rejects_a_table_of_another_dim(value):
    # a 1-D preference table on a 2-D grid: once decided on its first
    # coordinate alone, now refused whatever it holds
    xs = np.array([0.0, 0.5, 1.0])
    grid = GridSpace(np.array([[a, b] for a in xs for b in xs]))
    p = Corr.constant(single_atom(), grid, PointSet.of(1, value) if value else PointSet.empty(1))
    with pytest.raises(DomainError, match=r"preferred sets need values in R\^2"):
        maximal_element(p, canonical_witness(p), InfoPartition.finest(p.space))


def test_maximal_no_empty_node_raises():
    space = single_atom()
    grid = line_grid(5)
    # every node strictly prefers some other node: a 2-cycle of tops
    def pref_value(t, z):
        other = 0 if z == 4 else 4
        return PointSet.of(1, [[grid.points[other, 0]]])

    p = Corr.from_function(space, grid, 1, pref_value)
    with pytest.raises(NoCertificateError):
        maximal_element(p, canonical_witness(p), InfoPartition.finest(space))


# ------------------------------------------- array passes against per-cell code

def _reflexive_reference(p, own):
    """The per-cell loop _reflexive_at ran before its 1-D array pass."""
    for t in range(len(p.space)):
        for z in np.flatnonzero(p.counts[t]).tolist():
            if convex_membership(own[z], ConvexSet(p.dim, p.value(t, z).points),
                                 SET_EQUALITY_TOL):
                return t, z
    return None


def _planted(p, cell, value):
    """p with the value at cell replaced."""
    return Corr.from_function(p.space, p.grid, p.dim,
                              lambda t, z: value if (t, z) == cell else p.value(t, z))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reflexive_at_matches_per_cell_reference(dim):
    rng = np.random.default_rng(90 + dim)
    space = AtomSpace(("a", "b", "c"), [1.0, 1.0, 1.0])
    hits = 0
    for _ in range(6):
        grid = GridSpace(rng.uniform(size=(int(rng.integers(2, 12)), dim)))
        own = grid.points
        cases = []
        if dim == 1:
            g = GameSpec(("p",), space, (grid,),
                         (lambda t, x, c=rng.normal(size=3): -(x[0] - c[t]) ** 2,), (True,))
            p = pref_from_payoff(g, 0)
            assert _reflexive_at(p, own) is None
        else:
            p = Corr.from_function(space, grid, dim, lambda t, z: PointSet.of(
                dim, own[z] + 0.1 + rng.uniform(size=(int(rng.integers(0, 5)), dim))))
        cases.append(p)
        t, z = int(rng.integers(3)), int(rng.integers(len(grid)))
        x = own[z]
        tilt = np.concatenate([[0.1], np.full(dim - 1, -0.1)])
        around = PointSet.of(dim, np.vstack([x - 0.1, x + 0.1, x + tilt]))
        cases.append(_planted(p, (t, z), around))  # own point strictly inside
        for shift in (0.0, 5e-10, 2e-9):  # on the boundary, within tol, beyond tol
            edge = PointSet.of(dim, np.vstack([x + shift, x + shift + 1.0]))
            cases.append(_planted(p, (t, z), edge))
        for q in cases:
            got, want = _reflexive_at(q, own), _reflexive_reference(q, own)
            assert got == want
            hits += got is not None
    assert hits > 6

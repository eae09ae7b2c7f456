"""Fixed points, preference tables, equilibrium and maximal-element
certificates, conditional-expectation payoffs."""

import numpy as np
import pytest

from carasel import (
    AtomSpace,
    BayesSpec,
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
    maximal_element,
    pref_from_payoff,
    random_equilibrium,
    random_fixed_point,
    random_nash,
)

from conftest import line_grid, single_atom


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
        assert prof.residuals[t] <= 1e-6
        assert abs(prof.values[t][0]) <= grid.mesh


def test_fixed_point_constant_per_atom():
    space = AtomSpace(("a", "b"), [0.5, 0.5])
    grid = line_grid(11)
    c = {0: 0.3, 1: 0.8}
    psi = singleton_map_corr(space, grid, lambda t, x: np.array([c[t]]))
    prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
    for t in range(2):
        assert prof.values[t][0] == pytest.approx(c[t], abs=1e-9)


def test_fixed_point_reflection_map():
    space = single_atom()
    grid = GridSpace(np.linspace(0.0, 1.0, 101).reshape(-1, 1), mesh=0.01)
    psi = singleton_map_corr(space, grid, lambda t, x: 1.0 - x)
    prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
    assert abs(prof.values[0][0] - 0.5) <= 0.01
    assert prof.residuals[0] <= 1e-6


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


# ------------------------------------------------------- preference tables

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
    twice = GridSpace(np.array([[0.0], [0.5], [0.5], [1.0], [0.5 + 1e-13]]), mesh=0.5)
    grids = (line_grid(int(rng.integers(2, 7))), plane, twice)  # twice repeats a point
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

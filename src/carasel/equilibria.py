"""Random fixed points, random games and their equilibrium certificates.

Every equilibrium claim is certified the same way: exhaustive enumeration
over the (small, by design) strategy grids shows that no player has a
strictly improving deviation beyond the stated margin at any atom.  The
selection-and-gluing machinery runs alongside and its checks are folded
into the certificate, but the brute-force regret bound is the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import runtime
from .corr import (
    CipWitness,
    Corr,
    GridSpace,
    SET_EQUALITY_TOL,
    _segments,
    canonical_witness,
    cip_verify,
    domain,
    lower_measurable_check,
)
from .errors import ConstructionError, DomainError, NoCertificateError, PreconditionError
from .measure import AtomSpace, InfoPartition, Prior, conditional_density
from .reporting import CheckSet
from .selection import Selection, caratheodory_select, glue
from .setops import DEDUP_TOL, ConvexSet, PointSet, _cross_dists, convex_membership

JOINT_NODE_CAP = 10_000
DEFAULT_FIXPOINT_TOL = 1e-6


@dataclass(frozen=True)
class FixedPointProfile:
    """Per-atom solutions of x = psi(t, x) with their residuals."""

    values: dict      # atom index -> vector
    residuals: dict   # atom index -> float
    selection: Selection
    checks: CheckSet


def _interpolate(grid: GridSpace, table: dict, x: np.ndarray) -> np.ndarray:
    """Adjacency-weighted interpolation of a node table at an off-grid
    point, using hat weights in the Euclidean embedding; falls back to
    the nearest node outside every hat support."""
    d = np.linalg.norm(grid.points - x, axis=1)
    wts = np.maximum(0.0, 1.0 - d / grid.adjacency_radius)
    mask = wts > 0
    if not mask.any():
        return table[int(d.argmin())]
    total = wts[mask].sum()
    out = np.zeros(x.shape[0])
    for z in np.nonzero(mask)[0]:
        out += wts[z] / total * table[int(z)]
    return out


def random_fixed_point(
    psi: Corr,
    w: CipWitness,
    part: InfoPartition = None,
    tol: float = DEFAULT_FIXPOINT_TOL,
    damping: float = 0.5,
    max_iter: int = 500,
    **select_opts,
) -> FixedPointProfile:
    """Solve x = psi-selection(t, x) atom by atom.

    Runs the certified selection, extends it off-grid by adjacency
    interpolation, iterates the damped map from the grid barycenter, and
    falls back to exhaustive node minimization of the displacement when
    the iteration stalls.  Certifies the residual at every atom.
    """
    if part is None:
        part = InfoPartition.finest(psi.space)
    full = {(t, z) for t in range(len(psi.space)) for z in range(len(psi.grid))}
    if domain(psi) != frozenset(full):
        raise PreconditionError("the correspondence must be nonempty-valued everywhere")
    select_opts.setdefault("closed_valued", True)
    sel = caratheodory_select(psi, w, part, **select_opts)

    grid = psi.grid
    bary = grid.points.mean(axis=0)
    box_lo = grid.points.min(axis=0)
    box_hi = grid.points.max(axis=0)

    def solve_atom(t: int) -> tuple[np.ndarray, float]:
        table = {z: sel.value(t, z) for z in range(len(grid))}
        x = bary.copy()
        for _ in range(max_iter):
            fx = _interpolate(grid, table, x)
            # iterates stay in the compact box the grid discretizes
            nxt = np.clip((1.0 - damping) * x + damping * fx, box_lo, box_hi)
            if np.linalg.norm(nxt - x) <= 1e-14 * max(1.0, np.linalg.norm(x)):
                x = nxt
                break
            x = nxt
        residual = float(np.linalg.norm(_interpolate(grid, table, x) - x))
        if residual > tol:
            disp = [float(np.linalg.norm(table[z] - grid.points[z])) for z in range(len(grid))]
            z_best = int(np.argmin(disp))
            if disp[z_best] < residual:
                x = grid.points[z_best].copy()
                residual = disp[z_best]
        return x, residual

    solved = runtime.atom_map(solve_atom, range(len(psi.space)))
    values = {t: v for t, (v, _) in enumerate(solved)}
    residuals = {t: r for t, (_, r) in enumerate(solved)}

    worst = max(residuals.values())
    if worst > tol:
        raise NoCertificateError(
            f"fixed-point residual {worst:.3e} exceeds tol {tol:g} "
            "(a residual of order modulus*mesh can be unavoidable at this resolution)",
            best_residual=worst,
        )
    checks = CheckSet()
    checks.extend(sel.checks)
    checks.add("fixed-point-residual", worst, tol,
               "max over atoms of the displacement at the solution")
    return FixedPointProfile(values, residuals, sel, checks)


@dataclass(frozen=True)
class GameSpec:
    """A finite random game: per-player strategy grids over a common
    atom space, with payoff callables u_i(atom_index, joint_vector)."""

    players: tuple
    state_space: AtomSpace
    strategy_grids: tuple
    payoffs: tuple
    concavity_declared: tuple

    def __post_init__(self):
        players = tuple(self.players)
        grids = tuple(self.strategy_grids)
        payoffs = tuple(self.payoffs)
        conc = tuple(bool(c) for c in self.concavity_declared)
        if not players:
            raise DomainError("a game needs at least one player")
        if not (len(players) == len(grids) == len(payoffs) == len(conc)):
            raise DomainError("players, grids, payoffs and concavity flags must align")
        n_joint = 1
        for g in grids:
            n_joint *= len(g)
        if n_joint > JOINT_NODE_CAP:
            raise DomainError(f"joint grid has {n_joint} nodes, above the cap {JOINT_NODE_CAP}")
        object.__setattr__(self, "players", players)
        object.__setattr__(self, "strategy_grids", grids)
        object.__setattr__(self, "payoffs", payoffs)
        object.__setattr__(self, "concavity_declared", conc)
        object.__setattr__(self, "_cache", {})

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def joint_shape(self) -> tuple:
        return tuple(len(g) for g in self.strategy_grids)

    @property
    def own_slices(self) -> list[slice]:
        out, off = [], 0
        for g in self.strategy_grids:
            out.append(slice(off, off + g.dim))
            off += g.dim
        return out

    def joint_nodes(self) -> np.ndarray:
        """All joint strategy vectors, lexicographic in per-player node
        indices (C order of the joint shape)."""
        if "nodes" not in self._cache:
            coords = [g.points for g in self.strategy_grids]
            rows = [np.concatenate(tup) for tup in itertools.product(*coords)]
            arr = np.array(rows)
            arr.flags.writeable = False
            self._cache["nodes"] = arr
        return self._cache["nodes"]

    def joint_grid(self) -> GridSpace:
        if "grid" not in self._cache:
            mesh = float(np.sqrt(sum(g.mesh ** 2 for g in self.strategy_grids)))
            self._cache["grid"] = GridSpace(self.joint_nodes(), mesh=mesh)
        return self._cache["grid"]

    def payoff_table(self, i: int, t: int) -> np.ndarray:
        """u_i(t, .) over the joint nodes, shaped by the joint shape."""
        key = ("table", i, t)
        if key not in self._cache:
            u = self.payoffs[i]
            vals = np.array([float(u(t, x)) for x in self.joint_nodes()])
            if not np.all(np.isfinite(vals)):
                raise DomainError(f"payoff of player {i} not finite at atom {t}")
            vals = vals.reshape(self.joint_shape)
            vals.flags.writeable = False
            self._cache[key] = vals
        return self._cache[key]

    def regret_table(self, i: int, t: int) -> np.ndarray:
        """Flat table of max_y u_i(t, y_i, x_-i) - u_i(t, x) over joint
        nodes (C order)."""
        u = self.payoff_table(i, t)
        best = u.max(axis=i, keepdims=True)
        return (best - u).reshape(-1)


@dataclass(frozen=True)
class BayesSpec:
    """A common-information Bayesian game: a base game, one information
    partition shared by all players, and per-player priors with positive
    mass on every cell."""

    game: GameSpec
    partition: InfoPartition
    priors: tuple

    def __post_init__(self):
        priors = tuple(self.priors)
        if len(priors) != self.game.n_players:
            raise DomainError("one prior per player is required")
        for q in priors:
            if not isinstance(q, Prior):
                raise DomainError("priors must be Prior instances")
            for cell in self.partition.cells:
                idx = np.array(cell, dtype=int)
                if float(q.density[idx] @ q.space.weights[idx]) <= 0:
                    raise DomainError("every cell needs positive prior mass")
        object.__setattr__(self, "priors", priors)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """A per-atom joint profile with exhaustive per-player regrets, the
    partition it is measurable against, and the executed checks."""

    profile: dict              # atom index -> joint vector
    profile_indices: dict      # atom index -> flat joint node index
    regrets: dict              # (atom index, player index) -> float
    measurable_wrt: InfoPartition
    checks: CheckSet
    warnings: tuple = ()

    @property
    def worst_regret(self) -> float:
        return max(self.regrets.values())


def pref_from_payoff(g: GameSpec, i: int, strict_margin: float = 0.0) -> Corr:
    """Tabulate the strict-improvement correspondence of player i: at
    (atom, joint node), the player-i grid points whose unilateral
    deviation improves the payoff by more than strict_margin."""
    if strict_margin < 0:
        raise DomainError("strict_margin must be nonnegative")
    own = g.strategy_grids[i].points
    better = []  # (joint nodes, own nodes) improvement mask per atom
    for t in range(len(g.state_space)):
        u = g.payoff_table(i, t)
        # own axis last, then broadcast back along axis i: gains[x, y] is
        # u_i(t, y, x_-i) - u_i(t, x)
        gains = np.expand_dims(np.moveaxis(u, i, -1), i) - u[..., None]
        better.append((gains > strict_margin).reshape(-1, len(own)))
    better = np.array(better)
    # an own point within DEDUP_TOL of an earlier kept one is dropped, as
    # PointSet.of would
    close = np.tril(_cross_dists(own, own) <= DEDUP_TOL, -1)
    for k in np.flatnonzero(close.any(axis=1)):
        better[..., k] &= ~(better[..., :k] & close[k, :k]).any(axis=-1)
    return Corr(g.state_space, g.joint_grid(), own.shape[1], own[np.nonzero(better)[2]],
                _segments(better.sum(axis=-1)))


def _reflexive_at(p: Corr, own: np.ndarray) -> tuple[int, int] | None:
    """The first (atom, node) whose own point own[node] lies in the hull
    of its preferred set, or None when p is irreflexive."""
    for t in range(len(p.space)):
        for z in p.t_section(t):
            hull = ConvexSet.from_point_set(p.value(t, z))
            if convex_membership(own[z], hull, SET_EQUALITY_TOL):
                return t, z
    return None


def _check_irreflexivity(g: GameSpec, prefs: list[Corr]) -> None:
    nodes = g.joint_nodes()
    for i, p in enumerate(prefs):
        hit = _reflexive_at(p, nodes[:, g.own_slices[i]])
        if hit is not None:
            raise PreconditionError(
                f"irreflexivity violated: own strategy inside the hull of the "
                f"preferred set at atom {hit[0]}, joint node {hit[1]}, player {i}"
            )


def _payoff_cell_constancy(g: GameSpec, part: InfoPartition) -> float:
    worst = 0.0
    for i in range(g.n_players):
        for cell in part.cells:
            base = g.payoff_table(i, cell[0])
            for t in cell[1:]:
                worst = max(worst, float(np.abs(g.payoff_table(i, t) - base).max()))
    return worst


def _profile_cell_constancy(profile: dict, part: InfoPartition) -> float:
    worst = 0.0
    for cell in part.cells:
        base = profile[cell[0]]
        for t in cell[1:]:
            worst = max(worst, float(np.linalg.norm(profile[t] - base)))
    return worst


def _spot_check_quasiconcavity(g: GameSpec, seed: int, trials: int = 20) -> list[str]:
    """Randomized midpoint test of quasi-concavity in the own strategy;
    gross violations produce warnings, never errors."""
    rng = np.random.default_rng(seed)
    warnings = []
    nodes = g.joint_nodes()
    for i in range(g.n_players):
        gi = g.strategy_grids[i]
        lo = gi.points.min(axis=0)
        hi = gi.points.max(axis=0)
        sl = g.own_slices[i]
        bad = 0
        for _ in range(trials):
            t = int(rng.integers(len(g.state_space)))
            base = nodes[int(rng.integers(len(nodes)))].copy()
            a = lo + rng.random(gi.dim) * (hi - lo)
            b = lo + rng.random(gi.dim) * (hi - lo)
            xa, xb, xm = base.copy(), base.copy(), base.copy()
            xa[sl], xb[sl], xm[sl] = a, b, 0.5 * (a + b)
            try:
                ua = float(g.payoffs[i](t, xa))
                ub = float(g.payoffs[i](t, xb))
                um = float(g.payoffs[i](t, xm))
            except Exception:
                warnings.append(f"player {i}: payoff not evaluable off-grid; spot-check skipped")
                bad = 0
                break
            if um < min(ua, ub) - 1e-9:
                bad += 1
        if bad:
            warnings.append(
                f"player {i}: quasi-concavity midpoint test failed {bad}/{trials} times"
            )
    return warnings


def random_equilibrium(
    g: GameSpec,
    prefs: list[Corr],
    witnesses: list[CipWitness],
    part: InfoPartition,
    eps_eq: float,
    run_selection: bool = True,
) -> EquilibriumCertificate:
    """Certify a profile at which every player's strict-improvement set
    is empty up to eps_eq at every atom.

    prefs holds each player's preference table on the joint grid (as
    pref_from_payoff builds it) and witnesses its inclusion witness.
    Verifies irreflexivity and the inclusion property per player, builds
    the selection-plus-fallback tables whose product the profile is a
    fixed point of, and selects the profile by exhaustive enumeration:
    the lexicographically first joint node minimizing the worst regret.
    """
    if eps_eq < 0:
        raise DomainError("eps_eq must be nonnegative")
    if not len(prefs) == len(witnesses) == g.n_players:
        raise DomainError("one preference table and one witness per player are required")
    _check_irreflexivity(g, prefs)

    checks = CheckSet()
    grid = g.joint_grid()
    for i, (p, w) in enumerate(zip(prefs, witnesses)):
        probe = cip_verify(p, w, eps=grid.diameter + 1.0)
        eps_cert = probe.lsc_gap + 1e-12
        checks.add(f"cip-player-{i}", len(probe.failures), 0,
                   f"inclusion witness verified; l.s.c. certified at eps={eps_cert:.3g}")
        if not probe.ok:
            raise PreconditionError(f"inclusion property fails for player {i}")
        if run_selection and domain(p):
            sel = caratheodory_select(p, w, part, closed_valued=True)
            fallback = Corr.constant(
                g.state_space, grid, PointSet.of(p.dim, g.strategy_grids[i].points)
            )
            glued = glue(p, sel, fallback, part=part)
            # the product construction relies on u.s.c. and measurability
            # of the glued tables; the l.s.c. claim plays no role here
            for c in glued.checks:
                if c.name == "glue-lsc-preserved":
                    continue
                checks.add(f"{c.name}-player-{i}", c.residual, c.tolerance, c.detail)

    n_nodes = len(grid)
    def solve_atom(t: int) -> tuple[int, np.ndarray]:
        worst = np.zeros(n_nodes)
        for i in range(g.n_players):
            worst = np.maximum(worst, g.regret_table(i, t))
        flat = int(worst.argmin())  # C order: lexicographically first
        return flat, g.joint_nodes()[flat].copy()

    solved = runtime.atom_map(solve_atom, range(len(g.state_space)))
    profile = {t: vec for t, (_, vec) in enumerate(solved)}
    indices = {t: flat for t, (flat, _) in enumerate(solved)}
    regrets = {
        (t, i): float(g.regret_table(i, t)[indices[t]])
        for t in range(len(g.state_space))
        for i in range(g.n_players)
    }

    worst_regret = max(regrets.values())
    checks.add("equilibrium-regret", worst_regret, eps_eq,
               "max over atoms and players of the best-deviation gain")
    if worst_regret > eps_eq:
        raise NoCertificateError(
            f"worst regret {worst_regret:.3e} exceeds eps_eq {eps_eq:g}",
            best_residual=worst_regret,
        )
    checks.add("profile-measurability", _profile_cell_constancy(profile, part),
               SET_EQUALITY_TOL, "profile constant on every information cell")
    return EquilibriumCertificate(profile, indices, regrets, part, checks)


def random_nash(
    g: GameSpec,
    part: InfoPartition,
    eps_eq: float,
    strict_margin: float = 0.0,
    seed: int = 0,
    run_selection: bool = True,
) -> EquilibriumCertificate:
    """Equilibrium certificate for a payoff-based random game: derives
    the strict-improvement correspondences, equips them with their
    canonical inclusion witnesses, and certifies regrets as max-payoff
    gaps via exhaustive enumeration."""
    payoff_gap = _payoff_cell_constancy(g, part)
    if payoff_gap > 1e-9:
        raise PreconditionError(
            f"payoffs vary by {payoff_gap:.3e} inside an information cell"
        )
    warnings = tuple(_spot_check_quasiconcavity(g, seed))
    for i, declared in enumerate(g.concavity_declared):
        if not declared:
            warnings = warnings + (f"player {i}: concavity not declared",)

    prefs = [pref_from_payoff(g, i, strict_margin) for i in range(g.n_players)]
    witnesses = [canonical_witness(p) for p in prefs]
    cert = random_equilibrium(g, prefs, witnesses, part, eps_eq, run_selection=run_selection)
    return EquilibriumCertificate(
        cert.profile, cert.profile_indices, cert.regrets,
        cert.measurable_wrt, cert.checks, warnings + cert.warnings,
    )


def bayes_h(b: BayesSpec, i: int, omega: int, x: np.ndarray) -> float:
    """Conditional expected payoff of player i at atom omega: the
    prior-weighted average of u_i(., x) over omega's information cell.
    Depends on omega only through its cell; equals u_i exactly on
    singleton cells."""
    space = b.game.state_space
    cell = b.partition.cell_of(int(omega))
    if len(cell) == 1:
        return float(b.game.payoffs[i](cell[0], x))
    dens = conditional_density(b.priors[i], b.partition, int(omega))
    total = 0.0
    for t in cell:
        total += dens[t] * float(b.game.payoffs[i](t, x)) * space.weights[t]
    return float(total)


def derived_bayes_game(b: BayesSpec) -> GameSpec:
    """The auxiliary game whose payoffs are the conditional expected
    utilities; solving it solves the Bayesian game."""
    def make_payoff(i: int):
        return lambda t, x: bayes_h(b, i, t, x)

    return GameSpec(
        b.game.players,
        b.game.state_space,
        b.game.strategy_grids,
        tuple(make_payoff(i) for i in range(b.game.n_players)),
        b.game.concavity_declared,
    )


def bayes_equilibrium(
    b: BayesSpec,
    eps_eq: float,
    strict_margin: float = 0.0,
    seed: int = 0,
    run_selection: bool = True,
) -> EquilibriumCertificate:
    """Certify a Bayesian equilibrium: build the conditional-expectation
    game and solve it as a random game against the information partition.
    The profile must come out constant on every information cell."""
    for i, declared in enumerate(b.game.concavity_declared):
        if not declared:
            raise PreconditionError(
                f"player {i}: concavity in the own strategy must be declared"
            )
    derived = derived_bayes_game(b)
    cert = random_nash(
        derived, b.partition, eps_eq, strict_margin=strict_margin,
        seed=seed, run_selection=run_selection,
    )
    gap = _profile_cell_constancy(cert.profile, b.partition)
    if gap > SET_EQUALITY_TOL:
        raise ConstructionError(
            f"equilibrium profile varies by {gap:.3e} inside an information cell"
        )
    return cert


@dataclass(frozen=True)
class MaximalResult:
    """Per-atom maximal elements: nodes with empty preferred set."""

    values: dict   # atom index -> vector
    indices: dict  # atom index -> node index
    checks: CheckSet


def maximal_element(
    p: Corr,
    w: CipWitness,
    part: InfoPartition,
    run_selection: bool = True,
) -> MaximalResult:
    """Find, per atom, a grid node whose preferred set is empty.

    Verifies irreflexivity and the inclusion property, reports the
    preference-measurability and witness-measurability checks separately,
    runs the selection-plus-fallback construction, and returns the
    lexicographically first empty-preference node per atom."""
    grid = p.grid
    hit = _reflexive_at(p, grid.points)
    if hit is not None:
        raise PreconditionError(f"irreflexivity violated at atom {hit[0]}, node {hit[1]}")

    checks = CheckSet()
    probe = cip_verify(p, w, eps=grid.diameter + 1.0)
    checks.add("cip", len(probe.failures), 0,
               f"inclusion witness verified; l.s.c. certified at eps={probe.lsc_gap + 1e-12:.3g}")
    if not probe.ok:
        raise PreconditionError("inclusion property fails for the preference table")

    bad = sum(0 if lower_measurable_check(p, part, z) else 1 for z in range(len(grid)))
    checks.add("preference-measurability", bad, 0,
               "cell-wise constancy of the preferred sets (reported separately "
               "from the witness checks)")
    bad_w = 0
    for f, _ in w.distinct_locals():
        for z in range(len(grid)):
            if not lower_measurable_check(f, part, z):
                bad_w += 1
    checks.add("witness-measurability", bad_w, 0,
               "cell-wise constancy of the witness locals")

    if run_selection and domain(p):
        sel = caratheodory_select(p, w, part, closed_valued=True)
        fallback = Corr.constant(p.space, grid, PointSet.of(p.dim, grid.points))
        glued = glue(p, sel, fallback, part=part)
        # as in the game pipeline: the fixed-point construction needs the
        # u.s.c. and measurability claims of the gluing, not the l.s.c. one
        for c in glued.checks:
            if c.name != "glue-lsc-preserved":
                checks.add(c.name, c.residual, c.tolerance, c.detail)

    values, indices = {}, {}
    missing = []
    for t in range(len(p.space)):
        empty_nodes = np.flatnonzero(p.counts[t] == 0)
        if not len(empty_nodes):
            missing.append(t)
            continue
        z = int(empty_nodes[0])
        indices[t] = z
        values[t] = grid.points[z].copy()
    if missing:
        raise NoCertificateError(
            f"no empty-preference node at atoms {missing}", best_residual=float(len(missing))
        )
    checks.add("maximal-emptiness", 0.0, 0.0,
               "every atom carries a node with empty preferred set")
    return MaximalResult(values, indices, checks)

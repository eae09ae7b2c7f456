"""Random fixed points, random games and their equilibrium certificates.

Every equilibrium claim is certified the same way: exhaustive enumeration
over the (small, by design) strategy grids shows that no player has a
strictly improving deviation beyond the stated margin at any atom.  The
selection-and-gluing machinery runs alongside and its checks are folded
into the certificate, but the brute-force regret bound is the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .corr import (
    CipWitness,
    Corr,
    GridSpace,
    SET_EQUALITY_TOL,
    _hull_distances,
    _same_grid,
    _segments,
    canonical_witness,
    cell_varying,
    cip_verify,
)
from .errors import ConstructionError, DomainError, NoCertificateError, PreconditionError
from .measure import AtomSpace, InfoPartition, Prior, conditional_density
from .reporting import CheckSet
from .selection import (
    DEFAULT_SELECTION_TOL,
    _glue_table,
    _glued_phi,
    _select_table,
    caratheodory_select,
)
from .setops import PointSet, _distinct, _solve_blocks

JOINT_NODE_CAP = 10_000
DEFAULT_FIXPOINT_TOL = 1e-6


@dataclass(frozen=True)
class FixedPointProfile:
    """Per-atom solutions of x = psi(t, x) with their residuals, read-only
    arrays indexed by atom."""

    values: np.ndarray     # (atoms, dim)
    residuals: np.ndarray  # (atoms,)
    checks: CheckSet


def _faces(points: np.ndarray) -> list[np.ndarray]:
    """Per size k = 1, 2, ..., the faces of a triangulation of the grid as
    sorted node index rows in lexicographic order; the size-1 faces are all
    nodes.  Sorted consecutive segments in R^1, else scipy's Delaunay
    without joggle, so deterministic (a flat grid raises QhullError)."""
    if points.shape[1] == 1:
        order = np.argsort(points[:, 0], kind="stable")
        simplices = np.stack([order[:-1], order[1:]], axis=1)
    else:
        from scipy.spatial import Delaunay

        simplices = Delaunay(points).simplices
    simplices, m = np.sort(simplices, axis=1), simplices.shape[1]
    return [np.arange(len(points))[:, None]] + [
        _distinct(simplices[:, list(itertools.combinations(range(m), k))].reshape(-1, k))
        for k in range(2, m + 1)]


def random_fixed_point(
    psi: Corr,
    w: CipWitness,
    part: InfoPartition = None,
    tol: float = DEFAULT_FIXPOINT_TOL,
    eps: float = None,
) -> FixedPointProfile:
    """Solve x = psi-selection(t, x) at every atom.

    Runs the certified closed-valued selection, its phi checks at the
    l.s.c. tolerance eps (default: the grid's adjacency radius), and
    solves its piecewise-linear extension over a triangulation of the
    grid (_faces) exactly.  On a face with displacements g_i, the KKT
    block [[G G^T, 1], [1^T, 0]] gives the weights l, sum l = 1, of the
    least |sum l_i g_i|: one batched solve per face size over every
    (atom, face) block.  Skipping singular blocks loses no fixed point
    (by Caratheodory).  Per atom, of the faces with l >= 0, takes the
    point within tol nearest the grid barycenter, ties to the earlier
    face in (size, vertices) order, else reports the least residual.
    """
    if part is None:
        part = InfoPartition.finest(psi.space)
    if not psi.counts.all():
        raise PreconditionError("the correspondence must be nonempty-valued everywhere")
    grid = psi.grid
    if psi.dim != grid.dim:
        raise DomainError(f"fixed points need values in R^{grid.dim}, the grid's space")
    faces = _faces(grid.points)
    bary = grid.points.mean(axis=0)
    sel = caratheodory_select(psi, w, part, closed_valued=True, eps=eps)
    disp = sel.table - grid.points  # (atoms, nodes, dim)
    n = len(psi.space)
    xs, res = [], []  # per face size, (atoms, faces, dim) and (atoms, faces)
    for f in faces:
        g, k = disp[:, f], f.shape[1]
        K = np.ones((n, len(f), k + 1, k + 1))
        K[..., :k, :k] = g @ g.swapaxes(-1, -2)
        K[..., k, k] = 0.0
        lam, singular = _solve_blocks(K.reshape(-1, k + 1, k + 1), np.eye(k + 1)[k])
        t, j = np.nonzero((~singular & (lam >= 0).all(axis=1)).reshape(n, len(f)))
        lam = lam.reshape(n, len(f), k)[t, j]
        lam /= lam.sum(axis=1, keepdims=True)
        x, r = np.zeros((n, len(f), grid.dim)), np.full((n, len(f)), np.inf)
        x[t, j] = np.einsum("fk,fkd->fd", lam, grid.points[f[j]])
        r[t, j] = np.linalg.norm(np.einsum("fk,fkd->fd", lam, g[t, j]), axis=1)
        xs.append(x)
        res.append(r)
    x, r = np.concatenate(xs, axis=1), np.concatenate(res, axis=1)
    solved = r <= tol
    key = np.where(solved, np.linalg.norm(x - bary, axis=2), np.inf)
    best = np.where(solved.any(axis=1), key.argmin(axis=1), r.argmin(axis=1))
    values, residuals = x[np.arange(n), best], r[np.arange(n), best]
    values.flags.writeable = residuals.flags.writeable = False
    worst = float(residuals.max())
    if worst > tol:
        raise NoCertificateError(f"fixed-point residual {worst:.3e} exceeds tol {tol:g} (0 is "
                                 "reached whenever the selection maps the grid's hull into "
                                 "itself)", best_residual=worst)
    checks = CheckSet()
    checks.extend(sel.checks)
    checks.add("fixed-point-residual", worst, tol,
               "max over atoms of the displacement at the solution")
    return FixedPointProfile(values, residuals, checks)


def own_slices(grids) -> list[slice]:
    """Each player's coordinates in a joint vector: the grids' dims side by side."""
    ends = list(itertools.accumulate(g.dim for g in grids))
    return [slice(end - g.dim, end) for g, end in zip(grids, ends)]


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

    def joint_nodes(self) -> np.ndarray:
        """All joint strategy vectors, lexicographic in per-player node
        indices (C order of the joint shape)."""
        if "nodes" not in self._cache:
            shape = self.joint_shape
            arr = np.empty(shape + (sum(g.dim for g in self.strategy_grids),))
            for k, (g, own) in enumerate(zip(self.strategy_grids, own_slices(self.strategy_grids))):
                # player k's coordinates vary along axis k only
                arr[..., own] = g.points.reshape((1,) * k + (-1,) + (1,) * (len(shape) - k - 1)
                                                 + (g.dim,))
            arr = arr.reshape(-1, arr.shape[-1])
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
            if "rows" not in self._cache:  # one read-only view per joint node, for every table
                self._cache["rows"] = list(self.joint_nodes())
            u = self.payoffs[i]
            vals = np.array([float(u(t, x)) for x in self._cache["rows"]])
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
            if q.space != self.game.state_space or self.partition.space != q.space:
                raise DomainError("priors and partition must live on the game's atom space")
            if (np.bincount(self.partition.cell_index, q.density * q.space.weights) <= 0).any():
                raise DomainError("every cell needs positive prior mass")
        object.__setattr__(self, "priors", priors)


@dataclass(frozen=True)
class EquilibriumCertificate:
    """A per-atom joint profile with exhaustive per-player regrets and
    the executed checks."""

    profile: np.ndarray        # (atoms, joint dim) read-only, the joint node per atom
    profile_indices: dict      # atom index -> flat joint node index
    regrets: dict              # (atom index, player index) -> float
    checks: CheckSet
    warnings: tuple = ()

    @property
    def worst_regret(self) -> float:
        return max(self.regrets.values())


def pref_from_payoff(g: GameSpec, i: int, strict_margin: float = 0.0) -> Corr:
    """Tabulate the strict-improvement correspondence of player i: at
    (atom, joint node), the player-i grid points whose unilateral
    deviation improves the payoff by more than strict_margin.

    One segment per distinct improvement row: cells with equal preferred
    sets share it, so the gap kernel measures each pair of distinct sets
    once."""
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
    # GridSpace keeps own points distinct, so each row is a set as is
    better = np.array(better).reshape(-1, len(own))
    # each row's packed bits as one 1-D bytes key: equal keys, equal sets
    bits = np.packbits(better, axis=1)
    _, first, seg = np.unique(bits.view(f"V{bits.shape[1]}").ravel(),
                              return_index=True, return_inverse=True)
    rows = better[first]
    bounds = _segments(rows.sum(axis=1))[seg]
    return Corr(g.state_space, g.joint_grid(), own.shape[1], own[np.nonzero(rows)[1]],
                bounds.reshape(len(g.state_space), -1, 2))


def _reflexive_at(p: Corr, own: np.ndarray) -> tuple[int, int] | None:
    """The first (atom, node) whose own point own[node] lies in the hull
    of its preferred set, or None when p is irreflexive: one
    _hull_distances pass over every nonempty cell, in every dim (in R^1
    from p's cached intervals, which its gap table, selection and
    membership pass read again), with convex_membership's decision at
    SET_EQUALITY_TOL (its LP fallback only serves distances in (tol,
    1e-9], an empty band here)."""
    t, z = np.nonzero(p.counts > 0)  # C order: atom by atom, nodes ascending
    hit = _hull_distances(p, own[z], t, z) <= SET_EQUALITY_TOL
    if not hit.any():
        return None
    k = int(hit.argmax())
    return int(t[k]), int(z[k])


def _check_irreflexivity(g: GameSpec, prefs: list[Corr]) -> None:
    nodes = g.joint_nodes()
    for i, p in enumerate(prefs):
        hit = _reflexive_at(p, nodes[:, own_slices(g.strategy_grids)[i]])
        if hit is not None:
            raise PreconditionError(
                f"irreflexivity violated: own strategy inside the hull of the "
                f"preferred set at atom {hit[0]}, joint node {hit[1]}, player {i}"
            )


def _payoff_cell_constancy(g: GameSpec, part: InfoPartition) -> float:
    """The largest payoff difference between an atom and its cell head."""
    u = np.array([[g.payoff_table(i, t) for t in range(len(g.state_space))]
                  for i in range(g.n_players)])
    return float(np.abs(u - u[:, part.head]).max())


def _profile_cell_constancy(profile: np.ndarray, part: InfoPartition) -> float:
    """The largest distance between an atom's profile row and its cell head's."""
    diff = profile - profile[part.head]
    return float(np.sqrt(np.vecdot(diff, diff)).max())


def _spot_check_quasiconcavity(g: GameSpec, seed: int) -> list[str]:
    """Randomized midpoint test of quasi-concavity in the own strategy,
    20 trials per player; gross violations produce warnings, not errors."""
    rng = np.random.default_rng(seed)
    warnings = []
    nodes = g.joint_nodes()
    for i in range(g.n_players):
        gi = g.strategy_grids[i]
        lo = gi.points.min(axis=0)
        hi = gi.points.max(axis=0)
        sl = own_slices(g.strategy_grids)[i]
        bad = 0
        for _ in range(20):
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
                f"player {i}: quasi-concavity midpoint test failed {bad}/20 times"
            )
    return warnings


def _add_glue_checks(checks: CheckSet, p: Corr, w: CipWitness, part: InfoPartition,
                     fallback: np.ndarray, suffix: str = "") -> None:
    """Glue a closed-valued selection through p with the constant point
    list fallback off p's domain, and add every gluing check but
    glue-lsc-preserved to checks, named with suffix: the fixed-point
    construction needs the u.s.c. and measurability claims, not l.s.c.

    The selection is caratheodory_select's closed-valued one, glued as
    glue would, but no phi or selection certificate is built: no phi
    checks (so no k_operator), no modulus and no selection measurability.
    The missing-value and membership ConstructionErrors still raise."""
    table = _select_table(p, _glued_phi(p, w), part, DEFAULT_SELECTION_TOL)[0]
    glued = _glue_table(p, table, Corr.constant(p.space, p.grid, PointSet.of(p.dim, fallback)),
                        part)
    for c in glued.checks:
        if c.name != "glue-lsc-preserved":
            checks.add(c.name + suffix, c.residual, c.tolerance, c.detail)


def _check_inclusion(checks: CheckSet, p: Corr, w: CipWitness, name: str, owner: str) -> None:
    """Probe the inclusion property of p's witness w at an eps above
    every gap of p's grid (its diameter + 1), add the probe's check as
    name, and raise a PreconditionError naming owner where it fails."""
    probe = cip_verify(p, w, eps=p.grid.diameter + 1.0)
    checks.add(name, len(probe.failures), 0,
               f"inclusion witness verified; l.s.c. certified at eps={probe.lsc_gap + 1e-12:.3g}")
    if not probe.ok:
        raise PreconditionError(f"inclusion property fails for {owner}")


def random_equilibrium(
    g: GameSpec,
    prefs: list[Corr],
    witnesses: list[CipWitness],
    part: InfoPartition,
    eps_eq: float,
) -> EquilibriumCertificate:
    """Certify a profile at which every player's strict-improvement set
    is empty up to eps_eq at every atom.

    prefs holds each player's preference table over the game's atom
    space and on its joint grid (corr._same_grid), as pref_from_payoff
    builds it, and witnesses its inclusion witness; a table elsewhere,
    or in another dim than the player's own strategies, raises a
    DomainError naming the player.
    Verifies irreflexivity and the inclusion property per player, builds
    the selection-plus-fallback tables whose product the profile is a
    fixed point of, and selects the profile by exhaustive enumeration:
    the lexicographically first joint node minimizing the worst regret.
    Only the gluing checks of those tables enter the certificate, so no
    phi or selection certificate is built (_add_glue_checks).
    """
    if eps_eq < 0:
        raise DomainError("eps_eq must be nonnegative")
    if not len(prefs) == len(witnesses) == g.n_players:
        raise DomainError("one preference table and one witness per player are required")
    for i, (p, own) in enumerate(zip(prefs, g.strategy_grids)):
        if p.space != g.state_space:
            raise DomainError(f"player {i}'s preference table must live on the game's atom space")
        if not _same_grid(p.grid, g.joint_grid()):
            raise DomainError(f"player {i}'s preference table must live on the joint grid")
        if p.dim != own.dim:
            raise DomainError(f"player {i}'s preferred sets need values in R^{own.dim}, "
                              "the player's own strategy space")
    _check_irreflexivity(g, prefs)

    checks = CheckSet()
    for i, (p, w) in enumerate(zip(prefs, witnesses)):
        _check_inclusion(checks, p, w, f"cip-player-{i}", f"player {i}")
        if p.counts.any():
            _add_glue_checks(checks, p, w, part, g.strategy_grids[i].points, f"-player-{i}")

    # (atoms, players, nodes); the first node of least worst regret is
    # the lexicographically first, as nodes are in C order
    table = np.array([[g.regret_table(i, t) for i in range(g.n_players)]
                      for t in range(len(g.state_space))])
    flat = table.max(axis=1).argmin(axis=1)
    profile = g.joint_nodes()[flat]
    profile.flags.writeable = False
    indices = dict(enumerate(flat.tolist()))
    regrets = {(t, i): float(r) for t, row in enumerate(table[np.arange(len(flat)), :, flat])
               for i, r in enumerate(row)}

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
    return EquilibriumCertificate(profile, indices, regrets, checks)


def random_nash(
    g: GameSpec,
    part: InfoPartition,
    eps_eq: float,
    strict_margin: float = 0.0,
    seed: int = 0,
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
    return replace(random_equilibrium(g, prefs, witnesses, part, eps_eq), warnings=warnings)


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
) -> EquilibriumCertificate:
    """Certify a Bayesian equilibrium: build the conditional-expectation
    game and solve it as a random game against the information partition.
    The profile must come out constant on every information cell, as
    random_nash's profile-measurability check measures it."""
    for i, declared in enumerate(b.game.concavity_declared):
        if not declared:
            raise PreconditionError(
                f"player {i}: concavity in the own strategy must be declared"
            )
    derived = derived_bayes_game(b)
    cert = random_nash(derived, b.partition, eps_eq, strict_margin=strict_margin, seed=seed)
    gap = next(c.residual for c in cert.checks if c.name == "profile-measurability")
    if gap > SET_EQUALITY_TOL:
        raise ConstructionError(
            f"equilibrium profile varies by {gap:.3e} inside an information cell"
        )
    return cert


@dataclass(frozen=True)
class MaximalResult:
    """Per-atom maximal elements: nodes with empty preferred set, as
    read-only arrays indexed by atom."""

    values: np.ndarray   # (atoms, dim)
    indices: np.ndarray  # (atoms,) node indices
    checks: CheckSet


def maximal_element(
    p: Corr,
    w: CipWitness,
    part: InfoPartition,
) -> MaximalResult:
    """Find, per atom, a grid node whose preferred set is empty.

    Verifies irreflexivity and the inclusion property, reports the
    preference-measurability and witness-measurability checks separately,
    runs the selection-plus-fallback construction, and returns the
    lexicographically first empty-preference node per atom."""
    grid = p.grid
    if p.dim != grid.dim:
        raise DomainError(f"preferred sets need values in R^{grid.dim}, the grid's space")
    hit = _reflexive_at(p, grid.points)
    if hit is not None:
        raise PreconditionError(f"irreflexivity violated at atom {hit[0]}, node {hit[1]}")

    checks = CheckSet()
    _check_inclusion(checks, p, w, "cip", "the preference table")

    varying = cell_varying([p] + [f for f, _ in w.groups], part).any(axis=1)
    checks.add("preference-measurability", np.count_nonzero(varying[0]), 0,
               "cell-wise constancy of the preferred sets (reported separately "
               "from the witness checks)")
    bad_w = np.count_nonzero(varying[1:])
    checks.add("witness-measurability", bad_w, 0,
               "cell-wise constancy of the witness locals")

    if p.counts.any():
        _add_glue_checks(checks, p, w, part, grid.points)

    empty = p.counts == 0
    missing = np.flatnonzero(~empty.any(axis=1)).tolist()
    if missing:
        raise NoCertificateError(
            f"no empty-preference node at atoms {missing}", best_residual=float(len(missing))
        )
    indices = empty.argmax(axis=1)
    values = grid.points[indices]
    indices.flags.writeable = values.flags.writeable = False
    checks.add("maximal-emptiness", 0.0, 0.0,
               "every atom carries a node with empty preferred set")
    return MaximalResult(values, indices, checks)

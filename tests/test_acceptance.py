"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -s` to see them live).

Every expected value is either computed by an independent oracle inside
this module (brute-force enumeration, bisection, analytic fixed points)
or asserted directly where forced by construction.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from carasel import (
    AtomSpace,
    BayesSpec,
    ConvexSet,
    Corr,
    GameSpec,
    GridSpace,
    InfoPartition,
    PointSet,
    Prior,
    bayes_equilibrium,
    bayes_h,
    canonical_witness,
    caratheodory_select,
    cip_verify,
    construct_phi,
    convex_distance,
    hausdorff_dist,
    interior_series,
    k_operator,
    lsc_check,
    maximal_element,
    random_fixed_point,
    random_nash,
)
from carasel.pipelines import run_problem
from carasel.problems import canonical_json, parse_problem

from conftest import hausdorff_by_bisection, jump_problem, jump_witness, line_grid, same_set
from instances import domain, random_cip_instance
from test_corr import max_vertex_margin

DOCS = Path(__file__).resolve().parent.parent / "docs"
FIXTURES = ["example-3-2.json", "lsc-canonical.json", "quadratic-bayes.json"]


def report(criterion: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {text}")
    assert ok, f"criterion {criterion} failed: {text}"


# --------------------------------------------------------------- criterion 1

def test_c1_example_reproduction():
    t0 = time.perf_counter()
    space, grid, psi = jump_problem()
    witness = jump_witness(space, grid)

    lsc_bad = True
    for t in range(len(space)):
        rep = lsc_check(psi, t, eps=0.1)
        lsc_bad &= (not rep.ok) and any(
            abs(p[0] - 1.0) <= 1e-12 for (_, _, p) in rep.violations
        )

    cip = cip_verify(psi, witness, eps=0.1)
    sel = caratheodory_select(psi, witness, InfoPartition.finest(space))
    elapsed = time.perf_counter() - t0

    ok = (
        lsc_bad
        and cip.ok
        and sel.membership_residual == 0.0
        and sel.modulus == 0.0
        and elapsed < 1.0
    )
    report(1, ok, f"jump fixture: lsc fails with witness point 1, inclusion "
                  f"verified, selection residual 0 and modulus 0 in {elapsed:.2f}s")


# --------------------------------------------------------------- criterion 2

def _random_sets(rng, count):
    pools = {1: [], 2: [], 3: []}
    for _ in range(count):
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(1, 9))
        pools[dim].append(PointSet.of(dim, rng.uniform(-5, 5, size=(k, dim))))
    return pools


def test_c2_hausdorff_metric_suite():
    rng = np.random.default_rng(2024)
    pools = _random_sets(rng, 1000)
    symmetry = identity = triangle = inf_form = True
    for dim, pool in pools.items():
        for i in range(0, len(pool) - 1, 2):
            a, b = pool[i], pool[i + 1]
            h = hausdorff_dist(a, b)
            symmetry &= h == hausdorff_dist(b, a)
            inf_form &= abs(h - hausdorff_by_bisection(a, b)) <= 1e-9
        for a in pool:
            shuffled = PointSet.of(a.dim, a.points[::-1].copy())
            identity &= hausdorff_dist(a, shuffled) <= 1e-12
            bumped = PointSet.of(a.dim, a.points + 0.5)
            if not same_set(a, bumped):
                identity &= hausdorff_dist(a, bumped) > 1e-12
        for i in range(0, len(pool) - 2, 3):
            a, b, c = pool[i], pool[i + 1], pool[i + 2]
            triangle &= hausdorff_dist(a, c) <= (
                hausdorff_dist(a, b) + hausdorff_dist(b, c) + 1e-9
            )
    ok = symmetry and identity and triangle and inf_form
    report(2, ok, "1000 random point sets in R1-R3: symmetry, identity within "
                  "1e-12, triangle within 1e-9, sup-form matches inf-form within 1e-9")


# --------------------------------------------------------------- criterion 3

def _instance_pool():
    rng = np.random.default_rng(31415)
    return [random_cip_instance(rng) for _ in range(100)]


@pytest.fixture(scope="module")
def cip_pool():
    return _instance_pool()


def test_c3_gluing_certificates(cip_pool):
    t0 = time.perf_counter()
    all_ok = True
    for inst in cip_pool:
        res = construct_phi(inst.psi, inst.witness, inst.part, eps=inst.eps)
        names = {c.name: c for c in res.certificate}
        all_ok &= names["phi-inclusion"].residual <= 1e-9
        all_ok &= names["phi-domain-equality"].residual == 0
        all_ok &= names["phi-lsc"].ok
        all_ok &= names["phi-measurability"].residual == 0
        all_ok &= names["phi-interiority"].residual == 0
        # (E) re-checked directly: positive margin wherever the interior
        # union is nonempty
        interior_union = k_operator(inst.psi, inst.witness)
        for (t, z) in domain(inst.psi):
            if not interior_union.value(t, z).is_empty:
                hull = ConvexSet(res.phi.dim, res.phi.value(t, z).points)
                all_ok &= max_vertex_margin(hull) > 0.0
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 30.0
    report(3, ok, f"100 random inclusion instances: all five gluing checks "
                  f"pass at stated tolerances in {elapsed:.1f}s (< 30s)")


# --------------------------------------------------------------- criterion 4

def test_c4_selection_validity(cip_pool):
    all_ok = True
    for inst in cip_pool:
        sel = caratheodory_select(inst.psi, inst.witness, inst.part,
                                  closed_valued=True, tol=1e-7, eps=inst.eps)
        all_ok &= np.isfinite(sel.modulus) and set(sel.values) == domain(inst.psi)
        for (t, z) in sel.values:
            hull = ConvexSet(inst.psi.dim, inst.psi.value(t, z).points)
            all_ok &= convex_distance(sel.values[t, z], hull) <= 1e-7

    rng = np.random.default_rng(999)
    series_ok = True
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        verts = rng.uniform(-2, 2, size=(dim + 2, dim))
        b = ConvexSet(dim, verts)
        lam = rng.exponential(size=(8, len(b.vertices)))
        lam /= lam.sum(axis=1, keepdims=True)
        dense = lam @ b.vertices
        z40 = interior_series(b, dense, k_max=40)
        z80 = interior_series(b, dense, k_max=80)
        series_ok &= float(np.linalg.norm(z40 - z80)) <= 1e-10

    unit = ConvexSet(1, [[0.0], [1.0]])
    dense = [[0.0], [1.0]] + [[0.5 ** k] for k in range(1, 60)]
    z = interior_series(unit, dense, k_max=40)
    exact_ok = abs(z[0] - 2.0 / 3.0) <= 1e-9

    ok = all_ok and series_ok and exact_ok
    report(4, ok, "selections certified at residual 1e-7 with finite moduli on "
                  "all 100 instances; series truncation stable at 1e-10 over 50 "
                  "polytopes; interval dense-list case returns 2/3 within 1e-9")


# --------------------------------------------------------------- criterion 5

def test_c5_random_fixed_points():
    rng = np.random.default_rng(777)
    grid = GridSpace(np.linspace(0.0, 1.0, 41).reshape(-1, 1), mesh=0.025)
    all_ok = True
    for _ in range(50):
        coeffs = []
        for _atom in range(2):
            while True:
                slope = float(rng.uniform(-0.9, 0.9))
                target = float(rng.uniform(0.2, 0.8))
                offset = target * (1.0 - slope)
                lo, hi = offset, slope + offset
                if 0.0 <= min(lo, hi) and max(lo, hi) <= 1.0:
                    coeffs.append((slope, offset, target))
                    break
        space = AtomSpace(("w1", "w2"), [0.5, 0.5])
        psi = Corr.from_function(
            space, grid, 1,
            lambda t, z: PointSet.of(
                1, [[coeffs[t][0] * grid.points[z, 0] + coeffs[t][1]]]
            ),
        )
        prof = random_fixed_point(psi, canonical_witness(psi), tol=1e-6)
        for t in range(2):
            all_ok &= prof.residuals[t] <= 1e-12
            all_ok &= abs(prof.values[t][0] - coeffs[t][2]) <= 1e-12

    fine = GridSpace(np.linspace(0.0, 1.0, 101).reshape(-1, 1), mesh=0.01)
    space1 = AtomSpace(("w",), [1.0])
    mirror = Corr.from_function(
        space1, fine, 1, lambda t, z: PointSet.of(1, [[1.0 - fine.points[z, 0]]])
    )
    prof = random_fixed_point(mirror, canonical_witness(mirror), tol=1e-6)
    mirror_ok = abs(prof.values[0][0] - 0.5) <= 1e-12 and prof.residuals[0] <= 1e-12

    ok = all_ok and mirror_ok
    report(5, ok, "50 random per-atom contractions: residual 1e-12 and within "
                  "1e-12 of the analytic fixed point; the reflection map "
                  "lands on 0.5 within 1e-12")


# --------------------------------------------------------------- criterion 6

def _concave_quadratic_game(rng):
    """Two players on 21-node grids, 4 atoms, coupled concave quadratics
    with a contraction-sized cross term."""
    space = AtomSpace(tuple(f"w{k}" for k in range(4)), [0.25] * 4)
    grids = (line_grid(21), line_grid(21))
    params = []
    for _i in range(2):
        c = rng.uniform(0.5, 2.0, size=4)
        a = rng.uniform(0.3, 0.7, size=4)
        d = rng.uniform(-0.6, 0.6, size=4) * c
        b = rng.uniform(0.0, 1.0, size=4)
        params.append((c, a, d, b))

    def payoff(i):
        c, a, d, b = params[i]

        def u(t, x):
            own, other = x[i], x[1 - i]
            return -c[t] * (own - a[t]) ** 2 - d[t] * (own - a[t]) * (other - b[t])

        return u

    g = GameSpec(("p1", "p2"), space, grids, (payoff(0), payoff(1)), (True, True))
    lipschitz = max(
        float(2 * params[i][0][t] + abs(params[i][2][t]))
        for i in range(2) for t in range(4)
    )
    return g, params, lipschitz


def _oracle_profile(params, t):
    """Independent brute force: vectorized payoff tables, per-player
    regrets, lexicographically first argmin of the worst regret."""
    nodes = np.linspace(0.0, 1.0, 21)
    x1, x2 = np.meshgrid(nodes, nodes, indexing="ij")
    c, a, d, b = params[0]
    u1 = -c[t] * (x1 - a[t]) ** 2 - d[t] * (x1 - a[t]) * (x2 - b[t])
    c, a, d, b = params[1]
    u2 = -c[t] * (x2 - a[t]) ** 2 - d[t] * (x2 - a[t]) * (x1 - b[t])
    r1 = u1.max(axis=0, keepdims=True) - u1
    r2 = u2.max(axis=1, keepdims=True) - u2
    worst = np.maximum(r1, r2)
    return int(worst.reshape(-1).argmin())


def test_c6_equilibrium_oracle_equivalence():
    rng = np.random.default_rng(606)
    part4 = InfoPartition.finest(AtomSpace(tuple(f"w{k}" for k in range(4)), [0.25] * 4))
    h = 0.05
    all_ok = True
    for _ in range(30):
        g, params, lipschitz = _concave_quadratic_game(rng)
        eps_eq = lipschitz * h + 1e-9
        cert = random_nash(g, part4, eps_eq)
        for t in range(4):
            all_ok &= cert.profile_indices[t] == _oracle_profile(params, t)
            for i in range(2):
                all_ok &= cert.regrets[(t, i)] <= eps_eq

    # decoupled quadratics land on the nearest node to each center
    space = AtomSpace(("w1", "w2"), [0.5, 0.5])
    centers = {0: (0.317, 0.682), 1: (0.551, 0.149)}
    g_ind = GameSpec(
        ("p1", "p2"), space, (line_grid(21), line_grid(21)),
        (lambda t, x: -(x[0] - centers[t][0]) ** 2,
         lambda t, x: -(x[1] - centers[t][1]) ** 2),
        (True, True),
    )
    cert = random_nash(g_ind, InfoPartition.finest(space), eps_eq=0.01)
    ind_ok = True
    for t in range(2):
        for i in range(2):
            nearest = round(centers[t][i] * 20) / 20
            ind_ok &= abs(cert.profile[t][i] - nearest) <= 1e-12
    ok = all_ok and ind_ok
    report(6, ok, "30 random concave-quadratic games: regrets within L*h+1e-9 "
                  "and profiles equal to the brute-force enumeration node for "
                  "node; decoupled game snaps to the nearest center nodes")


# --------------------------------------------------------------- criterion 7

def test_c7_bayesian_consistency():
    rng = np.random.default_rng(70707)
    sums_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        weights = rng.uniform(0.2, 1.5, size=n)
        space = AtomSpace(tuple(f"w{k}" for k in range(n)), weights)
        split = int(rng.integers(1, n)) if n > 1 else 1
        part = InfoPartition(space, (tuple(range(split)), tuple(range(split, n)))) \
            if split < n else InfoPartition.trivial(space)
        q = rng.uniform(0.2, 2.0, size=n)
        q /= float(q @ weights)
        prior = Prior(space, q)
        utable = rng.uniform(-3.0, 3.0, size=n)

        g = GameSpec(("p",), space, (line_grid(3),),
                     (lambda t, x, _u=utable: float(_u[t]),), (True,))
        b = BayesSpec(g, part, (prior,))
        x = np.array([0.5])
        for omega in range(n):
            cell = part.cell_of(omega)
            num = sum(q[t] * utable[t] * weights[t] for t in cell)
            den = sum(q[t] * weights[t] for t in cell)
            sums_ok &= abs(bayes_h(b, 0, omega, x) - num / den) <= 1e-12

    space = AtomSpace(tuple(f"w{k}" for k in range(4)), [0.25] * 4)
    centers = {t: (0.1 + 0.2 * t, 0.9 - 0.2 * t) for t in range(4)}
    g = GameSpec(
        ("p1", "p2"), space, (line_grid(21), line_grid(21)),
        (lambda t, x: -(x[0] - centers[t][0]) ** 2,
         lambda t, x: -(x[1] - centers[t][1]) ** 2),
        (True, True),
    )
    singles = InfoPartition.finest(space)
    b = BayesSpec(g, singles, (Prior.uniform(space), Prior.uniform(space)))
    cert_b = bayes_equilibrium(b, eps_eq=0.01, seed=5)
    cert_n = random_nash(g, singles, eps_eq=0.01, seed=5)
    singleton_ok = cert_b.profile_indices == cert_n.profile_indices and all(
        cert_b.regrets[k] == cert_n.regrets[k] for k in cert_b.regrets
    )

    two = AtomSpace(("w1", "w2"), [0.5, 0.5])
    avg_centers = {0: (0.0, 0.0), 1: (1.0, 1.0)}
    g2 = GameSpec(
        ("p1", "p2"), two, (line_grid(11), line_grid(11)),
        (lambda t, x: -(x[0] - avg_centers[t][0]) ** 2,
         lambda t, x: -(x[1] - avg_centers[t][1]) ** 2),
        (True, True),
    )
    b2 = BayesSpec(g2, InfoPartition.trivial(two),
                   (Prior.uniform(two), Prior.uniform(two)))
    cert2 = bayes_equilibrium(b2, eps_eq=0.01)
    mean_ok = all(np.allclose(cert2.profile[t], [0.5, 0.5]) for t in range(2))

    ok = sums_ok and singleton_ok and mean_ok
    report(7, ok, "conditional payoffs match the brute-force weighted sum to "
                  "1e-12 on 100 triples; singleton cells reproduce the plain "
                  "certificates; the averaged quadratic lands on the mean node")


# --------------------------------------------------------------- criterion 8

def test_c8_maximal_elements():
    space1 = AtomSpace(("w",), [1.0])
    grid = line_grid(11)
    chain = Corr.from_function(
        space1, grid, 1,
        lambda t, z: (lambda better: PointSet.of(1, better.reshape(-1, 1))
                      if len(better) else PointSet.empty(1))(
            grid.points[grid.points[:, 0] > grid.points[z, 0] + 0.05, 0]),
    )
    res = maximal_element(chain, canonical_witness(chain), InfoPartition.finest(space1))
    chain_ok = abs(res.values[0][0] - 1.0) <= 1e-12

    rng = np.random.default_rng(808)
    grid21 = line_grid(21)
    rand_ok = True
    for _ in range(30):
        space = AtomSpace(("w1", "w2"), [0.5, 0.5])
        centers = rng.uniform(0.05, 0.95, size=2)
        scales = rng.uniform(0.5, 2.0, size=2)

        def pref_value(t, z):
            u = -scales[t] * (grid21.points[:, 0] - centers[t]) ** 2
            better = grid21.points[u > u[z], 0]
            return (PointSet.of(1, better.reshape(-1, 1))
                    if len(better) else PointSet.empty(1))

        p = Corr.from_function(space, grid21, 1, pref_value)
        res = maximal_element(p, canonical_witness(p), InfoPartition.finest(space))
        for t in range(2):
            u = -scales[t] * (grid21.points[:, 0] - centers[t]) ** 2
            rand_ok &= res.indices[t] == int(np.argmax(u))  # enumeration oracle

    ok = chain_ok and rand_ok
    report(8, ok, "chain preference tops out at the last node; 30 random "
                  "utility-induced preferences return the enumerated argmax")


# --------------------------------------------------------------- criterion 9

def test_c9_determinism_and_roundtrip():
    det_ok = True
    rt_ok = True
    for name in FIXTURES:
        text = (DOCS / name).read_text()
        once = canonical_json(parse_problem(text))
        twice = canonical_json(parse_problem(once))
        rt_ok &= once == twice

        doc = parse_problem(text)
        c1 = run_problem(doc, {"seed": 0}).as_dict()
        c2 = run_problem(doc, {"seed": 0}).as_dict()
        c1["provenance"].pop("timestamp")
        c2["provenance"].pop("timestamp")
        det_ok &= canonical_json(c1) == canonical_json(c2)
    ok = det_ok and rt_ok
    report(9, ok, "all three fixtures: byte-identical certificates modulo the "
                  "timestamp, and parse/serialize is idempotent")

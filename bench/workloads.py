"""Workload inputs, the calls that solve them, and independent oracles.

Each workload is a pool of raw problem descriptions (plain numbers made
by numpy from the seed).  `solve` turns one description into carasel
objects and runs it to a certificate, so every timed attempt pays the
table construction a user pays and no cache survives from one attempt
to the next.  `check` re-derives the answer without `carasel.setops`.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linprog, nnls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOCS = ROOT / "docs"
WORK = ROOT / ".bench_work"

SELECT_TOL = 1e-7
SELECT_RESTARTS = 8


@dataclass
class Outcome:
    """What one attempt produced: the answer to check, and a canonical
    string of it used to compare traced against untraced runs."""

    answer: object
    digest: str
    rss_mb: float | None = None  # peak RSS of the process that solved it, if separate


# ------------------------------------------------------------ select-pool
#
# A fixed design of strata (dim, witness style, partition kind, grid
# size) so that every seed gives the same mix of work; the seed draws the
# geometry inside each stratum the way tests/instances.py does.

_SELECT_DESIGN = (
    # dim, style, partition, nodes, cloud ("box": cube corners and
    # centre; an int k: k uniform points), empty (trailing nodes where
    # the last cell's value is empty).  Three of the nine are cheap
    # (dim 1 takes a closed form, singleton witnesses project trivially),
    # so the median problem runs the projection search.  The discrete
    # choices (cloud kind, split point, empty nodes) are fixed here, not
    # drawn, and the radii are drawn from a narrower band than the test
    # helper's, so that each stratum's cost stays steady across seeds.
    (1, "canonical", "finest", 25, "box", 2),
    (2, "singleton", "trivial", 17, 5, 0),
    (3, "singleton", "finest", 5, "box", 0),
    # the costliest problem, so the tail: its work does not change with
    # the seed
    (2, "canonical", "split", 15, "box", 2),
    (2, "countable", "finest", 15, 3, 2),
    (2, "indexed", "trivial", 13, 4, 0),
    # three draws of the median stratum, so the median is not one draw
    (3, "indexed", "split", 9, 5, 1),
    (3, "indexed", "split", 9, 5, 1),
    (3, "indexed", "split", 9, 5, 1),
)


def _cloud(rng, dim: int, kind) -> np.ndarray:
    if kind == "box":
        corners = np.array(list(np.ndindex(*(2,) * dim)), dtype=float)
        cloud = np.vstack([corners, corners.mean(axis=0, keepdims=True)])
        return 0.2 + 0.6 * cloud * rng.uniform(0.3, 1.0)
    return rng.uniform(0.1, 0.9, size=(kind, dim))


def _grid_points(n_nodes: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_nodes)


def _grid_mesh(x: np.ndarray) -> float:
    # carasel's default mesh: the largest nearest-neighbour gap
    d = np.abs(x[:, None] - x[None, :])
    d[np.diag_indices_from(d)] = np.inf
    return float(d.min(axis=1).max())


def make_select_instance(rng, dim: int, style: str, part_kind: str, n_nodes: int,
                         cloud, empty: int = 0) -> dict:
    n_atoms = 3
    x = _grid_points(n_nodes)
    mesh = _grid_mesh(x)
    weights = rng.uniform(0.2, 1.0, size=n_atoms)
    if part_kind == "finest":
        cells = [[0], [1], [2]]
    elif part_kind == "trivial":
        cells = [[0, 1, 2]]
    else:
        cells = [[0], [1, 2]]
    cell_of = [next(c for c, cell in enumerate(cells) if t in cell) for t in range(n_atoms)]
    n_cells = len(cells)
    clouds = [_cloud(rng, dim, cloud) for _ in range(n_cells)]
    drifts = [rng.uniform(-1.0, 1.0, size=dim) * 0.2 for _ in range(n_cells)]
    l_x = max(float(np.linalg.norm(d)) for d in drifts)
    diam_cloud = max(
        float(np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2).max()) for c in clouds
    )
    # the last cell's value is empty on the last `empty` nodes
    empty_from = [n_nodes] * (n_cells - 1) + [n_nodes - empty]

    # radii: positive, cell-constant, never reaching an empty node
    radii = np.full((n_atoms, n_nodes), np.nan)
    for t in range(n_atoms):
        c = cell_of[t]
        first = cells[c][0]
        for z in range(empty_from[c]):
            gap = float(np.abs(x[z] - x[empty_from[c]:]).min()) if empty_from[c] < n_nodes else np.inf
            r = min(float(rng.uniform(1.6, 2.0)) * mesh, gap)
            radii[t, z] = r if t == first else radii[first, z]
    r_max = float(np.nanmax(radii))
    adjacency = 2.0 * mesh

    inst = {
        "dim": dim, "n_nodes": n_nodes, "weights": weights, "cells": cells,
        "style": style, "clouds": clouds, "drifts": drifts,
        "empty_from": empty_from, "radii": radii,
    }
    if style == "singleton":
        simplex = []
        for c in range(n_cells):
            w = rng.exponential(size=len(clouds[c]))
            simplex.append(w / w.sum())
        inst["simplex"] = simplex
        inst["eps"] = l_x * adjacency + 1e-6
    elif style == "canonical":
        inst["eps"] = l_x * adjacency + 1e-6
    else:
        l_z = 0.3
        inst["l_z"] = l_z
        inst["eps"] = (l_x * adjacency
                       + diam_cloud * l_z * 2 * np.pi * (r_max + adjacency) + 1e-6)
    return inst


def select_pool(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [make_select_instance(rng, *stratum) for stratum in _SELECT_DESIGN]


def select_values(inst: dict, t: int, z: int) -> np.ndarray | None:
    """Raw points of psi at (atom t, node z), or None when empty."""
    c = next(k for k, cell in enumerate(inst["cells"]) if t in cell)
    if z >= inst["empty_from"][c]:
        return None
    x = _grid_points(inst["n_nodes"])[z]
    return inst["clouds"][c] + inst["drifts"][c] * x


def build_select(carasel, inst: dict):
    """carasel objects for one instance: (psi, witness, partition)."""
    dim, n_nodes = inst["dim"], inst["n_nodes"]
    n_atoms = len(inst["weights"])
    grid = carasel.GridSpace(_grid_points(n_nodes).reshape(-1, 1))
    space = carasel.AtomSpace(tuple(f"a{k}" for k in range(n_atoms)), inst["weights"])
    part = carasel.InfoPartition(space, tuple(tuple(c) for c in inst["cells"]))
    PointSet = carasel.PointSet

    def psi_value(t, z):
        pts = select_values(inst, t, z)
        return PointSet.empty(dim) if pts is None else PointSet.of(dim, pts)

    psi = carasel.Corr.from_function(space, grid, dim, psi_value)
    radii = {(t, z): float(inst["radii"][t, z])
             for t in range(n_atoms) for z in range(n_nodes)
             if not np.isnan(inst["radii"][t, z])}
    style = inst["style"]
    if style == "canonical":
        witness = carasel.CipWitness.shared(grid, psi, radii)
    elif style == "singleton":
        cell_of = [next(c for c, cell in enumerate(inst["cells"]) if t in cell)
                   for t in range(n_atoms)]

        def g_value(t, z):
            v = psi_value(t, z)
            if v.is_empty:
                return v
            lam = inst["simplex"][cell_of[t]]
            return PointSet.of(dim, (v.points.T @ lam).reshape(1, dim))

        g = carasel.Corr.from_function(space, grid, dim, g_value)
        witness = carasel.CipWitness.shared(grid, g, radii)
    else:
        l_z = inst["l_z"]

        def local_for(zw):
            s = 0.2 + 0.6 * (0.5 + 0.5 * np.sin(l_z * zw * grid.mesh * 2 * np.pi))

            def value(t, z):
                v = psi_value(t, z)
                if v.is_empty:
                    return v
                p0, p1 = v.points[0], v.points[min(1, len(v.points) - 1)]
                return PointSet.of(dim, ((1 - s) * p0 + s * p1).reshape(1, dim))

            return carasel.Corr.from_function(space, grid, dim, value)

        locs = {z: local_for(z) for z in range(n_nodes)}
        box = (np.full(dim, -10.0), np.full(dim, 10.0)) if style == "indexed" else None
        witness = carasel.CipWitness("countable" if style == "countable" else "indexed",
                                     locs, radii, box)
    return psi, witness, part


def solve_select(carasel, inst: dict, seed: int) -> Outcome:
    psi, witness, part = build_select(carasel, inst)
    report = carasel.cip_verify(psi, witness, eps=inst["eps"])
    if not report.ok:
        return Outcome({"cip_ok": False}, "cip-failed")
    sel = carasel.caratheodory_select(
        psi, witness, part, closed_valued=False, tol=SELECT_TOL, eps=inst["eps"],
        restarts=SELECT_RESTARTS, seed=seed,
    )
    values = {key: np.asarray(v, dtype=float).copy() for key, v in sel.values.items()}
    digest = _digest([(k, v.tolist()) for k, v in sorted(values.items())])
    return Outcome({"cip_ok": True, "values": values}, digest)


def _hull_residual(x: np.ndarray, verts: np.ndarray) -> float:
    """Upper bound on dist(x, conv(verts)) from a feasible combination:
    nnls with a heavily weighted sum-to-one row, then, if that is not
    already tiny, an L-infinity LP.  Both weight vectors are renormalised
    onto the simplex, so the residual returned is attained."""
    k, dim = verts.shape
    heavy = 1e3 * max(1.0, float(np.abs(verts).max()))
    a = np.vstack([verts.T, np.full((1, k), heavy)])
    b = np.concatenate([x, [heavy]])
    lam, _ = nnls(a, b)
    best = np.inf
    if lam.sum() > 0:
        lam = lam / lam.sum()
        best = float(np.linalg.norm(verts.T @ lam - x))
    if best <= SELECT_TOL:
        return best
    # variables: lam (k), s; minimise s with -s <= V^T lam - x <= s
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.vstack([np.hstack([verts.T, -np.ones((dim, 1))]),
                      np.hstack([-verts.T, -np.ones((dim, 1))])])
    b_ub = np.concatenate([x, -x])
    a_eq = np.hstack([np.ones((1, k)), np.zeros((1, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (k + 1), method="highs")
    if res.status == 0:
        lam = np.clip(res.x[:k], 0.0, None)
        lam /= lam.sum()
        best = min(best, float(np.linalg.norm(verts.T @ lam - x)))
    return best


def check_select(inst: dict, out: Outcome) -> str | None:
    """None when the answer holds, else the reason it does not."""
    if not out.answer["cip_ok"]:
        return "cip_verify rejected a witness valid by construction"
    values = out.answer["values"]
    n_atoms, n_nodes = len(inst["weights"]), inst["n_nodes"]
    expected = {(t, z) for t in range(n_atoms) for z in range(n_nodes)
                if select_values(inst, t, z) is not None}
    if set(values) != expected:
        return "selection domain differs from the nonempty cells"
    for (t, z), v in values.items():
        if v.shape != (inst["dim"],) or not np.all(np.isfinite(v)):
            return f"malformed selected value at {(t, z)}"
        r = _hull_residual(v, select_values(inst, t, z))
        if r > SELECT_TOL:
            return f"selected point {(t, z)} is {r:.3e} outside the hull"
    return None


# ------------------------------------------------------------- nash-joint
#
# Two-player concave-quadratic games with 4 atoms, built like the
# acceptance suite's criterion-6 games, on 21x21 and 31x31 joint grids.

NASH_SIZES = (21, 21, 31)  # two small games to one large, so the median is a 21x21 one
NASH_ATOMS = 4


def make_game(rng, n: int) -> dict:
    params = []
    for _ in range(2):
        c = rng.uniform(0.5, 2.0, size=NASH_ATOMS)
        a = rng.uniform(0.3, 0.7, size=NASH_ATOMS)
        d = rng.uniform(-0.6, 0.6, size=NASH_ATOMS) * c
        b = rng.uniform(0.0, 1.0, size=NASH_ATOMS)
        params.append((c, a, d, b))
    lipschitz = max(float(2 * params[i][0][t] + abs(params[i][2][t]))
                    for i in range(2) for t in range(NASH_ATOMS))
    h = 1.0 / (n - 1)
    return {"n": n, "params": params, "eps_eq": lipschitz * h + 1e-9}


def nash_pool(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [make_game(rng, n) for n in NASH_SIZES]


def build_game(carasel, game: dict):
    n = game["n"]
    space = carasel.AtomSpace(tuple(f"w{k}" for k in range(NASH_ATOMS)), [0.25] * NASH_ATOMS)
    grids = tuple(carasel.GridSpace(_grid_points(n).reshape(-1, 1)) for _ in range(2))

    def payoff(i):
        c, a, d, b = game["params"][i]

        def u(t, x):
            own, other = x[i], x[1 - i]
            return -c[t] * (own - a[t]) ** 2 - d[t] * (own - a[t]) * (other - b[t])

        return u

    g = carasel.GameSpec(("p1", "p2"), space, grids, (payoff(0), payoff(1)), (True, True))
    return g, carasel.InfoPartition.finest(space)


def solve_nash(carasel, game: dict, seed: int) -> Outcome:
    g, part = build_game(carasel, game)
    cert = carasel.random_nash(g, part, game["eps_eq"], seed=seed)
    answer = {
        "indices": dict(cert.profile_indices),
        "regrets": dict(cert.regrets),
        "checks_ok": bool(cert.checks.ok),
    }
    digest = _digest([sorted(answer["indices"].items()),
                      sorted((f"{t},{i}", r) for (t, i), r in answer["regrets"].items()),
                      answer["checks_ok"]])
    return Outcome(answer, digest)


def nash_oracle(game: dict, t: int) -> tuple[int, np.ndarray]:
    """Vectorised brute force: the C-order first argmin of the worst
    regret, and both players' regrets there."""
    nodes = _grid_points(game["n"])
    x1, x2 = np.meshgrid(nodes, nodes, indexing="ij")
    c, a, d, b = game["params"][0]
    u1 = -c[t] * (x1 - a[t]) ** 2 - d[t] * (x1 - a[t]) * (x2 - b[t])
    c, a, d, b = game["params"][1]
    u2 = -c[t] * (x2 - a[t]) ** 2 - d[t] * (x2 - a[t]) * (x1 - b[t])
    r1 = (u1.max(axis=0, keepdims=True) - u1).reshape(-1)
    r2 = (u2.max(axis=1, keepdims=True) - u2).reshape(-1)
    flat = int(np.maximum(r1, r2).argmin())
    return flat, np.array([r1[flat], r2[flat]])


def check_nash(game: dict, out: Outcome) -> str | None:
    ans = out.answer
    if not ans["checks_ok"]:
        return "certificate carries a failing check"
    for t in range(NASH_ATOMS):
        flat, regrets = nash_oracle(game, t)
        if ans["indices"].get(t) != flat:
            return f"profile index {ans['indices'].get(t)} at atom {t}, oracle says {flat}"
        for i in range(2):
            r = ans["regrets"][(t, i)]
            if r > game["eps_eq"] or abs(r - regrets[i]) > 1e-9:
                return f"regret {r:.3e} of player {i} at atom {t} disagrees with the oracle"
    return None


# ----------------------------------------------------------- cli-fixtures
#
# `carasel run` as a fresh process on the three docs/ fixtures.  The
# expected check names are those the fixtures produced when the
# benchmark was defined.

CLI_FIXTURES = {
    "lsc-canonical": ("cip-check", [
        "cip-local-nonempty", "cip-inclusion", "cip-lsc", "scip-shared"]),
    "example-3-2": ("select", [
        "cip-local-nonempty", "cip-inclusion", "cip-lsc", "scip-shared",
        "phi-inclusion", "phi-domain-equality", "phi-lsc", "phi-measurability",
        "phi-interiority", "selection-membership", "selection-measurability"]),
    "quadratic-bayes": ("bayes", [
        "cip-player-0", "glue-usc-preserved-player-0",
        "glue-measurability-preserved-player-0", "cip-player-1",
        "glue-usc-preserved-player-1", "glue-measurability-preserved-player-1",
        "equilibrium-regret", "profile-measurability"]),
}


def cli_pool(seed: int) -> list[dict]:
    """One pass: each fixture once, in a seeded order, with the seed
    passed on as the run's --seed."""
    rng = np.random.default_rng(seed)
    names = list(CLI_FIXTURES)
    order = [names[k] for k in rng.permutation(len(names))]
    return [{"fixture": name, "path": str(DOCS / f"{name}.json"),
             "text": (DOCS / f"{name}.json").read_text(encoding="utf-8"),
             "seed": int(seed)} for name in order]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(item: dict, out_path: Path, trace_path: Path | None) -> list[str]:
    run_args = ["run", item["path"], "--out", str(out_path), "--seed", str(item["seed"])]
    if trace_path is None:
        return [sys.executable, "-m", "carasel.cli", *run_args]
    child = Path(__file__).resolve().parent / "child.py"
    return [sys.executable, str(child), "cli", str(trace_path), *run_args]


def run_child(argv: list[str], timeout: float = 120.0) -> tuple[int, float]:
    """Run a child process to completion; returns its exit code and its
    peak resident memory in MiB.  The wait blocks in wait4, so the
    caller's clock stops when the child ends, not at a polling tick."""
    proc = subprocess.Popen(argv, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(item: dict, out_path: Path, trace_path: Path | None = None) -> tuple[int, float]:
    return run_child(cli_argv(item, out_path, trace_path))


def cli_answer(out_path: Path, code: int) -> Outcome:
    try:
        cert = json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        cert = None
    if cert is not None:
        cert.get("provenance", {}).pop("timestamp", None)
    return Outcome({"code": code, "cert": cert}, _digest([code, cert]))


def check_cli(item: dict, out: Outcome) -> str | None:
    kind, names = CLI_FIXTURES[item["fixture"]]
    ans = out.answer
    if ans["code"] != 0:
        return f"exit code {ans['code']}"
    cert = ans["cert"]
    if cert is None:
        return "no certificate written"
    if cert.get("status") != "ok" or cert.get("kind") != kind:
        return f"status {cert.get('status')!r}, kind {cert.get('kind')!r}"
    got = [c.get("name") for c in cert.get("checks", [])]
    if sorted(got) != sorted(names):
        return f"check names {got} differ from {names}"
    if not all(c.get("pass") for c in cert["checks"]):
        return "a check did not pass"
    return None


# ----------------------------------------------------------------- common

def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return {"shape": list(obj.shape), "data": [float(v) for v in obj.reshape(-1)]}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _digest(obj) -> str:
    text = json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(pool: list[dict]) -> str:
    """sha256 over the generated inputs, floats written in full."""
    return _digest(pool)

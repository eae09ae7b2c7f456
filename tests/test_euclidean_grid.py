"""A Euclidean GridSpace keeps only its points.  Every distance it and
the ball tests derive from them (the adjacent pairs and their
distances, the default mesh, the diameter, the distinctness check, the
canonical witness radii, the reach masks and whole CipReports) is
checked here against the dense reference: the (n, n) metric summed in
one buffer, read with the expressions the package used while every grid
stored it."""

import time
import tracemalloc

import numpy as np
import pytest

import carasel.corr as corr
import carasel.grid as grid_module
from carasel import (
    AtomSpace,
    CipWitness,
    Corr,
    GameSpec,
    GridSpace,
    PointSet,
    canonical_witness,
    cip_verify,
)
from carasel.corr import SET_EQUALITY_TOL, CipReport
from carasel.equilibria import JOINT_NODE_CAP, pref_from_payoff
from carasel.errors import DomainError
from carasel.grid import ADJ_TOL
from carasel.setops import DEDUP_TOL

from conftest import capture_matrix, dense_metric, line_grid
from instances import random_cip_instance


def _dense(pts) -> np.ndarray:
    """The Euclidean metric summed one coordinate at a time in one (n, n)
    buffer, then rooted."""
    pts = np.asarray(pts, dtype=float)
    d, scratch = np.zeros((len(pts),) * 2), np.empty((len(pts),) * 2)
    for x in pts.T:
        np.subtract.outer(x, x, out=scratch)
        d += np.multiply(scratch, scratch, out=scratch)
    return np.sqrt(d, out=d)


def _dense_nearest(pts, step=256) -> np.ndarray:
    """Each node's nearest distance to another node from _dense's sums,
    a block of rows at a time."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), step):
        block = pts[lo:lo + step]
        d = np.zeros((len(block), len(pts)))
        for x, y in zip(block.T, pts.T):
            diff = np.subtract.outer(x, y)
            d += diff * diff
        d[np.arange(len(block)), lo + np.arange(len(block))] = np.inf
        out[lo:lo + step] = np.sqrt(d).min(axis=1)
    return out


def _dense_pairs(d, radius):
    """directed_pair_arrays from the metric's mask."""
    i, j = np.nonzero(d <= radius + ADJ_TOL)
    upper = i < j
    return np.concatenate([i[upper], j[upper]]), np.concatenate([j[upper], i[upper]])


def _lattice(n, dim):
    return np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, n)] * dim, indexing="ij"),
                    axis=-1).reshape(-1, dim)


def _clouds(rng, dim):
    """Uniform, clustered and mixed-scale random point sets in R^dim, a
    lattice, and (dim >= 2) points on a sphere, where every node is as
    far from the centroid as the diameter's ends."""
    n = int(rng.integers(2, 90))
    yield rng.uniform(size=(n, dim))
    centres = rng.uniform(size=(3, dim))
    yield centres[rng.integers(3, size=n)] + 1e-3 * rng.normal(size=(n, dim))
    yield rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    yield _lattice({1: 40, 2: 9, 3: 5, 4: 3}[dim], dim)
    if dim >= 2:
        sphere = rng.normal(size=(n, dim))
        yield sphere / np.linalg.norm(sphere, axis=1, keepdims=True)


def _check_against_dense(grid, d):
    pi, pj = grid.directed_pair_arrays()
    for got, want in zip((pi, pj), _dense_pairs(d, grid.adjacency_radius)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert grid.pair_distances().tobytes() == d[pi, pj].tobytes()
    nodes, near, dist = grid.neighbour_table()
    for k, z in enumerate(nodes):
        mine = pi == z
        assert np.array_equal(near[:mine.sum(), k], pj[mine])
        assert dist[:mine.sum(), k].tobytes() == d[z, pj[mine]].tobytes()
    assert grid.diameter == float(d.max())


# (PAIR_CHUNK, METRIC_BLOCK): the defaults read these small sets as one
# row block; (61, 1) takes the cell search, splits cell pairs across
# chunks, and prunes the diameter's rows and reads them one at a time
CHUNKS = [(grid_module.PAIR_CHUNK, grid_module.METRIC_BLOCK), (61, 1)]


def _set_chunks(monkeypatch, chunks):
    for name, value in zip(("PAIR_CHUNK", "METRIC_BLOCK"), chunks):
        monkeypatch.setattr(grid_module, name, value)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_pairs_mesh_and_diameter_match_the_dense_metric(dim, chunk, monkeypatch):
    _set_chunks(monkeypatch, chunk)
    rng = np.random.default_rng(dim)
    for _ in range(3):
        for pts in _clouds(rng, dim):
            d = _dense(pts)
            nearest = (d + np.diag(np.full(len(d), np.inf))).min(axis=1)
            mesh = float(nearest.max())
            for radius in (None, 0.9 * mesh, 3.3 * mesh):
                grid = GridSpace(pts, adjacency_radius=radius)
                assert grid.mesh == mesh
                _check_against_dense(grid, d)
            assert dense_metric(grid).tobytes() == d.tobytes() and not hasattr(grid, "metric")
            assert "metric" not in repr(grid)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_default_mesh_of_a_large_grid_matches_the_dense_scan(dim, monkeypatch):
    # past one row block the nearest distances come from the growing cell
    # search: uniform, clustered (with a far outlier, so the radius grows
    # many times) and near-lattice clouds of 129-3,000 nodes give every
    # node's nearest distance bit for bit, and no row is read
    rng = np.random.default_rng(40 + dim)
    monkeypatch.setattr(GridSpace, "_row_blocks",
                        lambda *_: pytest.fail("a row block was read"))
    for n in (129, int(rng.integers(130, 1000)), 3000):
        centres = rng.uniform(-5.0, 5.0, size=(3, dim))
        clustered = centres[rng.integers(3, size=n)] + 1e-3 * rng.normal(size=(n, dim))
        clustered[0] = 100.0
        lattice = np.round(rng.uniform(0.0, 20.0, size=(n, dim))) + 1e-3 * rng.random((n, dim))
        for pts in (rng.uniform(size=(n, dim)), clustered, lattice):
            nearest = _dense_nearest(pts)
            grid = GridSpace(pts)
            assert grid._nearest().tobytes() == nearest.tobytes()
            assert grid.mesh == float(nearest.max())


@pytest.mark.parametrize("block", [1, 64])
def test_diameter_reads_every_row_its_centroid_bound_keeps(block, monkeypatch):
    # near-regular polygons and near-antipodal pairs on a sphere: every
    # node is about as far from the centroid as the diameter's ends, so
    # the two far rows read first often miss the diameter; blocks this
    # small make every grid take the centroid bound
    monkeypatch.setattr(grid_module, "METRIC_BLOCK", block)
    rng = np.random.default_rng(8)
    for _ in range(60):
        n, dim = int(rng.integers(5, 60)), int(rng.integers(2, 4))
        if dim == 2:
            angle = 2 * np.pi * (np.arange(n) + 0.3 * rng.uniform(size=n)) / n
            pts = np.column_stack([np.cos(angle), np.sin(angle)])
        else:
            pts = rng.normal(size=(n, dim))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts = np.vstack([pts, -pts[:n // 2] * (1 - 1e-3 * rng.uniform(size=(n // 2, 1)))])
        assert GridSpace(pts).diameter == float(_dense(pts).max())


@pytest.mark.parametrize("block", [1, 7, grid_module.METRIC_BLOCK])
def test_row_blocks_of_any_size_give_the_dense_answers(block, monkeypatch):
    monkeypatch.setattr(grid_module, "METRIC_BLOCK", block)
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        pts = rng.uniform(size=(40, dim))
        d = _dense(pts)
        grid = GridSpace(pts)
        assert grid.mesh == float((d + np.diag(np.full(40, np.inf))).min(axis=1).max())
        _check_against_dense(grid, d)


@pytest.mark.parametrize("n", [5, 21, 31])
def test_joint_grid_pairs_at_the_radius_match_the_dense_metric(n):
    # the joint mesh is sqrt(2) h, so the (2h, 2h) offsets sit exactly at
    # the adjacency radius 2 sqrt(2) h and count: 24 neighbours inside
    space = AtomSpace(("w",), [1.0])
    g = GameSpec(("p1", "p2"), space, (line_grid(n), line_grid(n)),
                 (lambda t, x: 0.0, lambda t, x: 0.0), (True, True))
    grid = g.joint_grid()
    _check_against_dense(grid, _dense(grid.points))
    assert np.bincount(grid.directed_pair_arrays()[0]).max() == 24
    assert grid.neighbour_table()[1].shape == (24, n * n)


@pytest.mark.parametrize("n", [5, 21])
def test_a_given_mesh_grid_runs_one_pair_search(n, monkeypatch):
    # distinctness reads the adjacent pairs' distances, which every
    # pipeline reads anyway, so a joint grid searches its pairs once
    calls = []
    search = grid_module._close_pairs
    monkeypatch.setattr(grid_module, "_close_pairs",
                        lambda *args: calls.append(args[1]) or search(*args))
    space = AtomSpace(("w",), [1.0])
    g = GameSpec(("p1", "p2"), space, (line_grid(n), line_grid(n)),
                 (lambda t, x: 0.0, lambda t, x: 0.0), (True, True))
    grid = g.joint_grid()
    grid.directed_pair_arrays()
    assert calls == [grid.adjacency_radius + ADJ_TOL]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_distinctness_is_decided_as_the_dense_metric_decides(dim, chunk, monkeypatch):
    _set_chunks(monkeypatch, chunk)
    rng = np.random.default_rng(20 + dim)
    axis = np.eye(dim)[int(rng.integers(dim))]
    for scale in (1.0, 1e3):
        base = rng.uniform(size=(25, dim)) * scale
        for gap in (0.0, 0.5 * DEDUP_TOL, DEDUP_TOL, 3 * DEDUP_TOL, 1e-9):
            pts = np.vstack([base, base[7] + gap * axis])
            d = _dense(pts)
            close = (d + np.diag(np.full(len(d), np.inf))).min() <= DEDUP_TOL
            metric = d + DEDUP_TOL * (1 - np.eye(len(d)))  # apart under the metric
            # the default mesh decides from the nearest distances, a given
            # mesh from the adjacent pairs' distances
            if close:
                for mesh in (None, 1.0):
                    with pytest.raises(DomainError, match="distinct under the metric"):
                        GridSpace(pts, mesh=mesh)
                with pytest.raises(DomainError, match="grid points must be distinct$"):
                    GridSpace(pts, metric=metric)
            else:
                assert len(GridSpace(pts)) == len(GridSpace(pts, mesh=1.0)) == 26
    for pts in ([[0.0] * dim, [0.0] * dim], [[1e6] * dim, [0.0] * dim, [1e6] * dim]):
        for mesh in (None, 1.0):
            with pytest.raises(DomainError, match="distinct"):
                GridSpace(pts, mesh=mesh)


def _instances():
    """random_cip_instance draws, and the preference tables of a
    quadratic game on joint grids, with canonical witnesses."""
    for seed in range(8):
        inst = random_cip_instance(np.random.default_rng(seed))
        yield inst.psi, inst.witness, inst.eps
    rng = np.random.default_rng(5)
    for n in (5, 8):
        space = AtomSpace(("w0", "w1"), [1.0, 1.0])
        params = rng.uniform([0.5, 0.3, -0.6, 0.0], [2.0, 0.7, 0.6, 1.0], size=(2, 2, 4))

        def payoff(i):
            def u(t, x):
                c, a, d, b = params[i, t]
                return -c * (x[i] - a) ** 2 - d * c * (x[i] - a) * (x[1 - i] - b)
            return u

        g = GameSpec(("p1", "p2"), space, (line_grid(n), line_grid(n)),
                     (payoff(0), payoff(1)), (True, True))
        for i in range(2):
            p = pref_from_payoff(g, i)
            yield p, canonical_witness(p), p.grid.adjacency_radius


def _variants(rng, psi, w):
    """w, then witnesses whose balls reach empty nodes (every radius grown
    past the nearest empty node) and whose local escapes psi at a random
    cell and is empty at another, shared and split over two locals."""
    yield w
    grown = np.where(np.isnan(w.radii), np.nan, w.radii + 1.5 * psi.grid.mesh)
    yield CipWitness(w.mode, w.locals, grown, w.box)
    bounds = np.array(psi.bounds)
    cells = np.argwhere(psi.counts > 0)
    far, gone = cells[rng.choice(len(cells), size=2, replace=False)]
    bounds[tuple(far)] = [len(psi.points), len(psi.points) + 1]
    bounds[tuple(gone)] = 0
    planted = Corr(psi.space, psi.grid, psi.dim,
                   np.vstack([psi.points, np.full((1, psi.dim), 5.0)]), bounds)
    yield CipWitness("countable", {z: planted if z % 2 else psi for z in range(len(psi.grid))},
                     w.radii)
    yield CipWitness.shared(psi.grid, planted, grown)


def _stack_cip_reference(psi, w, eps, strict, tol=SET_EQUALITY_TOL):
    """cip_verify as it ran on the (atoms, nodes, nodes) ball stack of the
    dense metric, kept as its reference."""
    report = CipReport(True, eps=eps)
    pi, pj = psi.grid.directed_pair_arrays()
    groups = w.distinct_locals()
    tables = [f for f, _ in groups]
    radii = np.where(psi.counts > 0, w.radii, -np.inf)
    caps = _dense(psi.grid.points) < radii[:, None, :]
    balls = [caps[..., zs] for _, zs in groups]
    fresh = Corr(psi.space, psi.grid, psi.dim, psi.points, psi.bounds)  # no residual kept
    residuals = corr._residuals(fresh, tables, np.stack([ball.any(axis=2) for ball in balls]))
    report.inclusion_residual = float(residuals.max(initial=0.0))
    for (f, zs), res, ball in zip(groups, residuals, balls):
        gaps = f.directed_gaps()
        finite = ~np.isnan(gaps)
        if finite.any():
            report.lsc_gap = max(report.lsc_gap, float(gaps[finite].max()))
        lost = finite & (gaps >= eps)
        on = psi.counts[:, zs] > 0
        fails = np.zeros(on.shape, dtype=bool)
        at, x = np.nonzero((f.counts == 0) | (res > tol))
        r, c = np.nonzero(ball[at, x])
        fails[at[r], c] = True
        at, k = np.nonzero(lost)
        if strict:
            fails[at] = True
        else:
            r, c = np.nonzero(ball[at, pi[k]] & ball[at, pj[k]])
            fails[at[r], c] = True
            fails[at] |= ~on[at]
        for t, c in np.argwhere(fails).tolist():
            z, pairs, kind = zs[c], np.flatnonzero(lost[t]), "lsc-offsection"
            if on[t, c]:
                cell, kind = ball[t, :, c], "lsc"
                for x in np.flatnonzero(cell & (f.counts[t] == 0)).tolist():
                    report.failures.append(("nonempty", t, z, x, "local value empty in ball"))
                for x in np.flatnonzero(cell & (res[t] > tol)).tolist():
                    report.failures.append(("inclusion", t, z, x,
                                            f"local value escapes psi by {res[t, x]:.3e}"))
                if not strict:
                    pairs = pairs[cell[pi[pairs]] & cell[pj[pairs]]]
            for k in pairs.tolist():
                report.failures.append((kind, t, z, int(pi[k]),
                                        f"value point lost toward node {int(pj[k])}"))
    report.ok = not report.failures
    return report


def test_canonical_radii_match_the_dense_columns():
    for psi, _, _ in _instances():
        d = _dense(psi.grid.points)
        nonempty = psi.counts > 0
        want = np.full(nonempty.shape, float(d.max()) + 1.0)
        for t in np.flatnonzero(~nonempty.all(axis=1)):
            want[t] = d[:, ~nonempty[t]].min(axis=1)
        want[~nonempty] = np.nan
        assert np.array_equal(canonical_witness(psi).radii, want, equal_nan=True)


def test_reach_masks_and_reports_match_the_dense_ball_stack():
    kinds, modes = set(), set()
    rng = np.random.default_rng(3)
    for psi, w0, eps in _instances():
        for w in _variants(rng, psi, w0):
            groups = w.distinct_locals()
            radii = np.where(psi.counts > 0, w.radii, -np.inf)
            caps = _dense(psi.grid.points) < radii[:, None, :]
            reach = corr._reach_masks(psi.grid, corr._ball_radii(psi, w), groups)
            for mask, (_, zs) in zip(reach, groups):
                assert np.array_equal(mask, caps[..., zs].any(axis=2))
            assert np.array_equal(capture_matrix(psi, w), caps)
            for e, strict in ((eps, False), (eps, True), (eps / 100, False),
                              (1e-6 * psi.grid.mesh, False)):
                got = cip_verify(psi, w, e, strict=strict)
                want = _stack_cip_reference(psi, w, e, strict)
                assert got.failures == want.failures
                assert (got.ok, got.inclusion_residual, got.lsc_gap) == (
                    want.ok, want.inclusion_residual, want.lsc_gap)
                kinds |= {kind for kind, *_ in got.failures}
            modes.add((w.mode, len(groups) > 1))
    assert kinds == {"nonempty", "inclusion", "lsc", "lsc-offsection"}
    assert {("shared", False), ("countable", True), ("indexed", True)} <= modes


def test_a_ball_that_misses_its_own_centre_under_a_user_metric():
    # a user metric's diagonal may sit within METRIC_TOL of 0, so a ball
    # smaller than it does not hold its own centre
    pts = np.arange(5.0)[:, None]
    metric = _dense(pts) + 5e-10 * np.eye(5)
    grid = GridSpace(pts, metric=metric, mesh=1.0)
    space = AtomSpace(("w",), [1.0])
    psi = Corr.constant(space, grid, PointSet.of(1, [[0.0]]))
    radii = np.full((1, 5), 1e-10)
    radii[0, 3] = 1.5  # reaches nodes 2, 3 and 4
    w = CipWitness.shared(grid, psi, radii)
    want = metric < radii[:, None, :]
    assert np.array_equal(capture_matrix(psi, w), want)
    reach = corr._reach_masks(grid, corr._ball_radii(psi, w), w.distinct_locals())
    assert reach.tolist() == [[[False, False, True, True, True]]]


def test_a_grid_at_the_joint_node_cap_holds_no_dense_array():
    # the dense metric alone would be 763 MiB at 10,000 nodes
    side = int(round(np.sqrt(JOINT_NODE_CAP)))
    space = AtomSpace(("w",), [1.0])
    g = GameSpec(("p1", "p2"), space, (line_grid(side), line_grid(side)),
                 (lambda t, x: 0.0, lambda t, x: 0.0), (True, True))
    g.joint_nodes()
    start = time.perf_counter()
    tracemalloc.start()
    try:
        grid = g.joint_grid()
        pi, _ = grid.directed_pair_arrays()
        nodes, near, _ = grid.neighbour_table()
        diameter = grid.diameter
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    wall = time.perf_counter() - start
    assert len(grid) == JOINT_NODE_CAP and len(nodes) == JOINT_NODE_CAP
    assert near.shape == (24, JOINT_NODE_CAP) and len(pi) == 2 * 117_018
    assert diameter == float(np.sqrt(2.0))
    assert peak < 64 * 2 ** 20
    assert wall < 20.0

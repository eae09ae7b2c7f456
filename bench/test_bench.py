"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import carasel  # noqa: E402
import harness  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small_select():
    # one projection-heavy stratum on a short grid
    return wl.make_select_instance(np.random.default_rng(5), 2, "canonical", "split", 7, 5)


def _small_game():
    return wl.make_game(np.random.default_rng(5), 7)


@pytest.mark.parametrize("pool", [wl.select_pool, wl.nash_pool, wl.cli_pool])
def test_same_seed_gives_same_fingerprint(pool):
    assert wl.fingerprint(pool(11)) == wl.fingerprint(pool(11))
    assert wl.fingerprint(pool(11)) != wl.fingerprint(pool(12))


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = list(range(30, 0, -1))
    value, pct = harness.tail(xs)
    assert value == 20 and sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    # below 21 samples that percentile would not be above the median
    assert harness.tail(list(range(20))) == (19, 100.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_each_problem_counts_the_mean_of_its_attempts():
    batch = harness.Batch(2, latencies=[1.0, 4.0, 3.0, 2.0, 2.0, 6.0])
    assert batch.per_problem() == [2.0, 4.0]
    ref = harness.GAUGE_REF_S
    metrics, details = harness.end_to_end(batch, [0.3, 0.1, 0.2], [ref, ref, ref])
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(3000.0)
    assert metrics["latency_tail_ms"]["value"] == pytest.approx(4000.0)
    assert metrics["certs_per_s"]["value"] == pytest.approx(1 / 3.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert details["passes"] == 3 and details["attempts"] == 6


def test_times_are_scaled_to_the_gauge():
    batch = harness.Batch(1, latencies=[1.0, 3.0])
    ref = harness.GAUGE_REF_S
    # the machine ran at half the reference speed
    metrics, details = harness.end_to_end(batch, [0.4], [2 * ref, 2 * ref])
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(1000.0)
    assert metrics["certs_per_s"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)
    assert details["measured"]["latency_p50_ms"] == pytest.approx(2000.0)
    assert details["measured"]["setup_s"] == pytest.approx(0.4)
    # one outlier in ten (a collection pause, say) is left out
    assert harness.gauge_scale([ref] * 9 + [10 * ref]) == pytest.approx(1.0)


def test_setup_probes_spread_over_the_run(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 9)
    when = []
    probes = harness.SetupProbes("select-pool", 1, seconds=9.0)
    monkeypatch.setattr(probes, "_probe", lambda: (when.append(clock), probes.times.append(0.5)))
    for clock in (0.0, 0.5, 2.5, 6.2, 6.3):
        probes.due(clock)
    assert when == [0.0, 2.5, 2.5, 6.2, 6.2, 6.2, 6.2]
    clock = None
    assert len(probes.finish()) == harness.SETUP_REPEATS
    assert when[7:] == [None] * (harness.SETUP_REPEATS - 7)


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def _emitted(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_run_emits_every_declared_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-fixtures",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert _emitted(result["metrics"]) == _declared(kind)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.fixture
def small_workloads(monkeypatch):
    """The in-process workloads, each cut down to one small problem."""
    small = {
        "select-pool": lambda seed: [_small_select()],
        "nash-joint": lambda seed: [_small_game()],
    }
    for name, pool in small.items():
        monkeypatch.setitem(harness.WORKLOADS, name, replace(harness.WORKLOADS[name], pool=pool))
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("workload", ["select-pool", "nash-joint"])
@pytest.mark.parametrize("trace", [False, True])
def test_in_process_runs_emit_every_declared_metric(small_workloads, workload, trace):
    result, details = harness.run(workload, 3, 0.01, trace)
    assert result["correct"], details["failures"]
    kind = "per_layer" if trace else "end_to_end"
    assert _emitted(result["metrics"]) == _declared(kind)
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert details["failed_ratio"] == 0.0


@pytest.mark.parametrize("solve, item, span", [
    (wl.solve_select, _small_select(), "setops.convex_project"),
    (wl.solve_nash, _small_game(), "corr.directed_gaps"),
])
def test_traced_and_untraced_answers_are_identical(solve, item, span):
    plain = solve(carasel, item, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = solve(carasel, item, 0)
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest
    assert tracer.calls[span] > 0
    # uninstall restores every binding
    assert not hasattr(carasel.convex_project, "__wrapped__")
    assert not hasattr(carasel.setops.PointSet.__post_init__, "__wrapped__")


def _corrupt_select(item, seed, tracer):
    out = wl.solve_select(carasel, item, seed)
    key = min(out.answer["values"])
    out.answer["values"][key] = out.answer["values"][key] + 5.0  # far outside the unit box
    return out


def _corrupt_nash(item, seed, tracer):
    out = wl.solve_nash(carasel, item, seed)
    out.answer["indices"][0] += 1
    return out


@pytest.mark.parametrize("workload, item, corrupt", [
    ("select-pool", _small_select(), _corrupt_select),
    ("nash-joint", _small_game(), _corrupt_nash),
])
def test_corrupted_answer_counts_as_failed(workload, item, corrupt):
    wk = harness.WORKLOADS[workload]
    good = harness.run_batch(wk, [item], 0, passes=1)
    assert good.failures == []
    bad = harness.run_batch(replace(wk, solve=corrupt), [item], 0, passes=1)
    assert len(bad.failures) == bad.attempted == 1
    _, details = harness.end_to_end(bad, [1.0], [harness.GAUGE_REF_S])
    assert details["failed_ratio"] == 1.0


def test_cli_oracle_rejects_wrong_status():
    item = wl.cli_pool(0)[0]
    kind, names = wl.CLI_FIXTURES[item["fixture"]]
    cert = {"status": "ok", "kind": kind,
            "checks": [{"name": n, "pass": True} for n in names]}
    assert wl.check_cli(item, wl.Outcome({"code": 0, "cert": cert}, "")) is None
    assert wl.check_cli(item, wl.Outcome({"code": 0, "cert": {**cert, "status": "failed"}}, ""))
    assert wl.check_cli(item, wl.Outcome({"code": 1, "cert": cert}, ""))

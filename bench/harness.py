"""Closed-loop measurement of the carasel workloads.

One client, one process, sequential calls: each problem starts when the
previous one has been certified.  A run makes whole passes over the
workload's pool, as many as fit the requested seconds at the speed the
benchmark was calibrated at (at least one), so every run measures the
same mix of problems the same number of times.  The answer of every
attempt is checked by the workload's oracle outside the timed region.
The set-up probes (fresh processes, see `SetupProbes`) run between
problems, spread over the run.

Each problem's latency is the mean of its attempts in the run.  The
machine's speed swings between a fast and a slow state, within a
second and over minutes, so every reported time is scaled to the speed
of a fixed gauge kernel (`machine_speed`), timed between attempts:
reported = measured x GAUGE_REF_S / mean gauge time, the fastest and
slowest tenth of the gauge times left out.  The measured times and the
gauge are kept in the run details.

With tracing on, each problem runs twice in a row, once with the tracer
off and once with it on, alternating which goes first; the ratio of the
two sums is the tracing overhead, and both must give identical answers.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import workloads as wl
from tracer import IMPORT_SPAN, ROOT_SPAN, SPAN_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7
# machine_speed() on the calibration machine in its fast phases; the
# reported times are what the run would have taken at that speed
GAUGE_REF_S = 0.003


@dataclass(frozen=True)
class Workload:
    pool: Callable[[int], list]
    solve: Callable  # (item, seed, tracer or None) -> Outcome
    check: Callable  # (item, Outcome) -> failure reason or None
    warmup: Callable  # () -> None, finishes lazy set-up before timing
    # Seconds one pass takes, its share of the set-up probes included, on
    # the machine the benchmark was calibrated on.  `--seconds` divided
    # by this is the pass count; fixing it, rather than timing the
    # passes, keeps the attempts per problem the same when the machine
    # slows.
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, int(seconds // self.pass_s))


def _carasel():
    import carasel
    import carasel.pipelines  # noqa: F401  (every workload process loads the same modules)
    return carasel


def _select_solve(item, seed, tracer):
    return wl.solve_select(_carasel(), item, seed)


def _select_warmup():
    rng = np.random.default_rng(0)
    wl.solve_select(_carasel(), wl.make_select_instance(rng, 2, "canonical", "finest", 5, 4), 0)


def _nash_solve(item, seed, tracer):
    return wl.solve_nash(_carasel(), item, seed)


def _nash_warmup():
    wl.solve_nash(_carasel(), wl.make_game(np.random.default_rng(0), 5), 0)


def _cli_solve(item, seed, tracer):
    work = wl.WORK / "cli"
    work.mkdir(parents=True, exist_ok=True)
    out_path = work / f"{item['fixture']}.cert.json"
    out_path.unlink(missing_ok=True)
    trace_path = None
    if tracer is not None:
        trace_path = work / f"{item['fixture']}.trace.json"
        trace_path.unlink(missing_ok=True)
    code, rss = wl.run_cli(item, out_path, trace_path)
    if tracer is not None and trace_path.exists():
        tracer.merge(json.loads(trace_path.read_text(encoding="utf-8")))
    out = wl.cli_answer(out_path, code)
    out.rss_mb = rss
    return out


def _cli_warmup():
    item = wl.cli_pool(0)[0]
    wl.run_cli(item, wl.WORK / "cli" / "warmup.cert.json", None)


WORKLOADS = {
    "select-pool": Workload(wl.select_pool, _select_solve, wl.check_select, _select_warmup, 10.0),
    "nash-joint": Workload(wl.nash_pool, _nash_solve, wl.check_nash, _nash_warmup, 20.0),
    "cli-fixtures": Workload(wl.cli_pool, _cli_solve, wl.check_cli, _cli_warmup, 5.0),
}


_REF = np.random.default_rng(0).random((6, 3))


def machine_speed() -> list[float]:
    """Seconds a fixed mix of small numpy solves and Python arithmetic
    takes now, three times over: a gauge of the machine's current speed,
    independent of carasel, taken between attempts and outside their
    timing."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(120):
            gram = _REF @ _REF.T
            sol, *_ = np.linalg.lstsq(gram + np.eye(6), _REF[:, i % 3], rcond=None)
            acc += float(sol[int(np.argmin(sol))]) + sum(k * 0.5 for k in range(30))
        times.append(time.perf_counter() - t0)
    return times


def gauge_scale(gauge: list[float]) -> float:
    """GAUGE_REF_S over the mean gauge time, the fastest and slowest
    tenth left out."""
    xs = sorted(gauge)
    cut = len(xs) // 10
    return GAUGE_REF_S / statistics.mean(xs[cut:len(xs) - cut])


@dataclass
class Batch:
    """Attempts in run order; attempt i is problem i % pool size."""
    pool_size: int
    latencies: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (attempt, reason)
    rss_mb: list = field(default_factory=list)
    gauge_s: list = field(default_factory=list)  # machine_speed() before each attempt

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def per_problem(self) -> list[float]:
        """Each problem's mean latency over its attempts."""
        n = self.pool_size
        return [statistics.mean(self.latencies[k::n]) for k in range(n)]


def attempt(wk: Workload, item, seed: int, batch: Batch, tracer: Tracer | None = None) -> None:
    """Solve one problem, time it and check its answer outside the timing."""
    reason = None
    out = None
    batch.gauge_s.extend(machine_speed())
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wk.solve(item, seed, None)
        else:
            tracer.problem = batch.attempted
            out = tracer.span(ROOT_SPAN, lambda: wk.solve(item, seed, tracer))
    except Exception as e:  # a failed problem is counted, never fatal
        reason = "".join(traceback.format_exception_only(type(e), e)).strip()
    t1 = time.perf_counter()
    if out is not None:
        reason = wk.check(item, out)
        if out.rss_mb is not None:
            batch.rss_mb.append(out.rss_mb)
    if reason is not None:
        batch.failures.append((batch.attempted, reason))
    batch.latencies.append(t1 - t0)
    batch.digests.append(None if out is None else out.digest)


def run_batch(wk: Workload, pool: list, seed: int, passes: int,
              between: Callable[[float], None] = lambda elapsed: None) -> Batch:
    """`passes` whole passes over the pool; `between(elapsed seconds)`
    runs before each problem."""
    batch = Batch(len(pool))
    start = time.perf_counter()
    for item in pool * passes:
        between(time.perf_counter() - start)
        attempt(wk, item, seed, batch)
    return batch


def run_paired(wk: Workload, pool: list, seed: int, passes: int,
               tracer: Tracer) -> tuple[Batch, Batch]:
    """Every problem untraced and traced back to back, alternating which
    goes first, so both sides see the same phases of the machine."""
    plain, traced = Batch(len(pool)), Batch(len(pool))
    for n, item in enumerate(pool * passes):
        for side in ((0, 1) if n % 2 == 0 else (1, 0)):
            if side == 0:
                attempt(wk, item, seed, plain)
                continue
            tracer.install()
            try:
                attempt(wk, item, seed, traced, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or the maximum (percentile 100) when that
    percentile would not lie above the median (fewer than 21 samples)."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class SetupProbes:
    """Wall time of fresh processes that start the interpreter, import
    carasel and generate (or parse) this workload's inputs.  `due` runs
    the probes whose turn has come, so SETUP_REPEATS of them spread
    evenly over `seconds`; `finish` runs any still owed."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup", workload, str(seed)]
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.gauge_s: list[float] = []

    def _probe(self) -> None:
        self.gauge_s.extend(machine_speed())
        t0 = time.perf_counter()
        code, _ = wl.run_child(self.argv)
        self.times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")

    def due(self, elapsed: float) -> None:
        while len(self.times) < SETUP_REPEATS and len(self.times) * self.every <= elapsed:
            self._probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self._probe()
        return self.times


def environment(seed: int, fingerprint: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("THREADS")},
        "seed": seed,
        "input_sha256": fingerprint,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(batch: Batch, setup: list[float], gauge: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, times scaled by the gauge; and the run
    details, which keep the measured times."""
    scale = gauge_scale(gauge)
    lat = [scale * x for x in batch.per_problem()]
    tail_value, tail_pct = tail(lat)
    if batch.rss_mb:
        rss = max(batch.rss_mb)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = batch.attempted - len(batch.failures)
    ok_ratio = ok / batch.attempted
    metrics = {
        "certs_per_s": _metric(ok_ratio * len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": _metric(1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": _metric(1e3 * tail_value, "ms"),
        "setup_s": _metric(scale * statistics.median(setup), "s"),
        "peak_rss_mb": _metric(rss, "MiB"),
        "ok_ratio": _metric(ok_ratio, "ratio"),
    }
    details = {
        "gauge_scale": scale,
        "measured": {"certs_per_s": metrics["certs_per_s"]["value"] * scale,
                     "latency_p50_ms": metrics["latency_p50_ms"]["value"] / scale,
                     "latency_tail_ms": metrics["latency_tail_ms"]["value"] / scale,
                     "setup_s": statistics.median(setup)},
        "samples": len(lat),
        "attempts": batch.attempted,
        "passes": batch.attempted // batch.pool_size,
        "tail_percentile": tail_pct,
        "failed_ratio": len(batch.failures) / batch.attempted,
        "setup_runs_s": setup,
        "per_problem_ms": [round(1e3 * x, 1) for x in batch.per_problem()],
        "latencies_ms": [round(1e3 * x, 1) for x in batch.latencies],
        "gauge_ms": [round(1e3 * x, 3) for x in gauge],
    }
    return metrics, details


def per_layer(tracer: Tracer, traced: Batch, plain: Batch) -> dict:
    certs = traced.attempted
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = _metric(tracer.calls[name] / certs, "count")
        out[f"{name}.self_s"] = _metric(tracer.self_s[name] / certs, "s")
    imports = tracer.calls[IMPORT_SPAN]
    # only CLI processes import carasel per certificate; elsewhere it is 0
    out["cli.import_s"] = _metric(tracer.self_s[IMPORT_SPAN] / imports if imports else 0.0, "s")
    nash_calls = tracer.calls["equilibria.random_nash"]
    # every game in the benchmark has two players
    out["equilibria.pref_builds_per_player"] = _metric(
        tracer.calls["equilibria.pref_from_payoff"] / (2 * nash_calls) if nash_calls else 0.0,
        "ratio")
    out["corr.cip_verify_per_problem"] = _metric(tracer.calls["corr.cip_verify"] / certs, "ratio")
    nash_total = tracer.total_s["equilibria.random_nash"]
    out["equilibria.answer_share"] = _metric(
        tracer.total_s["equilibria.regret_table"] / nash_total if nash_total else 0.0, "ratio")
    out["trace.unattributed_s"] = _metric(tracer.self_s[ROOT_SPAN] / certs, "s")
    out["trace.overhead_ratio"] = _metric(sum(traced.latencies) / sum(plain.latencies), "ratio")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    wk = WORKLOADS[workload]
    started = time.perf_counter()
    pool = wk.pool(seed)
    fingerprint = wl.fingerprint(pool)
    wk.warmup()

    if not trace:
        probes = SetupProbes(workload, seed, seconds)
        batch = run_batch(wk, pool, seed, wk.passes(seconds), probes.due)
        metrics, details = end_to_end(batch, probes.finish(), batch.gauge_s + probes.gauge_s)
        failures = batch.failures
        attempted = batch.attempted
    else:
        tracer = Tracer()
        # each problem runs twice, so half the passes fill the seconds
        plain, traced = run_paired(wk, pool, seed, wk.passes(seconds / 2), tracer)
        failures = plain.failures + [(a + plain.attempted, r) for a, r in traced.failures]
        for k, (a, b) in enumerate(zip(plain.digests, traced.digests)):
            if a != b:
                failures.append((plain.attempted + k, "traced answer differs from untraced"))
        attempted = plain.attempted + traced.attempted
        metrics = per_layer(tracer, traced, plain)
        details = {"samples": traced.attempted, "passes": traced.attempted // traced.pool_size,
                   "failed_ratio": len(failures) / attempted,
                   "untraced_latencies_ms": [round(1e3 * x, 1) for x in plain.latencies],
                   "traced_latencies_ms": [round(1e3 * x, 1) for x in traced.latencies]}
        sidecar = wl.WORK / f"trace-{workload}-seed{seed}.json"
        tracer.dump(sidecar, {"workload": workload, "seed": seed,
                              "overhead_ratio": metrics["trace.overhead_ratio"]["value"]})
        details["trace_file"] = str(sidecar.relative_to(wl.ROOT))

    details.update({
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed, fingerprint),
        "failures": [f"attempt {a}: {r}" for a, r in failures[:5]],
        "wall_s": time.perf_counter() - started,
    })
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({a for a, _ in failures}),
        "metrics": metrics,
    }, details


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    # One core for the run, its children and the gauge: the two cores of
    # the calibration machine change speed independently of each other.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    result, details = run(workload, seed, seconds, trace)
    details["environment"]["pinned_cpu"] = cpu
    wl.WORK.mkdir(parents=True, exist_ok=True)
    record = wl.WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps({"result": result, "details": details}, indent=1),
                      encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{workload}  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0

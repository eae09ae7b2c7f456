"""The benchmark drives carasel from outside the package: its tracer
patches carasel functions by name, and its workloads build witnesses
from {(t, z): r} mappings and read selections as {(t, z): point}
mappings.  These tests fail when a refactor breaks either use, rather
than leaving it to the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import carasel

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 1


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _spans():
    return _bench_module("tracer").SPANS


def test_every_traced_target_resolves():
    spans = _spans()
    assert spans
    for name, module, path, _hot in spans:
        obj = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(obj, part), f"span {name}: {module}.{path} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"span {name}: {module}.{path} is not callable"


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def test_bench_select_styles_pass_their_oracle(workloads):
    # the first select-pool instance of each witness style
    pool = {}
    for inst in workloads.select_pool(SEED):
        pool.setdefault(inst["style"], inst)
    assert sorted(pool) == ["canonical", "countable", "indexed", "singleton"]
    for style, inst in pool.items():
        out = workloads.solve_select(carasel, inst, SEED)
        assert workloads.check_select(inst, out) is None, style


def test_bench_smallest_nash_game_passes_its_oracle(workloads):
    game = min(workloads.nash_pool(SEED), key=lambda g: g["n"])
    out = workloads.solve_nash(carasel, game, SEED)
    assert workloads.check_nash(game, out) is None

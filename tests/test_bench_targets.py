"""The traced benchmark patches carasel functions by name: every
(module, attribute) pair its tracer lists must still resolve, so a
refactor that deletes or renames a traced function fails here rather
than in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_every_traced_target_resolves():
    spans = _spans()
    assert spans
    for name, module, path, _hot in spans:
        obj = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(obj, part), f"span {name}: {module}.{path} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"span {name}: {module}.{path} is not callable"

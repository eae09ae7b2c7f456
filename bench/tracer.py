"""Spans around carasel's public calls, installed from outside.

`Tracer.install()` replaces each function named in SPANS with a timing
wrapper at every place a carasel module binds it (a name imported into
another module is a second binding and is wrapped too), and
`uninstall()` puts the originals back.  Spans nest: a layer's self time
is its duration minus the time of the spans it encloses.  A call to a
span of the same name from inside that span belongs to the outer one.

Hot kernels (called thousands of times per problem) are kept only as
aggregated counts and self time, so memory stays bounded; every other
span is also recorded as (name, start, end, parent, problem).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path, hot)
SPANS = (
    ("setops.convex_project", "carasel.setops", "convex_project", True),
    ("setops.convexset_build", "carasel.setops", "ConvexSet.__post_init__", True),
    ("setops.pointset_build", "carasel.setops", "PointSet.of", True),
    ("setops.pointset_build", "carasel.setops", "PointSet.__post_init__", True),
    ("setops.interior_point_margin", "carasel.setops", "interior_point_margin", True),
    ("setops.convex_membership", "carasel.setops", "convex_membership", True),
    ("corr.grid_build", "carasel.corr", "GridSpace.__post_init__", False),
    ("corr.directed_gaps", "carasel.corr", "Corr.directed_gaps", True),
    ("corr.cip_verify", "carasel.corr", "cip_verify", False),
    ("corr.scip_verify", "carasel.corr", "scip_verify", False),
    ("corr.k_operator", "carasel.corr", "k_operator", False),
    ("corr.canonical_witness", "carasel.corr", "canonical_witness", False),
    ("selection.construct_phi", "carasel.selection", "construct_phi", False),
    ("selection.grid_select", "carasel.selection", "grid_select", False),
    ("selection.caratheodory_select", "carasel.selection", "caratheodory_select", False),
    ("selection.glue", "carasel.selection", "glue", False),
    ("equilibria.pref_from_payoff", "carasel.equilibria", "pref_from_payoff", False),
    ("equilibria.payoff_table", "carasel.equilibria", "GameSpec.payoff_table", True),
    ("equilibria.regret_table", "carasel.equilibria", "GameSpec.regret_table", True),
    ("equilibria.random_nash", "carasel.equilibria", "random_nash", False),
    ("measure.conditional_density", "carasel.measure", "conditional_density", True),
    ("problems.parse", "carasel.problems", "load_problem", False),
    ("problems.parse", "carasel.problems", "build_space", False),
    ("problems.parse", "carasel.problems", "build_partition", False),
    ("problems.parse", "carasel.problems", "build_grid", False),
    ("problems.parse", "carasel.problems", "build_correspondence", False),
    ("problems.parse", "carasel.problems", "build_witness", False),
    ("problems.parse", "carasel.problems", "build_game", False),
    ("problems.parse", "carasel.problems", "build_bayes", False),
    ("problems.serialize", "carasel.problems", "canonical_json", False),
    ("pipelines.run_problem", "carasel.pipelines", "run_problem", False),
    ("runtime.atom_map", "carasel.runtime", "atom_map", False),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))
# Spans whose first argument is a callback run on behalf of the caller:
# the callback's time stays with the caller, so the span's self time is
# only its own overhead.
CALLBACK_SPANS = frozenset({"runtime.atom_map"})
ROOT_SPAN = "problem"      # one per certificate; its self time is unattributed
IMPORT_SPAN = "cli.import"  # `import carasel.cli` in a traced CLI process


class _Frame:
    __slots__ = ("name", "child", "anchor")

    def __init__(self, name: str, anchor: int):
        self.name = name
        self.child = 0.0
        self.anchor = anchor  # id of this span, or of its nearest recorded ancestor


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spans: list[tuple] = []  # (name, start, end, parent id, problem id)
        self.problem = -1
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _enter(self, name: str, record: bool) -> _Frame | None:
        stack = self._stack
        if stack and stack[-1].name == name:
            return None
        if record:
            anchor = len(self.spans)
            self.spans.append(None)  # filled on exit, keeps ids in start order
        else:
            anchor = stack[-1].anchor if stack else -1
        frame = _Frame(name, anchor)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, record: bool, start: float, end: float,
              count: bool = True) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.calls[frame.name] += count
        self.self_s[frame.name] += duration - frame.child
        self.total_s[frame.name] += duration
        if stack:
            stack[-1].child += duration
        if record:
            parent = stack[-1].anchor if stack else -1
            self.spans[frame.anchor] = (frame.name, start, end, parent, self.problem)

    def span(self, name: str, fn, record: bool = True, count: bool = True):
        """Run fn() inside a span."""
        frame = self._enter(name, record)
        if frame is None:
            return fn()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._exit(frame, record, start, time.perf_counter(), count)

    def _wrapper(self, name: str, fn, record: bool):
        tracer = self

        if name in CALLBACK_SPANS:
            def traced(callback, *args, **kwargs):
                caller = tracer._stack[-1].name if tracer._stack else ROOT_SPAN

                def resumed(*a, **kw):
                    return tracer.span(caller, lambda: callback(*a, **kw),
                                       record=False, count=False)

                return tracer.span(name, lambda: fn(resumed, *args, **kwargs), record)

            traced.__wrapped__ = fn
            return traced

        def traced(*args, **kwargs):
            frame = tracer._enter(name, record)
            if frame is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, record, start, time.perf_counter())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every SPANS entry at each binding in loaded carasel modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {module_name: importlib.import_module(module_name)
                  for _, module_name, _, _ in SPANS}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "carasel" or key.startswith("carasel."))]
        for name, module_name, path, hot in SPANS:
            owner = owners[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrapper(name, raw.__func__, not hot))
                else:
                    patched = self._wrapper(name, raw, not hot)
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, patched)
                continue
            original = getattr(owner, path)
            patched = self._wrapper(name, original, not hot)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, patched)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ output

    def aggregates(self) -> dict:
        return {name: {"calls": self.calls[name], "self_s": self.self_s[name],
                       "total_s": self.total_s[name]}
                for name in sorted(self.calls)}

    def merge(self, data: dict) -> None:
        """Fold in what a traced child process wrote: its aggregates, its
        spans re-parented under the current problem, and the time its
        top-level spans covered, which is not self time of the caller."""
        for name, agg in data["aggregates"].items():
            if name != ROOT_SPAN:
                self.calls[name] += agg["calls"]
                self.total_s[name] += agg["total_s"]
            self.self_s[name] += agg["self_s"]
        if self._stack:
            self._stack[-1].child += data["covered_s"]
        offset = len(self.spans)
        anchor = self._stack[-1].anchor if self._stack else -1
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else anchor,
                               self.problem))

    def dump(self, path: Path, extra: dict | None = None) -> None:
        doc = {"aggregates": self.aggregates(), "spans": self.spans, **(extra or {})}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")

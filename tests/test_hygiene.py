"""Source hygiene that no linter enforces: every module-level import in
the package modules is used, every module-level function or class of
the package, and every method of such a class, is referenced from the
package, apart from the few kept on purpose, every defaulted
parameter of a private module-level function is passed by some package
call, every defaulted parameter of a public module-level function that
the package or the benchmark calls is passed by one of those calls (so
no option is set by tests alone), and every parameter of a package
function is read by its body.
__init__.py is skipped by the import check, since its imports
are the public API it re-exports; those re-exports do not count as
references, so a public definition that no package module calls is
flagged unless ALLOWED_UNREFERENCED lists it with its reason."""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "carasel"
BENCH = SRC.parent.parent / "bench"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# definitions the package keeps with no caller of its own, and why; in
# the order the check finds them
_SPANS = "a bench/tracer.py SPANS target, kept until ROADMAP item 1"
ALLOWED_UNREFERENCED = {
    "corr.lsc_check": "acceptance criterion C1 tests it",
    "corr.usc_check": "lsc_check's u.s.c. twin: the per-atom report of the decision "
                      "glue-usc-preserved makes for every atom at once, pinned by "
                      "tests/test_selection.py::test_usc_check_is_glue_usc_preserved_per_atom",
    "corr.k_operator": _SPANS,
    "measure.InfoPartition.trivial": "acceptance criterion C7 builds its Bayes games with it",
    "selection.grid_select": _SPANS,
    "selection.interior_series": "acceptance criterion C4 tests it",
    "selection.glue": _SPANS,
    "setops.hausdorff_dist": "acceptance criterion C2 tests it",
    "setops.convex_membership": _SPANS,
    "setops.interior_point_margin": _SPANS,
}


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source that no
    expression of the module reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """"module.name" of every module-level function or class, and
    "module.Class.name" of every method of a module-level class other
    than a dunder, of the modules in sources (module name -> source)
    that no module other than __init__ uses; in module order.  A
    module-level m.name is used by a bare name read in m itself, by
    `from .m import name` in any module, or by an attribute read
    alias.name where alias is m as bound by `from . import m`, so a
    field, attribute or local of another module that shares its name
    does not hide it.  A method is used by a read of its name as a name
    or an attribute, or an import of it, in any module."""
    defined, used, names = [], set(), set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined += [f"{module}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, functions) and not item.name.startswith("__")]
        if module == "__init__":  # a re-export is not a use
            continue
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        modules = {a.asname or a.name: a.name for node in imports
                   if node.level and node.module is None for a in node.names}
        for node in imports:
            names.update(a.name for a in node.names)
            if node.level and node.module:
                used.update(f"{node.module}.{a.name}" for a in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(f"{module}.{node.id}")
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    used.add(f"{modules[node.value.id]}.{node.attr}")
    return [name for name in defined
            if (name.rsplit(".", 1)[1] not in names if name.count(".") == 2 else name not in used)]


def _unpassed_parameters(sources: dict[str, str], callers: dict[str, str],
                         private: bool) -> list[str]:
    """"module.function.parameter" of every defaulted parameter of a
    module-level function of sources, private (one leading underscore)
    or public as asked, that no call in callers (by the function's name,
    bare or as an attribute) passes by position or by keyword; a call
    with *args or **kwargs passes every parameter.  A public function
    no caller calls is skipped.  In module order, then signature order."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    params, calls = [], defaultdict(list)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, functions) and node.name.startswith("_") == private
                    and not node.name.startswith("__")):
                a = node.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                params += [(module, node.name, i, p.arg)
                           for i, p in enumerate(positional) if i >= first]
                params += [(module, node.name, None, p.arg)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls[getattr(node.func, "id", getattr(node.func, "attr", None))].append(node)

    def passes(call, i, name):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or (i is not None and i < len(call.args))
                or any(k.arg in (None, name) for k in call.keywords))

    return [f"{m}.{fn}.{name}" for m, fn, i, name in params
            if (private or calls[fn]) and not any(passes(c, i, name) for c in calls[fn])]


def uncalled_private_parameters(sources: dict[str, str]) -> list[str]:
    """The defaulted parameters of the private module-level functions of
    sources that no call in sources passes (_unpassed_parameters)."""
    return _unpassed_parameters(sources, sources, private=True)


def unset_public_parameters(sources: dict[str, str], callers: dict[str, str]) -> list[str]:
    """The defaulted parameters of the public module-level functions of
    sources that some call in sources or callers makes, where no such
    call passes them (_unpassed_parameters): an option that only tests
    set."""
    return _unpassed_parameters(sources, {**sources, **callers}, private=False)


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """"module.qualified.name.parameter" of every parameter, other than
    self and cls, of every function of the modules in sources (module
    level, method or nested) that its body never reads; a nested
    function's defaults and decorators count as reads of the body around
    it.  In source order."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, functions):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                          if p is not None and p.arg not in ("self", "cls")]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{name}.{p}" for p in params if p not in read)
            visit(child, name if isinstance(child, (*functions, ast.ClassDef)) else prefix)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def bench_sources() -> dict[str, str]:
    """The benchmark's modules, its tests left out, keyed bench.<name>."""
    return {f"bench.{p.stem}": p.read_text(encoding="utf-8") for p in sorted(BENCH.glob("*.py"))
            if not p.name.startswith("test_")}


def test_the_check_sees_an_orphaned_import():
    src = "import os\nimport numpy as np\nfrom .setops import ConvexSet, PointSet\nnp.zeros(PointSet)\n"
    assert unused_imports(src) == ["os", "ConvexSet"]


def test_the_check_sees_an_orphaned_definition():
    sources = {
        "__init__": "from .a import Exported\n",
        "a": "class Exported:\n    pass\n\ndef helper():\n    pass\n\n"
             "def orphan():\n    helper()\n\nasync def idle():\n    pass\n",
        "b": "from . import a\n\ndef caller():\n    return a.Exported\n",
    }
    assert unreferenced_definitions(sources) == ["a.orphan", "a.idle", "b.caller"]
    # a per-hull helper with no caller in the package, put back into setops
    sources = package_sources()
    sources["setops"] += ("\n\ndef vertex_margins(c):\n"
                          "    return segment_margins(c.vertices, [[0, len(c.vertices)]])\n")
    assert unreferenced_definitions(sources) == [*ALLOWED_UNREFERENCED, "setops.vertex_margins"]


def test_a_name_shared_with_another_module_does_not_hide_a_definition():
    sources = {
        "a": "def size():\n    pass\n\ndef shape():\n    pass\n\n"
             "def width():\n    pass\n\ndef depth():\n    pass\n\nwidth()\n",
        "b": "from . import a as alias\nfrom .a import depth\n\n"
             "def run(obj, size):\n    alias.shape()\n    return obj.size, size, obj.width\n",
        "c": "from . import b\n\nb.run(None, 0)\n",
    }
    assert unreferenced_definitions(sources) == ["a.size"]
    # the domain-set helper, put back into corr: the Selection.domain field
    # and the domain locals of selection.py are not uses of it
    sources = package_sources()
    sources["corr"] += ("\n\ndef domain(psi):\n"
                        "    return frozenset(map(tuple, np.argwhere(psi.counts).tolist()))\n")
    assert "domain" in sources["selection"]
    allowed = list(ALLOWED_UNREFERENCED)
    assert unreferenced_definitions(sources) == [*allowed[:3], "corr.domain", *allowed[3:]]


def test_the_check_sees_a_definition_that_is_only_reexported():
    sources = {
        "__init__": "from .a import Called, exported\n",
        "a": "class Called:\n    pass\n\ndef exported():\n    pass\n",
        "b": "from .a import Called\n",
    }
    assert unreferenced_definitions(sources) == ["a.exported"]
    # the polytope Hausdorff distance, put back into setops and re-exported
    sources = package_sources()
    sources["setops"] += ("\n\ndef convex_hausdorff_dist(a, b):\n"
                          "    return max(convex_distance(a.vertices, b).max(),\n"
                          "               convex_distance(b.vertices, a).max())\n")
    sources["__init__"] = sources["__init__"].replace(
        "    convex_project,\n", "    convex_hausdorff_dist,\n    convex_project,\n", 1)
    assert "convex_hausdorff_dist" in sources["__init__"]
    assert unreferenced_definitions(sources) == [*ALLOWED_UNREFERENCED,
                                                 "setops.convex_hausdorff_dist"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_orphaned_method():
    sources = {"a": "class A:\n    def __len__(self):\n        return 0\n\n"
                    "    def used(self):\n        return self.idle\n\n"
                    "    @property\n    def idle(self):\n        pass\n\n"
                    "    def orphan(self):\n        pass\n\nA().used()\n"}
    assert unreferenced_definitions(sources) == ["a.A.orphan"]
    # a per-cell accessor with no caller in the package, put back into Corr
    sources = package_sources()
    sources["corr"] = sources["corr"].replace(
        "    def interior_cells(", "    def nonempty_at(self, t, z):\n"
        "        return bool(self.counts[t, z])\n\n    def interior_cells(", 1)
    assert unreferenced_definitions(sources) == ["corr.Corr.nonempty_at", *ALLOWED_UNREFERENCED]


def test_no_unreferenced_module_level_definition():
    assert unreferenced_definitions(package_sources()) == [*ALLOWED_UNREFERENCED]


def test_the_check_sees_a_private_parameter_without_a_caller():
    sources = {
        "a": "def _pos(x, tol=1.0, k=2):\n    pass\n\n"
             "def _kw(x, *, mode='a', strict=False):\n    pass\n\n"
             "def _star(x, y=0):\n    pass\n\n"
             "def public(x, tol=1.0):\n    pass\n\n"
             "def __getattr__(name, default=None):\n    pass\n",
        "b": "from . import a\n\ndef run(args):\n"
             "    a._pos(1, 0.5)\n    a._kw(1, strict=True)\n    a._star(*args)\n",
    }
    assert uncalled_private_parameters(sources) == ["a._pos.k", "a._kw.mode"]
    # the spot check's trial count, put back as a parameter no call sets
    sources = package_sources()
    sources["equilibria"] = sources["equilibria"].replace(
        "def _spot_check_quasiconcavity(g: GameSpec, seed: int)",
        "def _spot_check_quasiconcavity(g: GameSpec, seed: int, trials: int = 20)", 1)
    assert uncalled_private_parameters(sources) == ["equilibria._spot_check_quasiconcavity.trials"]


def test_no_private_parameter_without_a_caller():
    assert uncalled_private_parameters(package_sources()) == []


def test_the_check_sees_a_public_option_only_tests_set():
    sources = {
        "a": "def solve(x, tol=1.0, k=2, mode='a'):\n    pass\n\n"
             "def idle(x, tol=1.0):\n    pass\n\n"
             "def star(x, y=0):\n    pass\n\n"
             "def _helper(x, y=0):\n    pass\n",
        "b": "from . import a\n\ndef run(args):\n"
             "    a.solve(1, 0.5)\n    a.star(*args)\n    a._helper(1)\n",
    }
    callers = {"bench.run": "import a\n\na.solve(1, k=3)\n"}
    assert unset_public_parameters(sources, callers) == ["a.solve.mode"]
    # the selection switch only tests turned off, put back on maximal_element
    sources = package_sources()
    sources["equilibria"] = sources["equilibria"].replace(
        "    part: InfoPartition,\n) -> MaximalResult:",
        "    part: InfoPartition,\n    run_selection: bool = True,\n) -> MaximalResult:", 1)
    assert unset_public_parameters(sources, bench_sources()) == \
        ["equilibria.maximal_element.run_selection"]


def test_no_public_option_only_tests_set():
    assert unset_public_parameters(package_sources(), bench_sources()) == []


def test_the_check_sees_an_unread_parameter():
    sources = {"a": "def f(x, y, *args, k=1, **kw):\n    return x + k\n\n"
                    "class A:\n    def m(self, used, idle):\n        return used\n\n"
                    "    @classmethod\n    def c(cls, v):\n        pass\n\n"
                    "def outer(n, d, unused):\n"
                    "    def inner(t, _d=d):\n        return n * _d\n    return inner\n"}
    assert unread_parameters(sources) == ["a.f.y", "a.f.args", "a.f.kw", "a.A.m.idle",
                                          "a.A.c.v", "a.outer.unused", "a.outer.inner.t"]
    # the player index the payoff parser took and never read, put back
    sources = package_sources()
    sources["problems"] = sources["problems"].replace(
        "def _payoff_from_spec(spec: dict, space: AtomSpace, grids, own_slice)",
        "def _payoff_from_spec(spec: dict, space: AtomSpace, grids, i: int, own_slice)", 1)
    assert unread_parameters(sources) == ["problems._payoff_from_spec.i"]


def test_no_unread_parameter():
    assert unread_parameters(package_sources()) == []


def test_declared_numpy_floor_has_vecdot():
    """The package calls np.vecdot (in caratheodory_select and in every
    random_equilibrium), which NumPy added in 2.0, so pyproject.toml must
    not admit an older numpy."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    floor, = (dep.split(">=")[1] for dep in project["dependencies"] if dep.startswith("numpy"))
    assert tuple(map(int, floor.split("."))) >= (2, 0)

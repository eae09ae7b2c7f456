"""Source hygiene that no linter enforces: every module-level import in
the package modules is used, and every module-level function or class
of the package, and every method of such a class, is referenced from
the package, apart from the few kept on purpose.  __init__.py is
skipped by the import check, since its imports are the public API it
re-exports; those re-exports count as references."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "carasel"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# definitions the package keeps with no caller of its own, and why
ALLOWED_UNREFERENCED = {
    "measure.InfoPartition.trivial": "the coarsest partition, a paper object the tests build with",
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
    whose name no module reads, as a name or an attribute, or imports;
    in module order."""
    defined, used = [], set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined += [f"{module}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, functions) and not item.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return [name for name in defined if name.rsplit(".", 1)[1] not in used]


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


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
        "    def t_section(", "    def nonempty_at(self, t, z):\n"
        "        return bool(self.counts[t, z])\n\n    def t_section(", 1)
    assert unreferenced_definitions(sources) == ["corr.Corr.nonempty_at", *ALLOWED_UNREFERENCED]


def test_no_unreferenced_module_level_definition():
    assert unreferenced_definitions(package_sources()) == [*ALLOWED_UNREFERENCED]

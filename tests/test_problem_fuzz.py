"""Type fuzz of the problem reader: single- and two-leaf mutations of small
problem documents, each run through carasel.cli.main in-process.

Every run exits in {0, ..., 4} without raising.  Exits 2 (parse error)
and 3 (precondition violated) write no certificate, as carasel run
documents, and every other exit writes one.  A mutation that changes a
leaf's JSON type exits 2, except a JSON integer where a number is
expected, which is a number.  The leaves named `node`, `dim`, `seed`,
`k_max` and `restarts` are integers, so a float there (3.0 too) is a type
change; the `eps` and `mode` options accept null, meaning their default.
Leaves are drawn by their path with list indices blanked, so the few
option and game leaves are drawn as often as the many vertex coordinates.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carasel.cli import main
from test_cli import DOCS, _fixpoint_problem

INTEGER_KEYS = {"node", "dim", "seed", "k_max", "restarts"}
NULLABLE_OPTIONS = {"eps", "mode"}


def _nash_problem() -> dict:
    """Two players on three-point lines, a quad_own and a table payoff."""
    points = [[0.0], [0.5], [1.0]]
    return {
        "kind": "nash",
        "options": {"eps_eq": 0.01, "seed": 0, "strict_margin": 0.0},
        "space": {"atoms": ["w1", "w2"], "weights": [0.5, 0.5]},
        "partition": [["w1"], ["w2"]],
        "game": {
            "players": ["p1", "p2"],
            "grids": [{"points": points, "mesh": 0.5}, {"points": points}],
            "payoffs": [
                {"form": "quad_own", "center": {"w1": [0.0], "w2": [1.0]}, "weight": 1.0},
                {"form": "table", "values": {"w1": [0.0, 1.0, 2.0] * 3, "w2": [2.0, 1.0, 0.0] * 3}},
            ],
            "concave": [True, False],
        },
    }


def _maximal_problem() -> dict:
    """One atom on five nodes of [0, 1], each node's value the nodes above
    it (the chain, top node 1.0), with every option set."""
    points = [[z / 4] for z in range(5)]
    return {
        "kind": "maximal",
        "options": {"tol": 1e-7, "inclusion_tol": 1e-9, "eps": 0.5, "eps_eq": 1e-6, "seed": 0,
                    "mode": "atomic", "strict_cip": False, "closed_valued": False, "k_max": 10,
                    "restarts": 2, "strict_margin": 0.0},
        "dim": 1,
        "space": {"atoms": ["w"], "weights": [1.0]},
        "grid": {"points": points, "mesh": 0.25, "adjacency_radius": 0.5},
        "correspondence": [{"atom": "w", "node": z, "vertices": points[z + 1:]} for z in range(5)],
        "witness": "canonical",
    }


DOCUMENTS = {
    **{name: json.loads((DOCS / f"{name}.json").read_text())
       for name in ("example-3-2", "lsc-canonical", "quadratic-bayes")},
    "fixpoint": _fixpoint_problem([[z / 10] for z in range(11)], lambda x: [x[0] / 2]),
    "nash": _nash_problem(),
    "maximal": _maximal_problem(),
}


def _leaves(node, path=()):
    """(path, value) of every leaf of a JSON document: each value that is
    neither an object nor an array."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path, node


def _by_pattern(doc) -> list:
    """The leaves of doc grouped by path with list indices blanked, as a
    sorted list of leaf lists."""
    groups = {}
    for path, value in _leaves(doc):
        pattern = tuple("*" if isinstance(k, int) else k for k in path)
        groups.setdefault(pattern, []).append((path, value))
    return [groups[p] for p in sorted(groups, key=repr)]


LEAVES = {name: _by_pattern(doc) for name, doc in DOCUMENTS.items()}


def _replacements(path, value) -> list:
    """(replacement, changes the JSON type) for one leaf."""
    nullable = path[0] == "options" and path[-1] in NULLABLE_OPTIONS
    same = []
    if isinstance(value, bool):
        others = (0, 1.0, "true", [value], {})
    elif isinstance(value, int) and path[-1] in INTEGER_KEYS:
        others = (value + 0.5, float(value), str(value), True, [value], {})
    elif isinstance(value, (int, float)):
        others = (str(value), False, [value], {})
        same = [(int(value) if isinstance(value, float) else float(value), False)]
    else:
        others = (1, 1.5, True, [value], {})
    return [(None, not nullable)] + [(v, True) for v in others] + same


def _set(doc, path, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@st.composite
def mutations(draw, n_leaves: int):
    """(document name, ((path, replacement, changes the JSON type), ...))
    for n_leaves distinct leaves of one document."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    picked = []
    for _ in range(n_leaves):
        taken = {path for path, _, _ in picked}
        groups = [g for g in ([leaf for leaf in group if leaf[0] not in taken]
                              for group in LEAVES[name]) if g]
        path, value = draw(st.sampled_from(draw(st.sampled_from(groups))))
        picked.append((path, *draw(st.sampled_from(_replacements(path, value)))))
    return name, tuple(picked)


def _run(doc) -> tuple[int, bool]:
    """carasel run on doc: the exit code and whether a certificate was
    written."""
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "problem.json"
        problem.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(problem)])
        return code, (Path(tmp) / "problem.cert.json").exists()


def _check(case) -> None:
    name, picked = case
    doc = copy.deepcopy(DOCUMENTS[name])
    for path, value, _ in picked:
        _set(doc, path, value)
    code, written = _run(doc)
    assert code in range(5)
    assert written == (code not in (2, 3))
    if any(changes for _, _, changes in picked):
        assert code == 2


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                suppress_health_check=[HealthCheck.too_slow])


def test_unmutated_documents_certify():
    for name, doc in DOCUMENTS.items():
        assert _run(doc) == (0, True), name


@FUZZ
@given(mutations(1))
def test_single_leaf_mutation(case):
    _check(case)


@FUZZ
@given(mutations(2))
def test_two_leaf_mutation(case):
    _check(case)

"""Problem-file round trips, pipeline dispatch, exit codes, reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import QhullError

import carasel.corr
import carasel.pipelines
from carasel import __version__
from carasel.cli import main
from carasel.problems import (build_correspondence, build_grid, build_space, canonical_json,
                              parse_problem, problem_hash)
from carasel.errors import ParseError

DOCS = Path(__file__).resolve().parent.parent / "docs"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = ["example-3-2.json", "lsc-canonical.json", "quadratic-bayes.json"]


def run_fixture(tmp_path, name, *args):
    src = (DOCS / name).read_text()
    problem = tmp_path / name
    problem.write_text(src)
    code = main(["run", str(problem), *args])
    stem = name[: -len(".json")]
    cert_path = tmp_path / f"{stem}.cert.json"
    cert = json.loads(cert_path.read_text()) if cert_path.exists() else None
    return code, cert, cert_path


def test_jump_fixture_selects_zero(tmp_path):
    code, cert, _ = run_fixture(tmp_path, "example-3-2.json")
    assert code == 0
    assert cert["status"] == "ok"
    values = [rec["value"] for rec in cert["outputs"]["selection"]]
    assert all(v == [0.0] for v in values)
    assert cert["outputs"]["modulus"] == 0.0
    assert cert["outputs"]["membership_residual"] == 0.0


def test_canonical_witness_fixture_ok(tmp_path):
    code, cert, _ = run_fixture(tmp_path, "lsc-canonical.json")
    assert code == 0
    assert cert["status"] == "ok"
    assert cert["kind"] == "cip-check"


def test_bayes_fixture_mean_minimizer(tmp_path):
    code, cert, _ = run_fixture(tmp_path, "quadratic-bayes.json")
    assert code == 0
    for rec in cert["outputs"]["profile"]:
        assert rec["value"] == [0.5, 0.5]


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "select",')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_section_exit_2(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"kind": "select", "space": {"atoms": ["a"], "weights": [1.0]}}))
    assert main(["run", str(p)]) == 2


def test_unknown_kind_exit_2(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"kind": "solve-everything"}))
    assert main(["run", str(p)]) == 2


def test_precondition_violation_exit_3(tmp_path):
    # witness local escapes the table: inclusion verification fails, so
    # the selection pipeline refuses to run
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    doc["witness"]["locals"]["shared"] = [
        {"atom": a, "node": z, "vertices": [[5.0]]}
        for a in doc["space"]["atoms"] for z in range(21)
    ]
    p = tmp_path / "bad-witness.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 3


def test_no_certificate_exit_4(tmp_path):
    nodes = [round(x, 10) for x in np.linspace(0.0, 1.0, 6)]
    doc = {
        "kind": "fixpoint",
        "options": {"tol": 1e-6, "eps": 0.5},
        "dim": 1,
        "space": {"atoms": ["a"], "weights": [1.0]},
        "grid": {"points": [[x] for x in nodes]},
        "correspondence": [
            {"atom": "a", "node": i, "vertices": [[round(x + 0.5, 10)]]}
            for i, x in enumerate(nodes)
        ],
        "witness": "canonical",
    }
    p = tmp_path / "drift.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 4
    cert = json.loads((tmp_path / "drift.cert.json").read_text())
    assert cert["status"] == "no-certificate"
    assert cert["outputs"]["best_residual"] >= 0.1
    assert cert["kind"] == "fixpoint"
    prov = cert["provenance"]
    assert prov["input_sha256"] == problem_hash(doc)
    assert prov["seed"] == 0
    assert prov["version"] == __version__


@pytest.mark.parametrize("fixture, step, error", [
    ("lsc-canonical.json", "cip_verify", QhullError("QH6154 initial simplex is flat")),
    ("example-3-2.json", "caratheodory_select", np.linalg.LinAlgError("SVD did not converge")),
])
def test_numerical_failure_exit_4(tmp_path, monkeypatch, fixture, step, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(carasel.pipelines, step, fail)
    code, cert, _ = run_fixture(tmp_path, fixture)
    assert code == 4
    assert cert["status"] == "no-certificate"
    assert cert["outputs"]["error"] == f"{type(error).__name__}: {error}"
    assert cert["kind"] == json.loads((DOCS / fixture).read_text())["kind"]
    assert cert["provenance"]["version"] == __version__


def test_nan_witness_radius_exit_2(tmp_path, capsys):
    # a NaN ball captures nothing, so every check would pass vacuously
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    doc["kind"] = "cip-check"
    doc["witness"]["radii"] = {"default": float("nan")}
    p = tmp_path / "nan-radius.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    assert "witness radii 'default' must be a number, got nan" in capsys.readouterr().err
    assert not (tmp_path / "nan-radius.cert.json").exists()


def test_null_grid_point_exit_2(tmp_path, capsys):
    # null is not a number; read as a NaN node with a mesh given it used to
    # build, and as it has no neighbours every check at it passed
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    doc["grid"]["points"][3] = [None]
    p = tmp_path / "null-point.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    assert "grid point 3 must be an array of numbers, got [None]" in capsys.readouterr().err
    assert not (tmp_path / "null-point.cert.json").exists()


def _set_radius_default(value):
    def edit(doc):
        doc["witness"]["radii"] = {"default": value}
    return edit


def _set_radius_entry(value):
    def edit(doc):
        doc["witness"]["radii"]["entries"] = [{"atom": "t1", "node": 3, "r": value}]
    return edit


def _set_vertex(where, value):
    def edit(doc):
        records = doc["correspondence"] if where == "correspondence" else \
            doc["witness"]["locals"]["shared"]
        records[3]["vertices"] = [[value]]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set_radius_default(True), "witness radii 'default' must be a number, got True"),
    (_set_radius_entry(True), "radius entry 0 (atom 't1', node 3): 'r' must be a number, got True"),
    (_set_vertex("correspondence", True),
     "record 3 (atom 't1', node 3): vertex coordinates must be numbers, got True"),
    (_set_vertex("locals", False),
     "record 3 (atom 't1', node 3): vertex coordinates must be numbers, got False"),
    (_set_vertex("correspondence", [[1.0]]),
     "record 3 (atom 't1', node 3): vertex coordinates must be numbers, got [[1.0]]"),
], ids=["radius-default", "radius-entry", "vertex", "local-vertex", "vertex-nested"])
def test_boolean_number_exit_2(tmp_path, capsys, edit, message):
    # float() read true as 1.0: the radii certified ok with radius 1, and
    # the vertex [[true]] was the point 1.0 and ended in exit 3
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    edit(doc)
    p = tmp_path / "bool-number.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bool-number.cert.json").exists()


def _set_leaf(*path_value):
    def edit(doc):
        *path, key, value = path_value
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def _with_metric(value):
    def edit(doc):
        # the grid's own distances as a metric, entry (0, 0) replaced
        points = doc["grid"]["points"]
        doc["grid"]["metric"] = [[abs(a[0] - b[0]) for b in points] for a in points]
        doc["grid"]["metric"][0][0] = value
    return edit


def _with_table_payoff(value):
    def edit(doc):
        # player 2 paid by a table, its first value at atom w1 replaced
        doc["game"]["payoffs"][1] = {"form": "table",
                                     "values": {"w1": [value] + [0.0] * 120, "w2": [0.0] * 121}}
    return edit


def _with_box_lo(value):
    def edit(doc):
        _indexed_box(1)(doc["witness"], doc["witness"]["locals"]["shared"])
        doc["witness"]["box"]["lo"] = value
        doc["options"]["mode"] = "indexed"
    return edit


@pytest.mark.parametrize("fixture, edit, message", [
    ("example-3-2.json", _set_leaf("grid", "points", 3, [True]),
     "grid point 3 must be an array of numbers, got [True]"),
    ("example-3-2.json", _set_leaf("grid", "mesh", True), "grid 'mesh' must be a number, got True"),
    ("example-3-2.json", _set_leaf("grid", "adjacency_radius", True),
     "grid 'adjacency_radius' must be a number, got True"),
    ("example-3-2.json", _set_leaf("space", "weights", 0, True),
     "space weight 0 must be a number, got True"),
    ("example-3-2.json", _set_leaf("dim", True), "dim True is not an integer"),
    ("quadratic-bayes.json", _set_leaf("game", "grids", 0, "points", 2, [False]),
     "grid point 2 must be an array of numbers, got [False]"),
    ("quadratic-bayes.json", _set_leaf("game", "concave", 0, "x"),
     "game 'concave' entry 0 must be true or false, got 'x'"),
    ("quadratic-bayes.json", _set_leaf("game", "concave", 1, 1.0),
     "game 'concave' entry 1 must be true or false, got 1.0"),
    ("quadratic-bayes.json", _set_leaf("priors", 1, "uniform", -1),
     "priors[1] 'uniform' must be true or false, got -1"),
    ("quadratic-bayes.json", _set_leaf("game", "players", 0, True),
     "player 0 must be a non-empty string, got True"),
    ("quadratic-bayes.json", _set_leaf("game", "players", 1, []),
     "player 1 must be a non-empty string, got []"),
    ("quadratic-bayes.json", _set_leaf("game", "players", 1, ""),
     "player 1 must be a non-empty string, got ''"),
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 0, "weight", False),
     "quad_own 'weight' must be a number, got False"),
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 0, "center", "w2", [True]),
     "quad_own center 'w2' must be an array of 1 numbers, got [True]"),
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 1, "center", "w1", [[1.0]]),
     "quad_own center 'w1' must be an array of 1 numbers, got [[1.0]]"),
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 0, "x"),
     "'str' object has no attribute 'get'"),
    ("quadratic-bayes.json", _set_leaf("priors", 0, [1]), "'list' object has no attribute 'get'"),
    # the rows below exited 0, or 3 for a null centre or table value: a
    # numeric string, a boolean or a null read as a number, and int()
    # truncated a float integer
    ("example-3-2.json", _set_leaf("dim", 1.5), "dim 1.5 is not an integer"),
    ("example-3-2.json", _set_leaf("dim", "1"), "dim '1' is not an integer"),
    ("example-3-2.json", _set_leaf("grid", "mesh", "0.1"),
     "grid 'mesh' must be a number, got '0.1'"),
    ("example-3-2.json", _set_leaf("grid", "adjacency_radius", "0.2"),
     "grid 'adjacency_radius' must be a number, got '0.2'"),
    ("example-3-2.json", _set_leaf("grid", "points", 3, ["-0.7"]),
     "grid point 3 must be an array of numbers, got ['-0.7']"),
    ("example-3-2.json", _set_leaf("space", "weights", 0, "1"),
     "space weight 0 must be a number, got '1'"),
    ("example-3-2.json", _set_vertex("correspondence", "0.0"),
     "record 3 (atom 't1', node 3): vertex coordinates must be numbers, got '0.0'"),
    ("example-3-2.json", _set_vertex("locals", "0.0"),
     "record 3 (atom 't1', node 3): vertex coordinates must be numbers, got '0.0'"),
    ("example-3-2.json", _set_radius_default("0.5"),
     "witness radii 'default' must be a number, got '0.5'"),
    ("example-3-2.json", _set_radius_entry("0.5"),
     "radius entry 0 (atom 't1', node 3): 'r' must be a number, got '0.5'"),
    ("example-3-2.json",
     _set_leaf("witness", "radii", "entries", [{"atom": "t1", "node": True, "r": 1.0}]),
     "radius entry 0 (atom 't1'): node True is not an integer"),
    ("example-3-2.json", _with_box_lo(["-1"]),
     "witness box 'lo' must be an array of numbers, got ['-1']"),
    ("example-3-2.json", _with_box_lo([None]),
     "witness box 'lo' must be an array of numbers, got [None]"),
    ("example-3-2.json", _set_leaf("options", "tol", "1e-7"),
     "option 'tol' must be a number, got '1e-7'"),
    ("example-3-2.json", _set_leaf("options", "inclusion_tol", "1e-9"),
     "option 'inclusion_tol' must be a number, got '1e-9'"),
    ("example-3-2.json", _set_leaf("options", "eps", "0.1"),
     "option 'eps' must be a number, got '0.1'"),
    ("example-3-2.json", _set_leaf("options", "seed", 1.5), "option 'seed' 1.5 is not an integer"),
    ("example-3-2.json", _set_leaf("options", "seed", "0"), "option 'seed' '0' is not an integer"),
    ("lsc-canonical.json", _with_metric(False), "grid 'metric' entries must be numbers, got False"),
    ("quadratic-bayes.json", _set_leaf("game", "grids", 0, "mesh", "0.1"),
     "grid 'mesh' must be a number, got '0.1'"),
    ("quadratic-bayes.json", _set_leaf("game", "grids", 0, "points", 2, ["0.2"]),
     "grid point 2 must be an array of numbers, got ['0.2']"),
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 0, "weight", "1.0"),
     "quad_own 'weight' must be a number, got '1.0'"),
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 0, "center", "w1", [None]),
     "quad_own center 'w1' must be an array of 1 numbers, got [None]"),
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 1, "center", "w2", ["1.0"]),
     "quad_own center 'w2' must be an array of 1 numbers, got ['1.0']"),
    ("quadratic-bayes.json", _with_table_payoff(True),
     "table payoff values 'w1' must be an array of 121 numbers, got [True, "),
    ("quadratic-bayes.json", _with_table_payoff(None),
     "table payoff values 'w1' must be an array of 121 numbers, got [None, "),
    ("quadratic-bayes.json", _with_table_payoff("1"),
     "table payoff values 'w1' must be an array of 121 numbers, got ['1', "),
    ("quadratic-bayes.json", _set_leaf("priors", 0, {"density": [True, True]}),
     "priors[0] 'density' must be an array of numbers, got [True, True]"),
    ("quadratic-bayes.json", _set_leaf("priors", 1, {"density": ["1", "1"]}),
     "priors[1] 'density' must be an array of numbers, got ['1', '1']"),
    ("quadratic-bayes.json", _set_leaf("options", "eps_eq", "0.01"),
     "option 'eps_eq' must be a number, got '0.01'"),
    ("quadratic-bayes.json", _set_leaf("options", "strict_margin", "0.0"),
     "option 'strict_margin' must be a number, got '0.0'"),
    # a centre longer than the player's 1-D strategies broadcast into a
    # payoff the file did not state, and certified ok
    ("quadratic-bayes.json", _set_leaf("game", "payoffs", 0, "center", "w1", [0.0, 1.0]),
     "quad_own center 'w1' must be an array of 1 numbers, got [0.0, 1.0]"),
    # a repeated grid node read 0 from its twin and certified ok
    ("example-3-2.json", _set_leaf("grid", "points", 3, [-0.8]), "grid points must be distinct"),
    ("quadratic-bayes.json", _set_leaf("game", "grids", 0, "points", 2, [0.1 + 1e-13]),
     "grid points must be distinct"),
], ids=["grid-point", "mesh", "adjacency-radius", "space-weight", "dim", "game-grid-point",
        "concave-string", "concave-number", "uniform-number", "player-true", "player-list",
        "player-empty", "quad-weight", "quad-center-true", "quad-center-nested",
        "payoff-not-object", "prior-not-object",
        "dim-float", "dim-string", "mesh-string", "adjacency-radius-string", "grid-point-string",
        "space-weight-string", "vertex-string", "local-vertex-string", "radius-default-string",
        "radius-entry-string", "radius-entry-node-true", "box-lo-string", "box-lo-null",
        "option-tol-string", "option-inclusion-tol-string", "option-eps-string",
        "option-seed-float", "option-seed-string", "metric-false",
        "game-mesh-string", "game-grid-point-string", "quad-weight-string", "quad-center-null",
        "quad-center-string", "table-value-true", "table-value-null", "table-value-string",
        "density-true", "density-string", "option-eps-eq-string", "option-strict-margin-string",
        "quad-center-length", "grid-point-repeated", "game-grid-point-repeated"])
def test_wrong_json_type_exit_2(tmp_path, capsys, fixture, edit, message):
    # each of these used to read as a number, a flag or a name and certify
    # ok, or (a payoff or prior that is not an object) end in a traceback
    doc = json.loads((DOCS / fixture).read_text())
    edit(doc)
    p = tmp_path / "wrong-type.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "wrong-type.cert.json").exists()


def _malformed_witness(edit) -> dict:
    """example-3-2 with its witness section edited in place, verified in
    the witness's own mode."""
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    edit(doc["witness"], doc["witness"]["locals"]["shared"])
    doc["options"]["mode"] = doc["witness"]["mode"]
    return doc


def _extra_radius(node):
    def edit(w, shared):
        w["radii"]["entries"] = [{"atom": "t1", "node": node, "r": 1.0}]
    return edit


def _countable_local(key):
    def edit(w, shared):
        w["mode"] = "countable"
        w["locals"] = {key: shared, "default": shared}
    return edit


def _radius_twice(w, shared):
    w["radii"]["entries"] = [{"atom": "t1", "node": 3, "r": 0.5},
                             {"atom": "t1", "node": 3, "r": 9.0}]


def _indexed_box(dim):
    def edit(w, shared):
        w["mode"] = "indexed"
        w["locals"] = {"default": shared}
        w["box"] = {"lo": [-1.0] * dim, "hi": [1.0] * dim}
    return edit


@pytest.mark.parametrize("edit, message", [
    (_extra_radius(999), "witness radius key (0, 999) is not an (atom, node) index pair"),
    (_extra_radius(-3), "witness radius key (0, -3) is not an (atom, node) index pair"),
    (_extra_radius(2.5), "radius entry 0 (atom 't1'): node 2.5 is not an integer"),
    (_countable_local("99"), "witness local key 99 is not a node index in [0, 21)"),
    (_countable_local("-1"), "witness local key -1 is not a node index in [0, 21)"),
    (_indexed_box(3), "box has dim 3, the locals have dim 1"),
    # the last of two radius entries used to win, and int() read all of
    # these keys as node 1
    (_radius_twice, "radius entries 0 and 1 both give atom 't1', node 3"),
    (_countable_local("01"), "witness local key '01' is not written as '1'"),
    (_countable_local(" 1"), "witness local key ' 1' is not written as '1'"),
    (_countable_local("+1"), "witness local key '+1' is not written as '1'"),
], ids=["radius-node-999", "radius-node-minus-3", "radius-node-2.5", "local-99", "local-minus-1",
        "box-3d", "radius-twice", "local-01", "local-space-1", "local-plus-1"])
def test_malformed_witness_exit_2(tmp_path, capsys, edit, message):
    # each of these used to certify ok or end in a traceback
    p = tmp_path / "bad-witness.json"
    p.write_text(json.dumps(_malformed_witness(edit)))
    assert main(["run", str(p)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad-witness.cert.json").exists()


@pytest.mark.parametrize("node", [3.7, 3.0, "3", True], ids=["3.7", "3.0", "string", "true"])
def test_non_integer_correspondence_node_exit_2(tmp_path, capsys, node):
    # int() used to read "node": 3.7 as node 3 and certify ok
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    assert doc["correspondence"][3]["node"] == 3
    doc["correspondence"][3]["node"] = node
    p = tmp_path / "bad-node.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    assert f"record 3 (atom 't1'): node {node!r} is not an integer" in capsys.readouterr().err
    assert not (tmp_path / "bad-node.cert.json").exists()


def _vertices_doc(dim, vertices) -> dict:
    """example-3-2 read in R^dim (every vertex padded with zeros), with
    record 3's vertices replaced."""
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    doc["dim"] = dim
    for rec in doc["correspondence"] + doc["witness"]["locals"]["shared"]:
        rec["vertices"] = [v + [0.0] * (dim - 1) for v in rec["vertices"]]
    doc["correspondence"][3]["vertices"] = vertices
    return doc


@pytest.mark.parametrize("dim, vertices", [
    (1, [[0.0, 5.0]]), (1, [0.0, 5.0]), (1, 3.0), (1, 0), (2, [[0.0], [1.0]]),
], ids=["two-wide-row", "flat-list", "scalar", "zero", "dim-2-columns"])
def test_malformed_vertices_exit_2(tmp_path, capsys, dim, vertices):
    # a reshape used to read the first two as the points {0, 5}, 3.0 as one
    # point, 0 as the empty value and the last as the single point (0, 1)
    p = tmp_path / "bad-vertices.json"
    p.write_text(json.dumps(_vertices_doc(dim, vertices)))
    assert main(["run", str(p)]) == 2
    assert (f"record 3 (atom 't1', node 3): vertices must be a list of {dim}-vectors"
            in capsys.readouterr().err)
    assert not (tmp_path / "bad-vertices.cert.json").exists()


def test_empty_vertices_list_is_the_empty_value():
    doc = _vertices_doc(1, [])
    space = build_space(doc)
    psi = build_correspondence(doc, space, build_grid(doc))
    assert psi.counts[space.index_of("t1"), 3] == 0 and psi.counts[space.index_of("t1"), 2] == 1


@pytest.mark.parametrize("front", [True, False], ids=["front", "back"])
@pytest.mark.parametrize("where", ["correspondence", "locals"])
def test_duplicate_record_exit_2(tmp_path, capsys, where, front):
    # the last record of a cell used to win silently, so the copy below
    # certified ok at the front of the correspondence and failed at its back
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    records = doc["correspondence"] if where == "correspondence" else \
        doc["witness"]["locals"]["shared"]
    assert records[3] == {"atom": "t1", "node": 3, "vertices": [[0.0]]}
    copy = dict(records[3], vertices=[[5.0]])
    if front:
        records.insert(0, copy)
        pair = (0, 4)
    else:
        records.append(copy)
        pair = (3, len(records) - 1)
    p = tmp_path / "duplicate.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2
    assert f"records {pair[0]} and {pair[1]} both give atom 't1', node 3" in capsys.readouterr().err
    assert not (tmp_path / "duplicate.cert.json").exists()


def test_valid_witness_variants_still_certify(tmp_path):
    for name, edit in (("radius", _extra_radius(20)), ("local", _countable_local("20")),
                       ("box", _indexed_box(1))):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(_malformed_witness(edit)))
        assert main(["run", str(p)]) == 0
        assert json.loads((tmp_path / f"{name}.cert.json").read_text())["status"] == "ok"


def test_failed_checks_exit_1(tmp_path):
    # cip-check on the jump table with the table as its own witness:
    # the l.s.c. check fails, the certificate records it
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    doc["kind"] = "cip-check"
    doc["witness"] = "canonical"
    doc["options"] = {"eps": 0.1, "mode": "atomic"}
    p = tmp_path / "jump-canonical.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 1
    cert = json.loads((tmp_path / "jump-canonical.cert.json").read_text())
    assert cert["status"] == "failed"
    checks = {c["name"]: c for c in cert["checks"]}
    assert not checks["cip-lsc"]["pass"]


def test_report_row_count_and_footer(tmp_path, capsys):
    code, cert, cert_path = run_fixture(tmp_path, "example-3-2.json")
    capsys.readouterr()
    assert main(["report", str(cert_path)]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if " pass" in l or " FAIL" in l]
    assert len(rows) == len(cert["checks"])
    assert out.strip().endswith("ALL CHECKS PASSED")


def test_report_prints_provenance(tmp_path, capsys):
    code, cert, cert_path = run_fixture(tmp_path, "lsc-canonical.json", "--seed", "7")
    capsys.readouterr()
    assert main(["report", str(cert_path)]) == 0
    out = capsys.readouterr().out
    prov = cert["provenance"]
    assert f"input sha256: {prov['input_sha256']}" in out
    assert "seed: 7" in out
    assert f"version: {__version__}" in out


def test_report_failing_first(tmp_path, capsys):
    doc = json.loads((DOCS / "example-3-2.json").read_text())
    doc["kind"] = "cip-check"
    doc["witness"] = "canonical"
    doc["options"] = {"eps": 0.1, "mode": "atomic"}
    p = tmp_path / "jump-canonical.json"
    p.write_text(json.dumps(doc))
    main(["run", str(p)])
    capsys.readouterr()
    main(["report", str(tmp_path / "jump-canonical.cert.json")])
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.strip().startswith("cip-")]
    assert "FAIL" in rows[0]
    assert not out.strip().endswith("ALL CHECKS PASSED")


def test_report_missing_file_exit_2(capsys):
    assert main(["report", "/nonexistent/cert.json"]) == 2


@pytest.mark.parametrize("mangle", [
    lambda cert: [1, 2],
    lambda cert: {**cert, "checks": [{**cert["checks"][0], "residual": "small"}]},
    lambda cert: {**cert, "checks": {"cip-lsc": 0.0}},
    lambda cert: {**cert, "outputs": [1]},
], ids=["array", "text-residual", "checks-object", "outputs-list"])
def test_report_malformed_certificate_exit_2(tmp_path, capsys, mangle):
    _, cert, cert_path = run_fixture(tmp_path, "example-3-2.json")
    cert_path.write_text(json.dumps(mangle(cert)))
    capsys.readouterr()
    assert main(["report", str(cert_path)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_roundtrip_idempotent():
    for name in FIXTURES:
        text = (DOCS / name).read_text()
        once = canonical_json(parse_problem(text))
        twice = canonical_json(parse_problem(once))
        assert once == twice


def test_determinism_modulo_timestamp(tmp_path):
    # run each fixture twice in separate directories
    for name in FIXTURES:
        d1, d2 = tmp_path / "one", tmp_path / "two"
        d1.mkdir(exist_ok=True), d2.mkdir(exist_ok=True)
        _, c1, _ = run_fixture(d1, name, "--seed", "0")
        _, c2, _ = run_fixture(d2, name, "--seed", "0")
        c1["provenance"].pop("timestamp")
        c2["provenance"].pop("timestamp")
        assert canonical_json(c1) == canonical_json(c2)


def test_override_flags(tmp_path):
    code, cert, _ = run_fixture(tmp_path, "example-3-2.json",
                                "--seed", "3", "-O", "restarts=4")
    assert code == 0
    assert cert["provenance"]["seed"] == 3


@pytest.mark.parametrize("kind", ["nash", "bayes"])
def test_mesh_flag_on_a_game_exit_2(tmp_path, capsys, kind):
    # a game has no grid section for --mesh to set; the same file runs
    # without the flag
    doc = json.loads((DOCS / "quadratic-bayes.json").read_text())
    doc["kind"] = kind
    if kind == "nash":  # on the finest partition, where the payoffs may vary
        del doc["partition"], doc["priors"]
    p = tmp_path / "game.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p), "--mesh", "123"]) == 2
    assert "--mesh" in capsys.readouterr().err
    assert not (tmp_path / "game.cert.json").exists()
    assert main(["run", str(p)]) == 0


def test_out_flag(tmp_path):
    src = (DOCS / "lsc-canonical.json").read_text()
    problem = tmp_path / "lsc-canonical.json"
    problem.write_text(src)
    dest = tmp_path / "custom-location.json"
    assert main(["run", str(problem), "--out", str(dest)]) == 0
    assert dest.exists()


@pytest.mark.parametrize("fixture, override, key", [
    ("example-3-2.json", "restart=3", "restart"),      # unknown key
    ("example-3-2.json", "restarts=abc", "restarts"),  # not an integer
    ("example-3-2.json", "tol=-1", "tol"),             # not positive
    ("lsc-canonical.json", "eps=-1", "eps"),           # not positive
    ("example-3-2.json", "k_max=-3", "k_max"),         # series weights would not sum to 1
    ("example-3-2.json", "k_max=0", "k_max"),          # would skip the series
    ("example-3-2.json", "restarts=-2", "restarts"),   # would run one solve silently
    ("example-3-2.json", "restarts=0", "restarts"),
    ("example-3-2.json", "max_iter=0", "max_iter"),    # no such option since the exact
    ("example-3-2.json", "damping=0", "damping"),      # fixed-point solve: unknown keys
    ("example-3-2.json", "damping=1.5", "damping"),
    ("example-3-2.json", "seed=-1", "seed"),           # the generator rejects it
    ("example-3-2.json", "seed=1.5", "seed"),          # int() read these as 1, 2, 3 and 2
    ("example-3-2.json", "restarts=2.7", "restarts"),
    ("example-3-2.json", "k_max=3.9", "k_max"),
    ("example-3-2.json", "seed=2.0", "seed"),          # an integer option takes no float
    ("quadratic-bayes.json", "strict_margin=-1", "strict_margin"),  # at least 0
])
def test_bad_option_override_exit_2(tmp_path, capsys, fixture, override, key):
    code, cert, _ = run_fixture(tmp_path, fixture, "-O", override)
    assert code == 2
    assert cert is None
    assert repr(key) in capsys.readouterr().err


def test_bad_file_option_exit_2(tmp_path):
    doc = json.loads((DOCS / "lsc-canonical.json").read_text())
    doc["options"]["strict_cip"] = "yes"
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    assert main(["run", str(p)]) == 2


@pytest.mark.parametrize("name", ["example-3-2.json", "lsc-canonical.json"])
def test_run_problem_verifies_inclusion_once(monkeypatch, name):
    # the strong-variant checks reuse the plain report instead of
    # verifying the inclusion property a second time
    calls = []
    original = carasel.corr.cip_verify

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(carasel.corr, "cip_verify", counting)
    monkeypatch.setattr(carasel.pipelines, "cip_verify", counting)
    doc = parse_problem((DOCS / name).read_text())
    assert carasel.pipelines.run_problem(doc).status == "ok"
    assert len(calls) == 1


def test_parse_problem_validates_tolerances():
    with pytest.raises(ParseError):
        parse_problem(json.dumps({
            "kind": "select",
            "options": {"tol": -1.0},
            "space": {"atoms": ["a"], "weights": [1.0]},
            "grid": {"points": [[0.0]]},
            "correspondence": [],
        }))


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_certificate_matches_golden(tmp_path, name):
    # the committed certificates of the docs/ fixtures, timestamp removed;
    # a change that moves any residual or output fails here
    want = json.loads((GOLDEN / name).read_text())
    code, got, _ = run_fixture(tmp_path, name)
    assert code == 0
    assert got["status"] == want["status"]
    assert got["kind"] == want["kind"]
    assert [(c["name"], c["pass"]) for c in got["checks"]] == \
        [(c["name"], c["pass"]) for c in want["checks"]]
    for g, w in zip(got["checks"], want["checks"]):
        _assert_close(g["residual"], w["residual"], f"{w['name']}.residual")
        _assert_close(g["tolerance"], w["tolerance"], f"{w['name']}.tolerance")
    _assert_close(got["outputs"], want["outputs"], "outputs")


def run_fresh(tmp_path, problem):
    """Run carasel.cli.main on a problem file in a fresh interpreter;
    returns the exit code, the certificate and the lazily needed modules
    loaded by the end of the run: scipy's, and numpy.ma's (numpy 2's
    plain np.unique imports it)."""
    script = (
        "import json, sys\n"
        "from carasel.cli import main\n"
        f"code = main(['run', {str(problem)!r}])\n"
        "mods = sorted(m for m in sys.modules\n"
        "              if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])\n"
        "print(json.dumps({'code': code, 'lazy': mods}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    cert = json.loads(problem.with_suffix(".cert.json").read_text())
    return result["code"], cert, result["lazy"]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_run_never_loads_scipy(tmp_path, name):
    # every docs/ fixture is 1-D, so no kernel call needs scipy; and no
    # np.unique call takes the form that imports numpy.ma
    problem = tmp_path / name
    problem.write_text((DOCS / name).read_text())
    code, cert, lazy_modules = run_fresh(tmp_path, problem)
    assert code == 0
    assert cert["status"] == "ok"
    assert lazy_modules == []


def _triangle_problem(kind):
    """Two atoms on a 3x3 grid in the plane, every value the triangle
    (0,0), (1,0), (0,1) with one interior sample; canonical witness."""
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]]
    return {
        "kind": kind,
        "options": {"eps": 1.0},
        "dim": 2,
        "space": {"atoms": ["a", "b"], "weights": [0.5, 0.5]},
        "grid": {"points": [[x / 2, y / 2] for x in range(3) for y in range(3)]},
        "correspondence": [{"atom": a, "node": z, "vertices": tri}
                           for a in ("a", "b") for z in range(9)],
        "witness": "canonical",
    }


@pytest.mark.parametrize("kind", ["cip-check", "select"])
def test_planar_run_certifies_in_fresh_interpreter(tmp_path, kind):
    # the select pipeline takes Qhull margins in dimension 2, so its run
    # imports scipy.spatial from inside setops
    problem = tmp_path / f"planar-{kind}.json"
    problem.write_text(json.dumps(_triangle_problem(kind)))
    code, cert, lazy_modules = run_fresh(tmp_path, problem)
    assert code == 0
    assert cert["status"] == "ok"
    if kind == "select":
        assert "scipy.spatial" in lazy_modules


def _fixpoint_problem(points, fn):
    """A one-atom fixpoint document on the given grid, each value the
    singleton fn(node), with the canonical witness."""
    return {
        "kind": "fixpoint",
        "options": {"tol": 1e-9, "eps": 2.0},
        "dim": len(points[0]),
        "space": {"atoms": ["a"], "weights": [1.0]},
        "grid": {"points": points},
        "correspondence": [{"atom": "a", "node": z, "vertices": [fn(x)]}
                           for z, x in enumerate(points)],
        "witness": "canonical",
    }


def _planar_rotation(x):
    """x -> clip(c + 2 R(1.57) (x - c), 0, 1) with c = (0.33, 0.41), its
    one fixed point."""
    c = np.array([0.33, 0.41])
    rot = 2.0 * np.array([[np.cos(1.57), -np.sin(1.57)], [np.sin(1.57), np.cos(1.57)]])
    return np.clip(c + rot @ (np.array(x) - c), 0.0, 1.0).tolist()


def test_line_fixpoint_never_loads_scipy(tmp_path):
    # R^1 is triangulated by sorted segments, not by Delaunay
    problem = tmp_path / "halving.json"
    problem.write_text(json.dumps(_fixpoint_problem([[z / 10] for z in range(11)],
                                                    lambda x: [x[0] / 2])))
    code, cert, lazy_modules = run_fresh(tmp_path, problem)
    assert code == 0
    assert cert["outputs"]["fixed_points"] == [{"atom": "a", "value": [0.0], "residual": 0.0}]
    assert not any(m.startswith("scipy") for m in lazy_modules)


def test_planar_fixpoint_certificate_is_deterministic(tmp_path):
    grid = [[x / 10, y / 10] for x in range(11) for y in range(11)]
    certs = []
    for run in ("one", "two"):
        (tmp_path / run).mkdir()
        p = tmp_path / run / "rotation.json"
        p.write_text(json.dumps(_fixpoint_problem(grid, _planar_rotation)))
        assert main(["run", str(p)]) == 0
        cert = json.loads((tmp_path / run / "rotation.cert.json").read_text())
        cert["provenance"].pop("timestamp")
        certs.append(canonical_json(cert))
    assert certs[0] == certs[1]
    (point,) = json.loads(certs[0])["outputs"]["fixed_points"]
    assert point["value"] == pytest.approx([0.33, 0.41], abs=1e-12)
    assert point["residual"] <= 1e-12


def test_collinear_planar_fixpoint_exit_4(tmp_path):
    # a flat grid has no Delaunay triangulation: Qhull's error is a
    # numerical failure, written as a no-certificate record
    p = tmp_path / "flat.json"
    p.write_text(json.dumps(_fixpoint_problem([[z / 4, z / 4] for z in range(5)],
                                              lambda x: [0.5, 0.5])))
    assert main(["run", str(p)]) == 4
    cert = json.loads((tmp_path / "flat.cert.json").read_text())
    assert cert["status"] == "no-certificate"
    assert cert["outputs"]["error"].startswith("QhullError: ")

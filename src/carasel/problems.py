"""Problem-file parsing, validation and canonical serialization.

Problems are UTF-8 JSON documents.  Vectors are number arrays;
correspondence tables are lists of {atom, node, vertices[]} records where
an empty vertex array (or an absent record) means the empty value.
Canonical serialization sorts keys and fixes separators, so
serialize(parse(file)) is idempotent byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .corr import SET_EQUALITY_TOL, CipWitness, Corr, GridSpace, canonical_witness
from .equilibria import BayesSpec, GameSpec, own_slices
from .errors import DomainError, ParseError
from .measure import AtomSpace, InfoPartition, Prior
from .selection import DEFAULT_K_MAX, DEFAULT_RESTARTS, DEFAULT_SELECTION_TOL
from .setops import PointSet

KINDS = ("cip-check", "select", "fixpoint", "nash", "bayes", "maximal")

OPTION_DEFAULTS = {
    "tol": DEFAULT_SELECTION_TOL,
    "inclusion_tol": SET_EQUALITY_TOL,
    "eps": None,            # default: grid adjacency radius
    "eps_eq": 1e-6,
    "seed": 0,
    "mode": None,           # default: the witness's own mode
    "strict_cip": False,
    "closed_valued": False,
    "k_max": DEFAULT_K_MAX,
    "restarts": DEFAULT_RESTARTS,
    "strict_margin": 0.0,
}
_POSITIVE_OPTIONS = ("tol", "inclusion_tol", "eps", "eps_eq", "k_max", "restarts")


def _is_number(value) -> bool:
    """True for a finite JSON number, an integer or a float but not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and abs(value) <= sys.float_info.max


def _number(value, where: str) -> float:
    """value, a finite JSON number, as a float; anything else is a ParseError
    naming where it stood.  The readers here alone decide a leaf's JSON type."""
    if not _is_number(value):
        raise ParseError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where: str, n: int | None = None) -> int:
    """value, a JSON integer (not 3.0, "3" or true), in [0, n) when n is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} {value!r} is not an integer")
    if n is not None and not 0 <= value < n:
        raise ParseError(f"{where} {value} is out of range [0, {n})")
    return value


def _vector(value, where: str, length: int | None = None) -> np.ndarray:
    """value, a flat JSON array of finite numbers (length of them if given), as floats."""
    if not isinstance(value, list) or not all(map(_is_number, value)) \
            or length not in (None, len(value)):
        size = "" if length is None else f"{length} "
        raise ParseError(f"{where} must be an array of {size}numbers, got {value!r}")
    return np.array(value, dtype=float)


def _vectors(value, dim: int, rows: str, cells: str) -> np.ndarray:
    """value, a JSON array of arrays of dim finite numbers each, as an
    (n, dim) float table; rows names the array and cells its entries."""
    if not isinstance(value, list) or any(not isinstance(v, list) or len(v) != dim for v in value):
        raise ParseError(f"{rows} must be a list of {dim}-vectors")
    bad = [c for v in value for c in v if not _is_number(c)]
    if bad:
        raise ParseError(f"{cells} must be numbers, got {bad[0]!r}")
    return np.array(value, dtype=float).reshape(-1, dim)


def _flag(value, where: str) -> bool:
    """value, which must be a JSON true or false."""
    if not isinstance(value, bool):
        raise ParseError(f"{where} must be true or false, got {value!r}")
    return value


def _label(value, where: str) -> str:
    """value, which must be a non-empty JSON string."""
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where} must be a non-empty string, got {value!r}")
    return value


_OPTION_READERS = {"tol": _number, "inclusion_tol": _number, "eps": _number, "eps_eq": _number,
                   "seed": _integer, "mode": _label, "strict_cip": _flag, "closed_valued": _flag,
                   "k_max": _integer, "restarts": _integer, "strict_margin": _number}


def parse_problem(text: str) -> dict:
    """Parse and shape-validate a problem document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    if not isinstance(doc, dict):
        raise ParseError("the problem document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"kind must be one of {KINDS}, got {kind!r}")
    merge_options(doc, {})  # rejects malformed file options before any build
    if "space" not in doc:
        raise ParseError("a space section is required")
    needs = {"nash": ("game",), "bayes": ("game", "priors")}.get(kind, ("grid", "correspondence"))
    for section in needs:
        if section not in doc:
            raise ParseError(f"kind={kind} requires a {section} section")
    return doc


def load_problem(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ParseError(f"no such file: {p}")
    return parse_problem(p.read_text(encoding="utf-8"))


def canonical_json(doc) -> str:
    """Canonical serialization: sorted keys, fixed separators, trailing
    newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def problem_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def merge_options(doc: dict, overrides: dict) -> dict:
    """The defaults, updated by the file's options and then by the
    overrides, each value read by its option's reader.  An unknown key, a
    value of the wrong JSON type, or one out of range (as
    docs/problem-format.md states) raises a ParseError naming the key."""
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    opts = dict(OPTION_DEFAULTS)
    for key, value in {**options, **overrides}.items():
        opts[key] = _option_value(key, value)
    return opts


def _option_value(key: str, value):
    read = _OPTION_READERS.get(key)
    if read is None:
        raise ParseError(f"unknown option {key!r}")
    if value is None and OPTION_DEFAULTS[key] is None:
        return None
    value = read(value, f"option {key!r}")
    if key in _POSITIVE_OPTIONS and not value > 0:
        raise ParseError(f"option {key!r} must be strictly positive, got {value!r}")
    if key in ("seed", "strict_margin") and not value >= 0:
        raise ParseError(f"option {key!r} must be non-negative, got {value!r}")
    return value


def _wrap(fn):
    """Build-stage errors are file-consistency errors: report as parse
    failures with the offending detail."""
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ParseError:
            raise
        except (AttributeError, DomainError, KeyError, TypeError, ValueError, IndexError) as e:
            raise ParseError(f"invalid problem payload: {e}") from e
    return inner


@_wrap
def build_space(doc: dict) -> AtomSpace:
    sec = doc["space"]
    return AtomSpace(tuple(_label(a, f"atom {i}") for i, a in enumerate(sec["atoms"])),
                     [_number(w, f"space weight {i}") for i, w in enumerate(sec["weights"])])


@_wrap
def build_partition(doc: dict, space: AtomSpace) -> InfoPartition:
    sec = doc.get("partition")
    if sec is None:
        return InfoPartition.finest(space)
    cells = tuple(tuple(space.index_of(a) for a in cell) for cell in sec)
    return InfoPartition(space, cells)


@_wrap
def build_grid(doc: dict, section: dict | None = None) -> GridSpace:
    sec = doc["grid"] if section is None else section
    pts = np.array([_vector(p, f"grid point {i}") for i, p in enumerate(sec["points"])])
    metric = _vectors(sec["metric"], len(pts), "grid 'metric'", "grid 'metric' entries") \
        if "metric" in sec else None
    mesh, radius = (_number(sec[key], f"grid {key!r}") if key in sec else None
                    for key in ("mesh", "adjacency_radius"))
    return GridSpace(pts, metric=metric, mesh=mesh, adjacency_radius=radius)


def _records_to_corr(records, space: AtomSpace, grid: GridSpace, dim: int) -> Corr:
    table: dict[tuple[int, int], PointSet] = {}
    first: dict[tuple[int, int], int] = {}  # the record that gave each cell
    for i, rec in enumerate(records):
        t = space.index_of(rec["atom"])
        z = _integer(rec["node"], f"record {i} (atom {rec['atom']!r}): node", len(grid))
        if first.setdefault((t, z), i) != i:
            raise ParseError(f"records {first[(t, z)]} and {i} both give atom "
                             f"{rec['atom']!r}, node {z}")
        at = f"record {i} (atom {rec['atom']!r}, node {z})"
        verts = _vectors(rec.get("vertices", []), dim, f"{at}: vertices",
                         f"{at}: vertex coordinates")
        table[(t, z)] = PointSet.of(dim, verts) if len(verts) else PointSet.empty(dim)
    empty = PointSet.empty(dim)
    return Corr.from_function(space, grid, dim,
                              lambda t, z: table.get((t, z), empty))


@_wrap
def build_correspondence(doc: dict, space: AtomSpace, grid: GridSpace) -> Corr:
    dim = _integer(doc.get("dim", grid.dim), "dim")
    return _records_to_corr(doc["correspondence"], space, grid, dim)


@_wrap
def build_witness(doc: dict, psi: Corr) -> CipWitness:
    sec = doc.get("witness", "canonical")
    if sec == "canonical":
        return canonical_witness(psi)
    mode = sec.get("mode", "shared")
    dim = psi.dim
    locals_sec = sec.get("locals", {})
    locs: dict[int, Corr] = {}
    if "shared" in locals_sec:
        f = _records_to_corr(locals_sec["shared"], psi.space, psi.grid, dim)
        locs = {z: f for z in range(len(psi.grid))}
    else:
        default = None
        if "default" in locals_sec:
            default = _records_to_corr(locals_sec["default"], psi.space, psi.grid, dim)
        for key, records in locals_sec.items():
            if key == "default":
                continue
            if key != str(int(key)):  # "01", " 1" and "+1" would all read as node 1
                raise ParseError(f"witness local key {key!r} is not written as {str(int(key))!r}")
            locs[int(key)] = _records_to_corr(records, psi.space, psi.grid, dim)
        for z in range(len(psi.grid)):
            if z not in locs:
                if default is None:
                    raise ParseError(f"witness locals missing node {z} and no default")
                locs[z] = default
    box = tuple(_vector(sec["box"][end], f"witness box {end!r}") for end in ("lo", "hi")) \
        if "box" in sec else None
    radii_sec = sec.get("radii", {})
    radii, first = {}, {}  # first: the entry that gave each (atom, node) radius
    for j, rec in enumerate(radii_sec.get("entries", [])):
        at = f"radius entry {j} (atom {rec['atom']!r}"
        key = (psi.space.index_of(rec["atom"]), _integer(rec["node"], f"{at}): node"))
        if first.setdefault(key, j) != j:
            raise ParseError(f"radius entries {first[key]} and {j} both give atom "
                             f"{rec['atom']!r}, node {key[1]!r}")
        radii[key] = _number(rec["r"], f"{at}, node {key[1]!r}): 'r'")
    w = CipWitness(mode, locs, radii, box)
    missing = (psi.counts > 0) & np.isnan(w.radii)
    if not missing.any():
        return w
    default_r = radii_sec.get("default")
    if default_r is None:
        t, z = np.argwhere(missing)[0]
        raise ParseError(f"witness radius missing at atom {t}, node {z}")
    default_r = _number(default_r, "witness radii 'default'")
    return CipWitness(mode, locs, np.where(missing, default_r, w.radii), box)


def _payoff_from_spec(spec: dict, space: AtomSpace, grids, own_slice):
    form = spec.get("form")
    if form == "quad_own":
        weight = _number(spec.get("weight", 1.0), "quad_own 'weight'")
        centers = {
            space.index_of(label): _vector(vec, f"quad_own center {label!r}",
                                           own_slice.stop - own_slice.start)
            for label, vec in spec["center"].items()
        }
        if len(centers) != len(space):
            raise ParseError("quad_own payoff needs a center per atom")

        def u(t, x, _w=weight, _c=centers, _sl=own_slice):
            d = np.asarray(x, dtype=float)[_sl] - _c[int(t)]
            return -_w * float(d @ d)

        return u
    if form == "table":
        shapes = tuple(len(g) for g in grids)
        n_joint = int(np.prod(shapes))
        values = {space.index_of(label): _vector(v, f"table payoff values {label!r}", n_joint)
                  for label, v in spec["values"].items()}

        def u(t, x, _vals=values, _grids=grids, _shapes=shapes):
            x = np.asarray(x, dtype=float)
            idx, off = [], 0
            for g in _grids:
                block = x[off:off + g.dim]
                dists = np.linalg.norm(g.points - block, axis=1)
                k = int(dists.argmin())
                if dists[k] > 1e-9:
                    raise DomainError("table payoff evaluated off-grid")
                idx.append(k)
                off += g.dim
            return float(_vals[int(t)][int(np.ravel_multi_index(tuple(idx), _shapes))])

        return u
    raise ParseError(f"unknown payoff form {form!r}")


@_wrap
def build_game(doc: dict) -> GameSpec:
    sec = doc["game"]
    space = build_space(doc)
    grids = tuple(build_grid(doc, g) for g in sec["grids"])
    players = tuple(_label(p, f"player {i}") for i, p in enumerate(sec["players"]))
    own = own_slices(grids)  # indexed, so a payoff past the last grid raises
    payoffs = tuple(_payoff_from_spec(spec, space, grids, own[i])
                    for i, spec in enumerate(sec["payoffs"]))
    concave = tuple(_flag(c, f"game 'concave' entry {i}")
                    for i, c in enumerate(sec.get("concave", [True] * len(players))))
    return GameSpec(players, space, grids, payoffs, concave)


@_wrap
def build_bayes(doc: dict, game: GameSpec) -> BayesSpec:
    part = build_partition(doc, game.state_space)
    priors = tuple(Prior.uniform(game.state_space)
                   if _flag(spec.get("uniform", False), f"priors[{i}] 'uniform'")
                   else Prior(game.state_space, _vector(spec["density"], f"priors[{i}] 'density'"))
                   for i, spec in enumerate(doc["priors"]))
    return BayesSpec(game, part, priors)

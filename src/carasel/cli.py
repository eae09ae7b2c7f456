"""Batch front end.

    carasel run PROBLEM.json [flags] [-O key=value ...]
    carasel report CERTIFICATE.cert.json

run parses a problem file, dispatches to the matching pipeline and
writes a certificate beside the input (suffix .cert.json).  Exit codes:
0 all checks passed, 1 checks ran and failed, 2 parse error, 3
precondition violated, 4 no certificate at the requested tolerance or a
numerical failure (LinAlgError, QhullError); on exit 4 a no-certificate
file is still written, its outputs.error naming the cause.
report pretty-prints a certificate, provenance included, without
recomputing anything; it exits 2 when the file is missing, is not JSON
or is not shaped like a certificate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DomainError, ParseError, PreconditionError
from .pipelines import Certificate, run_problem
from .problems import canonical_json, load_problem

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NO_CERTIFICATE = 4


def _coerce(raw: str):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("null", "none"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _parse_overrides(args) -> dict:
    overrides = {}
    if args.tol is not None:
        overrides["tol"] = args.tol
    if args.eps_eq is not None:
        overrides["eps_eq"] = args.eps_eq
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.strict_cip:
        overrides["strict_cip"] = True
    for item in args.set or []:
        if "=" not in item:
            raise ParseError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        overrides[key.strip()] = _coerce(raw.strip())
    return overrides


def _certificate_path(input_path: Path, out: str | None) -> Path:
    if out:
        return Path(out)
    name = input_path.name
    if name.endswith(".json"):
        name = name[: -len(".json")]
    return input_path.with_name(name + ".cert.json")


def _write_certificate(cert: Certificate, path: Path) -> None:
    path.write_text(canonical_json(cert.as_dict()), encoding="utf-8")


def cmd_run(args) -> int:
    try:
        overrides = _parse_overrides(args)
        doc = load_problem(args.problem)
        if args.mesh is not None:
            if doc["kind"] in ("nash", "bayes"):
                raise ParseError(f"--mesh sets the grid section's mesh, which a {doc['kind']} "
                                 "problem does not have; set each game grid's mesh instead")
            doc.setdefault("grid", {})["mesh"] = args.mesh
        cert = run_problem(doc, overrides)
    except ParseError as e:
        loc = f" (line {e.line}, column {e.column})" if e.line else ""
        print(f"parse error{loc}: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (PreconditionError, DomainError) as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION

    path = _certificate_path(Path(args.problem), args.out)
    _write_certificate(cert, path)
    if cert.status == "no-certificate":
        print(f"no certificate: {cert.outputs['error']}", file=sys.stderr)
        print(f"wrote {path}", file=sys.stderr)
        return EXIT_NO_CERTIFICATE
    print(f"wrote {path} (status: {cert.status})")
    return EXIT_OK if cert.status == "ok" else EXIT_FAILED


def _check_certificate_shape(doc) -> None:
    """Raise ParseError unless doc has the fields report reads with the
    types it prints: objects, lists, string names, numeric residuals."""
    if not isinstance(doc, dict):
        raise ParseError("a certificate must be a JSON object")
    for key, kind in (("provenance", dict), ("outputs", dict), ("warnings", list), ("checks", list)):
        if not isinstance(doc.get(key, kind()), kind):
            raise ParseError(f"{key} must be a JSON {'object' if kind is dict else 'array'}")
    for c in doc.get("checks", []):
        values = (c.get("residual", 0), c.get("tolerance", 0)) if isinstance(c, dict) else ()
        if (not values or not isinstance(c.get("name", ""), str)
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
            raise ParseError(f"check {c!r} needs a string name and numeric residual and tolerance")


def cmd_report(args) -> int:
    path = Path(args.certificate)
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return EXIT_PARSE
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        print(f"parse error (line {e.lineno}, column {e.colno}): {e.msg}", file=sys.stderr)
        return EXIT_PARSE
    try:
        _check_certificate_shape(doc)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE

    print(f"certificate: {path}")
    print(f"kind: {doc.get('kind', '?')}    status: {doc.get('status', '?')}")
    prov = doc.get("provenance", {})
    print(f"input sha256: {prov.get('input_sha256', '?')}")
    print(f"seed: {prov.get('seed', '?')}    version: {prov.get('version', '?')}")
    checks = doc.get("checks", [])
    ordered = [c for c in checks if not c.get("pass")] + [c for c in checks if c.get("pass")]
    print(f"checks ({len(checks)}):")
    width = max([len(c.get("name", "")) for c in checks] + [4]) + 2
    print(f"  {'name':<{width}} {'residual':>14} {'tolerance':>14}  result")
    for c in ordered:
        verdict = "pass" if c.get("pass") else "FAIL"
        print(f"  {c.get('name', '?'):<{width}} {c.get('residual', 0):>14.6g} "
              f"{c.get('tolerance', 0):>14.6g}  {verdict}")
    outputs = doc.get("outputs", {})
    for key, value in sorted(outputs.items()):
        if isinstance(value, list):
            print(f"outputs: {key} with {len(value)} entries")
        elif isinstance(value, (int, float, str)):
            print(f"outputs: {key} = {value}")
    for w in doc.get("warnings", []):
        print(f"warning: {w}")
    if doc.get("status") == "ok":
        print("ALL CHECKS PASSED")
    else:
        print(f"STATUS: {str(doc.get('status', 'unknown')).upper()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carasel",
        description="verify inclusion properties, extract certified selections, "
                    "and certify random fixed points and equilibria on problem files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a problem file and write its certificate")
    p_run.add_argument("problem", help="path to the problem JSON document")
    p_run.add_argument("--tol", type=float, default=None, help="certification tolerance")
    p_run.add_argument("--eps-eq", dest="eps_eq", type=float, default=None,
                       help="equilibrium regret tolerance")
    p_run.add_argument("--mesh", type=float, default=None, help="override the grid mesh")
    p_run.add_argument("--seed", type=int, default=None, help="seed for randomized restarts")
    p_run.add_argument("--mode", choices=["atomic", "shared", "countable", "indexed"],
                       default=None, help="verification path")
    p_run.add_argument("--strict-cip", action="store_true",
                       help="test local-hull l.s.c. on the whole grid, not just the balls")
    p_run.add_argument("--out", default=None, help="certificate output path")
    p_run.add_argument("-O", "--set", action="append", metavar="KEY=VALUE",
                       help="override any option key")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize a certificate")
    p_rep.add_argument("certificate", help="path to a .cert.json file")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

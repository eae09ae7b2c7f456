"""Problem-kind dispatch: build inputs, run the verification or solve,
assemble a certificate with every residual embedded."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, problems
from .corr import cip_verify, scip_verify
from .equilibria import (
    bayes_equilibrium,
    maximal_element,
    random_fixed_point,
    random_nash,
)
from .errors import ConstructionError, NoCertificateError, ParseError, PreconditionError
from .reporting import CheckSet
from .selection import caratheodory_select


@dataclass
class Certificate:
    """The written outcome of a run: status, named checks with residuals,
    tabulated outputs, and provenance."""

    status: str                 # ok | failed | no-certificate
    kind: str
    checks: CheckSet
    outputs: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    warnings: tuple = ()

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "kind": self.kind,
            "checks": [c.as_dict() for c in self.checks],
            "outputs": self.outputs,
            "warnings": list(self.warnings),
            "provenance": self.provenance,
        }


def _provenance(doc: dict, opts: dict) -> dict:
    return {
        "input_sha256": problems.problem_hash(doc),
        "tool": "carasel",
        "version": __version__,
        "seed": opts["seed"],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _selection_records(space, sel) -> list:
    t, z = np.nonzero(sel.domain)
    return [{"atom": space.atoms[a], "node": n, "value": v}
            for a, n, v in zip(t.tolist(), z.tolist(), sel.table[t, z].tolist())]


def _resolve_mode(doc: dict, opts: dict, witness) -> str:
    mode = opts.get("mode")
    if mode is None:
        mode = witness.mode if doc.get("witness") not in (None, "canonical") else "atomic"
    if mode not in ("atomic", "shared", "countable", "indexed"):
        raise ParseError(f"unknown mode {mode!r}")
    if mode != "atomic" and mode != witness.mode:
        raise ParseError(f"option mode={mode} conflicts with witness mode={witness.mode}")
    return mode


def _verification_checks(psi, witness, part, mode, opts, checks: CheckSet):
    eps = opts["eps"] if opts["eps"] is not None else psi.grid.adjacency_radius
    rep = cip_verify(psi, witness, eps, tol=opts["inclusion_tol"], strict=opts["strict_cip"])
    nonempty = sum(1 for f in rep.failures if f[0] == "nonempty")
    lsc_bad = sum(1 for f in rep.failures if f[0].startswith("lsc"))
    checks.add("cip-local-nonempty", nonempty, 0,
               "local values nonempty on every witness ball")
    checks.add("cip-inclusion", rep.inclusion_residual, opts["inclusion_tol"],
               "local values inside the hull of the original value")
    checks.add("cip-lsc", lsc_bad, 0,
               f"local-hull l.s.c. at eps={eps:g} (max gap {rep.lsc_gap:.3g})")
    if rep.ok and mode != "atomic":
        srep = scip_verify(psi, witness, part, rep, tol=opts["inclusion_tol"])
        checks.add(f"scip-{mode}", len(srep.failures), 0,
                   "strong-variant measurability and mode conditions")
        if mode == "indexed":
            checks.add("scip-hull-modulus", 0.0, 0.0,
                       f"discrete modulus of the local hulls: {srep.hull_modulus:.3g}")
    return rep, eps


def run_cip_check(doc: dict, opts: dict) -> Certificate:
    _, part, psi, witness, mode = _select_common(doc, opts)
    checks = CheckSet()
    _verification_checks(psi, witness, part, mode, opts, checks)
    status = "ok" if checks.ok else "failed"
    return Certificate(status, "cip-check", checks,
                       outputs={"domain_size": int(np.count_nonzero(psi.counts)), "mode": mode})


def _select_common(doc: dict, opts: dict):
    space = problems.build_space(doc)
    part = problems.build_partition(doc, space)
    psi = problems.build_correspondence(doc, space, problems.build_grid(doc))
    witness = problems.build_witness(doc, psi)
    mode = _resolve_mode(doc, opts, witness)
    return space, part, psi, witness, mode


def run_select(doc: dict, opts: dict) -> Certificate:
    space, part, psi, witness, mode = _select_common(doc, opts)
    checks = CheckSet()
    rep, eps = _verification_checks(psi, witness, part, mode, opts, checks)
    if not rep.ok:
        raise PreconditionError("inclusion-property verification failed")
    sel = caratheodory_select(
        psi, witness, part,
        closed_valued=opts["closed_valued"],
        tol=opts["tol"],
        eps=eps,
        atomic=(mode == "atomic"),
        k_max=opts["k_max"],
        restarts=opts["restarts"],
        seed=opts["seed"],
    )
    checks.extend(sel.checks)
    outputs = {
        "selection": _selection_records(space, sel),
        "modulus": sel.modulus,
        "membership_residual": sel.membership_residual,
    }
    return Certificate("ok" if checks.ok else "failed", "select", checks, outputs)


def run_fixpoint(doc: dict, opts: dict) -> Certificate:
    space, part, psi, witness, mode = _select_common(doc, opts)
    checks = CheckSet()
    rep, eps = _verification_checks(psi, witness, part, mode, opts, checks)
    if not rep.ok:
        raise PreconditionError("inclusion-property verification failed")
    profile = random_fixed_point(psi, witness, part, tol=opts["tol"], eps=eps)
    checks.extend(profile.checks)
    outputs = {
        "fixed_points": [
            {"atom": a, "value": v, "residual": r}
            for a, v, r in zip(space.atoms, profile.values.tolist(), profile.residuals.tolist())
        ],
    }
    return Certificate("ok" if checks.ok else "failed", "fixpoint", checks, outputs)


def _profile_outputs(game, cert) -> dict:
    return {
        "profile": [
            {"atom": a, "value": v,
             "regrets": [cert.regrets[(t, i)] for i in range(game.n_players)]}
            for t, (a, v) in enumerate(zip(game.state_space.atoms, cert.profile.tolist()))
        ],
        "worst_regret": cert.worst_regret,
    }


def run_nash(doc: dict, opts: dict) -> Certificate:
    game = problems.build_game(doc)
    part = problems.build_partition(doc, game.state_space)
    cert = random_nash(game, part, opts["eps_eq"],
                       strict_margin=opts["strict_margin"], seed=opts["seed"])
    return Certificate(
        "ok" if cert.checks.ok else "failed", "nash", cert.checks,
        _profile_outputs(game, cert), warnings=cert.warnings,
    )


def run_bayes(doc: dict, opts: dict) -> Certificate:
    game = problems.build_game(doc)
    bayes = problems.build_bayes(doc, game)
    cert = bayes_equilibrium(bayes, opts["eps_eq"],
                             strict_margin=opts["strict_margin"], seed=opts["seed"])
    return Certificate(
        "ok" if cert.checks.ok else "failed", "bayes", cert.checks,
        _profile_outputs(game, cert), warnings=cert.warnings,
    )


def run_maximal(doc: dict, opts: dict) -> Certificate:
    space, part, pref, witness, mode = _select_common(doc, opts)
    result = maximal_element(pref, witness, part)
    outputs = {
        "maximal": [
            {"atom": a, "node": z, "value": v}
            for a, z, v in zip(space.atoms, result.indices.tolist(), result.values.tolist())
        ],
    }
    return Certificate("ok" if result.checks.ok else "failed", "maximal",
                       result.checks, outputs)


_RUNNERS = {
    "cip-check": run_cip_check,
    "select": run_select,
    "fixpoint": run_fixpoint,
    "nash": run_nash,
    "bayes": run_bayes,
    "maximal": run_maximal,
}


def _numerical_failures() -> tuple[type[BaseException], ...]:
    """The exception classes of a geometry kernel's numerical failure.
    A QhullError can only have been raised if scipy.spatial is loaded,
    so it is read from sys.modules rather than imported here."""
    spatial = sys.modules.get("scipy.spatial")
    if spatial is None:
        return (np.linalg.LinAlgError,)
    return (np.linalg.LinAlgError, spatial.QhullError)


def run_problem(doc: dict, overrides: dict | None = None) -> Certificate:
    """Dispatch a parsed problem to its pipeline and stamp provenance.  A
    solve that cannot certify yields a no-certificate record carrying the
    error and, when known, the best residual reached.  So does a numerical
    failure of a geometry kernel (a LinAlgError or QhullError), whose
    error names the exception class."""
    opts = problems.merge_options(doc, overrides or {})
    try:
        cert = _RUNNERS[doc["kind"]](doc, opts)
    except (NoCertificateError, ConstructionError) as e:
        cert = Certificate("no-certificate", doc["kind"], CheckSet(), {"error": str(e)})
        if isinstance(e, NoCertificateError) and e.best_residual is not None:
            cert.outputs["best_residual"] = e.best_residual
    except _numerical_failures() as e:
        cert = Certificate("no-certificate", doc["kind"], CheckSet(),
                           {"error": f"{type(e).__name__}: {e}"})
    cert.provenance = _provenance(doc, opts)
    return cert

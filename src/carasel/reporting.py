"""Named check results with numeric residuals.

Every verification in the package reports a residual against a tolerance
rather than a bare boolean, so certificates can be diffed and tolerances
re-tuned without rerunning the underlying solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckOutcome:
    """One named check: passed iff residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.ok,
            "detail": self.detail,
        }


@dataclass
class CheckSet:
    """Ordered collection of check outcomes; ok iff all pass."""

    checks: list[CheckOutcome] = field(default_factory=list)

    def add(self, name: str, residual: float, tolerance: float, detail: str = "") -> CheckOutcome:
        out = CheckOutcome(name, float(residual), float(tolerance), detail)
        self.checks.append(out)
        return out

    def extend(self, other: "CheckSet") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)

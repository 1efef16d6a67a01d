"""Uniform check recording.

Every verification routine in the package returns a CheckSet: a list of
named checks, each carrying the expected and the observed value, plus a
payload of machine-readable results.  Comparisons are exact; there are
no tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Check:
    name: str
    expected: object
    observed: object
    passed: bool
    witness: str | None = None

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "expected": jsonable(self.expected),
            "observed": jsonable(self.observed),
            "passed": self.passed,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def jsonable(v):
    """Convert exact values to JSON-safe equivalents.  Fractions become
    'p/q' strings, containers are converted recursively."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool) or v is None or isinstance(v, (int, str, float)):
        return v
    if isinstance(v, dict):
        return {str(k): jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return str(v)


@dataclass
class CheckSet:
    """Named collection of exact pass/fail checks with a value payload."""

    title: str
    checks: list[Check] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def check(self, name: str, expected, observed, witness: str | None = None) -> bool:
        ok = expected == observed
        self.checks.append(Check(name, expected, observed, bool(ok), witness))
        return bool(ok)

    def check_true(self, name: str, observed_flag, witness: str | None = None) -> bool:
        return self.check(name, True, bool(observed_flag), witness)

    def record(self, name: str, value) -> None:
        self.values[name] = jsonable(value)

    def extend(self, other: "CheckSet") -> None:
        for c in other.checks:
            self.checks.append(Check(c.name, c.expected, c.observed, c.passed, c.witness))
        self.values.update(other.values)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]

    def require(self) -> "CheckSet":
        """Raise AssertionError on any failed check.  Used by tests and
        by library callers that want hard failure semantics."""
        bad = self.failures()
        if bad:
            lines = [
                f"{c.name}: expected {c.expected!r}, observed {c.observed!r}"
                + (f" [{c.witness}]" if c.witness else "")
                for c in bad
            ]
            raise AssertionError(f"{self.title}: {len(bad)} failed check(s)\n" + "\n".join(lines))
        return self

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.ok,
            "checks": [c.as_dict() for c in self.checks],
            "values": self.values,
        }

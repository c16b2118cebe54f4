"""Assumption check records shared by the schedule and problem validators."""
from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
ASSERTED = "asserted"  # taken on faith for library problems, never gates


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class ValidationReport:
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, PASS if ok else FAIL, detail))

    def note(self, name: str, detail: str) -> None:
        self.checks.append(Check(name, ASSERTED, detail))

    def extend(self, other: "ValidationReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def as_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.as_dict() for c in self.checks]}


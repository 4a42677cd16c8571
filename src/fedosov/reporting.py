"""Deterministic pass/fail reports shared by the verification entry points.

A failing check always carries a concrete witness (typically the first
failing component multi-index and its value); reports render identically
across runs because checks are stored in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def index_witness(idx) -> str:
    """A 0-based multi-index as the 1-based "(1,2,3)" that witnesses print."""
    return "(" + ",".join(str(i + 1) for i in idx) + ")"


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def extend(self, other: Report) -> None:
        self.checks.extend(other.checks)

    def render_text(self) -> str:
        lines = [f"{self.title}:"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            suffix = f"  [{c.witness}]" if (c.witness and not c.passed) else ""
            lines.append(f"  {status}  {c.name}{suffix}")
        lines.append(f"  => {'all checks passed' if self.passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)

    def to_json(self) -> list[dict]:
        return [{"name": c.name, "pass": c.passed, "witness": c.witness}
                for c in self.checks]

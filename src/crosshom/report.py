"""Findings and reports: the uniform output of every check_* operation.

A check returns a list of findings; the empty list means the property holds.
Each finding names the rule that failed, the basis site where it failed, and
the exact nonzero residual witnessing the failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .linalg import render_vector


@dataclass(frozen=True)
class Finding:
    rule: str
    site: tuple[str, ...]
    residual: Any = None

    def residual_str(self) -> str:
        r = self.residual
        if r is None:
            return ""
        if isinstance(r, tuple):
            return render_vector(r)
        return str(r)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "site": list(self.site),
            "residual": self.residual_str(),
        }

    def __str__(self) -> str:
        loc = ", ".join(self.site)
        res = self.residual_str()
        tail = f": residual {res}" if res else ""
        return f"{self.rule} at ({loc}){tail}"


@dataclass
class Report:
    """CLI-level result: pass/fail/error, findings, subcommand payload."""

    command: str
    status: str = "pass"
    findings: list[Finding] = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    error: dict | None = None

    def add_findings(self, findings: list[Finding]):
        self.findings.extend(findings)
        if self.findings:
            self.status = "fail"

    def to_json(self) -> dict:
        body = {
            "command": self.command,
            "status": self.status,
            "findings": [f.to_json() for f in self.findings],
            "payload": self.payload,
        }
        if self.error is not None:
            body["error"] = self.error
        return body

    def human_lines(self) -> list[str]:
        lines = [f"{self.command}: {self.status.upper()}"]
        if self.error is not None:
            lines.append(f"error: {self.error['type']}: {self.error['message']}")
        for f in self.findings:
            lines.append(f"finding: {f}")
        if self.payload:
            lines.append(f"payload: {self.payload}")
        return lines

"""Findings and reports: the uniform output of every check_* operation.

A check returns a list of findings; the empty list means the property holds.
Each finding names the rule that failed, the basis site where it failed, and
the exact nonzero residual witnessing the failure.  A checker that sums a
basis identity into a sparse accumulator hands its (site, residual) pairs to
the one builder `_nonzero_findings`, the only place such an accumulator
becomes a public residual: a dense vector, or a matrix of sparse columns.
"""

from __future__ import annotations

from typing import Any, Iterable

from .linalg import _Value, _column_matrix, _dense, render_vector


class Finding(_Value):
    __slots__ = _fields = ("rule", "site", "residual")

    def __init__(self, rule: str, site: tuple[str, ...], residual: Any = None):
        self.rule, self.site, self.residual = rule, site, residual

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


def _is_nonzero(residual) -> bool:
    """Whether a sparse residual, an {index: value} dict with no zero value or
    a list of such column dicts, has an entry."""
    return any(residual) if isinstance(residual, list) else bool(residual)


def _nonzero_findings(rule: str, rows: int, residuals: Iterable[tuple[tuple[str, ...], Any]]) -> list[Finding]:
    """One finding under rule per (site, residual) pair whose sparse residual
    is nonzero, in the order given: an {index: value} dict becomes the dense
    vector `_dense(acc, rows)`, a list of such column dicts the matrix
    `_column_matrix(columns, rows)`."""
    return [
        Finding(rule, site, _column_matrix(r, rows) if isinstance(r, list) else _dense(r, rows))
        for site, r in residuals
        if _is_nonzero(r)
    ]


class Report(_Value):
    """CLI-level result: pass/fail/error, findings, subcommand payload; the
    one mutable value (`status` and `error` are set as the command runs)."""

    __slots__ = _fields = ("command", "status", "findings", "payload", "error")

    def __init__(
        self,
        command: str,
        status: str = "pass",
        findings: list[Finding] | None = None,
        payload: dict | None = None,
        error: dict | None = None,
    ):
        self.command, self.status, self.error = command, status, error
        self.findings = [] if findings is None else findings
        self.payload = {} if payload is None else payload

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

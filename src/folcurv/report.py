"""Structured run reports: stable keys, decimal floats, diffable output.

Schema: {config, checks: [{name, lhs, rhs, gap, tol, pass}],
         findings: [{kind, detail, values}], summary, version}.
Floats are written in their shortest round-trip spelling (0.1, 0.0, -0.0),
so every float of a report reads back as the same float and reports diff
cleanly; a non-finite float is refused, since JSON has no spelling for it.
"""

from __future__ import annotations

import json

__version__ = "0.1.0"


class ReportBuilder:
    def __init__(self, config: dict):
        self.config = dict(config)
        self.checks: list[dict] = []
        self.findings: list[dict] = []

    def check(self, name: str, lhs: float, rhs: float, tol: float, passed: bool) -> dict:
        rec = {
            "name": name,
            "lhs": float(lhs),
            "rhs": float(rhs),
            "gap": float(lhs) - float(rhs),
            "tol": float(tol),
            "pass": bool(passed),
        }
        self.checks.append(rec)
        return rec

    def residual_check(self, name: str, residual: float, tol: float) -> dict:
        """Identity-style check: |residual| <= tol against a zero target."""
        return self.check(name, residual, 0.0, tol, abs(residual) <= tol)

    def bound_check(self, name: str, lhs: float, rhs: float, tol: float) -> dict:
        """Inequality-style check: lhs >= rhs - tol."""
        return self.check(name, lhs, rhs, tol, lhs - rhs >= -tol)

    def finding(self, kind: str, detail: str, values: dict) -> dict:
        rec = {"kind": kind, "detail": detail, "values": values}
        self.findings.append(rec)
        return rec

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def finish(self, summary: dict) -> dict:
        return {
            "config": self.config,
            "checks": self.checks,
            "findings": self.findings,
            "summary": summary,
            "version": __version__,
        }


def dumps_report(report: dict) -> str:
    """The report as JSON text; raises ``ValueError`` on an infinite or NaN float."""
    try:
        return json.dumps(report, allow_nan=False)
    except ValueError as exc:
        raise ValueError("report holds a non-finite float, which JSON cannot carry") from exc

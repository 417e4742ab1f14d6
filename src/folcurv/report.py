"""Structured run reports: stable keys, decimal floats, diffable output.

Schema: {config, checks: [{name, lhs, rhs, gap, tol, pass}],
         findings: [{kind, detail, values}], summary, version}.
Floats are serialized with 17 significant digits so reports round-trip
exactly and diff cleanly; a non-finite float is refused, since JSON has no
spelling for it.
"""

from __future__ import annotations

import math
from typing import Any

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


def _serialize(obj: Any, out: list[str]):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"report holds a non-finite float ({obj!r}), which JSON cannot carry")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _serialize(str(k), out)
            out.append(": ")
            _serialize(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _serialize(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_report(report: dict) -> str:
    """JSON text with floats rendered at 17 significant digits; raises
    ``ValueError`` on an infinite or NaN float."""
    out: list[str] = []
    _serialize(report, out)
    return "".join(out)

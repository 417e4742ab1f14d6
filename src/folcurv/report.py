"""Structured run reports: stable keys, decimal floats, diffable output.

Schema: {config, checks: [{name, lhs, rhs, gap, tol, pass}],
         findings: [{kind, detail, values}], summary, version}.
Floats are serialized with 17 significant digits so reports round-trip
exactly and diff cleanly; a non-finite float is refused, since JSON has no
spelling for it.
"""

from __future__ import annotations

import math

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


def _floats(values) -> str:
    """Floats at 17 significant digits, comma-joined in one pass; a
    non-finite one, the only kind whose spelling holds an "n", is refused."""
    text = ", ".join(["%.17g" % v for v in values])
    if "n" in text:
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"report holds a non-finite float ({bad!r}), which JSON cannot carry")
    return text


def dumps_report(report: dict) -> str:
    """JSON text with floats rendered at 17 significant digits; raises
    ``ValueError`` on an infinite or NaN float.  Values are dispatched on
    their exact type, a float list is joined in one pass, and each str key
    is spelled once a call; a subclass (np.float64) is spelled as its base."""
    spelled: dict[str, str] = {}

    def text(obj) -> str:
        kind = type(obj)
        if kind is float:
            return "%.17g" % obj if math.isfinite(obj) else _floats((obj,))
        if kind is str:
            return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
        if kind is dict:
            parts = []
            for k, v in obj.items():
                head = spelled.get(k) if type(k) is str else text(str(k)) + ": "
                if head is None:
                    head = spelled[k] = text(k) + ": "
                parts.append(head + text(v))
            return "{" + ", ".join(parts) + "}"
        if kind is list or kind is tuple:
            floats = all(type(v) is float for v in obj)
            return "[" + (_floats(obj) if floats else ", ".join([text(v) for v in obj])) + "]"
        if obj is None or kind is bool or kind is int:  # null, true, false or digits
            return "null" if obj is None else str(obj).lower()
        for base in (str, int, float, dict, list, tuple):  # a subclass spells as its base
            if isinstance(obj, base):
                return text(base(obj))
        raise TypeError(f"cannot serialize {type(obj)!r}")

    return text(report)

"""Self-test of the benchmark's tracer and correctness gate.

    python3 perfbench/selftest.py      # from the root of a source checkout

1. Completeness: while the tracer is installed, a profile hook counts how
   often the code of every wrapped original actually runs.  Each count must
   equal the wrapper's call count (for an ``lru_cache`` table, its misses),
   so no call site bypasses a wrapper; and no ``folcurv`` module may still
   hold an unwrapped original.
2. Exact call counts of the program at the commit that defined the
   benchmark: ``verify`` at T trials makes 6T master-identity evaluations,
   6T Bochner actions and 24T transverse tensors; ``hopf-kahler`` at N
   samples makes N actions and 2N transverse tensors; ``hopf-weighted``
   makes no action.  A later change to the program may change these counts
   on purpose; the timed runs do not depend on them.
3. Self times: per command they add up to the root span's duration.
4. The gate fails a run that breaks an identity or drops a finding.

Exits 0 when everything holds.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import folcurv.cli as cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = os.path.join(os.path.dirname(HERE), ".perfbench")
failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def traced_run(tracer: Tracer, name: str, size: int):
    """One gated, traced command under a profile hook; return its profile,
    the hook's per-code counts and the table misses it caused."""
    gate = Gate(WORKLOADS[name], 0, os.path.join(SCRATCH, "selftest-report.json"))
    code_calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code_calls[frame.f_code] += 1

    misses0 = {n: o.cache_info().misses for n, o in tracer.originals.items()
               if isinstance(o, functools._lru_cache_wrapper)}
    sys.setprofile(hook)
    try:
        _, profile = gate.run(cli, size, tracer=tracer)
    finally:
        sys.setprofile(None)
    misses = {n: tracer.originals[n].cache_info().misses - m for n, m in misses0.items()}
    expect(gate.failed == 0 and not gate.problems, f"{name} size {size}: report passes the gate")
    return profile, code_calls, misses


def check_complete(tracer: Tracer, name: str, profile, code_calls, misses):
    by_code: Counter = Counter()
    for wname, orig in tracer.originals.items():
        if wname in misses:
            continue
        by_code[orig.__code__] += profile.calls_of(wname)
    bad = [f"{n}: {by_code[o.__code__]} wrapped vs {code_calls[o.__code__]} run"
           for n, o in tracer.originals.items()
           if n not in misses and by_code[o.__code__] != code_calls[o.__code__]]
    bad += [f"{n}: {misses[n]} misses vs {code_calls[o.__wrapped__.__code__]} builds"
            for n, o in tracer.originals.items()
            if n in misses and misses[n] != code_calls[o.__wrapped__.__code__]]
    expect(not bad, f"{name}: every call of a wrapped function passes its wrapper {bad[:3]}")
    wall = profile.wall_s
    expect(abs(profile.self_s.sum() - wall) <= 1e-9 * max(1.0, wall),
           f"{name}: self times add up to the command time")


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    tracer = Tracer()
    tracer.install()
    originals = set(map(id, tracer.originals.values()))
    left = [f"{m.__name__}.{a}" for m in tracer.modules() for a, v in vars(m).items()
            if id(v) in originals]
    expect(not left, f"no module keeps an unwrapped original {left[:3]}")

    T, N = 2, 2
    counts = {
        "verify": (T, {"oneill.master_identity_residual": 6 * T,
                       "curvature.curvature_action_on_form": 6 * T,
                       "curvature.transverse_riemann": 24 * T}),
        "hopf-kahler": (N, {"curvature.curvature_action_on_form": N,
                            "curvature.transverse_riemann": 2 * N}),
        "hopf-weighted": (N, {"curvature.curvature_action_on_form": 0}),
    }
    for name, (size, want) in counts.items():
        tracer.clear_tables()
        profile, code_calls, misses = traced_run(tracer, name, size)
        check_complete(tracer, name, profile, code_calls, misses)
        for fn, n in want.items():
            got = profile.calls_of(fn)
            expect(got == n, f"{name} size {size}: {fn} called {got} times, expected {n}")
        dual_ops = sum(c for n, c in zip(profile.names, profile.calls)
                       if n.startswith(("dual.Dual.", "dual.CDual.")))
        if name == "verify":
            expect(dual_ops == 0, f"verify: no dual arithmetic ({dual_ops})")
        else:
            expect(profile.calls_of("exterior.wedge", "exterior.AlternatingForm.component")
                   == 0, f"{name}: no index-loop wedge or component calls")
    tracer.uninstall()

    # the gate must fail a broken identity and a dropped finding
    out = os.path.join(SCRATCH, "selftest-report.json")
    real_bplus, real_closed = cli.bplus_norm_closed, cli.oneill_closed_form
    try:
        cli.bplus_norm_closed = lambda A, a: -real_bplus(A, a)
        gate = Gate(WORKLOADS["verify"], 0, out)
        gate.run(cli, 2)
        expect(gate.failed == gate.attempted > 0, "gate fails a broken identity")
        cli.bplus_norm_closed = real_bplus
        cli.oneill_closed_form = lambda model, pt: cli.oneill_from_brackets(model, pt)[0].norm_sq
        gate = Gate(WORKLOADS["hopf-weighted"], 0, out)
        gate.run(cli, 2)
        expect(gate.failed == gate.attempted > 0, "gate fails a dropped finding")
    finally:
        cli.bplus_norm_closed, cli.oneill_closed_form = real_bplus, real_closed
        if os.path.exists(out):
            os.remove(out)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

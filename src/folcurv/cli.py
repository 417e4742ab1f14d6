"""Command-line driver: identity suites, foliation-model reports, and
curvature bound checks, with a machine-readable JSON report.

    verify  [--trials N] [--seed S] [--q Q] [--tol T]
    hopf    --m M [--theta t1,t2,...] [--samples N] [--seed S]
    bounds  --theorem {3.1|3.2|4.1|sandwich|cor3.1} --m M [--theta ...]
            --p P [--samples N] [--trials N] [--seed S] [--tol T]

``--out PATH`` writes the structured report; ``--quiet`` suppresses the
human summary.  Identity failures exit nonzero; a negative theorem gap is a
finding (the hypotheses of the bounds are not checkable here), not a
failure.  Everything printed is also present in the structured report.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import report as report_mod
from .curvature import (
    curvature_action_on_form,
    curvature_term,
    space_form,
    transverse_riemann,
)
from .exterior import (
    contractions,
    flat,
    hodge,
    inner,
    interior_vector,
    wedge,
)
from .hopf import (
    FRAME_TOL,
    BracketRouteError,
    DegeneratePointError,
    WeightedHopfModel,
    adapted_frame,
    kahler_form,
    mean_curvature,
    oneill_closed_form,
    oneill_from_brackets,
    sample_point,
)
from .oneill import (
    _check_pq,
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_report,
    hodge_trace_residual,
    master_identity_residual,
    sandwich_check,
    thm31_report,
    thm32_report,
    thm41_report,
    two_form_rewrite,
)
from .synthetic import random_form, random_trials

# verify --q 16 --trials 3 takes 3-10 s and 90-160 MB by seed, nearly all in
# the Python loop of exterior._wedge_table; vectorize it before going past 16
VERIFY_Q_RANGE = (2, 16)
# the frame's dual pass (hopf.fields_YW) holds about ten Dual intermediates
# of value shape (m-1, m), each with a gradient of 16 (m-1) m^2 bytes; a model
# whose gradient would pass this size is refused before any point (m <= 128)
DUAL_PASS_BYTES = 32 * 2**20
# cor3.1 draws a point's --trials unit 1-forms as one (trials, q) array of
# 8 trials q bytes; a larger one is refused (1000 trials at m = 128: 2 MB)
SCAN_BYTES = 32 * 2**20
# verify draws and evaluates the trials of a (q, p) cell in chunks whose two
# stacks of dense curvature arrays (R_t, R_K) take at most this many bytes
VERIFY_CHUNK_BYTES = 2**19


def _refuse_below_one(args, *flags):
    """Refuse, as an input error (exit 2), the first count flag set below 1."""
    for flag in flags:
        if getattr(args, flag) < 1:
            raise ValueError(f"{args.command}: --{flag} must be >= 1")


def _tolerance(args, default: float) -> float:
    """The --tol value, or ``default`` when it is unset; a value that is not
    finite and positive is refused as an input error (exit 2)."""
    if args.tol is None:
        return default
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"{args.command}: --tol must be finite and > 0, got {args.tol}")
    return args.tol


def _model(args) -> WeightedHopfModel:
    """The model of --m and --theta; one whose frame's dual pass would hold
    gradients over ``DUAL_PASS_BYTES`` is refused as an input error (exit 2)
    before anything is allocated."""
    m = args.m
    nbytes = 16 * (m - 1) * m * m
    if nbytes > DUAL_PASS_BYTES:
        raise ValueError(f"{args.command}: the dual pass at m={m} holds gradients of {nbytes} "
                         f"bytes, over the {DUAL_PASS_BYTES}-byte limit (m <= 128)")
    theta = (1.0,) * m if args.theta is None else tuple(float(t) for t in args.theta.split(","))
    return WeightedHopfModel(m, theta)


def _point_streams(seed: int, n: int):
    """The random generators of the n sample points, each from the next child
    of ``SeedSequence(seed)``.  Children are spawned one at a time, so no
    per-sample state is held ahead of its point; repeated ``spawn(1)`` gives
    the same children as one ``spawn(n)``."""
    root = np.random.SeedSequence(seed)
    for _ in range(n):
        yield np.random.default_rng(root.spawn(1)[0])


def _emit(args, builder, summary: dict):
    summary = dict(summary)
    summary["elapsed_seconds"] = time.perf_counter() - args._t0
    rep = builder.finish(summary)
    text = report_mod.dumps_report(rep)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"{args.command}: cannot write --out {args.out}: "
                             f"{exc.strerror}") from exc
    if not args.quiet:
        failed = [c for c in rep["checks"] if not c["pass"]]
        print(f"checks: {len(rep['checks'])}  failed: {len(failed)}  "
              f"findings: {len(rep['findings'])}")
        for c in failed:
            print(f"  FAIL {c['name']}: lhs={c['lhs']:.17g} rhs={c['rhs']:.17g} "
                  f"gap={c['gap']:.17g} tol={c['tol']:.17g}")
        for f in rep["findings"]:
            print(f"  finding[{f['kind']}]: {f['detail']}")
        if not args.out:
            print(text)


# -- verify ---------------------------------------------------------------------


def _verify_stack(trials) -> tuple[dict, dict]:
    """The largest residual of each identity and the least margin of each
    bound (and of the wedge reading) over one stack of trials, keyed by
    check name in report order.  Its stacks are freed on return, before the
    next stack is built."""
    RM, A, a, RK = trials.build()
    Rt = transverse_riemann(RM, A)
    d = two_form_rewrite(RK, a)
    ch = contraction_chain(A, a)
    residuals = {
        "oneill.master_identity": master_identity_residual(RM, A, a, Rt=Rt),
        "oneill.bplus_identity": bplus_norm(A, a) - bplus_norm_closed(A, a),
        "oneill.bminus_identity": bminus_norm(A, a) - bminus_norm_closed(A, a),
        "curvature.term_vs_action":
            curvature_term(Rt, a) - inner(curvature_action_on_form(Rt, a), a),
        "oneill.ricci_hodge_trace": hodge_trace_residual(RK, a),
        "oneill.two_form_rewrite": d["half_s2"] - d["theta_route"],
    }
    margins = {
        "oneill.two_form_bound": d["bound"] - d["half_s2"],
        "oneill.contraction_chain_step1":
            ch["q_sum_bivector_per_s"] - ch["mixed_term_per_s"],
        "oneill.contraction_chain_step2":
            ch["q_sum_contraction_per_s"] - ch["q_sum_bivector_per_s"],
        "wedge": ch["q_sum_wedge_per_s"] - ch["mixed_term_per_s"],
    }
    return ({k: float(np.max(np.abs(v))) for k, v in residuals.items()},
            {k: float(np.min(v)) for k, v in margins.items()})


def cmd_verify(args) -> int:
    _refuse_below_one(args, "trials")
    lo, hi = VERIFY_Q_RANGE
    if args.q is not None and not lo <= args.q <= hi:
        raise ValueError(f"verify: --q must be in [{lo}, {hi}]")
    tol = _tolerance(args, 1e-10)
    qs = [args.q] if args.q is not None else [4, 5]
    builder = report_mod.ReportBuilder({
        "command": "verify", "trials": args.trials, "seed": args.seed,
        "q": qs, "tol": tol,
    })
    root = np.random.SeedSequence(args.seed)
    streams = iter(root.spawn(64))

    # exterior-algebra properties
    for q in qs:
        rng = np.random.default_rng(next(streams))
        invol = prop22 = leibniz = contr = anticomm = 0.0
        for _ in range(max(1, args.trials // 10)):
            for p in range(0, q + 1):
                a = random_form(rng, q, p)
                sign = (-1) ** (p * (q - p))
                invol = max(invol, float(np.max(np.abs(
                    hodge(hodge(a)).coeffs - sign * a.coeffs))))
                x = rng.standard_normal(q)
                if p < q:
                    lhs = interior_vector(x, hodge(a))
                    rhs = ((-1) ** p) * hodge(wedge(flat(x, q), a))
                    prop22 = max(prop22, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
                if p >= 1:
                    total = sum(np.vecdot(v, v) for v in contractions(a, 1))
                    contr = max(contr, abs(total - p * a.norm_sq))
            pw = rng.integers(1, q)
            pt = rng.integers(1, q - pw + 1)
            w1 = random_form(rng, q, int(pw))
            t1 = random_form(rng, q, int(pt))
            x = rng.standard_normal(q)
            lhs = interior_vector(x, wedge(w1, t1))
            rhs = (wedge(interior_vector(x, w1), t1)
                   + ((-1) ** w1.degree) * wedge(w1, interior_vector(x, t1)))
            leibniz = max(leibniz, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
            anticomm = max(anticomm, float(np.max(np.abs(
                wedge(w1, t1).coeffs
                - ((-1) ** (w1.degree * t1.degree)) * wedge(t1, w1).coeffs))))
        builder.residual_check(f"exterior.hodge_involution.q{q}", invol, 1e-12)
        builder.residual_check(f"exterior.hodge_contraction_rule.q{q}", prop22, 1e-12)
        builder.residual_check(f"exterior.leibniz.q{q}", leibniz, 1e-12)
        builder.residual_check(f"exterior.contraction_sum.q{q}", contr, 1e-12)
        builder.residual_check(f"exterior.graded_anticommutativity.q{q}", anticomm, 1e-12)

    # curvature and integrability identities over seeded random instances,
    # drawn and evaluated a chunk of trials at a time, one stack per vdim
    for q in qs:
        chunk = max(1, VERIFY_CHUNK_BYTES // (2 * 8 * q**4))
        for p in range(1, min(4, q)):
            rng = np.random.default_rng(next(streams))
            worst, least = {}, {}
            for k0 in range(0, args.trials, chunk):
                vdims = [1 + k % 3 for k in range(k0, min(args.trials, k0 + chunk))]
                for trials in random_trials(rng, q, p, vdims):
                    residuals, margins = _verify_stack(trials)
                    for name, r in residuals.items():
                        worst[name] = max(worst.get(name, 0.0), r)
                    for name, m in margins.items():
                        least[name] = min(least.get(name, np.inf), m)
            sfx = f"q{q}.p{p}"
            for name, r in worst.items():
                builder.residual_check(f"{name}.{sfx}", r, tol)
            wedge_margin = least.pop("wedge")
            for name, m in least.items():
                builder.bound_check(f"{name}.{sfx}", m, 0.0, 1e-10)
            if wedge_margin < -1e-10:
                builder.finding(
                    "wedge-reading-chain", "the wedge reading of the middle "
                    "contraction-chain term fails on some instance; the asserted "
                    "chain uses the bivector reading",
                    {"q": q, "p": p, "min_margin": wedge_margin})

    _emit(args, builder, {"all_passed": builder.all_passed})
    return 0 if builder.all_passed else 1


# -- hopf -----------------------------------------------------------------------

# exact curvature data of the unit round sphere that carries every model
K0 = K1 = RHO1 = 1.0


def cmd_hopf(args) -> int:
    _refuse_below_one(args, "samples")
    model = _model(args)
    builder = report_mod.ReportBuilder({
        "command": "hopf", "m": args.m, "theta": list(model.theta),
        "samples": args.samples, "seed": args.seed,
    })
    q = model.q
    norms_bracket, norms_closed, kappa_norms = [], [], []
    for k, rng in enumerate(_point_streams(args.seed, args.samples)):
        pt = sample_point(model, rng)
        frame = adapted_frame(model, pt)
        builder.residual_check(f"hopf.frame_gram.point{k}", frame.gram_residual, FRAME_TOL)
        A, display = oneill_from_brackets(model, pt, frame=frame)
        closed = oneill_closed_form(model, pt)
        norms_bracket.append(A.norm_sq)
        norms_closed.append(closed)
        if abs(closed - A.norm_sq) > 1e-8:
            builder.finding(
                "closed-form-discrepancy",
                "closed-form |A|^2 (as printed) disagrees with the bracket "
                "route; the bracket route is the source of truth",
                {"point": k, "bracket": A.norm_sq, "closed": closed,
                 "difference": closed - A.norm_sq})
        kappa = float(np.linalg.norm(mean_curvature(model, pt)))
        kappa_norms.append(kappa)
        if model.is_hopf:
            builder.residual_check(
                f"hopf.oneill_norm_value.point{k}",
                A.norm_sq - 2.0 * (model.m - 1), 1e-9)
            builder.residual_check(f"hopf.mean_curvature_zero.point{k}", kappa, 1e-10)
            Rn = transverse_riemann(space_form(q, K0), A)
            builder.residual_check(
                f"hopf.transverse_scalar.point{k}",
                Rn.scalar() - (q * (q - 1) + 3.0 * A.norm_sq), 1e-9)
            w = kahler_form(model, frame)
            act = curvature_action_on_form(Rn, w)
            builder.residual_check(
                f"hopf.kahler_parallel.point{k}",
                float(np.linalg.norm(act.coeffs)), 1e-9)
            builder.residual_check(
                f"hopf.kahler_curvature_pairing.point{k}", inner(act, w), 1e-9)
    nb = np.asarray(norms_bracket)
    summary = {
        "oneill_norm_sq": {
            "mean": float(np.mean(nb)), "variance": float(np.var(nb)),
            "min": float(np.min(nb)), "max": float(np.max(nb)),
            "per_point": norms_bracket,
        },
        "oneill_norm_sq_closed_form": {"per_point": norms_closed},
        "mean_curvature_norm": {
            "mean": float(np.mean(kappa_norms)), "max": float(np.max(kappa_norms)),
            "per_point": kappa_norms,
        },
        "all_passed": builder.all_passed,
    }
    _emit(args, builder, summary)
    return 0 if builder.all_passed else 1


# -- bounds ---------------------------------------------------------------------

class Bound(NamedTuple):
    """A row of the theorem table."""

    evaluate: Callable  # (ctx, A, rng) -> the row's BoundReports at a sampled point
    needs_p: bool = False  # takes --p under the q >= 4, 2 <= p <= q-2 hypothesis
    finding: tuple[str, str] = ("negative-gap", "bound violated at a sampled point")


BOUNDS = {
    "3.1": Bound(lambda c, A, rng: [thm31_report(K0, RHO1, c.q, c.p, A, tol=c.tol)],
                 needs_p=True),
    "3.2": Bound(lambda c, A, rng: [thm32_report(float(c.n * (c.n - 1)), K1, RHO1, c.n,
                                                 c.q, c.p, A, tol=c.tol)], needs_p=True),
    "4.1": Bound(lambda c, A, rng: [thm41_report(
        transverse_riemann(space_form(c.q, K0), A).scalar(), K0, RHO1, c.q, c.p, A,
        tol=c.tol)], needs_p=True),
    "sandwich": Bound(lambda c, A, rng: sandwich_check(
        transverse_riemann(space_form(c.q, K0), A).scalar(), K0, K1, c.q, A, tol=c.tol)),
    "cor3.1": Bound(lambda c, A, rng: [cor31_report(space_form(c.q, K0), A, c.trials, rng,
                                                    tol=c.tol)],
                    finding=("obstruction-not-certified", "sampled maximum of the "
                             "obstruction quantity exceeded the certification threshold")),
}


def cmd_bounds(args) -> int:
    _refuse_below_one(args, "samples", "trials")
    row = BOUNDS[args.theorem]
    tol = _tolerance(args, 1e-9)
    model = _model(args)
    q = model.q
    if 8 * args.trials * q > SCAN_BYTES:
        raise ValueError(f"bounds: --trials {args.trials} at q={q} draws {8 * args.trials * q} "
                         f"bytes per point, over the {SCAN_BYTES}-byte limit")
    if row.needs_p:
        if args.p is None:
            raise ValueError(f"bounds: --p is required for theorem {args.theorem}")
        _check_pq(q, args.p)
    builder = report_mod.ReportBuilder({
        "command": "bounds", "theorem": args.theorem, "m": args.m,
        "theta": list(model.theta), "p": args.p, "samples": args.samples,
        "trials": args.trials, "seed": args.seed,
    })
    ctx = SimpleNamespace(n=2 * args.m - 1, q=q, p=args.p, tol=tol, trials=args.trials)
    gaps = []
    for k, rng in enumerate(_point_streams(args.seed, args.samples)):
        A, _ = oneill_from_brackets(model, sample_point(model, rng))
        for rep in row.evaluate(ctx, A, rng):
            check = builder.check(f"bounds.{rep.theorem_id}.point{k}", rep.lhs, rep.rhs,
                                  rep.tol, rep.satisfied)
            gaps.append(rep.gap)
            if not rep.satisfied:
                builder.finding(*row.finding, {"point": k, "check": check["name"],
                                               "inputs": rep.inputs, "note": rep.note})
    summary = {
        "gap": {"min": float(np.min(gaps)), "max": float(np.max(gaps)),
                "per_check": [float(g) for g in gaps]},
        "all_passed": builder.all_passed,
    }
    _emit(args, builder, summary)
    # gap negativity is a finding, not a failure
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="folcurv",
        description="Verification suites for foliation curvature identities "
                    "and integrability-tensor bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None,
                       help="write the structured JSON report to this path")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    def tolerance(p):  # hopf checks fixed tolerances and takes no --tol
        p.add_argument("--tol", type=float, default=None,
                       help="override the identity/bound tolerance")

    pv = sub.add_parser("verify", help="run the seeded identity suites")
    pv.add_argument("--trials", type=int, default=200)
    pv.add_argument("--q", type=int, default=None,
                    help="restrict the fiber dimension, 2 to 16 (default: 4 and 5)")
    tolerance(pv)
    common(pv)

    ph = sub.add_parser("hopf", help="sample a weighted circle foliation model")
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--theta", type=str, default=None,
                    help="comma-separated weights, first must be 1 (default: all 1)")
    ph.add_argument("--samples", type=int, default=50)
    common(ph)

    pb = sub.add_parser("bounds", help="evaluate a curvature bound on a model")
    pb.add_argument("--theorem", type=str, required=True, choices=BOUNDS)
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--theta", type=str, default=None)
    pb.add_argument("--p", type=int, default=None, help="form degree")
    pb.add_argument("--samples", type=int, default=5)
    pb.add_argument("--trials", type=int, default=1000,
                    help="unit 1-forms scanned per point (cor3.1)")
    tolerance(pb)
    common(pb)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        command = {"verify": cmd_verify, "hopf": cmd_hopf, "bounds": cmd_bounds}[args.command]
        return command(args)
    except (DegeneratePointError, BracketRouteError) as exc:  # before ValueError
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

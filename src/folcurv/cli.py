"""Command-line driver: identity suites, foliation-model reports, and
curvature bound checks, with a machine-readable JSON report.

    verify  [--trials N] [--seed S] [--q Q] [--tol T]
    hopf    --m M [--theta t1,t2,...] [--samples N] [--seed S]
    bounds  --theorem {3.1|3.2|4.1|sandwich|cor3.1} --m M [--theta ...]
            --p P [--samples N] [--trials N] [--seed S]

``--out PATH`` writes the structured report; ``--quiet`` suppresses the
human summary.  Identity failures exit nonzero; a negative theorem gap is a
finding (the hypotheses of the bounds are not checkable here), not a
failure.  Everything printed is also present in the structured report.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import report as report_mod
from .curvature import (
    curvature_action_on_form,
    curvature_term,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from .exterior import (
    flat,
    hodge,
    inner,
    interior_vector,
    wedge,
)
from .hopf import (
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
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_scan,
    hodge_trace_residual,
    master_identity_residual,
    sandwich_check,
    thm31_report,
    thm32_report,
    thm41_report,
    two_form_rewrite,
)
from .synthetic import random_curvature, random_form, random_instance

THEOREMS = ("3.1", "3.2", "4.1", "sandwich", "cor3.1")
# the cached wedge and contraction tables for every degree at q = 12 take
# about 457 MiB, and each further dimension multiplies that by about 4
VERIFY_Q_RANGE = (2, 12)


def _parse_theta(text: str | None, m: int) -> tuple[float, ...]:
    if text is None:
        return (1.0,) * m
    theta = tuple(float(t) for t in text.split(","))
    return theta


def _refuse_below_one(args, *flags) -> bool:
    """Report the first of the count flags set below 1; True if one was."""
    for flag in flags:
        if getattr(args, flag) < 1:
            print(f"{args.command}: --{flag} must be >= 1", file=sys.stderr)
            return True
    return False


def _emit(args, builder, summary: dict) -> dict:
    summary = dict(summary)
    summary["elapsed_seconds"] = time.perf_counter() - args._t0
    rep = builder.finish(summary)
    text = report_mod.dumps_report(rep)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
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
    return rep


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    if _refuse_below_one(args, "trials"):
        return 2
    lo, hi = VERIFY_Q_RANGE
    if args.q is not None and not lo <= args.q <= hi:
        print(f"verify: --q must be in [{lo}, {hi}]", file=sys.stderr)
        return 2
    tol = args.tol if args.tol is not None else 1e-10
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
                    total = sum(
                        interior_vector(np.eye(q)[i], a).norm_sq for i in range(q))
                    contr = max(contr, abs(total - p * a.norm_sq))
            pw = rng.integers(1, q)
            pt = rng.integers(1, q - pw + 1)
            w1 = random_form(rng, q, int(pw))
            t1 = random_form(rng, q, int(pt))
            x = rng.standard_normal(q)
            lhs = interior_vector(x, wedge(w1, t1))
            rhs = wedge(interior_vector(x, w1), t1)
            part = wedge(w1, interior_vector(x, t1)) if t1.degree >= 1 else None
            rhs = rhs + ((-1) ** w1.degree) * part
            leibniz = max(leibniz, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
            anticomm = max(anticomm, float(np.max(np.abs(
                wedge(w1, t1).coeffs
                - ((-1) ** (w1.degree * t1.degree)) * wedge(t1, w1).coeffs))))
        builder.residual_check(f"exterior.hodge_involution.q{q}", invol, 1e-12)
        builder.residual_check(f"exterior.hodge_contraction_rule.q{q}", prop22, 1e-12)
        builder.residual_check(f"exterior.leibniz.q{q}", leibniz, 1e-12)
        builder.residual_check(f"exterior.contraction_sum.q{q}", contr, 1e-12)
        builder.residual_check(f"exterior.graded_anticommutativity.q{q}", anticomm, 1e-12)

    # curvature and integrability identities over seeded random instances
    for q in qs:
        for p in range(1, min(4, q)):
            rng = np.random.default_rng(next(streams))
            master = bplus = bminus = action = trace = rewrite = 0.0
            bound_margin = chain1 = chain2 = wedge_margin = np.inf
            for k in range(args.trials):
                RM, A, a = random_instance(rng, q, p, vdim=1 + k % 3)
                master = max(master, abs(master_identity_residual(
                    RM, A, a, raise_on_violation=False)))
                bplus = max(bplus, abs(bplus_norm(A, a) - bplus_norm_closed(A, a)))
                bminus = max(bminus, abs(bminus_norm(A, a) - bminus_norm_closed(A, a)))
                Rn = transverse_riemann(RM, A)
                action = max(action, abs(
                    curvature_term(Rn, a)
                    - inner(curvature_action_on_form(Rn, a), a)))
                RK = random_curvature(rng, q)
                trace = max(trace, abs(hodge_trace_residual(RK, a)))
                d = two_form_rewrite(RK, a)
                rewrite = max(rewrite, abs(d["half_s2"] - d["theta_route"]))
                bound_margin = min(bound_margin, d["bound"] - d["half_s2"])
                ch = contraction_chain(A, a)
                for s in range(A.vdim):
                    chain1 = min(chain1, ch["q_sum_bivector_per_s"][s]
                                 - ch["mixed_term_per_s"][s])
                    chain2 = min(chain2, ch["q_sum_contraction_per_s"][s]
                                 - ch["q_sum_bivector_per_s"][s])
                    wedge_margin = min(wedge_margin, ch["q_sum_wedge_per_s"][s]
                                       - ch["mixed_term_per_s"][s])
            sfx = f"q{q}.p{p}"
            builder.residual_check(f"oneill.master_identity.{sfx}", master, tol)
            builder.residual_check(f"oneill.bplus_identity.{sfx}", bplus, tol)
            builder.residual_check(f"oneill.bminus_identity.{sfx}", bminus, tol)
            builder.residual_check(f"curvature.term_vs_action.{sfx}", action, tol)
            builder.residual_check(f"oneill.ricci_hodge_trace.{sfx}", trace, tol)
            builder.residual_check(f"oneill.two_form_rewrite.{sfx}", rewrite, tol)
            builder.bound_check(f"oneill.two_form_bound.{sfx}", bound_margin, 0.0, 1e-10)
            builder.bound_check(f"oneill.contraction_chain_step1.{sfx}", chain1, 0.0, 1e-10)
            builder.bound_check(f"oneill.contraction_chain_step2.{sfx}", chain2, 0.0, 1e-10)
            if wedge_margin < -1e-10:
                builder.finding(
                    "wedge-reading-chain", "the wedge reading of the middle "
                    "contraction-chain term fails on some instance; the asserted "
                    "chain uses the bivector reading",
                    {"q": q, "p": p, "min_margin": float(wedge_margin)})

    rep = _emit(args, builder, {"all_passed": builder.all_passed})
    return 0 if builder.all_passed else 1


# -- hopf -----------------------------------------------------------------------


def cmd_hopf(args) -> int:
    if _refuse_below_one(args, "samples"):
        return 2
    theta = _parse_theta(args.theta, args.m)
    model = WeightedHopfModel(args.m, theta)
    builder = report_mod.ReportBuilder({
        "command": "hopf", "m": args.m, "theta": list(theta),
        "samples": args.samples, "seed": args.seed,
    })
    q = model.q
    streams = np.random.SeedSequence(args.seed).spawn(args.samples)
    norms_bracket, norms_closed, kappa_norms = [], [], []
    RM = space_form(q, 1.0) if q >= 2 else None
    try:
        for k, ss in enumerate(streams):
            pt = sample_point(model, np.random.default_rng(ss))
            frame = adapted_frame(model, pt)
            builder.residual_check(f"hopf.frame_gram.point{k}", frame.gram_residual, 1e-10)
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
                Rn = transverse_riemann(RM, A)
                builder.residual_check(
                    f"hopf.transverse_scalar.point{k}",
                    Rn.scalar() - (q * (q - 1) + 3.0 * A.norm_sq), 1e-9)
                w = kahler_form(model, pt, frame)
                act = curvature_action_on_form(Rn, w)
                builder.residual_check(
                    f"hopf.kahler_parallel.point{k}",
                    float(np.linalg.norm(act.coeffs)), 1e-9)
                builder.residual_check(
                    f"hopf.kahler_curvature_pairing.point{k}", inner(act, w), 1e-9)
    except DegeneratePointError as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 1
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


def cmd_bounds(args) -> int:
    if _refuse_below_one(args, "samples", "trials"):
        return 2
    theta = _parse_theta(args.theta, args.m)
    model = WeightedHopfModel(args.m, theta)
    n, q = 2 * args.m - 1, model.q
    if args.theorem in ("3.1", "3.2", "4.1"):
        if args.p is None:
            print("bounds: --p is required for this theorem", file=sys.stderr)
            return 2
        if q < 4 or not 2 <= args.p <= q - 2:
            print(f"bounds: hypothesis violated: need q >= 4 and 2 <= p <= q-2 "
                  f"(q={q}, p={args.p})", file=sys.stderr)
            return 2
    builder = report_mod.ReportBuilder({
        "command": "bounds", "theorem": args.theorem, "m": args.m,
        "theta": list(theta), "p": args.p, "samples": args.samples,
        "trials": args.trials, "seed": args.seed,
    })
    # exact curvature data of the unit round sphere
    K0 = K1 = rho1 = 1.0
    scalM = float(n * (n - 1))
    RM = space_form(q, 1.0)
    tol = args.tol if args.tol is not None else 1e-9
    streams = np.random.SeedSequence(args.seed).spawn(args.samples)
    gaps = []
    try:
        for k, ss in enumerate(streams):
            rng = np.random.default_rng(ss)
            pt = sample_point(model, rng)
            A, _ = oneill_from_brackets(model, pt)
            if args.theorem == "3.1":
                rep = thm31_report(K0, rho1, q, args.p, A, tol=tol)
            elif args.theorem == "3.2":
                rep = thm32_report(scalM, K1, rho1, n, q, args.p, A, tol=tol)
            elif args.theorem == "4.1":
                _, scal_nabla = transverse_ricci(RM, A)
                rep = thm41_report(scal_nabla, K0, rho1, q, args.p, A, tol=tol)
            elif args.theorem == "sandwich":
                _, scal_nabla = transverse_ricci(RM, A)
                lower, upper = sandwich_check(scal_nabla, K0, K1, q, A, tol=tol)
                for rep2 in (lower, upper):
                    builder.check(f"bounds.{rep2.theorem_id}.point{k}", rep2.lhs,
                                  rep2.rhs, rep2.tol, rep2.satisfied)
                    gaps.append(rep2.gap)
                    if not rep2.satisfied:
                        builder.finding("negative-gap", "bound violated at a "
                                        "sampled point", rep2.as_dict())
                continue
            else:  # cor3.1
                scan_max = cor31_scan(RM, A, args.trials, rng)
                target = -(q - 1) / 2.0
                passed = scan_max <= target + 1e-9
                builder.check(f"bounds.cor3.1.point{k}", scan_max, target, 1e-9, passed)
                gaps.append(scan_max - target)
                if not passed:
                    builder.finding("obstruction-not-certified",
                                    "sampled maximum of the obstruction quantity "
                                    "exceeded the certification threshold",
                                    {"point": k, "max": scan_max, "threshold": target})
                continue
            builder.check(f"bounds.thm{args.theorem}.point{k}", rep.lhs, rep.rhs,
                          rep.tol, rep.satisfied)
            gaps.append(rep.gap)
            if not rep.satisfied:
                builder.finding("negative-gap", "bound violated at a sampled point",
                                rep.as_dict())
    except DegeneratePointError as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 1
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
        p.add_argument("--tol", type=float, default=None,
                       help="override the identity/bound tolerance")
        p.add_argument("--out", type=str, default=None,
                       help="write the structured JSON report to this path")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    pv = sub.add_parser("verify", help="run the seeded identity suites")
    pv.add_argument("--trials", type=int, default=200)
    pv.add_argument("--q", type=int, default=None,
                    help="restrict the fiber dimension, 2 to 12 (default: 4 and 5)")
    common(pv)

    ph = sub.add_parser("hopf", help="sample a weighted circle foliation model")
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--theta", type=str, default=None,
                    help="comma-separated weights, first must be 1 (default: all 1)")
    ph.add_argument("--samples", type=int, default=50)
    common(ph)

    pb = sub.add_parser("bounds", help="evaluate a curvature bound on a model")
    pb.add_argument("--theorem", type=str, required=True, choices=THEOREMS)
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--theta", type=str, default=None)
    pb.add_argument("--p", type=int, default=None, help="form degree")
    pb.add_argument("--samples", type=int, default=5)
    pb.add_argument("--trials", type=int, default=1000,
                    help="unit 1-forms scanned per point (cor3.1)")
    common(pb)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "hopf":
            return cmd_hopf(args)
        return cmd_bounds(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

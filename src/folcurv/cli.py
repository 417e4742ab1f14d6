"""Command-line driver: identity suites, foliation-model reports, and
curvature bound checks, with a machine-readable JSON report.

    verify  [--trials N] [--seed S] [--q Q] [--tol T]
    hopf    --m M [--theta t1,t2,...] [--samples N] [--seed S]
    bounds  --theorem {3.1|3.2|4.1|sandwich|cor3.1} --m M [--theta ...]
            --p P [--samples N] [--seed S] [--tol T]

``--out PATH`` writes the structured report; ``--quiet`` suppresses the
human summary.  Identity failures exit nonzero.  Every bounds row, cor3.1
included, reads its theorem as lhs >= rhs: a gap lhs - rhs below -tol is a
finding (the hypotheses of the bounds are not checkable here), not a
failure.  Everything printed is also present in the structured report.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
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
    AlternatingForm,
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
    cor31_max,
    hodge_trace_residual,
    master_identity_residual,
    sandwich_sides,
    thm31_sides,
    thm32_sides,
    thm41_sides,
    two_form_rewrite,
)
from .synthetic import random_form, random_trials

# q stops at 16: the largest table verify builds, the Leibniz check's wedge
# table at 32 bytes a row, has 2,018,016 rows (62 MiB, built in 0.3 s) at
# q = 16, 5.7 M (174 MiB, 1.2 s) at q = 17 and 17.2 M (525 MiB) at q = 18
VERIFY_Q_RANGE = (2, 16)
# a point's largest arrays are the frame's (2m-1) x 2m basis and its Gram
# matrix; a model whose Gram matrix would pass this is refused (m <= 512)
FRAME_GRAM_BYTES = 8 * 2**20
# verify evaluates the trials of a (q, p) cell in chunks whose two stacks of
# dense curvature arrays (R_t, R_K) take at most this many bytes; hopf and
# bounds, chunks of points of ``_point_bytes`` each
CHUNK_BYTES = 2**19


def _refuse_below_one(args, flag):
    """Refuse, as an input error (exit 2), a count flag set below 1."""
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
    """The model of --m and --theta; one whose frame Gram matrix, the largest
    array a point holds, would pass ``FRAME_GRAM_BYTES`` is refused as an
    input error (exit 2) before anything is allocated."""
    m = args.m
    nbytes = 8 * (2 * m - 1) ** 2
    if nbytes > FRAME_GRAM_BYTES:
        raise ValueError(f"{args.command}: a point at m={m} holds a frame Gram matrix of "
                         f"{nbytes} bytes, over the {FRAME_GRAM_BYTES}-byte limit (m <= 512)")
    theta = (1.0,) * m if args.theta is None else tuple(float(t) for t in args.theta.split(","))
    return WeightedHopfModel(m, theta)


def _point_bytes(model: WeightedHopfModel) -> int:
    """Four (q, 2m) float arrays: the point pass holds at most that a point."""
    return 4 * 8 * model.q * 2 * model.m


def _point_chunks(model: WeightedHopfModel, seed: int, n: int):
    """The n sample points as (index of the first, stack) chunks of
    ``CHUNK_BYTES // _point_bytes`` points (at least one), each drawn by one
    ``sample_point`` call, each point from its own child of ``SeedSequence(seed)``,
    spawned as its chunk is drawn: no per-sample state is held ahead of its
    chunk, and repeated spawns give the children of one ``spawn(n)``."""
    size = max(1, CHUNK_BYTES // _point_bytes(model))
    root = np.random.SeedSequence(seed)
    for k0 in range(0, n, size):
        rngs = [np.random.default_rng(child) for child in root.spawn(min(size, n - k0))]
        yield k0, sample_point(model, rngs)


def _refuse_unwritable_out(args):
    """Refuse (exit 2), before the run and without opening it, an --out that cannot be written."""
    if not args.out:
        return
    folder = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out):
        raise ValueError(f"{args.command}: cannot write --out {args.out}: it is a directory")
    if not os.access(folder, os.W_OK | os.X_OK):
        raise ValueError(f"{args.command}: cannot write --out {args.out}: "
                         f"{folder} is missing or not writable")


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


def _exterior_maxima(rng: np.random.Generator, q: int, rounds: int) -> dict[str, float]:
    """The largest residual of each exterior-algebra property over ``rounds``
    rounds of draws, keyed by check name in report order.  A round draws a
    unit p-form and a vector for each degree p, then degrees (pw, pt), a
    unit form of each and a vector.  The rounds are drawn and evaluated a
    chunk at a time, a chunk's 2^q form coefficients a round within
    ``CHUNK_BYTES``: every draw of a chunk is made first, and each property
    is evaluated on one stack per degree p or per pair (pw, pt).  Each
    degree's draws go into one array: held as many small row arrays, they
    fragmented the heap and raised the peak RSS of repeated runs."""
    out = dict.fromkeys(("hodge_involution", "hodge_contraction_rule", "leibniz",
                         "contraction_sum", "graded_anticommutativity"), 0.0)

    def worst(name, lhs, rhs):
        out[name] = max(out[name], float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))

    size = max(1, CHUNK_BYTES // (8 * 2**q))
    for r0 in range(0, rounds, size):
        n = min(size, rounds - r0)
        forms = [np.empty((n, math.comb(q, p))) for p in range(q + 1)]
        vectors = np.empty((q + 1, n, q))
        by_pair: dict[tuple[int, int], list] = {}
        for r in range(n):
            for p in range(q + 1):
                forms[p][r] = random_form(rng, q, p).coeffs
                vectors[p, r] = rng.standard_normal(q)
            pw = int(rng.integers(1, q))
            pt = int(rng.integers(1, q - pw + 1))
            by_pair.setdefault((pw, pt), []).append((
                random_form(rng, q, pw).coeffs, random_form(rng, q, pt).coeffs,
                rng.standard_normal(q)))
        for p, x in enumerate(vectors):
            a = AlternatingForm(p, q, forms[p])
            worst("hodge_involution", hodge(hodge(a)), (-1) ** (p * (q - p)) * a)
            if p < q:
                worst("hodge_contraction_rule", interior_vector(x, hodge(a)),
                      ((-1) ** p) * hodge(wedge(flat(x, q), a)))
            if p >= 1:
                V = contractions(a, 1)
                total = np.vecdot(V, V).sum(-1)
                out["contraction_sum"] = max(out["contraction_sum"],
                                             float(np.max(np.abs(total - p * a.norm_sq))))
        for (pw, pt), rows in by_pair.items():
            cw, ct, x = map(np.array, zip(*rows))
            w, t = AlternatingForm(pw, q, cw), AlternatingForm(pt, q, ct)
            wt = wedge(w, t)
            worst("leibniz", interior_vector(x, wt),
                  wedge(interior_vector(x, w), t) + ((-1) ** pw) * wedge(w, interior_vector(x, t)))
            worst("graded_anticommutativity", wt, ((-1) ** (pw * pt)) * wedge(t, w))
    return out


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

    for q in qs:
        maxima = _exterior_maxima(np.random.default_rng(next(streams)), q,
                                  max(1, args.trials // 10))
        for name, r in maxima.items():
            builder.residual_check(f"exterior.{name}.q{q}", r, 1e-12)

    # curvature and integrability identities over seeded random instances,
    # drawn and evaluated a chunk of trials at a time, one stack per vdim
    for q in qs:
        chunk = max(1, CHUNK_BYTES // (2 * 8 * q**4))
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
    for k0, pts in _point_chunks(model, args.seed, args.samples):
        frame = adapted_frame(model, pts)
        A, _ = oneill_from_brackets(model, pts, frame=frame)
        norms, closed = A.norm_sq.tolist(), oneill_closed_form(model, pts).tolist()
        kappas = np.linalg.norm(mean_curvature(model, pts), axis=-1).tolist()
        norms_bracket += norms
        norms_closed += closed
        kappa_norms += kappas
        if model.is_hopf:
            # one transverse tensor, one Scal_t and one Bochner action a chunk;
            # each residual is an exactly rounded sum of its point's row
            Rn = transverse_riemann(space_form(q, K0), A)
            scal = Rn.scalar().tolist()
            w = kahler_form(model, frame).coeffs
            act = curvature_action_on_form(Rn, AlternatingForm(2, q, w)).coeffs
        rows = zip(norms, closed, kappas, frame.gram_residual.tolist())
        for r, (norm, cf, kappa, gram) in enumerate(rows):
            k = k0 + r
            builder.residual_check(f"hopf.frame_gram.point{k}", gram, FRAME_TOL)
            if abs(cf - norm) > 1e-8:
                builder.finding(
                    "closed-form-discrepancy",
                    "closed-form |A|^2 (as printed) disagrees with the bracket "
                    "route; the bracket route is the source of truth",
                    {"point": k, "bracket": norm, "closed": cf, "difference": cf - norm})
            if model.is_hopf:
                builder.residual_check(
                    f"hopf.oneill_norm_value.point{k}", norm - 2.0 * (model.m - 1), 1e-9)
                builder.residual_check(f"hopf.mean_curvature_zero.point{k}", kappa, 1e-10)
                builder.residual_check(f"hopf.transverse_scalar.point{k}",
                                       scal[r] - (q * (q - 1) + 3.0 * norm), 1e-9)
                builder.residual_check(f"hopf.kahler_parallel.point{k}",
                                       math.sqrt(math.fsum((act[r] * act[r]).tolist())), 1e-9)
                builder.residual_check(f"hopf.kahler_curvature_pairing.point{k}",
                                       math.fsum((act[r] * w[r]).tolist()), 1e-9)
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
    """A row of the theorem table.  ``evaluate(ctx, A)`` takes the O'Neill
    tensor of a chunk of points and returns {check id: (lhs, rhs)}, each side
    one value a point or one value for all of them."""

    evaluate: Callable
    needs_p: bool = False  # takes --p under the q >= 4, 2 <= p <= q-2 hypothesis
    finding: tuple[str, str] = ("negative-gap", "bound violated at a sampled point")


def _scal_t(q: int, A):
    """Scal_t over the unit sphere, summed from the structure of R_t."""
    return transverse_riemann(space_form(q, K0), A).scalar()


BOUNDS = {
    "3.1": Bound(lambda c, A: {"thm3.1": thm31_sides(K0, RHO1, c.q, c.p, A.norm_sq)},
                 needs_p=True),
    "3.2": Bound(lambda c, A: {"thm3.2": thm32_sides(
        float(c.n * (c.n - 1)), K1, RHO1, c.n, c.q, c.p, A.norm_sq)}, needs_p=True),
    "4.1": Bound(lambda c, A: {"thm4.1": thm41_sides(
        _scal_t(c.q, A), K0, RHO1, c.q, c.p, A.norm_sq)}, needs_p=True,
        finding=("negative-gap", "bound violated at a sampled point (existence-type: "
                 "the theorem bounds |A|^2 at some point, not at every point)")),
    "sandwich": Bound(lambda c, A: {
        f"sandwich.{side}": sides
        for side, sides in sandwich_sides(_scal_t(c.q, A), K0, K1, c.q, A.norm_sq).items()}),
    # certified when -(q-1)/2 >= the maximum of the obstruction quantity
    "cor3.1": Bound(lambda c, A: {"cor3.1": (-(c.q - 1) / 2.0, cor31_max(space_form(c.q, K0), A))},
                    finding=("obstruction-not-certified", "maximum of the obstruction "
                             "quantity exceeded the certification threshold")),
}


def cmd_bounds(args) -> int:
    _refuse_below_one(args, "samples")
    row = BOUNDS[args.theorem]
    tol = _tolerance(args, 1e-9)
    model = _model(args)
    q = model.q
    if row.needs_p:
        if args.p is None:
            raise ValueError(f"bounds: --p is required for theorem {args.theorem}")
        _check_pq(q, args.p)
    builder = report_mod.ReportBuilder({
        "command": "bounds", "theorem": args.theorem, "m": args.m,
        "theta": list(model.theta), "p": args.p, "samples": args.samples,
        "seed": args.seed,
    })
    ctx = SimpleNamespace(n=2 * args.m - 1, q=q, p=args.p)
    for k0, pts in _point_chunks(model, args.seed, args.samples):
        A, _ = oneill_from_brackets(model, pts)
        norms = A.norm_sq.tolist()
        sides = {name: [np.broadcast_to(x, len(norms)).tolist() for x in pair]
                 for name, pair in row.evaluate(ctx, A).items()}
        for r, norm in enumerate(norms):
            k = k0 + r
            for name, (lhs, rhs) in sides.items():
                check = builder.bound_check(f"bounds.{name}.point{k}", lhs[r], rhs[r], tol)
                if not check["pass"]:
                    builder.finding(*row.finding, {"point": k, "check": check["name"],
                                                   "oneill_norm_sq": norm})
    gaps = [c["gap"] for c in builder.checks]
    _emit(args, builder, {"gap": {"min": min(gaps), "max": max(gaps), "per_check": gaps},
                          "all_passed": builder.all_passed})
    # gap negativity is a finding, not a failure
    return 0


@functools.cache  # once a process; ``choices`` reads the live BOUNDS
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
    tolerance(pb)
    common(pb)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        command = {"verify": cmd_verify, "hopf": cmd_hopf, "bounds": cmd_bounds}[args.command]
        _refuse_unwritable_out(args)
        return command(args)
    except (DegeneratePointError, BracketRouteError) as exc:  # before ValueError
        print(f"sampling failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

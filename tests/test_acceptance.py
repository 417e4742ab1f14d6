"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion (run with ``pytest -s`` to see them)."""

import contextlib
import itertools

import numpy as np

from folcurv.curvature import (
    curvature_action_on_form,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from folcurv.exterior import (
    flat,
    hodge,
    inner,
    interior_vector,
    wedge,
)
from folcurv.hopf import (
    WeightedHopfModel,
    adapted_frame,
    kahler_form,
    mean_curvature,
    oneill_closed_form,
    oneill_from_brackets,
    sample_point,
)
from folcurv.oneill import (
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_scan,
    hodge_trace_residual,
    master_identity_residual,
    prop31_value,
    sandwich_check,
    thm31_report,
    thm32_report,
    thm41_report,
)
from folcurv.synthetic import random_curvature, random_form, random_instance, random_skew_oneill


@contextlib.contextmanager
def criterion(cid, text):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {cid}: {text}")
        raise
    print(f"[PASS] {cid}: {text}")


def s5_hopf_data(seed=0):
    model = WeightedHopfModel(3, (1.0, 1.0, 1.0))
    pt = sample_point(model, seed)
    frame = adapted_frame(model, pt)
    A, _ = oneill_from_brackets(model, pt, frame=frame)
    return model, pt, frame, A


def test_criterion_01_hopf_oneill_norm_both_routes():
    with criterion("C1", "|A|^2 = 2(m-1) on unit-weight models, both routes, "
                         "m in {2,3,4,5}, 100 points each"):
        for m in (2, 3, 4, 5):
            model = WeightedHopfModel(m, (1.0,) * m)
            rng = np.random.default_rng(100 + m)
            for _ in range(100):
                pt = sample_point(model, rng)
                A, _ = oneill_from_brackets(model, pt)
                closed = oneill_closed_form(model, pt)
                assert abs(A.norm_sq - 2.0 * (m - 1)) < 1e-9
                assert abs(closed - A.norm_sq) < 1e-8
                assert abs(closed - 2.0 * (m - 1)) < 1e-8


def test_criterion_02_thm31_sharp_on_s5():
    with criterion("C2", "parallel-form bound sharp on the 5-sphere model "
                         "(q=4, p=2): gap 0 within 1e-9"):
        _, _, _, A = s5_hopf_data()
        rep = thm31_report(1.0, 1.0, 4, 2, A)
        assert abs(rep.gap) < 1e-9
        assert rep.lhs == rep.inputs["oneill_norm_sq"] * 2


def test_criterion_03_thm32_sharp_on_s5():
    with criterion("C3", "scalar-curvature bound sharp on the 5-sphere "
                         "(Scal=20, n=5): gap 0 within 1e-9"):
        _, _, _, A = s5_hopf_data()
        rep = thm32_report(20.0, 1.0, 1.0, 5, 4, 2, A)
        assert abs(rep.gap) < 1e-9


def test_criterion_04_thm41_sharp_on_s5():
    with criterion("C4", "harmonic-form bound on the 5-sphere: lhs = rhs = 36 "
                         "within 1e-9"):
        _, _, _, A = s5_hopf_data()
        rep = thm41_report(24.0, 1.0, 1.0, 4, 2, A)
        assert abs(rep.lhs - 36.0) < 1e-9
        assert abs(rep.rhs - 36.0) < 1e-9
        assert abs(rep.gap) < 1e-9


def test_criterion_05_transverse_scalar_and_sandwich():
    with criterion("C5", "transverse scalar = 24 on the 5-sphere model and the "
                         "sandwich identity holds with equality on all "
                         "unit-weight models"):
        _, _, _, A = s5_hopf_data()
        RM = space_form(4, 1.0)
        _, scal = transverse_ricci(RM, A)
        assert abs(scal - 24.0) < 1e-9
        assert abs(3.0 * A.norm_sq - (scal - 4 * 3 * 1.0)) < 1e-9
        for m in (2, 3, 4, 5):
            model = WeightedHopfModel(m, (1.0,) * m)
            q = model.q
            pt = sample_point(model, 200 + m)
            Am, _ = oneill_from_brackets(model, pt)
            _, scal_m = transverse_ricci(space_form(q, 1.0), Am)
            lower, upper = sandwich_check(scal_m, 1.0, 1.0, q, Am)
            assert abs(lower.gap) < 1e-9 and abs(upper.gap) < 1e-9


def test_criterion_06_parallel_form_certificate():
    with criterion("C6", "the canonical 2-form is parallel: <R(w), w> = 0 and "
                         "the obstruction quantity equals |B+(w)|^2, 1e-9"):
        model, pt, frame, A = s5_hopf_data(seed=1)
        w = kahler_form(model, frame)
        RM = space_form(4, 1.0)
        Rn = transverse_riemann(RM, A)
        act = curvature_action_on_form(Rn, w)
        assert abs(inner(act, w)) < 1e-9
        assert abs(prop31_value(RM, A, w) - bplus_norm(A, w)) < 1e-9


def test_criterion_07_master_identity():
    with criterion("C7", "master identity residual < 1e-10 on 200 seeded "
                         "instances per (q,p) in {4,5}x{1,2,3}"):
        for q, p in itertools.product((4, 5), (1, 2, 3)):
            rng = np.random.default_rng(7000 + 10 * q + p)
            for k in range(200):
                RM, A, a = random_instance(rng, q, p, vdim=1 + k % 3)
                assert abs(master_identity_residual(RM, A, a)) < 1e-10


def test_criterion_08_b_tensor_norm_identities():
    with criterion("C8", "B+ and B- definitional vs closed norms agree to "
                         "1e-10 on 200 random instances each"):
        rng = np.random.default_rng(8001)
        for k in range(200):
            q = 4 + k % 2
            p = 1 + k % 3
            A = random_skew_oneill(rng, q, 1 + k % 3)
            a = random_form(rng, q, p)
            assert abs(bplus_norm(A, a) - bplus_norm_closed(A, a)) < 1e-10
        rng = np.random.default_rng(8002)
        for k in range(200):
            q = 4 + k % 2
            p = 2 + k % 2
            A = random_skew_oneill(rng, q, 1 + k % 3)
            a = random_form(rng, q, p)
            assert abs(bminus_norm(A, a) - bminus_norm_closed(A, a)) < 1e-10


def test_criterion_09_trace_identity_and_estimates():
    with criterion("C9", "duality trace identity exact to 1e-10 and both "
                         "curvature/contraction estimates hold with margin "
                         ">= -1e-10 on 200 random instances"):
        from folcurv.oneill import two_form_rewrite

        rng = np.random.default_rng(9001)
        for k in range(200):
            q = 4 + k % 2
            p = 1 + k % 4
            R = random_curvature(rng, q)
            a = random_form(rng, q, p)
            assert abs(hodge_trace_residual(R, a)) < 1e-10
            d = two_form_rewrite(R, a)
            assert abs(d["half_s2"] - d["theta_route"]) < 1e-10
            assert d["bound"] - d["half_s2"] >= -1e-10
            A = random_skew_oneill(rng, q, 1 + k % 3)
            ch = contraction_chain(A, a)
            for s in range(A.vdim):
                assert ch["q_sum_bivector_per_s"][s] - ch["mixed_term_per_s"][s] \
                    >= -1e-10
                assert ch["q_sum_contraction_per_s"][s] \
                    - ch["q_sum_bivector_per_s"][s] >= -1e-10


def test_criterion_10_one_form_obstruction():
    with criterion("C10", "obstruction scan on the 5- and 7-sphere models: "
                          "max over 1000 unit 1-forms <= -(q-1)/2 + 1e-9"):
        for m in (3, 4):
            model = WeightedHopfModel(m, (1.0,) * m)
            q = model.q
            pt = sample_point(model, 300 + m)
            A, _ = oneill_from_brackets(model, pt)
            best = cor31_scan(space_form(q, 1.0), A, trials=1000, rng_seed=m)
            assert best <= -(q - 1) / 2.0 + 1e-9


def test_criterion_11_nonconstancy_and_mean_curvature():
    with criterion("C11", "weighted model (1,1,0.5): |A|^2 variance > 0.01 "
                          "over 100 points; mean curvature > 1e-3 generically "
                          "and < 1e-10 for unit weights"):
        model = WeightedHopfModel(3, (1.0, 1.0, 0.5))
        rng = np.random.default_rng(1100)
        vals = []
        for _ in range(100):
            pt = sample_point(model, rng)
            A, _ = oneill_from_brackets(model, pt)
            vals.append(A.norm_sq)
        assert np.var(vals) > 0.01
        pt = sample_point(model, 1101)
        assert np.linalg.norm(mean_curvature(model, pt)) > 1e-3
        hopf = WeightedHopfModel(3, (1.0, 1.0, 1.0))
        pt = sample_point(hopf, 1102)
        assert np.linalg.norm(mean_curvature(hopf, pt)) < 1e-10


def test_criterion_12_exterior_algebra_suite():
    with criterion("C12", "Hodge involution, star contraction rule, Leibniz "
                          "rule, and the contraction sum identity for q <= 6 "
                          "at 1e-12"):
        rng = np.random.default_rng(1200)
        for q in range(2, 7):
            for p in range(0, q + 1):
                for _ in range(10):
                    a = random_form(rng, q, p)
                    sign = (-1.0) ** (p * (q - p))
                    assert np.max(np.abs(hodge(hodge(a)).coeffs
                                         - sign * a.coeffs)) <= 1e-12
                    x = rng.standard_normal(q)
                    if p < q:
                        lhs = interior_vector(x, hodge(a))
                        rhs = ((-1.0) ** p) * hodge(wedge(flat(x, q), a))
                        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12
                    if p >= 1:
                        total = sum(interior_vector(np.eye(q)[i], a).norm_sq
                                    for i in range(q))
                        assert abs(total - p * a.norm_sq) <= 1e-12
            for _ in range(10):
                pw = int(rng.integers(1, q))
                pt_deg = int(rng.integers(1, q - pw + 1))
                w = random_form(rng, q, pw)
                t = random_form(rng, q, pt_deg)
                x = rng.standard_normal(q)
                lhs = interior_vector(x, wedge(w, t))
                rhs = wedge(interior_vector(x, w), t) + \
                    ((-1.0) ** pw) * wedge(w, interior_vector(x, t))
                assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12

"""Integrability-tensor quantities: norm routes, B+/B- identities, the
master identity, and the bound evaluators."""

import numpy as np
import pytest

from folcurv.curvature import space_form, transverse_ricci, transverse_riemann
from folcurv.exterior import AlternatingForm, contractions, interior_vector
from folcurv.oneill import (
    BoundReport,
    MasterIdentityError,
    ONeillTensor,
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_scan,
    hodge_trace_residual,
    master_identity_residual,
    mixed_bivector_term,
    oneill_norm,
    prop31_value,
    prop41_check,
    sandwich_check,
    thm31_report,
    thm32_report,
    thm41_report,
    two_form_rewrite,
    vertical_contraction_term,
)
from folcurv.synthetic import random_curvature, random_form, random_instance, random_skew_oneill


def hopf_like_oneill(q=4):
    """The S^5-type integrability tensor: paired +-1 entries, |A|^2 = 4."""
    a = np.zeros((q, q, 1))
    a[0, 1, 0], a[1, 0, 0] = 1.0, -1.0
    a[2, 3, 0], a[3, 2, 0] = 1.0, -1.0
    return ONeillTensor(a)


# ---------------------------------------------------------------------------
# tensor type
# ---------------------------------------------------------------------------


def test_skewness_is_enforced_exactly():
    bad = np.zeros((3, 3, 1))
    bad[0, 1, 0] = 1.0
    with pytest.raises(ValueError, match="skew"):
        ONeillTensor(bad)


def test_derived_vertical_action():
    A = random_skew_oneill(np.random.default_rng(1), 4, 2)
    for i in range(4):
        for s in range(2):
            assert np.all(A.horizontal_action(i, s) == -A.a[i, :, s])


def test_norm_routes_agree():
    rng = np.random.default_rng(2)
    A = random_skew_oneill(rng, 5, 3)
    # independent double loop through the derived vertical action
    other = sum(
        float(A.horizontal_action(i, s) @ A.horizontal_action(i, s))
        for i in range(5) for s in range(3))
    assert oneill_norm(A) == pytest.approx(other, abs=1e-12)
    assert oneill_norm(ONeillTensor.zero(4, 2)) == 0.0
    assert oneill_norm(hopf_like_oneill()) == 4.0


# ---------------------------------------------------------------------------
# elementary terms
# ---------------------------------------------------------------------------


def test_vertical_contraction_single_entry_hand_case():
    # unit 2-form on (0,1), single entry a[0,1] = t: both routes give 2 t^2
    t = 0.6
    a = AlternatingForm.basis(4, (0, 1))
    m = np.zeros((4, 4, 1))
    m[0, 1, 0], m[1, 0, 0] = t, -t
    A = ONeillTensor(m)
    val = vertical_contraction_term(A, a)
    assert val == pytest.approx(2 * t * t, abs=1e-14)
    closed = float(np.einsum("lis,ljs,ij->", A.a, A.a, _gram(a)))
    assert val == pytest.approx(closed, abs=1e-14)


def _gram(a):
    V = contractions(a, 1)
    return V @ V.T


def test_vertical_contraction_matches_gram_route():
    rng = np.random.default_rng(3)
    for q, p in [(4, 1), (4, 2), (5, 3)]:
        A = random_skew_oneill(rng, q, 2)
        a = random_form(rng, q, p)
        closed = float(np.einsum("lis,ljs,ij->", A.a, A.a, _gram(a)))
        assert vertical_contraction_term(A, a) == pytest.approx(closed, abs=1e-12)
    assert vertical_contraction_term(ONeillTensor.zero(4, 1),
                                     random_form(rng, 4, 2)) == 0.0


def test_mixed_bivector_term_against_assembled_bivector():
    rng = np.random.default_rng(5)
    for q, p in [(4, 2), (5, 2), (5, 3)]:
        A = random_skew_oneill(rng, q, 2)
        a = random_form(rng, q, p)
        expect = 0.0
        for s in range(A.vdim):
            acc = AlternatingForm.zero(p - 2, q)
            for i in range(q):
                u = A.horizontal_action(i, s)
                ei = np.zeros(q)
                ei[i] = 1.0
                acc = acc + interior_vector(u, interior_vector(ei, a))
            expect += acc.norm_sq
        assert mixed_bivector_term(A, a) == pytest.approx(expect, abs=1e-12)


def test_mixed_bivector_degree_underflow_and_zero():
    rng = np.random.default_rng(7)
    A = random_skew_oneill(rng, 4, 2)
    assert mixed_bivector_term(A, random_form(rng, 4, 1)) == 0.0
    assert mixed_bivector_term(ONeillTensor.zero(4, 2), random_form(rng, 4, 2)) == 0.0


# ---------------------------------------------------------------------------
# B+ / B- norm identities
# ---------------------------------------------------------------------------


def test_bplus_identities_random():
    rng = np.random.default_rng(11)
    for q in (4, 5):
        for p in (1, 2, 3):
            for k in range(25):
                A = random_skew_oneill(rng, q, 1 + k % 3)
                a = random_form(rng, q, p)
                assert bplus_norm(A, a) == pytest.approx(
                    bplus_norm_closed(A, a), abs=1e-10)
    assert bplus_norm(ONeillTensor.zero(4), random_form(rng, 4, 2)) == 0.0


def test_bplus_p1_reduces_to_first_sum():
    rng = np.random.default_rng(13)
    A = random_skew_oneill(rng, 4, 2)
    a = random_form(rng, 4, 1)
    first_sum = float(np.einsum("kis,kjs,ij->", A.a, A.a, _gram(a)))
    assert bplus_norm_closed(A, a) == pytest.approx(first_sum, abs=1e-13)
    assert bplus_norm(A, a) == pytest.approx(first_sum, abs=1e-12)


def test_bminus_vacuous_below_degree_two():
    rng = np.random.default_rng(17)
    A = random_skew_oneill(rng, 4, 2)
    assert bminus_norm(A, random_form(rng, 4, 1)) == 0.0
    assert bminus_norm_closed(A, random_form(rng, 4, 1)) == 0.0


def test_bminus_hand_expanded_case():
    # a = e0 ^ e1, single entry a[0,2] = t: |B-|^2 = 2 t^2
    t = 0.7
    a = AlternatingForm.basis(4, (0, 1))
    m = np.zeros((4, 4, 1))
    m[0, 2, 0], m[2, 0, 0] = t, -t
    A = ONeillTensor(m)
    assert bminus_norm(A, a) == pytest.approx(2 * t * t, abs=1e-14)
    assert bminus_norm_closed(A, a) == pytest.approx(2 * t * t, abs=1e-14)


def test_bminus_identities_random():
    rng = np.random.default_rng(19)
    for q, p in [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4)]:
        for k in range(25):
            A = random_skew_oneill(rng, q, 1 + k % 3)
            a = random_form(rng, q, p)
            assert bminus_norm(A, a) == pytest.approx(
                bminus_norm_closed(A, a), abs=1e-10)


# ---------------------------------------------------------------------------
# master identity and the parallel-form quantity
# ---------------------------------------------------------------------------


def test_master_identity_on_random_instances():
    rng = np.random.default_rng(23)
    for q in (4, 5):
        for p in (1, 2, 3):
            for k in range(30):
                RM, A, a = random_instance(rng, q, p, vdim=1 + k % 3)
                assert abs(master_identity_residual(RM, A, a)) < 1e-10


def test_master_identity_reduces_to_weitzenbock_for_zero_tensor():
    rng = np.random.default_rng(29)
    q, p, c = 5, 2, 0.8
    RM = space_form(q, c)
    A = ONeillTensor.zero(q)
    a = random_form(rng, q, p)
    assert abs(master_identity_residual(RM, A, a)) < 1e-12
    # with A = 0 the right side is the two ambient contractions alone
    from folcurv.curvature import curvature_term

    assert curvature_term(RM, a) == pytest.approx(c * p * (q - p) * a.norm_sq,
                                                  abs=1e-12)


def test_master_identity_violation_raises_with_digest():
    rng = np.random.default_rng(31)
    RM, A, a = random_instance(rng, 4, 2, vdim=1)
    with pytest.raises(MasterIdentityError) as err:
        master_identity_residual(RM, A, a, tol=0.0)
    assert err.value.digest["q"] == 4
    assert err.value.digest["p"] == 2


def test_prop31_zero_form_and_zero_tensor_space_form_value():
    rng = np.random.default_rng(37)
    q, c = 5, 0.9
    RM = space_form(q, c)
    A = ONeillTensor.zero(q)
    zero = AlternatingForm(2, q)
    assert prop31_value(RM, A, zero) == 0.0
    # for a unit 1-form with A = 0 the value is -(q-1)c = -<R(a), a>:
    # the bivector sums underflow at p = 1, so only the Ricci part remains
    a = random_form(rng, q, 1)
    assert prop31_value(RM, A, a) == pytest.approx(-(q - 1) * c, abs=1e-12)
    # the identity E = |B+|^2 - <R(a),a> (oracle route) on random instances
    from folcurv.curvature import curvature_term

    for k in range(10):
        RM2, A2, a2 = random_instance(rng, 4, 2, vdim=2)
        Rn = transverse_riemann(RM2, A2)
        pairing = curvature_term(Rn, a2)
        assert prop31_value(RM2, A2, a2) == pytest.approx(
            bplus_norm(A2, a2) - pairing, abs=1e-10)


# ---------------------------------------------------------------------------
# sandwich bound
# ---------------------------------------------------------------------------


def test_sandwich_equality_on_space_forms():
    A = hopf_like_oneill()
    RM = space_form(4, 1.0)
    _, scal = transverse_ricci(RM, A)
    assert scal == pytest.approx(24.0, abs=1e-12)
    lower, upper = sandwich_check(scal, 1.0, 1.0, 4, A)
    assert lower.gap == pytest.approx(0.0, abs=1e-12)
    assert upper.gap == pytest.approx(0.0, abs=1e-12)
    assert lower.satisfied and upper.satisfied
    # A = 0 on a space form
    z = ONeillTensor.zero(5)
    _, scal0 = transverse_ricci(space_form(5, 0.3), z)
    low0, up0 = sandwich_check(scal0, 0.3, 0.3, 5, z)
    assert low0.gap == pytest.approx(0.0, abs=1e-12)
    assert up0.gap == pytest.approx(0.0, abs=1e-12)


def test_sandwich_random_instances_hold():
    rng = np.random.default_rng(41)
    for k in range(30):
        q = int(rng.integers(3, 6))
        RM, A, _ = random_instance(rng, q, 1, vdim=1 + k % 3)
        _, scal = transverse_ricci(RM, A)
        c = RM.space_form_curvature
        lower, upper = sandwich_check(scal, c, c, q, A)
        assert lower.gap >= -1e-9 and upper.gap >= -1e-9


def test_sandwich_violation_is_flagged_not_raised():
    A = ONeillTensor.zero(4)
    lower, upper = sandwich_check(100.0, 1.0, 1.0, 4, A)
    assert not lower.satisfied          # 0 >= 100 - 12 fails
    assert isinstance(lower, BoundReport)


# ---------------------------------------------------------------------------
# theorem evaluators
# ---------------------------------------------------------------------------


def test_thm31_sharp_on_s5_numbers():
    rep = thm31_report(1.0, 1.0, 4, 2, hopf_like_oneill())
    assert (rep.lhs, rep.rhs) == (8.0, 8.0)
    assert rep.gap == 0.0 and rep.satisfied


def test_thm31_s7_and_flat():
    a = np.zeros((6, 6, 1))
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        a[i, j, 0], a[j, i, 0] = 1.0, -1.0
    A7 = ONeillTensor(a)                      # |A|^2 = 6 = 2(m-1), m = 4
    rep = thm31_report(1.0, 1.0, 6, 2, A7)
    assert (rep.lhs, rep.rhs, rep.gap) == (24.0, 16.0, 8.0)
    flat = thm31_report(0.0, 0.0, 4, 2, ONeillTensor.zero(4))
    assert flat.lhs == flat.rhs == 0.0


def test_thm31_hypothesis_violations():
    A = hopf_like_oneill()
    with pytest.raises(ValueError, match="hypothesis"):
        thm31_report(1.0, 1.0, 4, 1, A)
    with pytest.raises(ValueError, match="hypothesis"):
        thm31_report(1.0, 1.0, 3, 2, ONeillTensor.zero(3))


def test_thm32_numbers():
    rep = thm32_report(20.0, 1.0, 1.0, 5, 4, 2, hopf_like_oneill())
    assert (rep.lhs, rep.rhs, rep.gap) == (8.0, 8.0, 0.0)
    a = np.zeros((6, 6, 1))
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        a[i, j, 0], a[j, i, 0] = 1.0, -1.0
    rep7 = thm32_report(42.0, 1.0, 1.0, 7, 6, 2, ONeillTensor(a))
    assert (rep7.lhs, rep7.rhs, rep7.gap) == (24.0, 16.0, 8.0)
    flat = thm32_report(0.0, 0.0, 0.0, 5, 4, 2, ONeillTensor.zero(4))
    assert flat.gap == 0.0


def test_thm41_numbers():
    rep = thm41_report(24.0, 1.0, 1.0, 4, 2, hopf_like_oneill())
    assert rep.lhs == pytest.approx(36.0)
    assert rep.rhs == pytest.approx(36.0)
    assert rep.gap == pytest.approx(0.0, abs=1e-12)
    assert rep.note == "existence-type"
    a = np.zeros((6, 6, 1))
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        a[i, j, 0], a[j, i, 0] = 1.0, -1.0
    rep7 = thm41_report(48.0, 1.0, 1.0, 6, 2, ONeillTensor(a))
    assert rep7.lhs == pytest.approx(78.0)
    assert rep7.rhs == pytest.approx(62.0)
    flat = thm41_report(0.0, 0.0, 0.0, 4, 2, ONeillTensor.zero(4))
    assert flat.lhs == flat.rhs == 0.0


def test_bound_report_gap_is_exact_difference():
    rep = thm31_report(1.0, 1.0, 4, 2, hopf_like_oneill())
    assert rep.gap == rep.lhs - rep.rhs


# ---------------------------------------------------------------------------
# prop 4.1
# ---------------------------------------------------------------------------


def test_prop41_holds_and_slack_is_b_tensor_norms():
    rng = np.random.default_rng(43)
    for q in (4, 5):
        for p in (1, 2, 3):
            for k in range(15):
                RM, A, a = random_instance(rng, q, p, vdim=1 + k % 2)
                rep = prop41_check(RM, A, a)
                assert rep.gap >= -1e-9
                slack = 0.5 * bminus_norm(A, a) + bplus_norm(A, a)
                assert rep.gap == pytest.approx(slack, abs=1e-10)


def test_prop41_p1_space_form_zero_tensor():
    rng = np.random.default_rng(47)
    RM = space_form(4, 1.0)
    A = ONeillTensor.zero(4)
    a = random_form(rng, 4, 1)
    rep = prop41_check(RM, A, a)
    assert rep.satisfied
    # with A = 0 and p = 1 the dropped slack is exactly zero
    assert rep.gap == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# corollary scan
# ---------------------------------------------------------------------------


def test_cor31_scan_signs():
    A = hopf_like_oneill()
    RM = space_form(4, 1.0)
    best = cor31_scan(RM, A, trials=500, rng_seed=3)
    assert best < -(4 - 1) / 2.0          # comfortably negative
    flat = cor31_scan(space_form(4, 0.0), ONeillTensor.zero(4), 100, 3)
    assert flat == 0.0
    neg = cor31_scan(space_form(4, -0.5), ONeillTensor.zero(4), 100, 3)
    assert neg > 0.0


# ---------------------------------------------------------------------------
# estimates and the duality trace identity
# ---------------------------------------------------------------------------


def test_two_form_rewrite_and_bound():
    rng = np.random.default_rng(53)
    for q, p in [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 4)]:
        R = random_curvature(rng, q)
        a = random_form(rng, q, p)
        d = two_form_rewrite(R, a)
        assert d["half_s2"] == pytest.approx(d["theta_route"], abs=1e-10)
        assert d["half_s2"] <= d["bound"] + 1e-10
    # degree 1: everything degenerates to zero
    d1 = two_form_rewrite(random_curvature(rng, 4), random_form(rng, 4, 1))
    assert d1["half_s2"] == 0.0 and d1["theta_route"] == 0.0


def test_contraction_chain_bivector_reading_holds():
    rng = np.random.default_rng(59)
    for q in (4, 5):
        for p in (1, 2, 3):
            for k in range(10):
                A = random_skew_oneill(rng, q, 1 + k % 3)
                a = random_form(rng, q, p)
                ch = contraction_chain(A, a)
                for s in range(A.vdim):
                    assert ch["mixed_term_per_s"][s] <= \
                        ch["q_sum_bivector_per_s"][s] + 1e-10
                    assert ch["q_sum_bivector_per_s"][s] <= \
                        ch["q_sum_contraction_per_s"][s] + 1e-10


def test_hodge_trace_identity():
    rng = np.random.default_rng(61)
    for q in (4, 5):
        for p in range(0, q + 1):
            R = random_curvature(rng, q)
            a = random_form(rng, q, p)
            assert abs(hodge_trace_residual(R, a)) < 1e-10


def test_duality_assembled_bound():
    # E(a) + E(*a) <= -(sum R[l,i,l,i]) |a|^2
    #                + (p(p-1) + (q-p)(q-p-1)) rho1 |a|^2 + (q-2)|A|^2 |a|^2,
    # the estimate chain behind the parallel-form bound, with the advertised
    # p <-> q-p symmetry of the degree constant
    from folcurv.curvature import curvature_operator_extremes
    from folcurv.exterior import hodge

    rng = np.random.default_rng(67)
    for q, p in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        for k in range(10):
            RM, A, a = random_instance(rng, q, p, vdim=1 + k % 2)
            _, rho1 = curvature_operator_extremes(RM)
            lhs = prop31_value(RM, A, a) + prop31_value(RM, A, hodge(a))
            const = p * (p - 1) + (q - p) * (q - p - 1)
            rhs = (-RM.scalar() + const * rho1 + (q - 2) * oneill_norm(A)) * a.norm_sq
            assert lhs <= rhs + 1e-9
            assert const == (q - p) * (q - p - 1) + p * (p - 1)

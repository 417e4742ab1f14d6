"""Integrability-tensor quantities: norm routes, B+/B- identities, the
master identity, and the bound evaluators."""

import itertools
from math import comb

import numpy as np
import pytest

from folcurv.curvature import (
    RiemannTensor,
    bivector_curvature_sum,
    curvature_action_on_form,
    curvature_term,
    ricci_contraction,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from folcurv import exterior, oneill
from folcurv.curvature import _add_oneill_terms
from folcurv.exterior import AlternatingForm, contractions, flat, inner, interior_vector, wedge
from folcurv.hopf import WeightedHopfModel, oneill_from_brackets, sample_point
from folcurv.oneill import (
    ONeillTensor,
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_max,
    hodge_trace_residual,
    master_identity_residual,
    mixed_bivector_term,
    prop31_value,
    prop41_sides,
    sandwich_sides,
    thm31_sides,
    thm32_sides,
    thm41_sides,
    two_form_rewrite,
    vertical_contraction_term,
)
from folcurv.synthetic import random_form, random_trials

from oracles import (
    basis_form,
    cor31_scan,
    einsum_bivector_curvature_sum,
    einsum_gram,
    einsum_norm_closed,
    einsum_oneill_terms,
    random_curvature,
    random_instance,
    random_skew_oneill,
)


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


@pytest.mark.parametrize("stack", [(), (1,), (3,)])
def test_repr_names_shape_not_norm(stack):
    # on a stack norm_sq is an array, which a float format cannot print
    A = ONeillTensor(np.zeros(stack + (4, 4, 2)))
    assert repr(A) == f"ONeillTensor(q=4, vdim=2, stack={stack})"


def test_derived_vertical_action():
    A = random_skew_oneill(np.random.default_rng(1), 4, 2)
    for i in range(4):
        for s in range(2):
            # A_{e_i} V_s read as -a[i, :, s] or, by skewness, as a[:, i, s]
            assert np.all(-A.a[..., i, :, s] == A.a[:, i, s])


@pytest.mark.parametrize("vdim", [1, 2, 3])
def test_square_is_its_einsum_definition(vdim):
    # S[i, j] = sum_{l,s} a[l,i,s] a[l,j,s], on one tensor and on a stack,
    # each row of the stack the square of that row's tensor
    rng = np.random.default_rng(40 + vdim)
    A = random_skew_oneill(rng, 5, vdim)
    assert np.allclose(A.square, np.einsum("lis,ljs->ij", A.a, A.a), rtol=0, atol=1e-14)
    (trials,) = random_trials(rng, 5, 2, [vdim] * 4)
    stack = trials.build()[1]
    S = stack.square
    assert S.shape == (4, 5, 5)
    assert np.allclose(S, np.einsum("...lis,...ljs->...ij", stack.a, stack.a), rtol=0, atol=1e-14)
    for r in range(4):
        assert np.allclose(S[r], ONeillTensor(stack.a[r]).square, rtol=0, atol=1e-14)


def test_norm_routes_agree():
    rng = np.random.default_rng(2)
    A = random_skew_oneill(rng, 5, 3)
    # independent double loop through the derived vertical action
    other = sum(
        float(-A.a[..., i, :, s] @ -A.a[..., i, :, s])
        for i in range(5) for s in range(3))
    assert A.norm_sq == pytest.approx(other, abs=1e-12)
    assert ONeillTensor(np.zeros((4, 4, 2))).norm_sq == 0.0
    assert hopf_like_oneill().norm_sq == 4.0


# ---------------------------------------------------------------------------
# elementary terms
# ---------------------------------------------------------------------------


def test_vertical_contraction_single_entry_hand_case():
    # unit 2-form on (0,1), single entry a[0,1] = t: both routes give 2 t^2
    t = 0.6
    a = basis_form(4, (0, 1))
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
    assert vertical_contraction_term(ONeillTensor(np.zeros((4, 4, 1))),
                                     random_form(rng, 4, 2)) == 0.0


def test_mixed_bivector_term_against_assembled_bivector():
    rng = np.random.default_rng(5)
    for q, p in [(4, 2), (5, 2), (5, 3)]:
        A = random_skew_oneill(rng, q, 2)
        a = random_form(rng, q, p)
        expect = 0.0
        for s in range(A.vdim):
            acc = AlternatingForm(p - 2, q, np.zeros(comb(q, p - 2)))
            for i in range(q):
                u = -A.a[..., i, :, s]
                ei = np.zeros(q)
                ei[i] = 1.0
                acc = acc + interior_vector(u, interior_vector(ei, a))
            expect += acc.norm_sq
        assert mixed_bivector_term(A, a) == pytest.approx(expect, abs=1e-12)


def test_mixed_bivector_degree_underflow_and_zero():
    rng = np.random.default_rng(7)
    A = random_skew_oneill(rng, 4, 2)
    assert mixed_bivector_term(A, random_form(rng, 4, 1)) == 0.0
    assert mixed_bivector_term(ONeillTensor(np.zeros((4, 4, 2))), random_form(rng, 4, 2)) == 0.0


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
    assert bplus_norm(ONeillTensor(np.zeros((4, 4, 1))), random_form(rng, 4, 2)) == 0.0


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
    a = basis_form(4, (0, 1))
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
                Rt = transverse_riemann(RM, A)
                assert abs(master_identity_residual(RM, A, a, Rt=Rt)) < 1e-10


def test_master_identity_reduces_to_weitzenbock_for_zero_tensor():
    rng = np.random.default_rng(29)
    q, p, c = 5, 2, 0.8
    RM = space_form(q, c)
    A = ONeillTensor(np.zeros((q, q, 1)))
    a = random_form(rng, q, p)
    assert abs(master_identity_residual(RM, A, a, Rt=transverse_riemann(RM, A))) < 1e-12
    # with A = 0 the right side is the two ambient contractions alone
    assert curvature_term(RM, a) == pytest.approx(c * p * (q - p) * a.norm_sq,
                                                  abs=1e-12)


def test_prop31_zero_form_and_zero_tensor_space_form_value():
    rng = np.random.default_rng(37)
    q, c = 5, 0.9
    RM = space_form(q, c)
    A = ONeillTensor(np.zeros((q, q, 1)))
    zero = AlternatingForm(2, q, np.zeros(comb(q, 2)))
    assert prop31_value(RM, A, zero) == 0.0
    # for a unit 1-form with A = 0 the value is -(q-1)c = -<R(a), a>:
    # the bivector sums underflow at p = 1, so only the Ricci part remains
    a = random_form(rng, q, 1)
    assert prop31_value(RM, A, a) == pytest.approx(-(q - 1) * c, abs=1e-12)
    # the identity E = |B+|^2 - <R(a),a> (oracle route) on random instances
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
    sides = sandwich_sides(scal, 1.0, 1.0, 4, A.norm_sq)
    assert list(sides) == ["lower", "upper"]
    for lhs, rhs in sides.values():
        assert lhs - rhs == pytest.approx(0.0, abs=1e-12)
    # A = 0 on a space form
    z = ONeillTensor(np.zeros((5, 5, 1)))
    _, scal0 = transverse_ricci(space_form(5, 0.3), z)
    for lhs, rhs in sandwich_sides(scal0, 0.3, 0.3, 5, z.norm_sq).values():
        assert lhs - rhs == pytest.approx(0.0, abs=1e-12)


def test_sandwich_random_instances_hold():
    rng = np.random.default_rng(41)
    for k in range(30):
        q = int(rng.integers(3, 6))
        RM, A, _ = random_instance(rng, q, 1, vdim=1 + k % 3)
        _, scal = transverse_ricci(RM, A)
        c = RM.space_form_curvature
        for lhs, rhs in sandwich_sides(scal, c, c, q, A.norm_sq).values():
            assert lhs - rhs >= -1e-9


def test_sandwich_violation_is_flagged_not_raised():
    lhs, rhs = sandwich_sides(100.0, 1.0, 1.0, 4, 0.0)["lower"]
    assert lhs - rhs < -1e-9            # 0 >= 100 - 12 fails


# ---------------------------------------------------------------------------
# theorem evaluators
# ---------------------------------------------------------------------------


def test_thm31_sharp_on_s5_numbers():
    lhs, rhs = thm31_sides(1.0, 1.0, 4, 2, hopf_like_oneill().norm_sq)
    assert (lhs, rhs) == (8.0, 8.0)
    assert lhs - rhs == 0.0


def test_thm31_s7_and_flat():
    a = np.zeros((6, 6, 1))
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        a[i, j, 0], a[j, i, 0] = 1.0, -1.0
    A7 = ONeillTensor(a)                      # |A|^2 = 6 = 2(m-1), m = 4
    lhs, rhs = thm31_sides(1.0, 1.0, 6, 2, A7.norm_sq)
    assert (lhs, rhs, lhs - rhs) == (24.0, 16.0, 8.0)
    flat = thm31_sides(0.0, 0.0, 4, 2, ONeillTensor(np.zeros((4, 4, 1))).norm_sq)
    assert flat == (0.0, 0.0)


def test_thm31_hypothesis_violations():
    A = hopf_like_oneill()
    with pytest.raises(ValueError, match="hypothesis"):
        thm31_sides(1.0, 1.0, 4, 1, A.norm_sq)
    with pytest.raises(ValueError, match="hypothesis"):
        thm31_sides(1.0, 1.0, 3, 2, ONeillTensor(np.zeros((3, 3, 1))).norm_sq)


def test_thm32_numbers():
    lhs, rhs = thm32_sides(20.0, 1.0, 1.0, 5, 4, 2, hopf_like_oneill().norm_sq)
    assert (lhs, rhs, lhs - rhs) == (8.0, 8.0, 0.0)
    a = np.zeros((6, 6, 1))
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        a[i, j, 0], a[j, i, 0] = 1.0, -1.0
    lhs7, rhs7 = thm32_sides(42.0, 1.0, 1.0, 7, 6, 2, ONeillTensor(a).norm_sq)
    assert (lhs7, rhs7, lhs7 - rhs7) == (24.0, 16.0, 8.0)
    flat = thm32_sides(0.0, 0.0, 0.0, 5, 4, 2, ONeillTensor(np.zeros((4, 4, 1))).norm_sq)
    assert flat[0] - flat[1] == 0.0


def test_thm41_numbers():
    lhs, rhs = thm41_sides(24.0, 1.0, 1.0, 4, 2, hopf_like_oneill().norm_sq)
    assert lhs == pytest.approx(36.0)
    assert rhs == pytest.approx(36.0)
    assert lhs - rhs == pytest.approx(0.0, abs=1e-12)
    a = np.zeros((6, 6, 1))
    for i, j in [(0, 1), (2, 3), (4, 5)]:
        a[i, j, 0], a[j, i, 0] = 1.0, -1.0
    lhs7, rhs7 = thm41_sides(48.0, 1.0, 1.0, 6, 2, ONeillTensor(a).norm_sq)
    assert lhs7 == pytest.approx(78.0)
    assert rhs7 == pytest.approx(62.0)
    flat = thm41_sides(0.0, 0.0, 0.0, 4, 2, ONeillTensor(np.zeros((4, 4, 1))).norm_sq)
    assert flat == (0.0, 0.0)


# ---------------------------------------------------------------------------
# prop 4.1
# ---------------------------------------------------------------------------


def test_prop41_holds_and_slack_is_b_tensor_norms():
    rng = np.random.default_rng(43)
    for q in (4, 5):
        for p in (1, 2, 3):
            for k in range(15):
                RM, A, a = random_instance(rng, q, p, vdim=1 + k % 2)
                lhs, rhs = prop41_sides(RM, A, a)
                assert lhs - rhs >= -1e-9
                slack = 0.5 * bminus_norm(A, a) + bplus_norm(A, a)
                assert lhs - rhs == pytest.approx(slack, abs=1e-10)


def test_prop41_p1_space_form_zero_tensor():
    rng = np.random.default_rng(47)
    RM = space_form(4, 1.0)
    A = ONeillTensor(np.zeros((4, 4, 1)))
    a = random_form(rng, 4, 1)
    lhs, rhs = prop41_sides(RM, A, a)
    assert lhs - rhs >= -1e-9
    # with A = 0 and p = 1 the dropped slack is exactly zero
    assert lhs - rhs == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# corollary 3.1: the exact maximum of the 1-form obstruction
# ---------------------------------------------------------------------------


def obstruction_matrix(c, A):
    """The q x q matrix of E on 1-forms, -c (q-1) I - 2 G, with G summed one
    (l, s) term at a time: G = sum_{l,s} a[l,:,s] a[l,:,s]^T."""
    q = A.q
    G = np.zeros((q, q))
    for l, s in itertools.product(range(q), range(A.vdim)):
        G += np.outer(A.a[l, :, s], A.a[l, :, s])
    return -c * (q - 1) * np.eye(q) - 2.0 * G


COR31_CASES = [(q, vdim, c) for q in (3, 4, 6) for vdim in (1, 2, 3)
               for c in (-1.5, -0.5, 0.0, 0.7, 1.0)]


def test_obstruction_matrix_is_prop31_value_on_one_forms():
    # degree 1: E(v) = v^T M v on a stack of random, not unit, 1-forms
    rng = np.random.default_rng(61)
    for q, vdim, c in COR31_CASES:
        A = random_skew_oneill(rng, q, vdim)
        v = rng.standard_normal((50, q))
        E = prop31_value(space_form(q, c), A, AlternatingForm(1, q, v))
        expect = np.einsum("nj,jk,nk->n", v, obstruction_matrix(c, A), v)
        assert np.all(np.abs(E - expect) <= 1e-12 * np.maximum(1.0, np.abs(expect)))


def test_cor31_max_is_attained_at_the_top_eigenvector():
    rng = np.random.default_rng(67)
    for q, vdim, c in COR31_CASES:
        A = random_skew_oneill(rng, q, vdim)
        RM = space_form(q, c)
        w, V = np.linalg.eigh(obstruction_matrix(c, A))
        best = cor31_max(RM, A)
        scale = max(1.0, abs(best))
        assert abs(best - w[-1]) <= 1e-12 * scale
        top = prop31_value(RM, A, flat(V[:, -1], q))
        assert abs(top - best) <= 1e-12 * scale


def test_sampled_scan_never_exceeds_cor31_max():
    rng = np.random.default_rng(71)
    for k, (q, vdim, c) in enumerate(COR31_CASES):
        A = random_skew_oneill(rng, q, vdim)
        RM = space_form(q, c)
        assert cor31_scan(RM, A, 200, k) <= cor31_max(RM, A) + 1e-12


def test_cor31_max_signs():
    assert cor31_max(space_form(4, 1.0), hopf_like_oneill()) == -5.0    # G = I
    zero = ONeillTensor(np.zeros((4, 4, 1)))
    assert cor31_max(space_form(4, 0.0), zero) == 0.0
    assert cor31_max(space_form(4, -0.5), zero) == 1.5


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_cor31_max_on_unit_weights_is_minus_q_plus_one(m):
    # a = -J on the Hopf models, so G = I and max E = -(q-1) - 2
    model = WeightedHopfModel(m, (1.0,) * m)
    A, _ = oneill_from_brackets(model, sample_point(model, 400 + m))
    assert cor31_max(space_form(model.q, 1.0), A) == pytest.approx(-(model.q + 1), abs=1e-12)


def test_cor31_max_refuses_a_generic_ambient():
    rng = np.random.default_rng(73)
    A = random_skew_oneill(rng, 4, 2)
    with pytest.raises(ValueError, match="space-form ambient"):
        cor31_max(random_curvature(rng, 4), A)
    with pytest.raises(ValueError, match="space-form ambient"):
        cor31_max(transverse_riemann(space_form(4, 1.0), A), A)


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


def _bplus_norm_loop(A, a):
    """|B+(a)|^2 as one wedge per (i, s), summed in Python loops."""
    q = a.dimension
    total = 0.0
    for s in range(A.vdim):
        acc = AlternatingForm(a.degree, q, np.zeros(comb(q, a.degree)))
        for i in range(q):
            acc = acc + wedge(interior_vector(np.eye(q)[i], a),
                              flat(A.a[i, :, s], q))
        total += acc.norm_sq
    return total


def _contraction_chain_loop(A, a):
    """The contraction chain term by term, one (i, s) at a time."""
    p, q = a.degree, a.dimension
    V = contractions(a, 1)
    P = contractions(a, 2) if p >= 2 else None
    out = {"mixed_term_per_s": [], "q_sum_bivector_per_s": [],
           "q_sum_wedge_per_s": [], "q_sum_contraction_per_s": []}
    for s in range(A.vdim):
        mid = midw = end = 0.0
        acc = np.zeros(V.shape[-1] if P is None else P.shape[-1])
        for i in range(q):
            u = -A.a[..., i, :, s]
            if P is not None:
                w = u @ P[i]
                mid += float(w @ w)
                acc = acc + w
            ua = u @ V
            end += float(ua @ ua)
            midw += wedge(flat(u, q),
                          AlternatingForm(p - 1, q, V[i])).norm_sq
        out["mixed_term_per_s"].append(float(acc @ acc) if P is not None else 0.0)
        out["q_sum_bivector_per_s"].append(q * mid)
        out["q_sum_wedge_per_s"].append(q * midw)
        out["q_sum_contraction_per_s"].append(q * end)
    return out


def test_vectorized_bplus_and_chain_match_their_loops():
    rng = np.random.default_rng(71)
    for q, p in [(4, 1), (4, 2), (5, 3), (6, 4)]:
        for vdim in (1, 2, 3):
            A = random_skew_oneill(rng, q, vdim)
            a = random_form(rng, q, p)
            assert bplus_norm(A, a) == pytest.approx(_bplus_norm_loop(A, a), abs=1e-12)
            ch, loop = contraction_chain(A, a), _contraction_chain_loop(A, a)
            assert ch.keys() == loop.keys()
            for k in ch:
                assert np.allclose(ch[k], loop[k], rtol=0, atol=1e-12), k


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
    # p <-> q-p symmetry of the degree constant; on the space forms of
    # random_instance the curvature operator is c times the identity, rho1 = c
    from folcurv.exterior import hodge

    rng = np.random.default_rng(67)
    for q, p in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        for k in range(10):
            RM, A, a = random_instance(rng, q, p, vdim=1 + k % 2)
            rho1 = RM.space_form_curvature
            lhs = prop31_value(RM, A, a) + prop31_value(RM, A, hodge(a))
            const = p * (p - 1) + (q - p) * (q - p - 1)
            rhs = (-RM.scalar() + const * rho1 + (q - 2) * A.norm_sq) * a.norm_sq
            assert lhs <= rhs + 1e-9
            assert const == (q - p) * (q - p - 1) + p * (p - 1)


# ---------------------------------------------------------------------------
# frame-rotation invariance
# ---------------------------------------------------------------------------


def _compound(Q: np.ndarray, p: int) -> np.ndarray:
    """The p-th compound matrix of Q, the p x p minors on increasing index
    tuples: the matrix of Q acting on the coefficients of p-forms."""
    idx = list(itertools.combinations(range(len(Q)), p))
    return np.array([[np.linalg.det(Q[np.ix_(I, J)]) for J in idx] for I in idx])


def _identity_terms(c, A, RK, a) -> dict:
    """Every scalar term of the identities on one instance."""
    RM = space_form(a.dimension, c)
    Rt = transverse_riemann(RM, A)
    return {
        "curvature_term": curvature_term(Rt, a),
        "action_pairing": inner(curvature_action_on_form(Rt, a), a),
        "S1": ricci_contraction(RK, a),
        "S2": bivector_curvature_sum(RK, a),
        "V": vertical_contraction_term(A, a),
        "M": mixed_bivector_term(A, a),
        "bplus": bplus_norm(A, a),
        "bplus_closed": bplus_norm_closed(A, a),
        "bminus": bminus_norm(A, a),
        "bminus_closed": bminus_norm_closed(A, a),
        "prop31": prop31_value(RM, A, a),
    }


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("vdim", [1, 3])
def test_identity_terms_are_frame_rotation_invariant(q, p, vdim):
    # rotating the horizontal frame by Q in O(q) acts on A's two horizontal
    # indices, on all four of R_K's and on a form by the p-th compound of Q;
    # no scalar term of the identities may move
    rng = np.random.default_rng(1000 * q + 10 * p + vdim)
    for _ in range(3):
        c = float(rng.uniform(-1.5, 1.5))
        A = random_skew_oneill(rng, q, vdim)
        RK = random_curvature(rng, q)
        a = random_form(rng, q, p)
        Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
        b = np.einsum("ik,jl,kls->ijs", Q, Q, A.a)
        A_rot = ONeillTensor((b - np.swapaxes(b, 0, 1)) / 2.0)
        RK_rot = RiemannTensor(np.einsum("ia,jb,kc,ld,abcd->ijkl", Q, Q, Q, Q,
                                         RK.components))
        a_rot = AlternatingForm(p, q, _compound(Q, p) @ a.coeffs)
        before = _identity_terms(c, A, RK, a)
        after = _identity_terms(c, A_rot, RK_rot, a_rot)
        for name, t in before.items():
            assert abs(after[name] - t) <= 1e-12 * max(1.0, abs(t)), (name, t, after[name])


def _within(x, y, scale=None):
    """x and y have one shape and differ by at most 1e-13 times max |y|, or
    times the largest ``scale`` where y may vanish exactly (a B+ at p = q)."""
    x, y = np.asarray(x), np.asarray(y)
    scale = np.abs(y) if scale is None else scale
    return x.shape == y.shape and np.max(np.abs(x - y)) <= 1e-13 * np.max(scale)


def _gram_draws(rng, q, vdim, n):
    """(A, R_K, c) of one instance (n None) or of a stack of n."""
    if n is None:
        return random_skew_oneill(rng, q, vdim), random_curvature(rng, q), rng.uniform(-1.5, 1.5)
    return (ONeillTensor(np.array([random_skew_oneill(rng, q, vdim).a for _ in range(n)])),
            RiemannTensor(np.array([random_curvature(rng, q).components for _ in range(n)])),
            rng.uniform(-1.5, 1.5, n))


@pytest.mark.parametrize("q", range(2, 9))
def test_gram_products_match_their_einsum_definitions(q):
    # R_t, the H arrays of the B+/B- closed forms, the Gram pairings of the
    # contraction tables and S2 are one matmul each; their einsum
    # definitions give the same values, for one instance and a stack
    rng = np.random.default_rng(50 + q)
    for vdim in (1, 2, 3):
        for n in (None, 3):
            A, RK, c = _gram_draws(rng, q, vdim, n)
            R = space_form(q, c).components
            assert _within(_add_oneill_terms(R, A.gram), einsum_oneill_terms(R, A.a))
            assert _within(exterior._gram(A.a, 2), einsum_gram(A.a, 2))
            for p in range(1, min(q, 3) + 1):
                a = AlternatingForm(p, q, rng.standard_normal(
                    (() if n is None else (n,)) + (comb(q, p),)))
                for k in range(1, min(p, 2) + 1):
                    X = contractions(a, k)
                    assert _within(exterior._gram(X, k), einsum_gram(X, k))
                size = A.norm_sq * a.norm_sq
                assert _within(bplus_norm_closed(A, a), einsum_norm_closed(A, a, +1), size)
                if p >= 2:
                    assert _within(bminus_norm_closed(A, a), einsum_norm_closed(A, a, -1), size)
                    assert _within(bivector_curvature_sum(RK, a),
                                   einsum_bivector_curvature_sum(RK, a),
                                   np.sqrt(np.sum(RK.components ** 2)) * a.norm_sq)


@pytest.mark.parametrize("p", [2, 3])
def test_one_gram_product_per_oneill_tensor(monkeypatch, p):
    # R_t and the B+ and B- closed forms of a stack read the Gram product its
    # ONeillTensor keeps: A.a is multiplied by itself once, and the kept
    # product is the plain one, read-only
    real = oneill._gram
    operands = []

    def counting(X, k):
        operands.append(X)
        return real(X, k)

    monkeypatch.setattr(oneill, "_gram", counting)
    (trials,) = random_trials(np.random.default_rng(p), 5, p, [2] * 4)
    RM, A, a, _ = trials.build()
    Rt = transverse_riemann(RM, A)
    master_identity_residual(RM, A, a, Rt=Rt)
    bplus_norm_closed(A, a)
    bminus_norm_closed(A, a)
    assert Rt.components is not None
    assert sum(X is A.a for X in operands) == 1
    assert np.array_equal(A.gram, exterior._gram(A.a, 2)) and not A.gram.flags.writeable

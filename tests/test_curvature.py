"""Curvature tensors, curvature-operator extremes, transverse curvature,
and the Bochner curvature term."""

import numpy as np
import pytest

from folcurv.curvature import (
    RiemannTensor,
    curvature_action_on_form,
    curvature_operator_extremes,
    curvature_operator_matrix,
    curvature_term,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from folcurv.exterior import AlternatingForm, inner, multi_indices
from folcurv.oneill import ONeillTensor
from folcurv.synthetic import (
    random_curvature,
    random_form,
    random_instance,
    random_skew_oneill,
)

from oracles import naive_curvature_action_value


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------


def test_space_form_components_and_ricci():
    R = space_form(4, 1.0)
    assert R.components[0, 1, 0, 1] == 1.0
    assert R.components[0, 1, 1, 0] == -1.0
    assert np.all(space_form(4, 0.0).components == 0.0)
    for q in (3, 4, 5):
        c = 0.8
        assert np.allclose(space_form(q, c).ricci(), (q - 1) * c * np.eye(q))


def test_symmetry_violations_raise():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 1] = 1.0  # no antisymmetric partners
    with pytest.raises(ValueError, match="symmetries"):
        RiemannTensor(bad)


def test_bianchi_violation_raises():
    # the totally antisymmetric tensor has all the pair symmetries but a
    # cyclic sum of 3 on (0,1,2,3)
    from oracles import perm_sign
    import itertools

    q = 4
    P = np.zeros((q, q, q, q))
    for perm in itertools.permutations(range(q)):
        P[perm] = perm_sign(perm)
    with pytest.raises(ValueError, match="Bianchi"):
        RiemannTensor(P)


# ---------------------------------------------------------------------------
# curvature operator extremes
# ---------------------------------------------------------------------------


def test_operator_extremes_on_space_forms():
    for q in range(2, 7):
        for c in (-1.0, 0.5, 1.0):
            rho0, rho1 = curvature_operator_extremes(space_form(q, c))
            assert rho0 == pytest.approx(c, abs=1e-12)
            assert rho1 == pytest.approx(c, abs=1e-12)
    # q=4, c=1: the 6x6 operator matrix is the identity
    M = curvature_operator_matrix(space_form(4, 1.0))
    assert np.allclose(M, np.eye(6))


def test_perturbed_space_form_chain():
    # a decomposable perturbation of the (0, 1) plane keeps the tensor valid
    # and lifts the top eigenvalue by exactly its size; the chain
    # rho0 <= K(e_i, e_j) <= rho1 must hold on every coordinate plane
    q, c, d = 4, 1.0, 0.35
    R = space_form(q, c).components.copy()
    for (i, j, k, l), s in [((0, 1, 0, 1), 1), ((1, 0, 0, 1), -1),
                            ((0, 1, 1, 0), -1), ((1, 0, 1, 0), 1)]:
        R[i, j, k, l] += s * d
    Rt = RiemannTensor(R)
    rho0, rho1 = curvature_operator_extremes(Rt)
    assert rho0 == pytest.approx(c, abs=1e-12)
    assert rho1 == pytest.approx(c + d, abs=1e-12)
    for i in range(q):
        for j in range(i + 1, q):
            assert rho0 - 1e-9 <= Rt.components[i, j, i, j] <= rho1 + 1e-9



# ---------------------------------------------------------------------------
# transverse curvature
# ---------------------------------------------------------------------------


def test_transverse_riemann_zero_tensor_is_identity():
    RM = space_form(4, 1.0)
    Rt = transverse_riemann(RM, ONeillTensor.zero(4))
    assert np.allclose(Rt.components, RM.components)


def test_transverse_riemann_matches_loop_oracle():
    rng = np.random.default_rng(17)
    q = 4
    RM = random_curvature(rng, q)
    A = random_skew_oneill(rng, q, 2)
    Rt = transverse_riemann(RM, A)
    a = A.a

    def g(i, j, k, l):
        return float(np.sum(a[i, j] * a[k, l]))

    for i in range(q):
        for j in range(q):
            for k in range(q):
                for l in range(q):
                    expect = (RM.components[i, j, k, l] + 2.0 * g(i, j, k, l)
                              - g(j, k, i, l) - g(k, i, j, l))
                    assert Rt.components[i, j, k, l] == pytest.approx(expect, abs=1e-12)


def test_transverse_riemann_bianchi_for_random_skew():
    rng = np.random.default_rng(19)
    for q in (4, 5):
        RM = space_form(q, float(rng.uniform(-1, 1)))
        A = random_skew_oneill(rng, q, 3)
        Rt = transverse_riemann(RM, A).components
        # brute-force cyclic sum
        worst = 0.0
        for i in range(q):
            for j in range(q):
                for k in range(q):
                    for l in range(q):
                        worst = max(worst, abs(Rt[i, j, k, l] + Rt[j, k, i, l]
                                               + Rt[k, i, j, l]))
        assert worst < 1e-12


def test_transverse_ricci_properties():
    rng = np.random.default_rng(23)
    q = 4
    RM = space_form(q, 0.7)
    ric, scal = transverse_ricci(RM, ONeillTensor.zero(q))
    assert np.allclose(ric, (q - 1) * 0.7 * np.eye(q))
    assert scal == pytest.approx(q * (q - 1) * 0.7)
    # trace equality against an independent double loop
    A = random_skew_oneill(rng, q, 2)
    ric2, scal2 = transverse_ricci(RM, A)
    Rt = transverse_riemann(RM, A).components
    for i in range(q):
        for j in range(q):
            expect = sum(Rt[l, i, l, j] for l in range(q))
            assert ric2[i, j] == pytest.approx(expect, abs=1e-12)
    assert scal2 == pytest.approx(float(np.trace(ric2)))


# ---------------------------------------------------------------------------
# curvature acting on forms
# ---------------------------------------------------------------------------


def test_action_vanishes_for_zero_curvature():
    a = random_form(np.random.default_rng(29), 4, 2)
    out = curvature_action_on_form(space_form(4, 0.0), a)
    assert np.all(out.coeffs == 0.0)


def test_action_matches_naive_slot_oracle():
    rng = np.random.default_rng(31)
    for q, p in [(3, 1), (4, 2), (4, 3), (5, 2)]:
        R = random_curvature(rng, q)
        a = random_form(rng, q, p)
        out = curvature_action_on_form(R, a)
        for I in multi_indices(q, p):
            assert out.component(*I) == pytest.approx(
                naive_curvature_action_value(R, a, I), abs=1e-10)


def test_space_form_weitzenbock_constant():
    rng = np.random.default_rng(37)
    for q in range(2, 7):
        for p in range(1, q):
            c = 0.6
            R = space_form(q, c)
            a = random_form(rng, q, p)
            val = inner(curvature_action_on_form(R, a), a)
            assert val == pytest.approx(c * p * (q - p) * a.norm_sq, abs=1e-10)


def test_curvature_term_examples():
    rng = np.random.default_rng(41)
    # p=1 on a space form: only the Ricci part contributes
    q, c = 5, 0.9
    R = space_form(q, c)
    a = random_form(rng, q, 1)
    a.coeffs /= np.linalg.norm(a.coeffs)
    assert curvature_term(R, a) == pytest.approx((q - 1) * c, abs=1e-12)
    # p=2, q=4, c=1, unit form
    R4 = space_form(4, 1.0)
    b = random_form(rng, 4, 2)
    b.coeffs /= np.linalg.norm(b.coeffs)
    assert curvature_term(R4, b) == pytest.approx(4.0, abs=1e-12)
    # zero form
    z = AlternatingForm(2, 4)
    assert curvature_term(R4, z) == 0.0


def test_curvature_term_equals_action_pairing_on_transverse_data():
    # 200 instances spread over q in {4,5,6} and all degrees 1..q-1
    rng = np.random.default_rng(43)
    count = 0
    while count < 200:
        for q in (4, 5, 6):
            for p in range(1, q):
                RM, A, a = random_instance(rng, q, p, vdim=1 + (count % 3))
                Rn = transverse_riemann(RM, A)
                lhs = curvature_term(Rn, a)
                rhs = inner(curvature_action_on_form(Rn, a), a)
                assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)
                count += 1

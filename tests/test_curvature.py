"""Curvature tensors, the curvature operator and its extremes, transverse
curvature, and the Bochner curvature term."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folcurv import curvature, exterior
from folcurv.curvature import (
    RiemannTensor,
    bivector_curvature_sum,
    curvature_action_on_form,
    curvature_operator_matrix,
    curvature_term,
    ricci_contraction,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from folcurv.exterior import AlternatingForm, hodge, inner
from folcurv.oneill import ONeillTensor
from folcurv.synthetic import random_form

from oracles import (
    dense_curvature_action,
    naive_curvature_action_value,
    random_curvature,
    random_instance,
    random_skew_oneill,
)


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


def test_nan_components_are_refused():
    # a NaN compares False with the tolerance, so every check must fail on it
    with pytest.raises(ValueError, match="symmetries"):
        RiemannTensor(np.full((4, 4, 4, 4), np.nan))
    R = space_form(4, 1.0).components.copy()
    R[0, 1, 2, 3] = np.nan
    with pytest.raises(ValueError, match="symmetries"):
        RiemannTensor(R)


def test_nan_transverse_tensor_is_refused(monkeypatch):
    A = random_skew_oneill(np.random.default_rng(21), 4, 2)
    Rt = transverse_riemann(space_form(4, np.nan), A)
    with pytest.raises(ValueError, match="symmetries"):
        Rt.components
    assert Rt._components is None
    # a NaN only in the closed-form Ricci fails the Ricci-trace check
    monkeypatch.setattr(ONeillTensor, "square", property(lambda A: np.full((4, 4), np.nan)))
    with pytest.raises(ValueError, match="transverse Ricci disagrees"):
        transverse_riemann(space_form(4, 1.0), A).components


# ---------------------------------------------------------------------------
# curvature operator extremes
# ---------------------------------------------------------------------------


def curvature_operator_extremes(R):
    """Extreme eigenvalues (rho0, rho1) of the curvature operator matrix."""
    w = np.linalg.eigvalsh(curvature_operator_matrix(R))
    return w[0], w[-1]


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
    Rt = transverse_riemann(RM, ONeillTensor(np.zeros((4, 4, 1))))
    assert np.allclose(Rt.components, RM.components)


def test_transverse_riemann_matches_loop_oracle():
    rng = np.random.default_rng(17)
    q = 4
    RM = space_form(q, float(rng.uniform(-1.5, 1.5)))
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


def test_transverse_riemann_refuses_a_generic_ambient():
    rng = np.random.default_rng(18)
    A = random_skew_oneill(rng, 4, 2)
    with pytest.raises(ValueError, match="space-form ambient; this tensor carries only its "
                                         "components"):
        transverse_riemann(random_curvature(rng, 4), A)
    # a structured ambient that is itself transverse is not a space form
    with pytest.raises(ValueError, match="space-form ambient; this tensor is not a space form"):
        transverse_riemann(transverse_riemann(space_form(4, 1.0), A), A)


def test_failed_ricci_trace_keeps_no_components(monkeypatch):
    # a build that keeps every symmetry but shifts Ric_t off its closed form
    # raises on the read, and the tensor keeps no components
    real = curvature._add_oneill_terms
    monkeypatch.setattr(curvature, "_add_oneill_terms",
                        lambda R, a: real(R, a) + 1e-6 * curvature._unit_components(4))
    A = random_skew_oneill(np.random.default_rng(20), 4, 2)
    Rt = transverse_riemann(space_form(4, 0.5), A)
    for _ in range(2):
        with pytest.raises(ValueError, match="transverse Ricci disagrees"):
            Rt.components
        assert Rt._components is None


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
    ric, scal = transverse_ricci(RM, ONeillTensor(np.zeros((q, q, 1))))
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
    # the first four cases keep their draws; then the top degree and the
    # wider (q, p) shapes that the contraction order has to get right
    for q, p in [(3, 1), (4, 2), (4, 3), (5, 2), (4, 4), (5, 4), (6, 3)]:
        R = random_curvature(rng, q)
        a = random_form(rng, q, p)
        out = dense_curvature_action(R, a)
        for I in itertools.combinations(range(q), p):
            assert out.component(*I) == pytest.approx(
                naive_curvature_action_value(R, a, I), abs=1e-10)


def test_action_at_large_fiber_dimension():
    # (q, p) = (18, 3) is far beyond the slot oracle; two identities that
    # do not read the actions' code pin them there: the pairing expansion
    # S1 - 1/2 S2 of the dense oracle on a generic tensor, and c p (q - p) |a|^2
    # of the structured action on a space form
    rng = np.random.default_rng(47)
    q, p = 18, 3
    R = random_curvature(rng, q)
    a = random_form(rng, q, p)
    assert inner(dense_curvature_action(R, a), a) == pytest.approx(
        curvature_term(R, a), abs=1e-10)
    c = 0.6
    val = inner(curvature_action_on_form(space_form(q, c), a), a)
    assert val == pytest.approx(c * p * (q - p) * a.norm_sq, abs=1e-10)


def test_action_allocates_no_large_temporaries():
    # the largest intermediates are (q, q, C(q,p)) arrays, two of them alive
    # at once; the bound allows four, so a step that materializes a larger
    # product fails it (peak memory without a timing test)
    q, p = 18, 2
    rng = np.random.default_rng(53)
    R = random_curvature(rng, q)
    a = random_form(rng, q, p)
    dense_curvature_action(R, a)  # build the cached tables first
    tracemalloc.start()
    try:
        dense_curvature_action(R, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * q * q * comb(q, p) * 8


def _transverse(rng, q, vdim, n=None):
    """A transverse tensor built from a random space form and a random skew A,
    one instance or a stack of n."""
    if n is None:
        return transverse_riemann(space_form(q, float(rng.uniform(-1.5, 1.5))),
                                  random_skew_oneill(rng, q, vdim))
    A = np.array([random_skew_oneill(rng, q, vdim).a for _ in range(n)])
    return transverse_riemann(space_form(q, rng.uniform(-1.5, 1.5, n)), ONeillTensor(A))


def _agrees_with_oracle(R, a, rel=1e-12):
    """Row by row, relative to the oracle's norm, or to the form's where the
    action cancels to round-off (as on top forms at q = 2)."""
    got = curvature_action_on_form(R, a).coeffs
    want = dense_curvature_action(R, a).coeffs
    scale = np.maximum(np.linalg.norm(want, axis=-1), np.linalg.norm(a.coeffs, axis=-1))
    return got.shape == want.shape and np.all(
        np.linalg.norm(got - want, axis=-1) <= rel * scale)


def test_structured_action_matches_dense_oracle():
    rng = np.random.default_rng(59)
    for q in range(2, 8):
        for p in range(0, q + 1):
            for vdim in (1, 3):
                a = random_form(rng, q, p)
                assert _agrees_with_oracle(_transverse(rng, q, vdim), a), (q, p, vdim)
                stack = AlternatingForm(p, q, rng.standard_normal((4, comb(q, p))))
                assert _agrees_with_oracle(_transverse(rng, q, vdim, n=4), stack), (q, p, vdim)


def test_structured_action_at_large_fiber_dimension():
    rng = np.random.default_rng(61)
    q, p = 18, 3
    assert _agrees_with_oracle(_transverse(rng, q, 2), random_form(rng, q, p))


def test_structured_action_reads_no_dense_table():
    # at (q, p) = (58, 2), the fiber of hopf --m 30, the action reads the
    # index rows only: no dense wedge or contraction table is asked for, and
    # no temporary reaches the size of q dense p-forms
    q, p = 58, 2
    rng = np.random.default_rng(67)
    R = _transverse(rng, q, 1)
    a = random_form(rng, q, p)
    tables = (exterior.wedge_matrices, exterior.interior_matrices)
    before = [t.cache_info() for t in tables]
    curvature_action_on_form(R, a)  # build the cached index rows first
    tracemalloc.start()
    try:
        curvature_action_on_form(R, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [t.cache_info() for t in tables] == before
    assert peak < q * comb(q, p) * 8


def test_action_refuses_a_tensor_without_its_pair():
    rng = np.random.default_rng(71)
    with pytest.raises(ValueError, match="space form"):
        curvature_action_on_form(random_curvature(rng, 4), random_form(rng, 4, 2))


@st.composite
def _action_cases(draw, stacks=(None, 3)):
    """(R, x, y): a transverse tensor from a random c and skew A, and two
    forms of one degree; all three single (n = None) or stacks of n."""
    q = draw(st.integers(2, 7))
    p = draw(st.integers(0, q))
    vdim = draw(st.integers(1, 3))
    n = draw(st.sampled_from(stacks))
    curvature = st.floats(-2.0, 2.0)
    c = draw(curvature if n is None else st.lists(curvature, min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (comb(q, p),) if n is None else (n, comb(q, p))
    A = ONeillTensor(random_skew_oneill(rng, q, vdim).a if n is None else
                     np.array([random_skew_oneill(rng, q, vdim).a for _ in range(n)]))
    R = transverse_riemann(space_form(q, np.asarray(c)), A)
    return (R, AlternatingForm(p, q, rng.standard_normal(shape)),
            AlternatingForm(p, q, rng.standard_normal(shape)))


def _tol(*forms):
    return 1e-11 * max(1.0, *(float(np.max(np.abs(f.coeffs))) for f in forms))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_action_cases())
def test_action_is_self_adjoint(case):
    R, x, y = case
    Rx, Ry = curvature_action_on_form(R, x), curvature_action_on_form(R, y)
    assert np.all(np.abs(np.asarray(inner(Rx, y)) - np.asarray(inner(x, Ry)))
                  <= _tol(Rx, Ry) * x.dimension ** 2)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_action_cases())
def test_action_commutes_with_the_hodge_star(case):
    R, x, _ = case
    lhs = curvature_action_on_form(R, hodge(x))
    rhs = hodge(curvature_action_on_form(R, x))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= _tol(lhs, rhs)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_action_cases(stacks=(3,)))
def test_stacked_action_rows_equal_one_instance(case):
    R, x, _ = case
    out = curvature_action_on_form(R, x).coeffs
    c, A = R.structure
    q, p = x.dimension, x.degree
    for i in range(len(out)):
        one = curvature_action_on_form(transverse_riemann(space_form(q, c[i]), ONeillTensor(A.a[i])),
                                       AlternatingForm(p, q, x.coeffs[i])).coeffs
        assert np.allclose(out[i], one, rtol=1e-12, atol=1e-12 * max(1.0, np.max(np.abs(one))))


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
    z = AlternatingForm(2, 4, np.zeros(6))
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


# ---------------------------------------------------------------------------
# tensors given by their structure (c, A) alone
# ---------------------------------------------------------------------------


def test_structured_scalar_is_the_dense_diagonal_without_building_it():
    # Scal_t summed from the three O'Neill terms of each diagonal entry
    # agrees with the trace of the dense R_t, and reads no q^4 array
    rng = np.random.default_rng(61)
    for q in range(2, 13):
        for n in (None, 3):
            c = float(rng.uniform(-1.5, 1.5)) if n is None else rng.uniform(-1.5, 1.5, n)
            rows = [random_skew_oneill(rng, q, 2).a for _ in range(n or 1)]
            A = ONeillTensor(rows[0] if n is None else np.array(rows))
            R = RiemannTensor(structure=(c, A))
            scal = R.scalar()
            assert R._components is None
            dense = np.einsum("...lili->...", transverse_riemann(space_form(q, c), A).components)
            assert np.allclose(scal, dense, rtol=1e-13, atol=1e-12), (q, n)
            assert np.allclose(space_form(q, c).scalar(), np.asarray(c) * q * (q - 1))


def test_structured_components_are_built_once_on_first_read():
    rng = np.random.default_rng(67)
    q, c = 5, 0.4
    A = random_skew_oneill(rng, q, 2)
    R = RiemannTensor(structure=(c, A))
    assert R.dimension == q and R._components is None
    # the action reads the pair only
    curvature_action_on_form(R, random_form(rng, q, 2))
    assert R._components is None
    built = R.components
    assert R.components is built
    assert np.array_equal(built, transverse_riemann(space_form(q, c), A).components)
    S = space_form(q, c)
    assert S.space_form_curvature == c and S._components is None
    assert np.array_equal(S.components, c * space_form(q, 1.0).components)


def test_structure_is_checked():
    with pytest.raises(ValueError, match="components or its structure"):
        RiemannTensor()
    a = np.zeros((3, 3, 1))
    a[0, 1, 0] = 1.0  # no skew partner
    with pytest.raises(ValueError, match="skew"):
        RiemannTensor(structure=(1.0, ONeillTensor(a)))
    # the O'Neill tensor of a structure cannot be written out of skewness
    A = ONeillTensor(a - np.swapaxes(a, 0, 1))
    assert RiemannTensor(structure=(1.0, A)).dimension == 3
    with pytest.raises(ValueError, match="read-only"):
        A.a[0, 1, 0] = 2.0


def test_space_form_contractions_read_from_c():
    # S1 = c (q-1) p |a|^2 and S2 = 2 c p (p-1) |a|^2 (so 0 in degree 1)
    # for a space form, against the dense contractions of the same tensor
    # given by its components only
    rng = np.random.default_rng(71)
    for q in range(2, 13):
        for p in range(1, q + 1) if q <= 7 else (1, 2):
            c = float(rng.uniform(-1.5, 1.5))
            R = space_form(q, c)
            dense = RiemannTensor(R.components)
            a = random_form(rng, q, p)
            a.coeffs *= rng.uniform(0.5, 2.0)
            s1 = ricci_contraction(space_form(q, c), a)
            assert s1 == pytest.approx(c * (q - 1) * p * a.norm_sq, abs=1e-13)
            assert s1 == pytest.approx(ricci_contraction(dense, a), abs=1e-12), (q, p)
            assert bivector_curvature_sum(dense, a) == pytest.approx(
                2.0 * c * p * (p - 1) * a.norm_sq, abs=1e-12), (q, p)
        a = random_form(rng, q, 1)
        assert bivector_curvature_sum(space_form(q, 1.0), a) == 0.0


def test_stacked_space_form_s2_matches_its_dense_contraction():
    # S2 of a stack of space forms, read from c, against the dense
    # contraction of the same stack given by its components only
    rng = np.random.default_rng(73)
    for q in range(2, 8):
        for p in range(0, q + 1):
            c = rng.uniform(-1.5, 1.5, 4)
            R = space_form(q, c)
            a = AlternatingForm(p, q, rng.standard_normal((4, comb(q, p))))
            s2 = bivector_curvature_sum(R, a)
            dense = bivector_curvature_sum(RiemannTensor(R.components), a)
            assert s2.shape == (4,)
            assert np.allclose(s2, dense, rtol=1e-12, atol=0.0), (q, p)

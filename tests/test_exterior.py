"""Exterior algebra: products, contractions, Hodge star, and the structural
antisymmetry of the coefficient storage."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folcurv.exterior import (
    AlternatingForm,
    _contract,
    _wedge_frame,
    _wedge_table,
    contractions,
    flat,
    hodge,
    inner,
    interior_vector,
    wedge,
)

from oracles import (
    basis_form,
    dense_contractions,
    naive_basis_value,
    naive_inner,
    naive_value,
    naive_wedge_value,
    wedge_table_rows,
)


def random_form(rng, q, p):
    return AlternatingForm(p, q, rng.standard_normal(comb(q, p)))


# ---------------------------------------------------------------------------
# the signed wedge table
# ---------------------------------------------------------------------------


def test_wedge_table_matches_pairwise_oracle():
    # every row (k, ia, ib, sign) in order and dtype, so every rank the table
    # reads from the combinatorial number system is pinned by enumeration
    cases = [(q, p, r) for q in range(10) for p in range(q + 1) for r in range(q - p + 1)]
    for case in cases + [(254, 1, 1)]:
        for got, want in zip(_wedge_table(*case), wedge_table_rows(*case), strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        _wedge_table(3, 2, 2)


# ---------------------------------------------------------------------------
# accessor antisymmetry
# ---------------------------------------------------------------------------


def test_component_antisymmetry_and_repeats():
    rng = np.random.default_rng(7)
    for q in (3, 4, 5):
        for p in range(2, q + 1):
            a = random_form(rng, q, p)
            for _ in range(20):
                tup = tuple(rng.integers(0, q, size=p))
                val = a.component(*tup)
                if len(set(tup)) < p:
                    assert val == 0.0
                    continue
                # swapping any pair flips the sign
                for s, t in itertools.combinations(range(p), 2):
                    swapped = list(tup)
                    swapped[s], swapped[t] = swapped[t], swapped[s]
                    assert a.component(*swapped) == pytest.approx(-val, abs=1e-15)
                assert val == pytest.approx(naive_basis_value(a, tup), abs=1e-12)


def test_scalar_and_volume_edge_degrees():
    c = AlternatingForm(0, 4, [2.5])
    assert c.coeffs.shape == (1,)
    assert AlternatingForm(0, 4, 2.5).coeffs.shape == AlternatingForm(4, 4, 1.0).coeffs.shape == (1,)
    vol = basis_form(3, range(3))
    assert vol.component(0, 1, 2) == 1.0
    assert vol.component(1, 0, 2) == -1.0


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------


def test_coefficients_are_one_form_or_a_stack_of_forms():
    # only (C(q, p),) and (n, C(q, p)) are read; a multi-axis array is
    # refused even when its size is C(q, p), and so is a scalar for more
    # than one coefficient
    assert AlternatingForm(1, 4, np.ones(4)).stack == ()
    assert AlternatingForm(1, 4, np.ones((1, 4))).stack == (1,)
    assert AlternatingForm(1, 4, np.ones((3, 4))).stack == (3,)
    for coeffs in (np.ones((2, 2)), np.ones((1, 2, 2)), np.ones((4, 1)), np.ones((2, 1, 4)),
                   np.ones(3), np.ones((2, 3)), 1.0):
        with pytest.raises(ValueError, match="coefficients of shape"):
            AlternatingForm(1, 4, coeffs)


def test_wedge_basis_cases():
    e0 = basis_form(4, (0,))
    e1 = basis_form(4, (1,))
    e01 = basis_form(4, (0, 1)).coeffs
    assert np.array_equal(wedge(e0, e1).coeffs, e01)
    assert np.array_equal(wedge(e1, e0).coeffs, -e01)
    assert np.all(wedge(e0, e0).coeffs == 0.0)


def test_wedge_errors():
    a = basis_form(3, (0, 1))
    with pytest.raises(ValueError):
        wedge(a, basis_form(4, (0,)))
    with pytest.raises(ValueError):
        wedge(a, a)  # degree overflow 2+2 > 3


def test_wedge_matches_shuffle_oracle_and_anticommutes():
    rng = np.random.default_rng(11)
    for q in (3, 4, 5):
        pairs = [(1, 1), (1, 2), (2, 2), (2, 1), (3, 1), (0, 2), (2, 0), (0, 0)]
        for p, r in pairs + [(p, q - p) for p in range(q + 1)]:
            if p + r > q:
                continue
            a, b = random_form(rng, q, p), random_form(rng, q, r)
            ab, ba = wedge(a, b), wedge(b, a)
            assert np.allclose(ab.coeffs, (-1.0) ** (p * r) * ba.coeffs, atol=1e-12)
            vectors = rng.standard_normal((p + r, q))
            assert naive_value(ab, vectors) == pytest.approx(
                naive_wedge_value(a, b, vectors), abs=1e-10)


def test_wedge_associativity():
    rng = np.random.default_rng(13)
    q = 5
    a, b, c = random_form(rng, q, 1), random_form(rng, q, 2), random_form(rng, q, 1)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


# ---------------------------------------------------------------------------
# interior products
# ---------------------------------------------------------------------------


def test_interior_vector_basis_cases():
    w = wedge(basis_form(3, (0,)), basis_form(3, (1,)))
    r1 = interior_vector(np.eye(3)[0], w)
    assert np.allclose(r1.coeffs, basis_form(3, (1,)).coeffs)
    r2 = interior_vector(np.eye(3)[1], w)
    assert np.allclose(r2.coeffs, -basis_form(3, (0,)).coeffs)


def test_vectors_of_the_wrong_length_are_refused():
    a = basis_form(4, (0, 1))
    for v in (np.ones(3), np.ones(5), np.ones((4, 1)), 1.0):
        with pytest.raises(ValueError):
            interior_vector(v, a)
        with pytest.raises(ValueError):
            flat(v, 4)


def test_interior_vector_definition_and_nilpotence():
    rng = np.random.default_rng(17)
    for q in (3, 4, 5):
        for p in range(1, q + 1):
            a = random_form(rng, q, p)
            v = rng.standard_normal(q)
            va = interior_vector(v, a)
            if p >= 2:
                ws = rng.standard_normal((p - 1, q))
                assert naive_value(va, ws) == pytest.approx(
                    naive_value(a, np.vstack([v[None, :], ws])), abs=1e-10)
                assert np.allclose(interior_vector(v, va).coeffs, 0.0, atol=1e-12)
            else:
                assert va.coeffs[0] == pytest.approx(naive_value(a, [v]), abs=1e-12)


def test_interior_scalar_errors():
    with pytest.raises(ValueError, match="scalar"):
        interior_vector(np.ones(3), AlternatingForm(0, 3, [1.0]))


def test_contractions_match_basis_value_oracle():
    # C[i_1, ..., i_k][rank of J] = a(e_i1, ..., e_ik, e_J): slots filled in
    # order; every entry is one signed copy of a coefficient, so the gather
    # through the index rows equals the dense-table contraction bit for bit,
    # for one form and a stack, and so does frame-index access
    rng = np.random.default_rng(19)
    for q in range(1, 8):
        for p in range(0, q + 1):
            a = random_form(rng, q, p)
            stack = AlternatingForm(p, q, rng.standard_normal((3, comb(q, p))))
            for k in range(0, p + 1):
                C = contractions(a, k)
                assert C.shape == (q,) * k + (comb(q, p - k),)
                assert np.array_equal(C, dense_contractions(a, k))
                assert np.array_equal(contractions(stack, k), dense_contractions(stack, k))
                if q > 5:
                    continue
                for X in itertools.product(range(q), repeat=k):
                    for r, J in enumerate(itertools.combinations(range(q), p - k)):
                        assert C[X][r] == pytest.approx(
                            naive_basis_value(a, X + J), abs=1e-12)
            full = dense_contractions(a, p)
            for X in rng.integers(0, q, size=(20, p)):
                assert a.component(*X) == full[tuple(X)][0]
    with pytest.raises(ValueError):
        contractions(random_form(rng, 3, 1), 2)


@pytest.mark.parametrize("stack", [(), (3,)])
def test_contraction_tables_are_kept_on_the_form(stack):
    # each table equals the uncached _contract chain, is read-only and is
    # the same object when read again; from the first read on, coeffs is
    # read-only, so an in-place write raises instead of staling a table
    rng = np.random.default_rng(20)
    for q in range(1, 7):
        for p in range(q + 1):
            a = AlternatingForm(p, q, rng.standard_normal(stack + (comb(q, p),)))
            a.coeffs[..., 0] = 1.0
            chain = a.coeffs.copy()
            for k in range(p + 1):
                if k:
                    chain = _contract(chain, q, p - k + 1)
                T = contractions(a, k)
                assert np.array_equal(T, chain)
                assert not T.flags.writeable
                assert contractions(a, k) is T
            with pytest.raises(ValueError):
                a.coeffs[..., 0] = 2.0
            assert np.array_equal(contractions(a, 0), a.coeffs)
            # rebound coefficients get tables of their own
            a.coeffs = 2.0 * a.coeffs
            assert np.array_equal(contractions(a, p), 2.0 * chain)


def test_stacked_vectors_contract_row_by_row():
    rng = np.random.default_rng(21)
    for q in range(2, 7):
        x = rng.standard_normal((4, q))
        assert np.array_equal(flat(x, q).coeffs, x)
        for i in range(4):
            assert np.array_equal(flat(x, q).coeffs[i], flat(x[i], q).coeffs)
        for p in range(1, q + 1):
            a = AlternatingForm(p, q, rng.standard_normal((4, comb(q, p))))
            one = random_form(rng, q, p)
            stacked, broadcast = interior_vector(x, a), interior_vector(x, one)
            assert stacked.stack == broadcast.stack == (4,)
            for i in range(4):
                row = AlternatingForm(p, q, a.coeffs[i])
                assert np.allclose(stacked.coeffs[i], interior_vector(x[i], row).coeffs,
                                   rtol=0, atol=1e-15)
                assert np.allclose(broadcast.coeffs[i], interior_vector(x[i], one).coeffs,
                                   rtol=0, atol=1e-15)
            with pytest.raises(ValueError, match="a stack of 3 vectors against a stack of 4"):
                interior_vector(x[:3], a)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(1, 7).flatmap(lambda q: st.tuples(
    st.just(q), st.integers(1, q), st.sampled_from([(), (3,)]), st.integers(0, 2**32 - 1))))
def test_frame_wedge_is_the_adjoint_of_contraction(case):
    # <_contract(x), y> = <x, _wedge_frame(y)> row by row: the gather and the
    # scatter read the same signed index rows
    q, p, stack, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(stack + (comb(q, p),))
    y = rng.standard_normal(stack + (q, comb(q, p - 1)))
    lhs = np.sum(_contract(x, q, p) * y, axis=(-2, -1))
    rhs = np.sum(x * _wedge_frame(y, q, p), axis=-1)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * q * comb(q, p))


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------


def test_inner_orthonormal_basis_forms():
    a = basis_form(4, (0, 1))
    b = basis_form(4, (0, 2))
    assert inner(a, a) == 1.0
    assert inner(a, b) == 0.0


def test_inner_matches_all_tuple_oracle():
    rng = np.random.default_rng(23)
    for q in (3, 4):
        for p in range(1, q + 1):
            a, b = random_form(rng, q, p), random_form(rng, q, p)
            assert inner(a, b) == pytest.approx(naive_inner(a, b), abs=1e-10)


def test_contraction_sum_identity():
    # sum_i |e_i . a|^2 = p |a|^2
    rng = np.random.default_rng(29)
    for q in range(2, 7):
        for p in range(1, q + 1):
            a = random_form(rng, q, p)
            total = sum(interior_vector(np.eye(q)[i], a).norm_sq for i in range(q))
            assert total == pytest.approx(p * a.norm_sq, abs=1e-12 * max(1, p * a.norm_sq))


def test_inner_degree_mismatch():
    with pytest.raises(ValueError):
        inner(basis_form(4, (0,)), basis_form(4, (0, 1)))


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------


def test_hodge_orientation_conventions():
    assert np.allclose(hodge(basis_form(2, (0,))).coeffs,
                       basis_form(2, (1,)).coeffs)
    assert np.allclose(hodge(basis_form(2, (1,))).coeffs,
                       -basis_form(2, (0,)).coeffs)
    assert np.allclose(hodge(basis_form(4, (0, 1))).coeffs,
                       basis_form(4, (2, 3)).coeffs)


def test_hodge_defining_property_a_wedge_star_a():
    rng = np.random.default_rng(31)
    for q in range(2, 7):
        for p in range(0, q + 1):
            a = random_form(rng, q, p)
            w = wedge(a, hodge(a))
            assert w.degree == q
            assert w.coeffs[0] == pytest.approx(a.norm_sq, abs=1e-12 * max(1.0, a.norm_sq))


def test_hodge_contraction_rule():
    # X . (*a) = (-1)^p * (X^flat ^ a), componentwise
    rng = np.random.default_rng(37)
    for q in range(2, 7):
        for p in range(0, q):
            a = random_form(rng, q, p)
            x = rng.standard_normal(q)
            lhs = interior_vector(x, hodge(a))
            rhs = ((-1.0) ** p) * hodge(wedge(flat(x, q), a))
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)


def test_hodge_involution_and_isometry():
    rng = np.random.default_rng(41)
    for q in range(2, 7):
        for p in range(0, q + 1):
            a, b = random_form(rng, q, p), random_form(rng, q, p)
            sign = (-1.0) ** (p * (q - p))
            assert np.allclose(hodge(hodge(a)).coeffs, sign * a.coeffs, atol=1e-12)
            assert inner(hodge(a), hodge(b)) == pytest.approx(inner(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# Leibniz rule
# ---------------------------------------------------------------------------


def test_leibniz_rule():
    # X . (w ^ t) = (X . w) ^ t + (-1)^deg(w) w ^ (X . t)
    rng = np.random.default_rng(43)
    for q in range(2, 7):
        for _ in range(10):
            pw = int(rng.integers(1, q))
            pt = int(rng.integers(1, q - pw + 1))
            w, t = random_form(rng, q, pw), random_form(rng, q, pt)
            x = rng.standard_normal(q)
            lhs = interior_vector(x, wedge(w, t))
            rhs = wedge(interior_vector(x, w), t) + \
                ((-1.0) ** pw) * wedge(w, interior_vector(x, t))
            assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12

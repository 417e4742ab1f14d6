"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles (full index
tuples, determinant minors, shuffle sums, nested slot loops, finite
differences) without going through the package's coefficient tables, so the
fast implementations are checked against genuinely different code paths.
The exceptions read the dense frame tables: ``dense_contractions``, the
reference the package's gather through the signed index rows must equal bit
for bit, and ``dense_curvature_action``, the Bochner action contracted
through the dense q^4 tensor, which reads none of the (c, A) structure the
package's action is computed from.  ``cor31_scan`` estimates the maximum
of the package's own ``prop31_value`` by sampling, the definition route
that ``cor31_max`` reads off an eigenvalue.
"""

import itertools
from math import factorial

import numpy as np

from folcurv.exterior import AlternatingForm, interior_matrices, wedge_matrices
from folcurv.oneill import prop31_value


def perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def basis_form(q, indices):
    """The basis form e^{i_1} ^ ... ^ e^{i_p} for an increasing tuple, its one
    unit coefficient at the tuple's position in ``itertools.combinations``."""
    indices = tuple(indices)
    lex = list(itertools.combinations(range(q), len(indices)))
    a = AlternatingForm(len(indices), q)
    a.coeffs[lex.index(indices)] = 1.0
    return a


def wedge_table_rows(q, p, r):
    """The signed index rows (k, ia, ib, sign) of the wedge of a degree-p and
    a degree-r form, one pair at a time: for each union U and each p-subset P
    of its positions, I = U[P] and J = U[rest], ranks are positions in
    ``itertools.combinations`` and the sign is that of the permutation P + rest."""
    rank = {n: {c: i for i, c in enumerate(itertools.combinations(range(q), n))}
            for n in (p, r)}
    rows = []
    for k, U in enumerate(itertools.combinations(range(q), p + r)):
        for P in itertools.combinations(range(p + r), p):
            rest = tuple(s for s in range(p + r) if s not in P)
            I, J = tuple(U[s] for s in P), tuple(U[s] for s in rest)
            rows.append((k, rank[p][I], rank[r][J], perm_sign(P + rest)))
    k, ia, ib, sign = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    return k, ia, ib, sign.astype(np.float64)


def naive_value(a, vectors) -> float:
    """Evaluate a form on arbitrary vectors: sum_I c_I det(minor_I)."""
    p, q = a.degree, a.dimension
    if p == 0:
        return float(a.coeffs[0])
    V = np.array([np.asarray(getattr(v, "components", v), dtype=float) for v in vectors])
    assert V.shape == (p, q)
    total = 0.0
    for I, c in zip(itertools.combinations(range(q), p), a.coeffs):
        if c != 0.0:
            total += c * np.linalg.det(V[:, I])
    return total


def naive_basis_value(a, indices) -> float:
    """Evaluate a form on frame vectors by full permutation expansion."""
    p, q = a.degree, a.dimension
    if p == 0:
        return float(a.coeffs[0])
    if len(set(indices)) < len(indices):
        return 0.0
    for I, c in zip(itertools.combinations(range(q), p), a.coeffs):
        if sorted(indices) == list(I):
            # sign of the permutation taking indices to I
            order = [sorted(indices).index(i) for i in indices]
            return perm_sign(order) * float(c)
    return 0.0


def naive_wedge_value(a, b, vectors) -> float:
    """(a ^ b)(v_1..v_{p+r}) by the shuffle sum."""
    p, r = a.degree, b.degree
    total = 0.0
    slots = range(p + r)
    for first in itertools.combinations(slots, p):
        rest = tuple(s for s in slots if s not in first)
        sign = perm_sign(first + rest)
        total += sign * naive_value(a, [vectors[s] for s in first]) * naive_value(
            b, [vectors[s] for s in rest])
    return total


def naive_inner(a, b) -> float:
    """(1/p!) sum over ALL p-tuples of products of values."""
    p, q = a.degree, b.dimension
    if p == 0:
        return float(a.coeffs[0] * b.coeffs[0])
    total = 0.0
    for tup in itertools.product(range(q), repeat=p):
        total += naive_basis_value(a, tup) * naive_basis_value(b, tup)
    return total / factorial(p)


def naive_curvature_action_value(R, a, args) -> float:
    """Value of the Bochner curvature operator on frame indices ``args`` by
    nested slot loops: R(a) = -sum_{i,j} e^j ^ (e_i . (R(e_i,e_j) a)) with
    R(e_i,e_j) acting as the negative slot-replacement derivation."""
    q = a.dimension
    p = a.degree
    Rc = R.components

    def endo_action(i, j, slots):  # (R(e_i,e_j) a)(slots)
        total = 0.0
        for t in range(len(slots)):
            for l in range(q):
                coeff = Rc[i, j, slots[t], l]
                if coeff != 0.0:
                    total -= coeff * naive_basis_value(a, slots[:t] + (l,) + slots[t + 1:])
        return total

    total = 0.0
    for i in range(q):
        for j in range(q):
            # (e^j ^ gamma)(args) with gamma = e_i . (R(e_i,e_j) a)
            for t in range(p):
                if args[t] != j:
                    continue
                rest = args[:t] + args[t + 1:]
                gamma = endo_action(i, j, (i,) + rest)
                total -= ((-1) ** t) * gamma
    return total


def fd_directional(field_fn, x, u, h=1e-6):
    """Richardson-extrapolated central difference of a vector field along u."""

    def central(hh):
        return (field_fn(x + hh * u) - field_fn(x - hh * u)) / (2.0 * hh)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def fd_lie_bracket(f_u, f_v, x, h=1e-6):
    """[U, V](x) = D_U V - D_V U by finite differences."""
    return fd_directional(f_v, x, f_u(x), h) - fd_directional(f_u, x, f_v(x), h)


def oneill_closed_form_loop(model, point) -> float:
    """The printed closed-form |A|^2 of the weighted circle foliation, term by
    term: every tail sum recomputed, every (i, j) pair of the third part
    summed in a nested loop."""
    m = model.m
    th = np.asarray(model.theta)
    zz = point.moduli_sq
    tz = th * th * zz
    x2 = float(np.sum(tz))
    term1 = th[m - 2] ** 2 * th[m - 1] ** 2 * (zz[m - 2] + zz[m - 1]) / (tz[m - 2] + tz[m - 1])
    term2 = 0.0
    for j in range(m - 2):  # 1-based j in 1..m-2
        term2 += (
            th[j] ** 2 * np.sum(tz[j + 1:]) * np.sum(zz[j:])
            / (np.sum(tz[j:]) * np.sum(zz[j + 1:]))
        )
    term3 = 0.0
    for j in range(m - 2):
        for i in range(j + 1, m - 1):  # 1-based i in j+1..m-1
            num = zz[i] * zz[j] * float(np.sum((th[i] ** 2 - th[i + 1:] ** 2) * zz[i + 1:])) ** 2
            den = (
                np.sum(tz[j + 1:]) * np.sum(tz[j:]) * np.sum(zz[i + 1:]) * np.sum(zz[i:])
            )
            term3 += num / den
    return float(2.0 * (term1 + term2 + term3) / x2)


def dense_contractions(a, k):
    """The contraction table a(e_i1, ..., e_ik, .) through the dense frame
    contraction matrices, one einsum per slot; stacks broadcast."""
    out = a.coeffs
    for d in range(a.degree, a.degree - k, -1):
        out = np.einsum("iAB,...B->...iA", interior_matrices(a.dimension, d), out)
    return out


def dense_curvature_action(R, a):
    """The Bochner curvature operator on a p-form contracted through the
    dense q^4 tensor and the dense frame wedge/contraction matrices,

        R(a) = - sum_{i,j} e^j ^ (e_i . (R(e_i, e_j) a)),

    for any algebraic curvature tensor, stacks broadcast row by row; the
    reference for the structured action, which reads only (c, A)."""
    q, p = a.dimension, a.degree
    if p == 0:
        return AlternatingForm(0, q, np.zeros(a.coeffs.shape))
    W = wedge_matrices(q, p - 1)
    L = interior_matrices(q, p)
    # two operands per step, so no step loops over the full index product
    La = np.einsum("lBC,...C->...lB", L, a.coeffs)              # e_l . a
    T = np.einsum("kAB,...lB->...klA", W, La)                   # e^k ^ (e_l . a)
    phi = np.einsum("...ijkl,...klA->...ijA", R.components, T)
    Y = np.einsum("iBC,...ijC->...jB", L, phi)                  # sum_i e_i . phi_ij
    out = np.einsum("jAB,...jB->...A", W, Y)                    # sum_j e^j ^ Y_j
    return AlternatingForm(p, q, out)


def cor31_scan(RM, A, trials, rng_seed) -> float:
    """The largest obstruction quantity E = ``prop31_value`` over ``trials``
    random unit 1-forms, drawn as one (trials, q) array and evaluated in one
    stacked call; a lower estimate of ``cor31_max``."""
    rng = np.random.default_rng(rng_seed)
    v = rng.standard_normal((trials, A.q))
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    return float(np.max(prop31_value(RM, A, AlternatingForm(1, A.q, v))))

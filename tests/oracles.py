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
that ``cor31_max`` reads off an eigenvalue.  ``jacobian_fields_YW``
evaluates the Hopf frame fields on the package's dual numbers with their
full Jacobians, the definition whose contraction J^T X the closed-form
gradients u_j of the point pass ``hopf.fields_YW`` must equal.

The one-at-a-time draws (``random_instance`` and its parts) build on the
draw helpers of ``folcurv.synthetic``, so a stack of ``random_trials``
holds, row by row, the numbers they draw.  The ``einsum`` definitions of
the O'Neill terms and the Gram pairings, and the one-form-at-a-time
exterior loop of ``verify``, are the references of the package's Gram
products and stacked exterior checks; ``random_trials_rows`` holds the
trial draws as rows before stacking them, the reference of the
preallocated ``random_trials``.
"""

import itertools
from math import comb, factorial

import numpy as np

from folcurv.curvature import RiemannTensor, space_form
from folcurv.dual import seed_point, suffix_sum
from folcurv.exterior import (
    AlternatingForm,
    contractions,
    flat,
    hodge,
    interior_matrices,
    interior_vector,
    wedge,
    wedge_matrices,
)
from folcurv.hopf import realify
from folcurv.oneill import ONeillTensor, prop31_value
from folcurv.synthetic import (
    Trials,
    _build_kulkarni_nomizu,
    _build_skew,
    _draw_curvature_constant,
    _draw_matrix_pair,
    random_form,
)


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


def field_labels(model) -> tuple[str, ...]:
    """Horizontal frame field labels, ordered Y_1..Y_{m-1}, W_1..W_{m-1}."""
    m = model.m
    return tuple(f"Y{l}" for l in range(1, m)) + tuple(f"W{p}" for p in range(1, m))


def jacobian_fields_YW(model, point):
    """The 2m-2 horizontal frame fields at one point, ordered as
    ``field_labels``, with their full Jacobians from one dual-number
    evaluation: ``(fields, jacobians)`` of shapes (q, 2m) and (q, 2m, 2m).
    Row l of Y (and of W) is a coefficient row times z (times i z); the last
    row of W is W_{m-1} as defined, with its own coefficients."""
    m = model.m
    th = np.asarray(model.theta)
    z = seed_point(realify(point.z))
    iz = z.times_i()
    mod = z.abs2()
    tail = suffix_sum(mod)
    wtail = suffix_sum(mod * th**2)
    rows, cols = np.ogrid[:m - 1, :m]
    diag, upper = (cols == rows) * 1.0, (cols > rows) * 1.0
    last = (np.arange(m - 1) == m - 2) * 1.0
    weight = np.outer(th[:-1], th) * upper
    weight[m - 2, m - 1] = th[m - 2]
    w_diag = wtail[:-1] * (1.0 - last) + mod[m - 1] * (th[m - 1] * last)
    y = (z * (mod[:-1, None] * upper - tail[:-1, None] * diag)).interleaved()
    w = (iz * (mod[:-1, None] * weight - w_diag[:, None] * diag)).interleaved()
    return np.concatenate([y.value, w.value]), np.concatenate([y.grad, w.grad])


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


# -- one-at-a-time draws --------------------------------------------------------


def random_space_form(rng, q):
    return space_form(q, _draw_curvature_constant(rng))


def random_curvature(rng, q):
    """Random algebraic curvature tensor: a sum of two Kulkarni-Nomizu squares
    of random symmetric matrices (each summand satisfies all the curvature
    symmetries including first Bianchi)."""
    return RiemannTensor(_build_kulkarni_nomizu(_draw_matrix_pair(rng, q)))


def random_skew_oneill(rng, q, vdim):
    return ONeillTensor(_build_skew(rng.standard_normal((q, q, vdim))))


def random_instance(rng, q, p, vdim):
    """A (space-form R, skew A, unit p-form) triple on which every algebraic
    identity of the suite holds exactly."""
    return random_space_form(rng, q), random_skew_oneill(rng, q, vdim), random_form(rng, q, p)


# -- einsum definitions of the Gram products --------------------------------------


def einsum_oneill_terms(R, a):
    """R + 2 G(ij, kl) - G(jk, il) - G(ki, jl), each term its own einsum."""
    Rt = np.einsum("...ijs,...kls->...ijkl", a, a)
    Rt *= 2.0
    Rt += R
    Rt -= np.einsum("...jks,...ils->...ijkl", a, a)
    Rt -= np.einsum("...kis,...jls->...ijkl", a, a)
    return Rt


def einsum_bplus_h(a):
    """H[i,j,k,l] = g(A_i e_l, A_j e_k) of the closed form of |B+|^2."""
    return np.einsum("...ils,...jks->...ijkl", a, a)


def einsum_bminus_h(a):
    """H[i,j,k,l] = g(A_i e_l, A_k e_j) of the closed form of |B-|^2."""
    return np.einsum("...ils,...kjs->...ijkl", a, a)


def einsum_gram(X, k):
    """<X[i_1..i_k], X[j_1..j_k]> over the last axis, indexed (i_1..i_k, j_1..j_k)."""
    i, j = "ijkl"[:k], "ijkl"[k:2 * k]
    return np.einsum(f"...{i}A,...{j}A->...{i}{j}", X, X)


def einsum_norm_closed(A, a, sign):
    """The closed forms of |B+(a)|^2 (sign +1) and |B-(a)|^2 (sign -1) with
    every pairing an einsum: the q^2 term, plus (B+) or minus (B-) the q^4
    term of the H array, and the B- weights (2 (p-1), 2)."""
    p = a.degree
    G = np.einsum("...kis,...kjs->...ij", A.a, A.a)
    first = np.einsum("...ij,...ij->...", G, einsum_gram(contractions(a, 1), 1))
    if p < 2:
        return first
    H = einsum_bplus_h(A.a) if sign > 0 else einsum_bminus_h(A.a)
    second = np.einsum("...ijkl,...ijkl->...", H, einsum_gram(contractions(a, 2), 2))
    return first + second if sign > 0 else 2.0 * ((p - 1) * first - second)


def einsum_bivector_curvature_sum(R, a):
    """S2 = sum R[i,j,k,l] <(e_j^e_i).a, (e_l^e_k).a> as one einsum pairing."""
    P = contractions(a, 2)
    return np.einsum("...ijkl,...klA,...ijA->...", R.components, P, P)


# -- the exterior checks of verify, one form at a time ----------------------------


def exterior_maxima_loop(rng, q, rounds):
    """The five exterior-algebra maxima of ``verify``, each property
    evaluated on one form (or pair of forms) right after its draws."""
    invol = prop22 = leibniz = contr = anticomm = 0.0
    for _ in range(rounds):
        for p in range(0, q + 1):
            a = random_form(rng, q, p)
            sign = (-1) ** (p * (q - p))
            invol = max(invol, float(np.max(np.abs(hodge(hodge(a)).coeffs - sign * a.coeffs))))
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
            wedge(w1, t1).coeffs - ((-1) ** (w1.degree * t1.degree)) * wedge(t1, w1).coeffs))))
    return {"hodge_involution": invol, "hodge_contraction_rule": prop22, "leibniz": leibniz,
            "contraction_sum": contr, "graded_anticommutativity": anticomm}


def random_trials_rows(rng, q, p, vdims):
    """``random_trials`` as the trial draws held in rows of small arrays and
    stacked per vdim at the end, with the same generator calls."""
    draws = {}
    for vdim in vdims:
        draws.setdefault(vdim, []).append((
            _draw_curvature_constant(rng),
            rng.standard_normal((q, q, vdim)),
            rng.standard_normal(comb(q, p)),
            _draw_matrix_pair(rng, q),
        ))
    return [Trials(q, p, *map(np.array, zip(*rows))) for rows in draws.values()]

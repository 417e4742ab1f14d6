"""The integrability (O'Neill) tensor, the auxiliary B+/B- tensors with
their norm identities, and the sides lhs >= rhs of the curvature bounds.

The central correctness statement of the module is the master identity

    <R(a), a> = S1(a) - 1/2 S2(a) + |B+(a)|^2 + 2 V(a) - M(a)

relating the Bochner pairing computed from the transverse curvature to
ambient-curvature contractions and integrability-tensor terms, where

    S1 = sum R[l,i,l,j] <e_i.a, e_j.a>,
    S2 = sum R[i,j,k,l] <(e_j^e_i).a, (e_l^e_k).a>,
    V  = sum_{l,s} |A_l V_s . a|^2          (vertical contraction term),
    M  = sum_s |(sum_i A_i V_s ^ e_i) . a|^2  (mixed bivector term).

It holds exactly for every skew A, every algebraic curvature tensor and
every form; ``master_identity_residual`` measures it on a space-form
ambient, the ambient of every instance and model here.

Every evaluator takes instances with one leading stack axis (tensors, forms
or both, broadcast row by row) and then returns an array with one value per
row; on one instance it returns numpy's float64, a float.  Each contraction
step has two operands.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .curvature import (
    RiemannTensor,
    bivector_curvature_sum,
    curvature_operator_matrix,
    curvature_term,
    ricci_contraction,
    transverse_riemann,
)
from .exterior import (
    AlternatingForm,
    _gram,
    _pair,
    _wedge_coeffs,
    _zeros,
    contractions,
    hodge,
)

__all__ = [
    "ONeillTensor",
    "sandwich_sides",
    "bplus_norm",
    "bplus_norm_closed",
    "bminus_norm",
    "bminus_norm_closed",
    "mixed_bivector_term",
    "vertical_contraction_term",
    "prop31_value",
    "master_identity_residual",
    "prop41_sides",
    "thm31_sides",
    "thm32_sides",
    "thm41_sides",
    "cor31_max",
    "two_form_rewrite",
    "contraction_chain",
    "hodge_trace_residual",
]


class ONeillTensor:
    """Integrability tensor components a[i, j, s] = g(A_{e_i} e_j, V_s) for a
    rank-q horizontal frame and a (n-q)-dimensional vertical frame; a
    four-dimensional ``a`` is a stack of them, a[n, i, j, s].

    Skewness in (i, j) is exact and enforced.  ``a`` is a read-only view of
    the given array, which is not to be written afterwards either, since
    ``gram`` is kept.  The action on vertical vectors is derived, not
    stored: g(A_{e_i} V_s, e_j) = -a[i, j, s].
    """

    __slots__ = ("a", "q", "vdim", "_G")

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim not in (3, 4) or a.shape[-3] != a.shape[-2]:
            raise ValueError(f"expected shape ([n,] q, q, vdim), got {a.shape}")
        if not np.array_equal(a, -np.swapaxes(a, -3, -2)):
            raise ValueError("integrability tensor must be exactly skew in (i, j)")
        a = a.view()
        a.flags.writeable = False
        self.a = a
        self.q = a.shape[-2]
        self.vdim = a.shape[-1]
        self._G = None

    @property
    def gram(self) -> np.ndarray:
        """G[i, j, k, l] = sum_s a[i,j,s] a[k,l,s], one matmul built on first
        read and kept (read-only): the O'Neill terms of the transverse tensor
        and the B+ and B- closed forms read axis-permuted views of it."""
        if self._G is None:
            self._G = _gram(self.a, 2)
            self._G.flags.writeable = False
        return self._G

    @property
    def square(self) -> np.ndarray:
        """The O'Neill square S[i, j] = sum_{l,s} a[l,i,s] a[l,j,s], by
        skewness sum_{l,s} a[i,l,s] a[j,l,s]: one matmul over the flattened
        (l, s), computed on each read."""
        return _gram(self.a.reshape(self.a.shape[:-2] + (-1,)), 1)

    @property
    def norm_sq(self):
        """|A|^2 = sum a[i,j,s]^2; coincides with sum_{i,s} |A_{e_i} V_s|^2 by
        the derived vertical action."""
        return np.sum(self.a * self.a, axis=(-3, -2, -1))

    def __repr__(self):
        return f"ONeillTensor(q={self.q}, vdim={self.vdim}, stack={self.a.shape[:-3]})"


# -- elementary quantities -----------------------------------------------------


def vertical_contraction_term(A: ONeillTensor, a: AlternatingForm):
    """V = sum_{l,s} |A_{e_l} V_s . a|^2, evaluated literally; equals
    sum g(A_l e_i, A_l e_j) <e_i.a, e_j.a>."""
    if a.degree == 0:
        return _zeros(a)
    # W[l, s] = (A_{e_l} V_s) . a = -sum_j a[l, j, s] (e_j . a)
    W = np.einsum("...ljs,...jA->...lsA", A.a, contractions(a, 1))
    return _pair(W, W, 3)


def mixed_bivector_term(A: ONeillTensor, a: AlternatingForm):
    """M = sum_s |(sum_i A_{e_i} V_s ^ e_i) . a|^2, evaluated as the
    quadruple contraction sum

        sum g(A_i e_j, A_k e_l) <(e_j^e_i).a, (e_l^e_k).a>;

    zero below degree 2 (the bivector contraction underflows).
    """
    if a.degree < 2:
        return _zeros(a)
    Y = np.einsum("...ijs,...ijA->...sA", A.a, contractions(a, 2))
    return _pair(Y, Y, 2)


# -- the B+ tensor --------------------------------------------------------------


def bplus_norm(A: ONeillTensor, a: AlternatingForm):
    """|B+(a)|^2 from the definition: B+(a) is the vertical-valued p-tensor
    sum_i (e_i.a) ^ A_{e_i}, with A_{e_i} the vertical-valued 1-form of
    components a[i, j, s]."""
    if a.degree < 1:
        raise ValueError("B+ needs a form of degree >= 1")
    q, p = a.dimension, a.degree
    # one wedge per (i, s): (e_i . a) ^ A_{e_i}^s, then the sum over i
    V = contractions(a, 1)[..., :, None, :]
    terms = _wedge_coeffs(V, np.swapaxes(A.a, -2, -1), q, p - 1, 1)
    B = terms.sum(axis=-3)
    return _pair(B, B, 2)


def bplus_norm_closed(A: ONeillTensor, a: AlternatingForm):
    """Closed form of |B+(a)|^2:

        sum g(A_k e_i, A_k e_j) <e_i.a, e_j.a>
      + sum g(A_i e_l, A_j e_k) <(e_j^e_i).a, (e_l^e_k).a>

    with the second sum reading 0 below degree 2.
    """
    if a.degree < 1:
        raise ValueError("B+ needs a form of degree >= 1")
    out = _pair(A.square, _gram(contractions(a, 1), 1), 2)
    if a.degree >= 2:
        H = np.moveaxis(A.gram, -3, -1)                 # G[i, l, j, k]
        out = out + _pair(H, _gram(contractions(a, 2), 2), 4)
    return out


# -- the B- tensor --------------------------------------------------------------


def bminus_norm(A: ONeillTensor, a: AlternatingForm):
    """|B-(a)|^2 from the definition.

    B-(a) contracts a by (p-1)-vectors e_i ^ e_I and wedges with A_{e_i}; the
    squared norm sums the squared (k, l) components over all (p-2)-tuples I
    with the 1/(p-2)! normalization.  Vacuously 0 below degree 2.
    """
    p, q = a.degree, a.dimension
    if p < 2:
        return _zeros(a)
    # omega[i, I, k] = a(e_i, e_I, e_k), the 1-form (e_i ^ e_I) . a up to a
    # reindexing sign that squares away; one row per (p-2)-tuple I
    omega = contractions(a, p - 1).reshape(a.stack + (q, -1, q))
    X = np.einsum("...iIk,...ils->...sIkl", omega, A.a)  # sum_i omega_i(e_k) A_i(e_l)
    B = X - np.swapaxes(X, -2, -1)
    return _pair(B, B, 4) / factorial(p - 2)


def bminus_norm_closed(A: ONeillTensor, a: AlternatingForm):
    """Closed form of |B-(a)|^2:

        1/2 |B-(a)|^2 = (p-1) sum <e_i.a, e_j.a> g(A_i e_l, A_j e_l)
                        - sum <(e_j^e_i).a, (e_l^e_k).a> g(A_i e_l, A_k e_j).
    """
    p = a.degree
    if p < 2:
        return _zeros(a)
    half = (p - 1) * _pair(A.square, _gram(contractions(a, 1), 1), 2)
    H = np.swapaxes(A.gram, -3, -1)                 # G[i, l, k, j]
    half = half - _pair(H, _gram(contractions(a, 2), 2), 4)
    return 2.0 * half


# -- identity and bound evaluators ----------------------------------------------


def prop31_value(RM: RiemannTensor, A: ONeillTensor, a: AlternatingForm):
    """The parallel-form obstruction quantity

        E(a) = -S1 + 1/2 S2 + M - 2 V,

    which equals |B+(a)|^2 - <R(a), a> identically; for a parallel form the
    Bochner pairing vanishes and E(a) = |B+(a)|^2 >= 0.
    """
    return (
        -ricci_contraction(RM, a)
        + 0.5 * bivector_curvature_sum(RM, a)
        + mixed_bivector_term(A, a)
        - 2.0 * vertical_contraction_term(A, a)
    )


def master_identity_residual(RM: RiemannTensor, A: ONeillTensor, a: AlternatingForm, *,
                             Rt: RiemannTensor):
    """Residual of the module's central identity (see module docstring),
    with the Bochner pairing computed from the transverse curvature data;
    it vanishes on every skew A and form.  RM is a space form and ``Rt`` is
    ``transverse_riemann(RM, A)``, built once by the caller for every check
    that reads it.
    """
    # S1 - 1/2 S2 + 2 V - M is -E(a), so the residual is <R(a), a> - |B+|^2 + E(a)
    return curvature_term(Rt, a) - bplus_norm(A, a) + prop31_value(RM, A, a)


def sandwich_sides(scal_nabla: float, K0: float, K1: float, q: int,
                   norm_sq: float) -> dict[str, tuple[float, float]]:
    """Two-sided estimate of the integrability norm,

        Scal_t - q(q-1) K1 <= 3|A|^2 <= Scal_t - q(q-1) K0,

    with equality on space forms, as its lower and upper (lhs, rhs) pairs."""
    if q < 2:
        raise ValueError("sandwich bound needs q >= 2")
    n2 = 3.0 * norm_sq
    return {"lower": (n2, scal_nabla - q * (q - 1) * K1),
            "upper": (scal_nabla - q * (q - 1) * K0, n2)}


def prop41_sides(RM: RiemannTensor, A: ONeillTensor, a: AlternatingForm):
    """Pointwise harmonic-form inequality as its (lhs, rhs),

        2 <R(a), a> >= -(p-7)/3 T1 + (p-1)/3 S1 - S2 - (V + 2M),

    with T1 the transverse Ricci contraction.  The slack lhs - rhs is exactly
    1/2 |B-(a)|^2 + |B+(a)|^2, so it is nonnegative on all inputs.
    """
    p = a.degree
    Rn = transverse_riemann(RM, A)
    lhs = 2.0 * curvature_term(Rn, a)
    rhs = (
        -(p - 7) / 3.0 * ricci_contraction(Rn, a)
        + (p - 1) / 3.0 * ricci_contraction(RM, a)
        - bivector_curvature_sum(RM, a)
        - (vertical_contraction_term(A, a) + 2.0 * mixed_bivector_term(A, a))
    )
    return lhs, rhs


def _check_pq(q: int, p: int):
    if q < 4 or not 2 <= p <= q - 2:
        raise ValueError(f"hypothesis violated: need q >= 4 and 2 <= p <= q-2, got q={q}, p={p}")


def _degree_constant(q: int, p: int) -> float:
    return p * (p - 1) + (q - p) * (q - p - 1)


def thm31_sides(K0: float, rho1: float, q: int, p: int,
                norm_sq: float) -> tuple[float, float]:
    """Lower bound for the integrability norm under a parallel transverse
    p-form on a positively curved manifold:

        (q-2)|A|^2 >= K0 q(q-1) - (p(p-1) + (q-p)(q-p-1)) rho1.
    """
    _check_pq(q, p)
    return (q - 2) * norm_sq, K0 * q * (q - 1) - _degree_constant(q, p) * rho1


def thm32_sides(scalM: float, K1: float, rho1: float, n: int, q: int, p: int,
                norm_sq: float) -> tuple[float, float]:
    """Scalar-curvature variant of the parallel-form bound:

        (q-2)|A|^2 >= Scal - K1 (n-q)(n+q-1) - (p(p-1) + (q-p)(q-p-1)) rho1.
    """
    _check_pq(q, p)
    rhs = scalM - K1 * (n - q) * (n + q - 1) - _degree_constant(q, p) * rho1
    return (q - 2) * norm_sq, rhs


def thm41_sides(scal_nabla: float, K0: float, rho1: float, q: int, p: int,
                norm_sq: float) -> tuple[float, float]:
    """Harmonic-form bound, valid at some point of a compact manifold
    carrying a basic harmonic p-form (an existence-type statement; this
    evaluates the two sides at the given |A|^2):

        (2q+1)|A|^2 >= -(p-7)/3 Scal_t + (p-1)/3 q(q-1) K0
                       - 2 (p(p-1) + (q-p)(q-p-1)) rho1.
    """
    _check_pq(q, p)
    rhs = (
        -(p - 7) / 3.0 * scal_nabla
        + (p - 1) / 3.0 * q * (q - 1) * K0
        - 2.0 * _degree_constant(q, p) * rho1
    )
    return (2 * q + 1) * norm_sq, rhs


def cor31_max(RM: RiemannTensor, A: ONeillTensor):
    """Maximum of the obstruction quantity E over unit 1-forms; a strictly
    negative one rules out a parallel basic 1-form under positive sectional
    curvature.  In degree 1, S2 and M vanish, so on a space form RM of
    curvature c, E(v) = v^T (-c (q-1) I - 2 S) v with S = ``A.square``,
    whose maximum is -c (q-1) - 2 lambda_min(S).  Any other ambient is
    refused."""
    c = RM.space_form_curvature
    if c is None:
        raise ValueError("the obstruction maximum needs a space-form ambient")
    if A.q != RM.dimension:
        raise ValueError("integrability tensor dimension does not match curvature")
    return -c * (A.q - 1) - 2.0 * np.linalg.eigvalsh(A.square)[..., 0]


# -- estimate and identity checks ------------------------------------------------


def two_form_rewrite(RM: RiemannTensor, a: AlternatingForm) -> dict:
    """Rewrite of the bivector curvature sum through the block 2-forms
    theta^I = 1/2 sum a(i, j, I) e_i ^ e_j:

        1/2 S2 = 2 sum_{I increasing} rho(theta^I, theta^I)
               <= p(p-1) rho1 |a|^2.

    Returns the three quantities; the first two agree identically and the
    bound holds for every algebraic curvature tensor.
    """
    p, q = a.degree, a.dimension
    half_s2 = 0.5 * bivector_curvature_sum(RM, a)
    M = curvature_operator_matrix(RM)
    if p < 2:
        theta_route = _zeros(a)
    else:
        # v[r, I] = a(e_i, e_j, e_I) for the rank-r pair i < j
        i, j = np.triu_indices(q, 1)
        v = contractions(a, 2)[..., i, j, :]
        theta_route = 2.0 * _pair(v, M @ v, 2)
    rho1 = np.linalg.eigvalsh(M)[..., -1]
    bound = p * (p - 1) * rho1 * a.norm_sq
    return {"half_s2": half_s2, "theta_route": theta_route, "bound": bound}


def contraction_chain(A: ONeillTensor, a: AlternatingForm) -> dict:
    """Per-vertical-direction chain bounding the mixed bivector term,

        M_s <= q sum_i |(A_i V_s ^ e_i) . a|^2 <= q sum_i |A_i V_s . a|^2,

    reading the middle object as the bivector contraction u.(e_i.a); both
    steps then hold, the second because A_i V_s is orthogonal to e_i.  The
    wedge reading of the middle term, q sum_i |A_i V_s ^ (e_i . a)|^2, is
    evaluated and returned for comparison only; it does not enter the
    asserted chain.  Each value is an array over s, with the stack axis
    first for a stack.
    """
    if a.degree < 1:
        raise ValueError("contraction chain needs a form of degree >= 1")
    p, q = a.degree, a.dimension
    V = contractions(a, 1)
    u = -A.a  # u[..., i, :, s] = A_{e_i} V_s

    def q_sum(X):  # q sum_i |X[i, s]|^2, one value per s
        return q * np.sum(X * X, axis=(-3, -1))

    end = q_sum(np.einsum("...ijs,...jA->...isA", u, V))  # u . a
    midw = q_sum(_wedge_coeffs(np.swapaxes(u, -2, -1), V[..., :, None, :], q, 1, p - 1))
    if p >= 2:
        # w[i, s] = (u ^ e_i) . a = u . (e_i . a)
        w = np.einsum("...ijs,...ijA->...isA", u, contractions(a, 2))
        acc = w.sum(axis=-3)
        mixed, mid = np.sum(acc * acc, axis=-1), q_sum(w)
    else:
        mixed = mid = np.zeros_like(end)
    return {"mixed_term_per_s": mixed, "q_sum_bivector_per_s": mid,
            "q_sum_wedge_per_s": midw, "q_sum_contraction_per_s": end}


def hodge_trace_residual(RM: RiemannTensor, a: AlternatingForm):
    """Residual of the duality trace identity

        S1(a) + S1(*a) = (sum_{l,i} R[l,i,l,i]) |a|^2,

    which pairs the Ricci contraction of a form with that of its Hodge dual.
    """
    lhs = ricci_contraction(RM, a) + ricci_contraction(RM, hodge(a))
    return lhs - RM.scalar() * a.norm_sq

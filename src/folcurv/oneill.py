"""The integrability (O'Neill) tensor, the auxiliary B+/B- tensors with
their norm identities, and evaluators for the curvature bounds.

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
row; on one instance it returns a float.  Each contraction step has two
operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _pair,
    _value,
    _wedge_coeffs,
    _zeros,
    contractions,
    hodge,
)

__all__ = [
    "ONeillTensor",
    "BoundReport",
    "sandwich_check",
    "bplus_norm",
    "bplus_norm_closed",
    "bminus_norm",
    "bminus_norm_closed",
    "mixed_bivector_term",
    "vertical_contraction_term",
    "prop31_value",
    "master_identity_residual",
    "prop41_check",
    "thm31_report",
    "thm32_report",
    "thm41_report",
    "cor31_scan",
    "cor31_report",
    "two_form_rewrite",
    "contraction_chain",
    "hodge_trace_residual",
]


class ONeillTensor:
    """Integrability tensor components a[i, j, s] = g(A_{e_i} e_j, V_s) for a
    rank-q horizontal frame and a (n-q)-dimensional vertical frame; a
    four-dimensional ``a`` is a stack of them, a[n, i, j, s].

    Skewness in (i, j) is exact and enforced; the action on vertical vectors
    is derived, not stored: g(A_{e_i} V_s, e_j) = -a[i, j, s].
    """

    __slots__ = ("a", "q", "vdim")

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim not in (3, 4) or a.shape[-3] != a.shape[-2]:
            raise ValueError(f"expected shape ([n,] q, q, vdim), got {a.shape}")
        if not np.array_equal(a, -np.swapaxes(a, -3, -2)):
            raise ValueError("integrability tensor must be exactly skew in (i, j)")
        self.a = a
        self.q = a.shape[-2]
        self.vdim = a.shape[-1]

    @property
    def norm_sq(self):
        """|A|^2 = sum a[i,j,s]^2; coincides with sum_{i,s} |A_{e_i} V_s|^2 by
        the derived vertical action."""
        return _value(np.sum(self.a * self.a, axis=(-3, -2, -1)))

    def __repr__(self):
        return f"ONeillTensor(q={self.q}, vdim={self.vdim}, |A|^2={self.norm_sq:.6g})"


@dataclass
class BoundReport:
    """Evaluated sides of an inequality at a point: gap = lhs - rhs exactly."""

    theorem_id: str
    lhs: float
    rhs: float
    gap: float
    tol: float
    satisfied: bool
    inputs: dict = field(default_factory=dict)
    note: str = ""


def _report(theorem_id, lhs, rhs, tol, inputs, note="") -> BoundReport:
    gap = lhs - rhs
    return BoundReport(theorem_id, float(lhs), float(rhs), float(gap), tol,
                       bool(gap >= -tol), inputs, note)


# -- elementary quantities -----------------------------------------------------


def _gram(X: np.ndarray, k: int) -> np.ndarray:
    """Pairings of the contraction table X = contractions(a, k):
    <X[i_1..i_k], X[j_1..j_k]>, indexed (i_1..i_k, j_1..j_k)."""
    i, j = "ijkl"[:k], "ijkl"[k:2 * k]
    return np.einsum(f"...{i}A,...{j}A->...{i}{j}", X, X)


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
    G = np.einsum("...kis,...kjs->...ij", A.a, A.a)
    out = _pair(G, _gram(contractions(a, 1), 1), 2)
    if a.degree >= 2:
        H = np.einsum("...ils,...jks->...ijkl", A.a, A.a)
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
    G = np.einsum("...ils,...jls->...ij", A.a, A.a)
    half = (p - 1) * _pair(G, _gram(contractions(a, 1), 1), 2)
    H = np.einsum("...ils,...kjs->...ijkl", A.a, A.a)
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


def master_identity_residual(
    RM: RiemannTensor,
    A: ONeillTensor,
    a: AlternatingForm,
    *,
    Rt: RiemannTensor | None = None,
):
    """Residual of the module's central identity (see module docstring),
    with the Bochner pairing computed from the transverse curvature data;
    it vanishes on every skew A and form.  RM is a space form; ``Rt`` is
    ``transverse_riemann(RM, A)`` when the caller has already built it.
    """
    # S1 - 1/2 S2 + 2 V - M is -E(a), so the residual is <R(a), a> - |B+|^2 + E(a)
    if Rt is None:
        Rt = transverse_riemann(RM, A)
    return curvature_term(Rt, a) - bplus_norm(A, a) + prop31_value(RM, A, a)


def sandwich_check(
    scal_nabla: float, K0: float, K1: float, q: int, A: ONeillTensor, *, tol: float = 1e-9
) -> tuple[BoundReport, BoundReport]:
    """Two-sided estimate of the integrability norm,

        Scal_t - q(q-1) K1 <= 3|A|^2 <= Scal_t - q(q-1) K0,

    with equality on space forms.  Violations are flagged, not raised."""
    if q < 2:
        raise ValueError("sandwich bound needs q >= 2")
    n2 = 3.0 * A.norm_sq
    inputs = {"q": q, "K0": K0, "K1": K1, "scal_nabla": scal_nabla,
              "oneill_norm_sq": A.norm_sq}
    lower = _report("sandwich.lower", n2, scal_nabla - q * (q - 1) * K1, tol, inputs)
    upper = _report("sandwich.upper", scal_nabla - q * (q - 1) * K0, n2, tol, inputs)
    return lower, upper


def prop41_check(
    RM: RiemannTensor, A: ONeillTensor, a: AlternatingForm, *, tol: float = 1e-9
) -> BoundReport:
    """Pointwise harmonic-form inequality,

        2 <R(a), a> >= -(p-7)/3 T1 + (p-1)/3 S1 - S2 - (V + 2M),

    with T1 the transverse Ricci contraction.  The slack is exactly
    1/2 |B-(a)|^2 + |B+(a)|^2, so the gap is nonnegative on all inputs;
    a negative gap is reported, not raised.
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
    inputs = {"q": a.dimension, "p": p, "vdim": A.vdim}
    return _report("prop4.1", lhs, rhs, tol, inputs)


def _check_pq(q: int, p: int):
    if q < 4 or not 2 <= p <= q - 2:
        raise ValueError(f"hypothesis violated: need q >= 4 and 2 <= p <= q-2, got q={q}, p={p}")


def _degree_constant(q: int, p: int) -> float:
    return p * (p - 1) + (q - p) * (q - p - 1)


def thm31_report(K0: float, rho1: float, q: int, p: int, A: ONeillTensor,
                 *, tol: float = 1e-9) -> BoundReport:
    """Lower bound for the integrability norm under a parallel transverse
    p-form on a positively curved manifold:

        (q-2)|A|^2 >= K0 q(q-1) - (p(p-1) + (q-p)(q-p-1)) rho1.
    """
    _check_pq(q, p)
    lhs = (q - 2) * A.norm_sq
    rhs = K0 * q * (q - 1) - _degree_constant(q, p) * rho1
    inputs = {"q": q, "p": p, "K0": K0, "rho1": rho1, "oneill_norm_sq": A.norm_sq}
    return _report("thm3.1", lhs, rhs, tol, inputs)


def thm32_report(scalM: float, K1: float, rho1: float, n: int, q: int, p: int,
                 A: ONeillTensor, *, tol: float = 1e-9) -> BoundReport:
    """Scalar-curvature variant of the parallel-form bound:

        (q-2)|A|^2 >= Scal - K1 (n-q)(n+q-1) - (p(p-1) + (q-p)(q-p-1)) rho1.
    """
    _check_pq(q, p)
    lhs = (q - 2) * A.norm_sq
    rhs = scalM - K1 * (n - q) * (n + q - 1) - _degree_constant(q, p) * rho1
    inputs = {"n": n, "q": q, "p": p, "K1": K1, "rho1": rho1, "scalM": scalM,
              "oneill_norm_sq": A.norm_sq}
    return _report("thm3.2", lhs, rhs, tol, inputs)


def thm41_report(scal_nabla: float, K0: float, rho1: float, q: int, p: int,
                 A: ONeillTensor, *, tol: float = 1e-9) -> BoundReport:
    """Harmonic-form bound, valid at some point of a compact manifold
    carrying a basic harmonic p-form (an existence-type statement; this
    evaluates the two sides at the configured point):

        (2q+1)|A|^2 >= -(p-7)/3 Scal_t + (p-1)/3 q(q-1) K0
                       - 2 (p(p-1) + (q-p)(q-p-1)) rho1.
    """
    _check_pq(q, p)
    lhs = (2 * q + 1) * A.norm_sq
    rhs = (
        -(p - 7) / 3.0 * scal_nabla
        + (p - 1) / 3.0 * q * (q - 1) * K0
        - 2.0 * _degree_constant(q, p) * rho1
    )
    inputs = {"q": q, "p": p, "K0": K0, "rho1": rho1, "scal_nabla": scal_nabla,
              "oneill_norm_sq": A.norm_sq}
    return _report("thm4.1", lhs, rhs, tol, inputs, note="existence-type")


def cor31_scan(RM: RiemannTensor, A: ONeillTensor, trials: int, rng_seed) -> float:
    """Maximum of the obstruction quantity E over random unit 1-forms.

    On a manifold with positive sectional curvature a parallel basic 1-form
    would force max E >= 0, so a strictly negative sampled maximum certifies
    (on the sample) the nonexistence obstruction.  For a space form RM, as
    on every model, S1 = c (q-1) |v|^2 is read from c and S2 vanishes in
    degree 1, so no q^4 array is built.
    """
    rng = np.random.default_rng(rng_seed)  # a Generator is returned unaltered
    q = RM.dimension
    v = rng.standard_normal((trials, q))  # the numbers of ``trials`` draws of q
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    return float(np.max(prop31_value(RM, A, AlternatingForm(1, q, v))))


def cor31_report(RM: RiemannTensor, A: ONeillTensor, trials: int, rng_seed,
                 *, tol: float = 1e-9) -> BoundReport:
    """Corollary 3.1 on the sample: the parallel 1-form obstruction is
    certified when the ``cor31_scan`` maximum is at most -(q-1)/2.  An upper
    bound, so it passes when lhs <= rhs + tol."""
    q = RM.dimension
    lhs, rhs = cor31_scan(RM, A, trials, rng_seed), -(q - 1) / 2.0
    return BoundReport("cor3.1", lhs, rhs, lhs - rhs, tol, bool(lhs <= rhs + tol),
                       {"q": q, "trials": trials, "oneill_norm_sq": A.norm_sq})


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
    bound = _value(p * (p - 1) * rho1 * a.norm_sq)
    return {"half_s2": half_s2, "theta_route": theta_route, "bound": bound}


def contraction_chain(A: ONeillTensor, a: AlternatingForm) -> dict:
    """Per-vertical-direction chain bounding the mixed bivector term,

        M_s <= q sum_i |(A_i V_s ^ e_i) . a|^2 <= q sum_i |A_i V_s . a|^2,

    reading the middle object as the bivector contraction u.(e_i.a); both
    steps then hold, the second because A_i V_s is orthogonal to e_i.  The
    wedge reading of the middle term, q sum_i |A_i V_s ^ (e_i . a)|^2, is
    evaluated and returned for comparison only; it does not enter the
    asserted chain.  Each value is a list over s for one instance and an
    (n, vdim) array for a stack.
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
    out = {"mixed_term_per_s": mixed, "q_sum_bivector_per_s": mid,
           "q_sum_wedge_per_s": midw, "q_sum_contraction_per_s": end}
    if end.ndim == 1:  # one instance: a list of floats, one per s
        out = {k: v.tolist() for k, v in out.items()}
    return out


def hodge_trace_residual(RM: RiemannTensor, a: AlternatingForm):
    """Residual of the duality trace identity

        S1(a) + S1(*a) = (sum_{l,i} R[l,i,l,i]) |a|^2,

    which pairs the Ricci contraction of a form with that of its Hodge dual.
    """
    lhs = ricci_contraction(RM, a) + ricci_contraction(RM, hodge(a))
    return _value(lhs - RM.scalar() * a.norm_sq)

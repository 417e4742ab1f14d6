"""Curvature tensors, their curvature-operator extremes, the transverse
curvature induced by the integrability tensor, and the Bochner curvature
term on forms.

Sign convention: on an orthonormal frame, R[l, i, l, i] is the sectional
curvature of the plane (e_l, e_i); the unit round metric has R[l, i, l, i] = 1.
The transverse tensor is assembled algebraically from the ambient tensor and
the integrability tensor:

    Rt[i,j,k,l] = R[i,j,k,l] + 2 g(A_i e_j, A_k e_l)
                  - g(A_j e_k, A_i e_l) - g(A_k e_i, A_j e_l)

whose symmetries and first Bianchi identity follow from the skewness of A
(asserted at construction, not assumed).
"""

from __future__ import annotations

import numpy as np

from .exterior import (
    AlternatingForm,
    contractions,
    interior_matrices,
    multi_indices,
    wedge_matrices,
)

__all__ = [
    "RiemannTensor",
    "space_form",
    "curvature_operator_matrix",
    "curvature_operator_extremes",
    "transverse_riemann",
    "transverse_ricci",
    "curvature_action_on_form",
    "ricci_contraction",
    "bivector_curvature_sum",
    "curvature_term",
]


class RiemannTensor:
    """A 4-index curvature array R[i,j,k,l] on an orthonormal frame.

    Construction enforces the pair/antisymmetry relations exactly up to
    ``tol`` and the first Bianchi identity; violations raise.
    """

    __slots__ = ("components", "dimension", "space_form_curvature")

    def __init__(self, components, *, tol: float = 1e-10, space_form_curvature=None):
        R = np.asarray(components, dtype=float)
        q = R.shape[0]
        if R.shape != (q, q, q, q):
            raise ValueError(f"curvature array must be (q,q,q,q), got {R.shape}")
        skew_ij = np.max(np.abs(R + np.einsum("jikl->ijkl", R)))
        skew_kl = np.max(np.abs(R + np.einsum("ijlk->ijkl", R)))
        pair = np.max(np.abs(R - np.einsum("klij->ijkl", R)))
        if max(skew_ij, skew_kl, pair) > tol:
            raise ValueError(
                "curvature symmetries violated: "
                f"skew(i,j)={skew_ij:.3e}, skew(k,l)={skew_kl:.3e}, pair={pair:.3e}"
            )
        bianchi = np.max(
            np.abs(R + np.einsum("jkil->ijkl", R) + np.einsum("kijl->ijkl", R))
        )
        if bianchi > tol:
            raise ValueError(f"first Bianchi identity violated: residual {bianchi:.3e}")
        self.components = R
        self.dimension = q
        self.space_form_curvature = space_form_curvature

    def ricci(self) -> np.ndarray:
        """Ric[i,j] = sum_l R[l,i,l,j]."""
        return np.einsum("lilj->ij", self.components)

    def scalar(self) -> float:
        return float(np.einsum("lili->", self.components))

    def __repr__(self):
        return f"RiemannTensor(q={self.dimension}, space_form={self.space_form_curvature})"


def space_form(q: int, c: float) -> RiemannTensor:
    """Constant-curvature tensor R[i,j,k,l] = c (d_ik d_jl - d_il d_jk)."""
    if q < 2:
        raise ValueError("space form needs dimension >= 2")
    eye = np.eye(q)
    R = c * (np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye))
    return RiemannTensor(R, space_form_curvature=float(c))


def curvature_operator_matrix(R: RiemannTensor) -> np.ndarray:
    """The symmetric C(q,2) x C(q,2) matrix of the curvature operator on the
    orthonormal bivector basis {e_i ^ e_j : i < j}."""
    pairs = multi_indices(R.dimension, 2)
    M = np.empty((len(pairs), len(pairs)))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            M[a, b] = R.components[i, j, k, l]
    return M


def curvature_operator_extremes(R: RiemannTensor) -> tuple[float, float]:
    """Extreme eigenvalues (rho0, rho1) of the curvature operator."""
    w = np.linalg.eigvalsh(curvature_operator_matrix(R))
    return float(w[0]), float(w[-1])


# -- transverse curvature from the integrability tensor -----------------------


def transverse_riemann(RM: RiemannTensor, A, *, tol: float = 1e-9) -> RiemannTensor:
    """Transverse curvature tensor from the ambient one and the
    integrability tensor.  The output is validated against all curvature
    invariants at ``tol``; a violation signals a broken A.  Its Ricci trace
    is then checked against the closed form

        Ric_t[i,j] = sum_l { R[l,i,l,j] + 3 g(A_l e_i, A_l e_j) }

    (the skew-diagonal term g(A_l e_l, .) vanishes identically).
    """
    a = A.a
    if a.shape[0] != RM.dimension:
        raise ValueError("integrability tensor dimension does not match curvature")
    G = np.einsum("ijs,kls->ijkl", a, a)
    Rt = RiemannTensor(
        RM.components
        + 2.0 * G
        - np.einsum("jks,ils->ijkl", a, a)
        - np.einsum("kis,jls->ijkl", a, a),
        tol=tol,
    )
    ric = RM.ricci() + 3.0 * np.einsum("lis,ljs->ij", a, a)
    err = np.max(np.abs(ric - Rt.ricci()))
    if err > 1e-10:
        raise ValueError(f"transverse Ricci disagrees with Riemann trace by {err:.3e}")
    return Rt


def transverse_ricci(RM: RiemannTensor, A) -> tuple[np.ndarray, float]:
    """Transverse Ricci and scalar curvature, read off the checked
    transverse tensor."""
    Rt = transverse_riemann(RM, A)
    return Rt.ricci(), Rt.scalar()


# -- curvature acting on forms ------------------------------------------------


def curvature_action_on_form(Rnabla: RiemannTensor, a: AlternatingForm) -> AlternatingForm:
    """The Bochner curvature operator on a p-form,

        R(a) = - sum_{i,j} e^j ^ (e_i . (R(e_i, e_j) a)),

    where R(e_i, e_j) acts on forms as the negative derivation of the frame
    endomorphism e_k -> sum_l R[i,j,k,l] e_l.  Linear in a; zero on scalars.
    """
    q, p = a.dimension, a.degree
    if Rnabla.dimension != q:
        raise ValueError("dimension mismatch between curvature and form")
    if p == 0:
        return AlternatingForm.zero(0, q)
    W = wedge_matrices(q, p - 1)
    L = interior_matrices(q, p)
    # T[k,l] = e^k ^ (e_l . a)
    T = np.einsum("kAB,lBC,C->klA", W, L, a.coeffs)
    phi = np.einsum("ijkl,klA->ijA", Rnabla.components, T)
    out = np.einsum("jAB,iBC,ijC->A", W, L, phi)
    return AlternatingForm(p, q, out)


def ricci_contraction(R: RiemannTensor, a: AlternatingForm) -> float:
    """S1 = sum R[l,i,l,j] <e_i.a, e_j.a>."""
    if a.degree == 0:
        return 0.0
    V = contractions(a, 1)
    return float(np.einsum("ij,iA,jA->", R.ricci(), V, V))


def bivector_curvature_sum(R: RiemannTensor, a: AlternatingForm) -> float:
    """S2 = sum R[i,j,k,l] <(e_j^e_i).a, (e_l^e_k).a>; zero below degree 2."""
    if a.degree < 2:
        return 0.0
    P = contractions(a, 2)
    return float(np.einsum("ijkl,ijA,klA->", R.components, P, P))


def curvature_term(R: RiemannTensor, a: AlternatingForm) -> float:
    """The Bochner curvature pairing <R(a), a> through its Ricci/Riemann
    contraction expansion, S1(a) - 1/2 S2(a).

    Equality with ``inner(curvature_action_on_form(...), a)`` is the first
    Bianchi consistency check, exercised by the verification suites.
    """
    return ricci_contraction(R, a) - 0.5 * bivector_curvature_sum(R, a)

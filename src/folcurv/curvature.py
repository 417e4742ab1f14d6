"""Curvature tensors, their curvature-operator matrix, the transverse
curvature induced by the integrability tensor, and the Bochner curvature
term on forms.

Sign convention: on an orthonormal frame, R[l, i, l, i] is the sectional
curvature of the plane (e_l, e_i); the unit round metric has R[l, i, l, i] = 1.
Every ambient here is a space form of curvature c, so the transverse
tensor is O'Neill's formula on the pair (c, A), A the O'Neill tensor:

    Rt[i,j,k,l] = c (d_ik d_jl - d_il d_jk) + 2 g(A_i e_j, A_k e_l)
                  - g(A_j e_k, A_i e_l) - g(A_k e_i, A_j e_l)

whose symmetries and first Bianchi identity follow from the skewness of A
(enforced by ``ONeillTensor``, and asserted when the components are built).

``space_form`` makes the tensor of the pair (c, None), and
``transverse_riemann`` the one of (c, A); its q^4 components are built only
when something reads them.  The Bochner action, the scalar curvature and the
Ricci and bivector contractions of a space form read the pair only.

Tensors and forms may carry one leading stack axis; every function here then
acts row by row and returns one value per row.
"""

from __future__ import annotations

import numpy as np

from .exterior import (
    AlternatingForm,
    _contract,
    _pair,
    _value,
    _wedge_coeffs,
    _wedge_frame,
    _zeros,
    contractions,
)

__all__ = [
    "RiemannTensor",
    "space_form",
    "curvature_operator_matrix",
    "transverse_riemann",
    "transverse_ricci",
    "curvature_action_on_form",
    "ricci_contraction",
    "bivector_curvature_sum",
    "curvature_term",
]

CHECK_TOL = 1e-10  # of every symmetry, Bianchi and Ricci-trace check of a curvature array


class RiemannTensor:
    """A 4-index curvature array R[i,j,k,l] on an orthonormal frame, or a
    stack of them, R[n, i, j, k, l].

    It is given by its components, or by its ``structure`` alone: the pair
    (c, A) of a space form of curvature c plus the O'Neill terms of the
    ``ONeillTensor`` A, with A = None (and ``dimension`` = q) for the space
    form itself.  The structure is None for a tensor given only by its
    components.  A structured tensor builds its components on first read.

    Every array of components, given or built, is checked for the
    pair/antisymmetry relations and for the first Bianchi identity on every
    row, each up to ``CHECK_TOL``; violations raise.
    """

    __slots__ = ("_components", "dimension", "structure")

    def __init__(self, components=None, *, structure=None, dimension=None):
        if components is not None:
            self._components = _checked(components)
            self.dimension = self._components.shape[-1]
        elif structure is None:
            raise ValueError("a curvature tensor needs its components or its structure (c, A)")
        else:
            A = structure[1]
            self.dimension = int(dimension) if A is None else A.q
            self._components = None
        self.structure = structure

    @property
    def components(self) -> np.ndarray:
        """The q^4 array; a structured tensor builds and checks it here, once,
        with the Ricci trace of a transverse one against the closed form
        c (q-1) I + 3 sum_l g(A_l e_i, A_l e_j).  A failed check keeps none."""
        if self._components is None:
            c, A = self.structure
            q = self.dimension
            R = np.multiply.outer(c, _unit_components(q))
            if A is not None:  # R_t replaces the space form before the check, so
                R = _add_oneill_terms(R, A.gram)  # A's kept G adds no array to its peak
            R = _checked(R)
            if A is not None:
                ric = (np.multiply.outer(c, (q - 1) * np.eye(q))
                       + 3.0 * np.einsum("...lis,...ljs->...ij", A.a, A.a))
                err = np.max(np.abs(ric - np.einsum("...lilj->...ij", R)))
                if err > CHECK_TOL:
                    raise ValueError(
                        f"transverse Ricci disagrees with Riemann trace by {err:.3e}")
            self._components = R
        return self._components

    @property
    def space_form_curvature(self):
        """c for a space form (one per stacked row), else None."""
        if self.structure is None or self.structure[1] is not None:
            return None
        return self.structure[0]

    def ricci(self) -> np.ndarray:
        """Ric[i,j] = sum_l R[l,i,l,j]."""
        return np.einsum("...lilj->...ij", self.components)

    def scalar(self):
        """Scal = sum_{l,i} R[l,i,l,i].  A structured tensor sums the entries
        of ``_diagonal``, O(q^2), and never builds its components."""
        if self.structure is None:
            return _value(np.einsum("...lili->...", self._components))
        return _value(np.sum(_diagonal(self.dimension, *self.structure), axis=(-2, -1)))

    def __repr__(self):
        return f"RiemannTensor(q={self.dimension}, space_form={self.space_form_curvature})"


def _checked(components) -> np.ndarray:
    """The curvature array, after its symmetries and first Bianchi identity
    are checked at ``CHECK_TOL`` on every row; a violation raises."""
    R = np.asarray(components, dtype=float)
    q = R.shape[-1]
    if R.ndim not in (4, 5) or R.shape[-4:] != (q, q, q, q):
        raise ValueError(f"curvature array must be ([n,] q,q,q,q), got {R.shape}")
    skew_ij = _max_abs(R + np.einsum("...jikl->...ijkl", R))
    skew_kl = _max_abs(R + np.einsum("...ijlk->...ijkl", R))
    pair = _max_abs(R - np.einsum("...klij->...ijkl", R))
    if max(skew_ij, skew_kl, pair) > CHECK_TOL:
        raise ValueError(
            "curvature symmetries violated: "
            f"skew(i,j)={skew_ij:.3e}, skew(k,l)={skew_kl:.3e}, pair={pair:.3e}"
        )
    cyclic = R + np.einsum("...jkil->...ijkl", R)
    cyclic += np.einsum("...kijl->...ijkl", R)
    bianchi = _max_abs(cyclic)
    if bianchi > CHECK_TOL:
        raise ValueError(f"first Bianchi identity violated: residual {bianchi:.3e}")
    return R


def _max_abs(d: np.ndarray) -> float:
    """max |d| of a temporary, which is overwritten."""
    return float(np.max(np.abs(d, out=d)))


def _unit_components(q: int) -> np.ndarray:
    """d_ik d_jl - d_il d_jk, the unit space form."""
    eye = np.eye(q)
    return np.einsum("ik,jl->ijkl", eye, eye) - np.einsum("il,jk->ijkl", eye, eye)


def _add_oneill_terms(R: np.ndarray, G: np.ndarray) -> np.ndarray:
    """R + 2 G(ij, kl) - G(jk, il) - G(ki, jl) for the Gram product
    G(ij, kl) = sum_s a[i,j,s] a[k,l,s] (``ONeillTensor.gram``), from G and
    two axis-permuted views of it."""
    Rt = 2.0 * G
    Rt += R
    Rt -= np.moveaxis(G, -2, -4)        # G[j, k, i, l]
    Rt -= np.moveaxis(G, -4, -2)        # G[k, i, j, l]
    return Rt


def _diagonal(q: int, c, A) -> np.ndarray:
    """The entries R[l, i, l, i] of the tensor of structure (c, A), each
    from the O'Neill terms of the defining formula,

        c (1 - d_li) + 2 G(li, li) - G(il, li),

    summed separately, never through the closed-form Ricci; its third term
    -G(ll, ii) is zero, as A is exactly skew."""
    K = np.multiply.outer(c, 1.0 - np.eye(q))
    if A is None:
        return K
    a = A.a
    return (K + 2.0 * np.einsum("...lis,...lis->...li", a, a)
            - np.einsum("...ils,...lis->...li", a, a))


def space_form(q: int, c) -> RiemannTensor:
    """The space form of curvature c, R[i,j,k,l] = c (d_ik d_jl - d_il d_jk),
    given by its structure (c, None); an array of curvatures c gives the
    stack of their space forms.  The components are built on first read."""
    if q < 2:
        raise ValueError("space form needs dimension >= 2")
    return RiemannTensor(structure=(_value(c), None), dimension=q)


def curvature_operator_matrix(R: RiemannTensor) -> np.ndarray:
    """The symmetric C(q,2) x C(q,2) matrix of the curvature operator on the
    orthonormal bivector basis {e_i ^ e_j : i < j}, one per stacked row."""
    i, j = np.triu_indices(R.dimension, 1)         # lexicographic, the rank order of 2-forms
    return R.components[..., i[:, None], j[:, None], i, j]


# -- transverse curvature from the integrability tensor -----------------------


def transverse_riemann(RM: RiemannTensor, A) -> RiemannTensor:
    """The transverse curvature of a space form RM of curvature c and the
    integrability tensor A, the tensor of structure (c, A), checked at
    ``CHECK_TOL`` when its components are read; any other ambient is refused."""
    if A.q != RM.dimension:
        raise ValueError("integrability tensor dimension does not match curvature")
    c = RM.space_form_curvature
    if c is None:
        why = ("this tensor carries only its components" if RM.structure is None
               else "this tensor is not a space form: it carries O'Neill terms")
        raise ValueError(f"the transverse curvature needs a space-form ambient; {why}")
    return RiemannTensor(structure=(c, A))


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

    It is evaluated from the pair (c, A) that R is made from, a space form
    of curvature c plus the O'Neill terms of A, in its Weitzenbock form

        R(a) = c p (q-p) a - sum_s [ D_s D_s a + 2 D_{w_s w_s} a + 4 w_s ^ i_s a ]

    with w_s = A[:, :, s] a skew endomorphism, D_E a = sum_kl E[k,l]
    e^k ^ (e_l . a) its derivation (D_s = D_{w_s}), i_s a =
    1/2 sum_kl w_s[k,l] a(e_k, e_l, .), and w_s ^ the wedge with the 2-form
    of coefficients w_s[i,j], i < j.  D_E and i_s go through the frame
    contraction of ``exterior``, never the q^4 components; a tensor
    without the pair is refused.
    """
    q, p = a.dimension, a.degree
    if Rnabla.dimension != q:
        raise ValueError("dimension mismatch between curvature and form")
    if Rnabla.structure is None:
        raise ValueError("the curvature action needs a space form or a transverse tensor "
                         "built from one; this tensor carries only its components")
    c, A = Rnabla.structure
    out = (p * (q - p)) * np.asarray(c)[..., None] * a.coeffs
    if A is None or p == 0:
        return AlternatingForm(p, q, out)
    A = A.a                                                     # (..., i, j, s)

    def derive(E, y):  # D_E x from y = _contract(x), each leading axis broadcast
        return _wedge_frame(E @ y, q, p)

    w = np.moveaxis(A, -1, -3)                                  # (..., s, k, l)
    y = _contract(a.coeffs, q, p)
    Dx = derive(w, y[..., None, :, :])                          # D_s a, one row per s
    total = derive(w, _contract(Dx, q, p)).sum(-2)
    total += 2.0 * derive(np.einsum("...kms,...mls->...kl", A, A), y)
    if p >= 2:
        iu, ju = np.triu_indices(q, 1)                          # the order of rank I
        # i_s a as dot products of contiguous rows over I = (i < j): each sum
        # is then the same at every stack length, which an einsum's is not
        X2 = np.ascontiguousarray(np.swapaxes(
            _contract(y, q, p - 1)[..., iu, ju, :], -1, -2))  # a(e_i, e_j, .), (..., J, I)
        W2 = np.ascontiguousarray(np.moveaxis(A[..., iu, ju, :], -1, -2))    # (..., s, I)
        contracted = np.vecdot(W2[..., :, None, :], X2[..., None, :, :])    # (..., s, J)
        total += 4.0 * _wedge_coeffs(W2, contracted, q, 2, p - 2).sum(-2)
    return AlternatingForm(p, q, out - total)


def ricci_contraction(R: RiemannTensor, a: AlternatingForm):
    """S1 = sum R[l,i,l,j] <e_i.a, e_j.a>.  A space form of curvature c has
    Ric = c (q-1) I, so its S1 = c (q-1) p |a|^2 is read from c."""
    if a.degree == 0:
        return _zeros(a)
    c = R.space_form_curvature
    if c is not None:
        return _value(c * ((R.dimension - 1) * a.degree) * a.norm_sq)
    V = contractions(a, 1)
    return _pair(np.einsum("...ij,...jA->...iA", R.ricci(), V), V, 2)


def bivector_curvature_sum(R: RiemannTensor, a: AlternatingForm):
    """S2 = sum R[i,j,k,l] <(e_j^e_i).a, (e_l^e_k).a>; zero below degree 2.
    A space form of curvature c has S2 = 2 c p (p-1) |a|^2, read from c."""
    if a.degree < 2:
        return _zeros(a)
    c = R.space_form_curvature
    if c is not None:
        return _value(c * (2 * a.degree * (a.degree - 1)) * a.norm_sq)
    P = contractions(a, 2)
    q = a.dimension
    P = P.reshape(P.shape[:-3] + (q * q, -1))
    Rc = R.components
    return _pair(Rc.reshape(Rc.shape[:-4] + (q * q, q * q)) @ P, P, 2)


def curvature_term(R: RiemannTensor, a: AlternatingForm):
    """The Bochner curvature pairing <R(a), a> through its Ricci/Riemann
    contraction expansion, S1(a) - 1/2 S2(a).

    Equality with ``inner(curvature_action_on_form(...), a)`` is the first
    Bianchi consistency check, exercised by the verification suites.
    """
    return ricci_contraction(R, a) - 0.5 * bivector_curvature_sum(R, a)

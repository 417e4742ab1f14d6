"""Exterior algebra on an oriented q-dimensional inner-product fiber.

A degree-p alternating form is stored by its coefficients on the strictly
increasing multi-indices of the orthonormal frame e_0, ..., e_{q-1};
antisymmetry is resolved on access, never stored.  The p-form inner product
carries the 1/p! normalization, under which the stored coefficient vector is
orthonormal and <a, b> collapses to a plain dot product.

A form may carry one leading stack axis: ``coeffs`` of shape (n, C(q, p))
holds n forms of one degree, and every product below acts row by row; a
vector argument may likewise be a stack of shape (n, q).

Orientation is the ordered frame itself.  The Hodge star sign is pinned by
a ^ (*a) = |a|^2 vol, which also yields the contraction rule
X . (*a) = (-1)^p * (X^flat ^ a).

Every product reads one signed wedge table, ``_wedge_table``: the wedge and
the Hodge star directly, and the frame contraction through its (1, p-1) rows
as ``_contract`` and its adjoint ``_wedge_frame``, which interior products,
contraction tables and frame-index access iterate.  It is the only code that
computes a permutation sign; ``tests/oracles.py`` recomputes every product
by determinant minors and shuffle sums as its independent check.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "AlternatingForm",
    "wedge",
    "interior_vector",
    "inner",
    "hodge",
    "flat",
    "contractions",
    "interior_matrices",
    "wedge_matrices",
]


def _combinations(n: int, m: int) -> np.ndarray:
    """The increasing m-tuples in range(n) as rows, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), m))
    return np.fromiter(flat, np.intp, count=comb(n, m) * m).reshape(comb(n, m), m)


def _ranks(U: np.ndarray, S: np.ndarray, q: int) -> np.ndarray:
    """rank[u, s] of the increasing tuple c = U[u, S[s]] of length n among all
    those in range(q), by the combinatorial number system (Knuth, TAOCP 4A,
    7.2.1.3): C(q, n) - 1 - sum_t C(q - 1 - c_t, n - t), one column t at a time."""
    n = S.shape[1]
    rank = np.full((len(U), len(S)), comb(q, n) - 1, dtype=np.intp)
    for t in range(n):  # c_t >= t, so no binomial read exceeds C(q, n)
        binom = np.fromiter((comb(x, n - t) for x in range(q - t)), np.intp, count=q - t)
        rank -= binom[q - 1 - U[:, S[:, t]]]
    return rank


@lru_cache(maxsize=None)
def _wedge_table(q: int, p: int, r: int) -> tuple[np.ndarray, ...]:
    """Signed index table of the wedge of a degree-p and a degree-r form.

    One row per disjoint pair (I, J) of increasing multi-indices: (rank of
    I u J, rank of I, rank of J, sign of the shuffle sorting I + J), so that
    e_I ^ e_J = sign * e_{I u J}.  Rows are grouped by the rank of the union
    U, and within a group I = U[P] runs over the p-subsets P of the positions
    of U in lexicographic order, with J = U[Q] on the complement Q of P.
    """
    if p + r > q:
        raise ValueError(f"degree overflow: {p} + {r} > {q}")
    U, P = _combinations(q, p + r), _combinations(p + r, p)
    rest = np.ones((len(P), p + r), dtype=bool)
    np.put_along_axis(rest, P, False, axis=1)
    Q = np.nonzero(rest)[1].reshape(len(P), r)
    # sum_t (P_t - t) pairs (x in I, y in J) have x > y
    sign = np.where((P.sum(axis=1) - p * (p - 1) // 2) % 2, -1.0, 1.0)
    k = np.repeat(np.arange(len(U)), len(P))
    return k, _ranks(U, P, q).ravel(), _ranks(U, Q, q).ravel(), np.tile(sign, len(U))


def _contract(x: np.ndarray, q: int, p: int) -> np.ndarray:
    """y[..., l, :] = coeffs(e_l . x) for degree-p coefficients x, p >= 1;
    each entry is one signed copy of an entry of x, or 0."""
    k, l, r, sign = _wedge_table(q, 1, p - 1)
    y = np.zeros(x.shape[:-1] + (q, comb(q, p - 1)))
    y[..., l, r] = sign * x[..., k]
    return y


def _wedge_frame(y: np.ndarray, q: int, p: int) -> np.ndarray:
    """sum_l e^l ^ y[..., l, :] for rows y of degree p - 1: the degree-p
    coefficients, and the exact adjoint of ``_contract``."""
    k, l, r, sign = _wedge_table(q, 1, p - 1)
    terms = sign * y[..., l, r]
    return terms.reshape(terms.shape[:-1] + (comb(q, p), p)).sum(-1)


def _wedge_coeffs(x: np.ndarray, y: np.ndarray, q: int, p: int, r: int) -> np.ndarray:
    """Coefficients of the wedge of degree-p coefficients x with degree-r
    coefficients y; any leading axes broadcast."""
    _, ia, ib, sign = _wedge_table(q, p, r)
    terms = sign * x[..., ia] * y[..., ib]
    return terms.reshape(terms.shape[:-1] + (comb(q, p + r), comb(p + r, p))).sum(-1)


def _zeros(a: "AlternatingForm"):
    """0.0 for one form, one zero per row for a stack."""
    return np.zeros(a.stack)[()]


def _pair(T: np.ndarray, U: np.ndarray, axes: int):
    """The sum of T * U over the last ``axes`` axes, one value per stacked
    row; leading axes broadcast."""
    return np.vecdot(T.reshape(T.shape[:T.ndim - axes] + (-1,)),
                     U.reshape(U.shape[:U.ndim - axes] + (-1,)))


def _gram(X: np.ndarray, k: int) -> np.ndarray:
    """G[..., I, J] = sum_A X[..., I, A] X[..., J, A], each of I and J the k
    axes before the last of X; one matmul over the flattened I."""
    lead, mid = X.shape[:X.ndim - 1 - k], X.shape[X.ndim - 1 - k:-1]
    Y = X.reshape(lead + (-1, X.shape[-1]))
    return (Y @ np.swapaxes(Y, -1, -2)).reshape(lead + mid + mid)


def _components(v, q: int, stack: tuple[int, ...] = ()) -> np.ndarray:
    """Coerce an array-like of frame components to a length-q array, or to
    a stack (n, q) of them; a stack must match a stacked form's ``stack``."""
    c = np.asarray(v, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1] != q:
        raise ValueError(f"expected a vector of dimension {q}, got shape {c.shape}")
    if c.ndim == 2 and stack and c.shape[:1] != stack:
        raise ValueError(f"a stack of {len(c)} vectors against a stack of {stack[0]} forms")
    return c


class AlternatingForm:
    """A degree-p alternating multilinear form on the q-dimensional fiber.

    ``coeffs[..., r]`` is the value on the frame vectors of the rank-r
    increasing multi-index; a two-dimensional ``coeffs`` is a stack of forms,
    one per row.  ``contractions`` keeps its tables on the form and then
    makes ``coeffs`` read-only, so write ``coeffs`` only before the first read.
    """

    __slots__ = ("degree", "dimension", "coeffs", "_tables")

    def __init__(self, degree: int, dimension: int, coeffs):
        if not 0 <= degree <= dimension:
            raise ValueError(f"degree {degree} out of range for dimension {dimension}")
        self.degree = degree
        self.dimension = dimension
        self._tables = {}
        n = comb(dimension, degree)
        c = np.array(coeffs, dtype=float)
        if c.ndim == 0 and n == 1:
            c = c.reshape(1)
        if c.ndim not in (1, 2) or c.shape[-1] != n:
            raise ValueError(f"a degree-{degree} form on dimension {dimension} needs "
                             f"coefficients of shape ({n},) or (n, {n}), got {c.shape}")
        self.coeffs = c

    # -- access -------------------------------------------------------------

    def component(self, *indices: int) -> float:
        """Value on an arbitrary frame index tuple.

        Indices may be unsorted or repeated: the value is read by contracting
        the frame vectors into the slots in order, so the permutation sign
        comes from the wedge table and a repeated index reads 0.
        """
        if len(indices) != self.degree:
            raise ValueError(f"expected {self.degree} indices, got {len(indices)}")
        for i in indices:
            if not 0 <= i < self.dimension:
                raise ValueError(f"index {i} out of range({self.dimension})")
        c = self.coeffs
        for d, i in zip(range(self.degree, 0, -1), indices):
            c = _contract(c, self.dimension, d)[i]
        return float(c[0])

    @property
    def stack(self) -> tuple[int, ...]:
        """The leading stack shape: () for one form, (n,) for n forms."""
        return self.coeffs.shape[:-1]

    @property
    def norm_sq(self):
        return np.vecdot(self.coeffs, self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "AlternatingForm"):
        if self.degree != other.degree or self.dimension != other.dimension:
            raise ValueError(
                f"incompatible forms: deg {self.degree}/dim {self.dimension} "
                f"vs deg {other.degree}/dim {other.dimension}"
            )

    def __add__(self, other: "AlternatingForm") -> "AlternatingForm":
        self._check_compatible(other)
        return AlternatingForm(self.degree, self.dimension, self.coeffs + other.coeffs)

    def __mul__(self, c) -> "AlternatingForm":
        return AlternatingForm(self.degree, self.dimension, self.coeffs * float(c))

    __rmul__ = __mul__

    def __repr__(self):
        return (
            f"AlternatingForm(degree={self.degree}, dimension={self.dimension}, "
            f"coeffs={self.coeffs!r})"
        )


# -- products ----------------------------------------------------------------


def wedge(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    """Wedge product; graded-anticommutative, a^b = (-1)^(pr) b^a."""
    if a.dimension != b.dimension:
        raise ValueError("wedge of forms on fibers of different dimension")
    q, p, r = a.dimension, a.degree, b.degree
    return AlternatingForm(p + r, q, _wedge_coeffs(a.coeffs, b.coeffs, q, p, r))


def interior_vector(v, a: AlternatingForm) -> AlternatingForm:
    """Interior product (v . a)(Y_1, ..., Y_{p-1}) = a(v, Y_1, ..., Y_{p-1});
    a stack of vectors v contracts row by row."""
    if a.degree == 0:
        raise ValueError("cannot contract a scalar")
    q = a.dimension
    v = _components(v, q, a.stack)
    y = v[..., None, :] @ _contract(a.coeffs, q, a.degree)
    return AlternatingForm(a.degree - 1, q, y[..., 0, :])


def inner(a: AlternatingForm, b: AlternatingForm):
    """The p-form inner product with the 1/p! normalization: a dot product
    of coefficients over increasing multi-indices (one per stacked row)."""
    a._check_compatible(b)
    return np.vecdot(a.coeffs, b.coeffs)


def hodge(a: AlternatingForm) -> AlternatingForm:
    """Hodge star for the orientation e_0 ^ ... ^ e_{q-1}.

    *e_I = sign(I, I^c) e_{I^c}, so that a ^ (*a) = |a|^2 vol.
    """
    q, p = a.dimension, a.degree
    _, ia, ib, sign = _wedge_table(q, p, q - p)
    out = np.zeros(a.stack + (comb(q, q - p),))
    out[..., ib] = sign * a.coeffs[..., ia]
    return AlternatingForm(q - p, q, out)


def flat(v, q: int) -> AlternatingForm:
    """The 1-form metrically dual to a vector (same frame components), or
    the stack of them for a stack of vectors."""
    return AlternatingForm(1, q, _components(v, q))


# -- contraction tables ------------------------------------------------------


@lru_cache(maxsize=None)
def wedge_matrices(q: int, p: int) -> np.ndarray:
    """W[j] @ coeffs(a) = coeffs(e^j ^ a) for deg-p a; shape (q, C(q,p+1), C(q,p)).
    No program path reads it: it is the dense reference of ``tests/oracles.py``,
    and the perfbench tracer wraps it by name as a cached table."""
    if p >= q:
        raise ValueError("degree overflow in wedge matrices")
    k, j, r, sign = _wedge_table(q, 1, p)
    mats = np.zeros((q, comb(q, p + 1), comb(q, p)))
    mats[j, k, r] = sign
    return mats


@lru_cache(maxsize=None)
def interior_matrices(q: int, p: int) -> np.ndarray:
    """M[i] @ coeffs(a) = coeffs(e_i . a); shape (q, C(q,p-1), C(q,p)), the
    transpose of W[i]; like it, read only by the test oracles and the tracer."""
    if p < 1:
        raise ValueError("no contraction matrices for scalars")
    return np.ascontiguousarray(wedge_matrices(q, p - 1).transpose(0, 2, 1))


def contractions(a: AlternatingForm, k: int) -> np.ndarray:
    """Table C with C[i_1, ..., i_k] = coeffs(a(e_i1, ..., e_ik, .)), the
    first k slots filled in order; shape a.stack + (q,) * k + (C(q, p-k),).

    Table k is built once, from table k - 1, and kept on the form; it is
    read-only, and so is ``a.coeffs`` (table 0) from the first read on.
    Rebinding ``a.coeffs`` drops the kept tables."""
    q, p = a.dimension, a.degree
    if not 0 <= k <= p:
        raise ValueError(f"cannot contract {k} slots of a degree-{p} form")
    tables = a._tables
    if tables.get(0) is not a.coeffs:  # first read, or coeffs rebound since
        tables.clear()
        a.coeffs.flags.writeable = False
        tables[0] = a.coeffs
    for d in range(len(tables), k + 1):
        tables[d] = _contract(tables[d - 1], q, p - d + 1)
        tables[d].flags.writeable = False
    return tables[k]

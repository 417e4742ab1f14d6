"""Weighted circle foliations of odd-dimensional round spheres.

The unit sphere in C^m carries the circle action with weights
theta = (1, theta_2, ..., theta_m),

    t . z = (e^{2 pi i t} z_1, e^{2 pi i theta_2 t} z_2, ...),

whose orbits define a one-dimensional Riemannian foliation; all weights equal
to 1 is the Hopf fibration.  The generating field and an explicit horizontal
frame are polynomial in the realified coordinates:

    X   = (i z_1, i theta_2 z_2, ..., i theta_m z_m)
    Y_l = (0, ..., -(sum_{k>l} |z_k|^2) z_l, |z_l|^2 z_{l+1}, ..., |z_l|^2 z_m)
    W_p = (0, ..., -(sum_{k>p} theta_k^2 |z_k|^2) i z_p,
           theta_p theta_{p+1} |z_p|^2 i z_{p+1}, ..., theta_p theta_m |z_p|^2 i z_m)
    W_{m-1} = (0, ..., -theta_m |z_m|^2 i z_{m-1}, theta_{m-1} |z_{m-1}|^2 i z_m)

for l in 1..m-1 and p in 1..m-2.  X is linear (its Jacobian is i theta); the
integrability tensor is half the vertical part of the brackets of Y and W,
whose pairings with X need only the gradients of <Z_j, X>, in closed
form.  Each evaluator takes a point or a stack of them.  The frame
degenerates where coordinates vanish, so points are rejection-sampled away
from the degenerate strata, by a margin on |z_k|^2 that shrinks with 1/m^2
above 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dual import suffix_sum
from .exterior import AlternatingForm
from .oneill import ONeillTensor

__all__ = [
    "WeightedHopfModel",
    "SpherePoint",
    "AdaptedFrame",
    "DegeneratePointError",
    "BracketRouteError",
    "realify",
    "complexify",
    "degeneracy_margin",
    "generating_field",
    "fields_YW",
    "adapted_frame",
    "oneill_from_brackets",
    "oneill_closed_form",
    "kahler_form",
    "mean_curvature",
    "sample_point",
]


class DegeneratePointError(ValueError):
    """The point is too close to a degenerate stratum for the frame fields."""


class BracketRouteError(RuntimeError):
    """The two bracket-route values of |A|^2 disagree at a point."""


@dataclass(frozen=True)
class WeightedHopfModel:
    """Weights of the circle action, normalized so the first weight is 1."""

    m: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need m >= 2")
        if len(self.theta) != self.m:
            raise ValueError(f"expected {self.m} weights, got {len(self.theta)}")
        if self.theta[0] != 1.0:
            raise ValueError("weights are normalized so the first equals 1")
        if any(not 0.0 < t <= 1.0 for t in self.theta):
            raise ValueError("weights must lie in (0, 1]")

    @property
    def q(self) -> int:
        return 2 * self.m - 2

    @property
    def is_hopf(self) -> bool:
        return all(t == 1.0 for t in self.theta)

    @cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        """theta, theta^2, theta on each (re, im) pair, and the W row scales."""
        th = np.asarray(self.theta)
        return th, th**2, np.repeat(th, 2), np.append(np.ones(self.m - 2), 1.0 / th[-1])


@dataclass(frozen=True)
class SpherePoint:
    """A unit point of the sphere in complex coordinates (m,), or a stack (n, m)."""

    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        if np.any(np.abs(np.linalg.norm(self.z, axis=-1) - 1.0) > 1e-12):
            raise ValueError("sphere point must have unit norm")

    @property
    def moduli_sq(self) -> np.ndarray:
        return np.abs(self.z) ** 2


def realify(z: np.ndarray) -> np.ndarray:
    """Complex m-vectors to interleaved real 2m-vectors [x1, y1, x2, y2, ...]."""
    return np.stack([z.real, z.imag], axis=-1).reshape(*z.shape[:-1], -1)


def complexify(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def apply_complex_structure(x: np.ndarray) -> np.ndarray:
    """Multiplication by i in interleaved real coordinates (last axis)."""
    return np.stack([-x[..., 1::2], x[..., 0::2]], axis=-1).reshape(x.shape)


FRAME_TOL = 1e-10  # the largest Gram or tangency residual of a frame (hopf.frame_gram)


def degeneracy_margin(m: int) -> float:
    """The least |z_k|^2 a sample point may have: 1e-3 up to m = 16, then
    1e-3 (16/m)^2.  A uniform draw clears it with probability about
    exp(-m^2 margin), so acceptance stays near exp(-0.256) at every large m
    where a fixed margin would reject almost every draw."""
    return 1e-3 * min(1.0, (16 / m) ** 2)


def generating_field(model: WeightedHopfModel, point: SpherePoint) -> np.ndarray:
    """The generating field X = i theta z, shape (..., 2m).  It is linear in z, so
    its Jacobian is the constant matrix of multiplication by i theta, and it
    never degenerates on the sphere."""
    return apply_complex_structure(model.weights[2] * realify(point.z))


# -- the point pass: frame field values and their pairings with X, differentiated


def fields_YW(model: WeightedHopfModel, point: SpherePoint, x: np.ndarray):
    """The 2m-2 horizontal frame fields at the points (..., m), ordered
    Y_1..Y_{m-1}, W_1..W_{m-1}, and the gradients u_j = DZ_j^T x of their
    pairings with x (..., 2m) held fixed: ``(fields, u)``, both (..., q, 2m).

    Row l of Y (of W) is a coefficient row y (w) times z (times i z): minus
    the tail t_l = sum_{k>l} |z_k|^2 (for W t'_l, weighted by theta_k^2) on the
    diagonal, |z_l|^2 (times theta_l theta_k for W) right of it; W_{m-1} as
    defined is that row over theta_m.  With g_k = <z_k, x_k>, h_k = <i z_k, x_k> and the
    suffix sums S_l = sum_{k>l} g_k, H_p = sum_{k>p} theta_k h_k, the pairings
    |z_l|^2 S_l - t_l g_l and theta_p |z_p|^2 H_p - t'_p h_p have the
    gradients u = C_Y z + y x (Y rows) and C_W z - w J x (W rows), C_Y holding
    2 S_l on the diagonal and -2 g_l right of it, C_W 2 theta_p H_p and
    -2 theta_k^2 h_p (times the row's scale).  ``adapted_frame`` checks the points."""
    m = model.m
    th, th2, _, scale = model.weights
    z = point.z.reshape(-1, m)
    re, im = z.real, z.imag
    x = np.reshape(x, (-1, m, 2))
    mod = re * re + im * im                          # |z_k|^2
    g = re * x[..., 0] + im * x[..., 1]              # <z_k, x_k>
    h = re * x[..., 1] - im * x[..., 0]              # <i z_k, x_k>
    # rows of y, w, C_Y, C_W: a tail on the diagonal, a head times weights right of it
    tails = suffix_sum(np.stack([-mod, -mod * th2, 2.0 * g, 2.0 * th * h], 1))[..., :-1, None]
    tails[:, 3] *= th[:-1, None]
    heads = np.stack([mod, mod, -2.0 * g, -2.0 * h], 1)[..., :-1, None]
    upper = np.tri(m, m - 1, -1).T
    k = heads * np.stack([upper, np.outer(th[:-1], th) * upper, upper, th2 * upper])
    k += tails * np.eye(m - 1, m)
    k[:, 1::2] *= scale[:, None]
    x = x[..., 0] + 1j * x[..., 1]      # complex rows; their float view is realify's layout
    fields = k[:, :2] * np.stack([z, 1j * z], 1)[:, :, None]      # y z and w i z
    u = k[:, 2:] * z[:, None, None] + k[:, :2] * np.stack([x, -1j * x], 1)[:, :, None]
    shape = point.z.shape[:-1] + (model.q, 2 * m)
    return fields.view(float).reshape(shape), u.view(float).reshape(shape)


def _first(bad) -> tuple | None:
    """The index of the first flagged point of a mask (``()`` for one), or None."""
    return np.unravel_index(np.argmax(bad), bad.shape) if bad.any() else None


@dataclass
class AdaptedFrame:
    """The horizontal fields of the orthonormal frame adapted to the
    foliation at a point, or a stack of them, with |X|, the unnormalized
    fields and the gradients u_j = DZ_j^T X.  ``adapted_frame`` checks the
    frame's tangency before it returns it; only the Gram residual is kept."""

    horizontal: np.ndarray          # shape (..., q, 2m)
    field_norms: np.ndarray         # unnormalized |Z_i|
    vertical_norm: float | np.ndarray       # |X|; on a stack, one value a point
    gram_residual: float | np.ndarray       # on a stack, one value a point
    fields: np.ndarray              # unnormalized Z_i, shape (..., q, 2m)
    u: np.ndarray                   # DZ_i^T X, shape (..., q, 2m)

    @cached_property
    def complex_pairing(self) -> AlternatingForm:
        """The 2-form <J e_i, e_j> of the horizontal frame H, read once from (J H) H^T."""
        h = self.horizontal
        i, j = np.triu_indices(h.shape[-2], 1)
        return AlternatingForm(2, h.shape[-2], (apply_complex_structure(h) @ h.mT)[..., i, j])


def adapted_frame(model: WeightedHopfModel, point: SpherePoint) -> AdaptedFrame:
    """X and the ``fields_YW`` fields at the points, normalized.  The first
    point with a coordinate modulus below ``degeneracy_margin(m)``, or a
    basis off orthonormal or sphere-tangent by more than ``FRAME_TOL`` (a
    zero field's NaN residual among them), raises ``DegeneratePointError``
    for the first of these (resample it)."""
    eps_deg = degeneracy_margin(model.m)
    x_amb = generating_field(model, point)
    fields, u = fields_YW(model, point, x_amb)
    nx = np.sqrt(np.vecdot(x_amb, x_amb))
    norms = np.sqrt(np.vecdot(fields, fields))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero field fails the Gram check
        horizontal = fields / norms[..., None]
    vertical = x_amb / nx[..., None]
    basis = np.concatenate([vertical[..., None, :], horizontal], axis=-2)
    gram = np.max(np.abs(basis @ basis.mT - np.eye(model.q + 1)), axis=(-2, -1))
    tangency = np.max(np.abs(basis @ realify(point.z)[..., None]), axis=(-2, -1))
    low_mod = np.min(point.moduli_sq, axis=-1) < eps_deg
    k = _first(low_mod | ~(gram <= FRAME_TOL) | ~(tangency <= FRAME_TOL))
    if k is not None:
        if low_mod[k]:
            raise DegeneratePointError(f"coordinate modulus below margin {eps_deg}")
        raise DegeneratePointError(f"frame fails orthonormality/tangency: "
                                   f"gram={gram[k]:.3e}, tangency={tangency[k]:.3e}")
    return AdaptedFrame(horizontal, norms, nx, gram, fields, u)


def oneill_from_brackets(model: WeightedHopfModel, point: SpherePoint,
                         *, frame: AdaptedFrame | None = None) -> tuple[ONeillTensor, float]:
    """Integrability tensor of the foliation at a point, or a stack of them,
    by definition: A_{e_i} e_j is half the vertical part of the bracket, so
    in the normalized frame

        a[i, j] = <[Z_i, Z_j], X> / (2 |Z_i| |Z_j| |X|).

    Also returns |A|^2 evaluated through the pairing display

        |A|^2 = 1/(2|X|^2) sum_{i<j} <[Z_i, Z_j], X>^2 / (|Z_i|^2 |Z_j|^2),

    checked against the tensor norm.  With unit weights the tensor is also
    checked against minus the complex structure, a[i, j] = -<J e_i, e_j>.
    Either disagreement raises ``BracketRouteError`` at the first point that
    shows it.  Only the vertical pairing of each bracket is formed: with
    u_j = DZ_j^T X, <[Z_i, Z_j], X> = <Z_i, u_j> - <Z_j, u_i>.
    """
    if frame is None:
        frame = adapted_frame(model, point)
    zu = frame.fields @ frame.u.mT                       # zu[i, j] = <Z_i, u_j>
    pairing = zu - zu.mT
    norms, nx = frame.field_norms, frame.vertical_norm
    a = pairing / (2.0 * norms[..., :, None] * norms[..., None, :] * nx[..., None, None])
    i, j = np.triu_indices(model.q, 1)
    denom = norms[..., i] * norms[..., j]
    display = np.sum(pairing[..., i, j] ** 2 / denom**2, axis=-1) / (2.0 * nx**2)
    A = ONeillTensor(a[..., None])
    norm_sq = np.asarray(A.norm_sq)
    k = _first(np.abs(norm_sq - display) > 1e-10 * np.maximum(1.0, display))
    if k is not None:
        raise BracketRouteError(f"bracket-norm routes disagree: {norm_sq[k]} vs {display[k]}")
    if model.is_hopf:
        err = np.max(np.abs(A.a[..., i, j, 0] + kahler_form(model, frame).coeffs), axis=-1)
        k = _first(err > 1e-10)
        if k is not None:
            raise BracketRouteError(
                f"unit-weight tensor differs from minus the complex structure by {err[k]:.3e}")
    return A, display


def oneill_closed_form(model: WeightedHopfModel, point: SpherePoint) -> float:
    """Closed-form |A|^2 of the weighted foliation, evaluated literally as the
    printed three-part sum over the weights and coordinate moduli (0-based
    j, i; Z_j = sum_{k>=j} |z_k|^2, T_j = sum_{k>=j} theta_k^2 |z_k|^2):

        |A|^2 |X|^2 / 2 = theta_{m-2}^2 theta_{m-1}^2 (Z_{m-2} / T_{m-2})
            + sum_{j<m-2} theta_j^2 T_{j+1} Z_j / (T_j Z_{j+1})
            + sum_{j<i<m-1} |z_i|^2 |z_j|^2 D_i^2 / (T_{j+1} T_j Z_{i+1} Z_i),
        D_i = sum_{k>i} (theta_i^2 - theta_k^2) |z_k|^2.

    The tails are suffix sums, and the double sum factors into a suffix sum
    over i.  The bracket route is the source of truth; a disagreement beyond
    1e-8 is a reportable finding about this formula, never silently patched.
    """
    m = model.m
    th2 = model.weights[1]
    zz = point.moduli_sq
    tz = th2 * zz
    z_tail, t_tail = suffix_sum(zz), suffix_sum(tz)          # Z_{j+1}, T_{j+1}
    z_incl, t_incl = zz + z_tail, tz + t_tail                # Z_j, T_j
    last = slice(m - 2, m)
    term1 = th2[m - 2] * th2[m - 1] * np.sum(zz[..., last], -1) / np.sum(tz[..., last], -1)
    j = slice(0, m - 2)
    term2 = np.sum(th2[j] * t_tail[..., j] * z_incl[..., j] / (t_incl[..., j] * z_tail[..., j]), -1)
    rows, cols = np.ogrid[:m - 1, :m]
    d = np.sum(np.where(cols > rows, (th2[:-1, None] - th2) * zz[..., None, :], 0.0), axis=-1)
    i = slice(0, m - 1)
    inner_i = suffix_sum(zz[..., i] * d**2 / (z_tail[..., i] * z_incl[..., i]))  # sum over i > j
    term3 = np.sum(zz[..., j] * inner_i[..., j] / (t_tail[..., j] * t_incl[..., j]), -1)
    return 2.0 * (term1 + term2 + term3) / np.sum(tz, -1)


def kahler_form(model: WeightedHopfModel, frame: AdaptedFrame) -> AlternatingForm:
    """The canonical 2-form of the Hopf fibration on the horizontal fiber,
    w(e_i, e_j) = <J e_i, e_j>, the frame's ``complex_pairing`` (the -a of
    ``oneill_from_brackets``); nondegenerate, |w|^2 = q/2.

    Only defined for the unweighted action (all weights 1), where the
    horizontal space is invariant under the complex structure.
    """
    if not model.is_hopf:
        raise ValueError("the canonical 2-form requires all weights equal to 1")
    return frame.complex_pairing


def mean_curvature(model: WeightedHopfModel, point: SpherePoint) -> np.ndarray:
    """Horizontal part of the sphere covariant derivative of the unit
    vertical field V = X/|X| along itself; zero exactly when all weights are
    1 (the Hopf circles are great circles).

    X = i theta z is linear, so the ambient flat derivative is
    D_V V = i theta V / |X| plus a multiple of V, which the horizontal
    projection removes; no field is differentiated."""
    x_amb = generating_field(model, point)
    nx = np.sqrt(np.vecdot(x_amb, x_amb))[..., None]
    v = x_amb / nx
    x = realify(point.z)
    dvv = apply_complex_structure(model.weights[2] * v) / nx           # D_V V, up to V
    dvv = dvv - np.vecdot(dvv, x)[..., None] * x     # sphere projection (unit normal z)
    return dvv - np.vecdot(dvv, v)[..., None] * v    # horizontal projection


def sample_point(model: WeightedHopfModel, rngs) -> SpherePoint:
    """Uniform points of the sphere: one point (m,) for a generator or seed,
    a stack (n, m) for a list of n of them.  Each point draws 2m normals
    from its own generator and normalizes them on their own, so it has the
    bits of a one-point draw, and is redrawn from its own generator until
    every coordinate modulus squared clears ``degeneracy_margin(m)``.  The
    margin is tested on the whole stack once a round of draws, and the
    stack is checked once, as one ``SpherePoint``."""
    one = not isinstance(rngs, list)
    # default_rng returns a Generator unaltered
    gens = [np.random.default_rng(r) for r in ([rngs] if one else rngs)]
    eps_deg = degeneracy_margin(model.m)
    g = np.empty((len(gens), 2 * model.m))
    todo = range(len(gens))
    for _ in range(10_000):
        for r in todo:
            x = gens[r].standard_normal(2 * model.m)
            x /= np.linalg.norm(x)
            g[r] = x
        z = complexify(g)
        todo = np.flatnonzero(np.min(np.abs(z) ** 2, axis=-1) < eps_deg)
        if not todo.size:
            return SpherePoint(z[0] if one else z)
    raise DegeneratePointError("rejection budget exhausted while sampling")

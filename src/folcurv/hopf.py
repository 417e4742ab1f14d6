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

for l in 1..m-1 and p in 1..m-2.  Lie brackets are computed with exact
forward-mode Jacobians of these definitions; the integrability tensor follows
from the vertical projection of half the bracket.  The frame degenerates
where coordinates vanish, so points are rejection-sampled away from the
degenerate strata, by a margin on |z_k|^2 that shrinks with 1/m^2 above
m = 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import seed_point, suffix_sum
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
    "field_labels",
    "degeneracy_margin",
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


@dataclass(frozen=True)
class SpherePoint:
    """A unit point of the sphere, stored in complex coordinates."""

    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex))
        if abs(np.linalg.norm(self.z) - 1.0) > 1e-12:
            raise ValueError("sphere point must have unit norm")

    @property
    def moduli_sq(self) -> np.ndarray:
        return np.abs(self.z) ** 2


def realify(z: np.ndarray) -> np.ndarray:
    """Complex m-vector to interleaved real 2m-vector [x1, y1, x2, y2, ...]."""
    out = np.empty(2 * len(z))
    out[0::2] = np.real(z)
    out[1::2] = np.imag(z)
    return out


def complexify(x: np.ndarray) -> np.ndarray:
    return x[0::2] + 1j * x[1::2]


def apply_complex_structure(x: np.ndarray) -> np.ndarray:
    """Multiplication by i in interleaved real coordinates (last axis)."""
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


# -- field evaluation on dual numbers -----------------------------------------
#
# The fields are written once over the CDual coordinates seeded at a point, as
# array operations on whole families, so one evaluation gives every value and
# its exact Jacobian together.


def field_labels(model: WeightedHopfModel) -> tuple[str, ...]:
    """Horizontal frame field labels, ordered Y_1..Y_{m-1}, W_1..W_{m-1}."""
    m = model.m
    return tuple(f"Y{l}" for l in range(1, m)) + tuple(f"W{p}" for p in range(1, m))


def degeneracy_margin(m: int) -> float:
    """The least |z_k|^2 a sample point may have: 1e-3 up to m = 16, then
    1e-3 (16/m)^2.  A uniform draw clears it with probability about
    exp(-m^2 margin), so acceptance stays near exp(-0.256) at every large m
    where a fixed margin would reject almost every draw."""
    return 1e-3 * min(1.0, (16 / m) ** 2)


def fields_YW(model: WeightedHopfModel, point: SpherePoint, *, eps_deg: float | None = None):
    """The generating field X and the 2m-2 horizontal frame fields, ordered as
    ``field_labels``, with their exact Jacobians, all from one dual-number
    evaluation at the point: ``(x, x_jacobian, fields, jacobians)`` of shapes
    (2m,), (2m, 2m), (q, 2m) and (q, 2m, 2m).

    Row l of Y (and of W) is a coefficient row times z (times i z): the
    diagonal entry is minus the tail sum_{k>l} |z_k|^2 (weighted by theta_k^2
    for W), the entries right of it are |z_l|^2 (times theta_l theta_k for W).
    The last row of W is W_{m-1} as defined, not the general row.

    Raises ``DegeneratePointError`` when a coordinate modulus falls below the
    degeneracy margin (``degeneracy_margin(m)`` unless ``eps_deg`` is given)
    or a squared field norm below the floor margin^3 min(theta)^4 that it
    implies (resample the point)."""
    eps_deg = degeneracy_margin(model.m) if eps_deg is None else eps_deg
    if np.min(point.moduli_sq) < eps_deg:
        raise DegeneratePointError(f"coordinate modulus below margin {eps_deg}")
    m = model.m
    th = np.asarray(model.theta)
    z = seed_point(realify(point.z))
    iz = z.times_i()
    mod = z.abs2()                                   # |z_k|^2
    tail = suffix_sum(mod)                           # sum_{k>l} |z_k|^2
    wtail = suffix_sum(mod * th**2)                  # sum_{k>l} theta_k^2 |z_k|^2
    rows, cols = np.ogrid[:m - 1, :m]
    diag, upper = (cols == rows) * 1.0, (cols > rows) * 1.0
    last = (np.arange(m - 1) == m - 2) * 1.0         # the row of W_{m-1}
    weight = np.outer(th[:-1], th) * upper           # theta_p theta_k, k > p
    weight[m - 2, m - 1] = th[m - 2]
    w_diag = wtail[:-1] * (1.0 - last) + mod[m - 1] * (th[m - 1] * last)
    y = z * (mod[:-1, None] * upper - tail[:-1, None] * diag)
    w = iz * (mod[:-1, None] * weight - w_diag[:, None] * diag)
    x = (iz * th).interleaved()
    y, w = y.interleaved(), w.interleaved()
    fields = np.concatenate([y.value, w.value])
    low = np.flatnonzero(np.einsum("ik,ik->i", fields, fields)
                         < eps_deg**3 * min(model.theta) ** 4)
    if low.size:
        raise DegeneratePointError(f"field {field_labels(model)[low[0]]} degenerates at this point")
    return x.value, x.grad, fields, np.concatenate([y.grad, w.grad])


@dataclass
class AdaptedFrame:
    """Orthonormal frame adapted to the foliation at a point: the normalized
    generating field plus the normalized horizontal fields, with the
    unnormalized fields and their exact Jacobians."""

    vertical: np.ndarray
    horizontal: np.ndarray          # shape (q, 2m)
    labels: tuple[str, ...]
    field_norms: np.ndarray         # unnormalized |Z_i|
    vertical_norm: float            # |X|
    vertical_jacobian: np.ndarray   # DX, shape (2m, 2m)
    gram_residual: float
    tangency_residual: float
    fields: np.ndarray              # unnormalized Z_i, shape (q, 2m)
    jacobians: np.ndarray           # DZ_i, shape (q, 2m, 2m)


def adapted_frame(model: WeightedHopfModel, point: SpherePoint, *,
                  eps_deg: float | None = None, tol: float = 1e-10) -> AdaptedFrame:
    x_amb, x_jacobian, fields, jacobians = fields_YW(model, point, eps_deg=eps_deg)
    nx = np.linalg.norm(x_amb)
    norms = np.array([np.linalg.norm(f) for f in fields])
    horizontal = fields / norms[:, None]
    vertical = x_amb / nx
    basis = np.vstack([vertical, horizontal])
    gram_residual = float(np.max(np.abs(basis @ basis.T - np.eye(len(basis)))))
    zr = realify(point.z)
    tangency_residual = float(np.max(np.abs(basis @ zr)))
    if gram_residual > tol or tangency_residual > tol:
        raise DegeneratePointError(
            f"frame fails orthonormality/tangency: gram={gram_residual:.3e}, "
            f"tangency={tangency_residual:.3e}"
        )
    return AdaptedFrame(vertical, horizontal, field_labels(model), norms, float(nx),
                        x_jacobian, gram_residual, tangency_residual, fields, jacobians)


def oneill_from_brackets(model: WeightedHopfModel, point: SpherePoint,
                         *, frame: AdaptedFrame | None = None) -> tuple[ONeillTensor, float]:
    """Integrability tensor of the foliation at a point, by definition:
    A_{e_i} e_j is half the vertical part of the bracket, so in the
    normalized frame

        a[i, j] = <[Z_i, Z_j], X> / (2 |Z_i| |Z_j| |X|).

    Also returns |A|^2 evaluated through the pairing display

        |A|^2 = 1/(2|X|^2) sum_{i<j} <[Z_i, Z_j], X>^2 / (|Z_i|^2 |Z_j|^2),

    checked against the tensor norm.  With unit weights the tensor is also
    checked against minus the complex structure, a[i, j] = -<J e_i, e_j>.
    Either disagreement raises ``BracketRouteError``.  Only the vertical
    pairing of each bracket is formed, from the frame's own field values and
    Jacobians: with
    [Z_i, Z_j] = DZ_j Z_i - DZ_i Z_j and u_j = DZ_j^T X, the pairing is
    <Z_i, u_j> - <Z_j, u_i>.
    """
    if frame is None:
        frame = adapted_frame(model, point)
    q = len(frame.labels)
    u = frame.jacobians.transpose(0, 2, 1) @ (frame.vertical * frame.vertical_norm)
    zu = frame.fields @ u.T                              # zu[i, j] = <Z_i, u_j>
    pairing = zu - zu.T
    i, j = np.triu_indices(q, 1)
    denom = frame.field_norms[i] * frame.field_norms[j]
    upper = pairing[i, j] / (2.0 * denom * frame.vertical_norm)
    a = np.zeros((q, q, 1))
    a[i, j, 0] = upper
    a[j, i, 0] = -upper
    display = float(np.sum(pairing[i, j] ** 2 / denom**2)) / (2.0 * frame.vertical_norm**2)
    A = ONeillTensor(a)
    if abs(A.norm_sq - display) > 1e-10 * max(1.0, display):
        raise BracketRouteError(
            f"bracket-norm routes disagree: {A.norm_sq} vs {display}"
        )
    if model.is_hopf:
        jh = apply_complex_structure(frame.horizontal)
        err = float(np.max(np.abs(A.a[:, :, 0] + jh @ frame.horizontal.T)))
        if err > 1e-10:
            raise BracketRouteError(
                f"unit-weight tensor differs from minus the complex structure by {err:.3e}")
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
    th2 = np.asarray(model.theta) ** 2
    zz = point.moduli_sq
    tz = th2 * zz
    z_tail, t_tail = suffix_sum(zz), suffix_sum(tz)          # Z_{j+1}, T_{j+1}
    z_incl, t_incl = zz + z_tail, tz + t_tail                # Z_j, T_j
    term1 = th2[m - 2] * th2[m - 1] * (zz[m - 2] + zz[m - 1]) / (tz[m - 2] + tz[m - 1])
    j = slice(0, m - 2)
    term2 = np.sum(th2[j] * t_tail[j] * z_incl[j] / (t_incl[j] * z_tail[j]))
    rows, cols = np.ogrid[:m - 1, :m]
    d = np.sum(np.where(cols > rows, (th2[:-1, None] - th2) * zz, 0.0), axis=1)
    i = slice(0, m - 1)
    inner_i = suffix_sum(zz[i] * d**2 / (z_tail[i] * z_incl[i]))   # sum over i > j
    term3 = np.sum(zz[j] * inner_i[j] / (t_tail[j] * t_incl[j]))
    return float(2.0 * (term1 + term2 + term3) / np.sum(tz))


def kahler_form(model: WeightedHopfModel, point: SpherePoint,
                frame: AdaptedFrame) -> AlternatingForm:
    """The canonical 2-form of the Hopf fibration on the horizontal fiber,
    w(e_i, e_j) = <i e_i, e_j>; nondegenerate with |w|^2 = q/2.

    Only defined for the unweighted action (all weights 1), where the
    horizontal space is invariant under the complex structure.
    """
    if not model.is_hopf:
        raise ValueError("the canonical 2-form requires all weights equal to 1")
    i, j = np.triu_indices(model.q, 1)
    jh = apply_complex_structure(frame.horizontal)
    return AlternatingForm(2, model.q, np.einsum("rk,rk->r", jh[i], frame.horizontal[j]))


def mean_curvature(model: WeightedHopfModel, point: SpherePoint, *,
                   frame: AdaptedFrame | None = None) -> np.ndarray:
    """Horizontal part of the sphere covariant derivative of the unit
    vertical field V = X/|X| along itself; zero exactly when all weights are
    1 (the Hopf circles are great circles).

    D_V V = DX V / |X| plus a multiple of V, which the horizontal projection
    removes.  X and DX are read from ``frame`` when it is given; otherwise
    from one field evaluation at the point (X itself never degenerates)."""
    if frame is None:
        x_amb, x_jacobian = fields_YW(model, point, eps_deg=0.0)[:2]
        nx = np.linalg.norm(x_amb)
        v = x_amb / nx
    else:
        x_jacobian, nx, v = frame.vertical_jacobian, frame.vertical_norm, frame.vertical
    x = realify(point.z)
    dvv = x_jacobian @ v / nx               # ambient flat derivative D_V V, up to V
    dvv = dvv - (dvv @ x) * x               # sphere projection (unit normal z)
    kappa = dvv - (dvv @ v) * v             # horizontal projection
    return kappa


def sample_point(model: WeightedHopfModel, rng_seed,
                 eps_deg: float | None = None) -> SpherePoint:
    """Uniform point of the sphere, rejection-resampled until every
    coordinate modulus squared clears the degeneracy margin
    (``degeneracy_margin(m)`` unless ``eps_deg`` is given)."""
    rng = np.random.default_rng(rng_seed)  # a Generator is returned unaltered
    eps_deg = degeneracy_margin(model.m) if eps_deg is None else eps_deg
    for _ in range(10_000):
        g = rng.standard_normal(2 * model.m)
        g /= np.linalg.norm(g)
        z = complexify(g)
        if np.min(np.abs(z) ** 2) >= eps_deg:
            return SpherePoint(z)
    raise DegeneratePointError("rejection budget exhausted while sampling")

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
degenerate strata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import CDual, Dual, seed_point
from .exterior import AlternatingForm
from .oneill import ONeillTensor

__all__ = [
    "WeightedHopfModel",
    "SpherePoint",
    "AdaptedFrame",
    "DegeneratePointError",
    "realify",
    "complexify",
    "field_labels",
    "field_X",
    "fields_YW",
    "lie_bracket",
    "adapted_frame",
    "oneill_from_brackets",
    "oneill_closed_form",
    "kahler_form",
    "mean_curvature",
    "sample_point",
]


class DegeneratePointError(ValueError):
    """The point is too close to a degenerate stratum for the frame fields."""


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
    """Multiplication by i in interleaved real coordinates."""
    out = np.empty_like(x)
    out[0::2] = -x[1::2]
    out[1::2] = x[0::2]
    return out


# -- generic field evaluation --------------------------------------------------
#
# The field definitions are written once over a generic complex scalar type
# (numpy complex or CDual), so values and exact Jacobians share one code path.


def _times_i(w):
    return w.times_i() if isinstance(w, CDual) else 1j * w


def _abs2(w):
    return w.abs2() if isinstance(w, CDual) else float(np.real(w * np.conj(w)))


def field_labels(model: WeightedHopfModel) -> tuple[str, ...]:
    """Horizontal frame field labels, ordered Y_1..Y_{m-1}, W_1..W_{m-1}."""
    m = model.m
    return tuple(f"Y{l}" for l in range(1, m)) + tuple(f"W{p}" for p in range(1, m))


def _zero_like(zc):
    if isinstance(zc[0], CDual):
        n = zc[0].re.grad.shape[0]
        return CDual(Dual.constant(0.0, n), Dual.constant(0.0, n))
    return 0.0 + 0.0j


def _field(model: WeightedHopfModel, label: str, zc):
    """Components of a named field over generic complex scalars."""
    m, th = model.m, model.theta
    out = [_zero_like(zc) for _ in range(m)]
    if label == "X":
        for k in range(m):
            out[k] = _times_i(zc[k]) * th[k]
        return out
    kind, idx = label[0], int(label[1:])
    if kind == "Y" and 1 <= idx <= m - 1:
        lo = idx - 1
        tail = sum((_abs2(zc[k]) for k in range(lo + 1, m)), start=_abs2(zc[lo]) * 0.0)
        out[lo] = zc[lo] * (-tail)
        mod = _abs2(zc[lo])
        for k in range(lo + 1, m):
            out[k] = zc[k] * mod
        return out
    if kind == "W" and 1 <= idx <= m - 2:
        po = idx - 1
        tail = sum(
            (_abs2(zc[k]) * (th[k] * th[k]) for k in range(po + 1, m)),
            start=_abs2(zc[po]) * 0.0,
        )
        out[po] = _times_i(zc[po]) * (-tail)
        mod = _abs2(zc[po])
        for k in range(po + 1, m):
            out[k] = _times_i(zc[k]) * (mod * (th[po] * th[k]))
        return out
    if kind == "W" and idx == m - 1:
        out[m - 2] = _times_i(zc[m - 2]) * (_abs2(zc[m - 1]) * (-th[m - 1]))
        out[m - 1] = _times_i(zc[m - 1]) * (_abs2(zc[m - 2]) * th[m - 2])
        return out
    raise ValueError(f"unknown field id {label!r} for m={model.m}")


def _evaluate(model: WeightedHopfModel, label: str, point: SpherePoint):
    """Field value (real 2m-vector) and exact Jacobian (2m x 2m)."""
    x = realify(point.z)
    comps = _field(model, label, seed_point(x))
    n = x.shape[0]
    value = np.empty(n)
    jac = np.empty((n, n))
    for k, w in enumerate(comps):
        value[2 * k], value[2 * k + 1] = w.re.value, w.im.value
        jac[2 * k], jac[2 * k + 1] = w.re.grad, w.im.grad
    return value, jac


def field_X(model: WeightedHopfModel, point: SpherePoint) -> np.ndarray:
    """Generating field of the action, |X|^2 = sum theta_k^2 |z_k|^2."""
    return realify(np.array([1j * t * zk for t, zk in zip(model.theta, point.z)]))


def fields_YW(model: WeightedHopfModel, point: SpherePoint, *, eps_deg: float = 1e-3):
    """The 2m-2 horizontal frame fields, ordered as ``field_labels``.

    Raises ``DegeneratePointError`` when any field norm falls below the floor
    implied by the degeneracy margin (resample the point)."""
    zz = point.moduli_sq
    if np.min(zz) < eps_deg:
        raise DegeneratePointError(f"coordinate modulus below margin {eps_deg}")
    norm_floor = eps_deg**3 * min(model.theta) ** 4
    out = []
    for label in field_labels(model):
        v = realify(np.array(_field(model, label, list(point.z))))
        if v @ v < norm_floor:
            raise DegeneratePointError(f"field {label} degenerates at this point")
        out.append(v)
    return out


def lie_bracket(label_a: str, label_b: str, model: WeightedHopfModel,
                point: SpherePoint) -> np.ndarray:
    """[U, V](z) = DV(z) U(z) - DU(z) V(z) with exact Jacobians."""
    u, ju = _evaluate(model, label_a, point)
    v, jv = _evaluate(model, label_b, point)
    return jv @ u - ju @ v


@dataclass
class AdaptedFrame:
    """Orthonormal frame adapted to the foliation at a point: the normalized
    generating field plus the normalized horizontal fields."""

    vertical: np.ndarray
    horizontal: np.ndarray          # shape (q, 2m)
    labels: tuple[str, ...]
    field_norms: np.ndarray         # unnormalized |Z_i|
    vertical_norm: float            # |X|
    gram_residual: float
    tangency_residual: float


def adapted_frame(model: WeightedHopfModel, point: SpherePoint, *,
                  eps_deg: float = 1e-3, tol: float = 1e-10) -> AdaptedFrame:
    x_amb = field_X(model, point)
    nx = np.linalg.norm(x_amb)
    fields = fields_YW(model, point, eps_deg=eps_deg)
    norms = np.array([np.linalg.norm(f) for f in fields])
    horizontal = np.array([f / n for f, n in zip(fields, norms)])
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
                        gram_residual, tangency_residual)


def oneill_from_brackets(model: WeightedHopfModel, point: SpherePoint,
                         *, frame: AdaptedFrame | None = None) -> tuple[ONeillTensor, float]:
    """Integrability tensor of the foliation at a point, by definition:
    A_{e_i} e_j is half the vertical part of the bracket, so in the
    normalized frame

        a[i, j] = <[Z_i, Z_j], X> / (2 |Z_i| |Z_j| |X|).

    Also returns |A|^2 evaluated through the pairing display

        |A|^2 = 1/(2|X|^2) sum_{i<j} <[Z_i, Z_j], X>^2 / (|Z_i|^2 |Z_j|^2),

    asserted to agree with the tensor norm.
    """
    if frame is None:
        frame = adapted_frame(model, point)
    labels = frame.labels
    q = len(labels)
    x_amb = frame.vertical * frame.vertical_norm
    values, jacs = {}, {}
    for lab in labels:
        values[lab], jacs[lab] = _evaluate(model, lab, point)
    a = np.zeros((q, q, 1))
    display = 0.0
    for i in range(q):
        for j in range(i + 1, q):
            li, lj = labels[i], labels[j]
            bracket = jacs[lj] @ values[li] - jacs[li] @ values[lj]
            pairing = float(bracket @ x_amb)
            denom = frame.field_norms[i] * frame.field_norms[j]
            a[i, j, 0] = pairing / (2.0 * denom * frame.vertical_norm)
            a[j, i, 0] = -a[i, j, 0]
            display += pairing**2 / (denom**2)
    display /= 2.0 * frame.vertical_norm**2
    A = ONeillTensor(a)
    if abs(A.norm_sq - display) > 1e-10 * max(1.0, display):
        raise AssertionError(
            f"bracket-norm routes disagree: {A.norm_sq} vs {display}"
        )
    return A, display


def oneill_closed_form(model: WeightedHopfModel, point: SpherePoint) -> float:
    """Closed-form |A|^2 of the weighted foliation, evaluated literally as a
    three-part sum over the weights and coordinate moduli.

    The bracket route is the source of truth; a disagreement beyond 1e-8 is
    a reportable finding about this formula, never silently patched.
    """
    m = model.m
    th = np.asarray(model.theta)
    zz = point.moduli_sq
    tz = th * th * zz
    x2 = float(np.sum(tz))
    term1 = th[m - 2] ** 2 * th[m - 1] ** 2 * (zz[m - 2] + zz[m - 1]) / (tz[m - 2] + tz[m - 1])
    term2 = 0.0
    for j in range(m - 2):  # 1-based j in 1..m-2
        term2 += (
            th[j] ** 2 * np.sum(tz[j + 1 :]) * np.sum(zz[j:])
            / (np.sum(tz[j:]) * np.sum(zz[j + 1 :]))
        )
    term3 = 0.0
    for j in range(m - 2):
        for i in range(j + 1, m - 1):  # 1-based i in j+1..m-1
            num = zz[i] * zz[j] * float(np.sum((th[i] ** 2 - th[i + 1 :] ** 2) * zz[i + 1 :])) ** 2
            den = (
                np.sum(tz[j + 1 :]) * np.sum(tz[j:]) * np.sum(zz[i + 1 :]) * np.sum(zz[i:])
            )
            term3 += num / den
    return float(2.0 * (term1 + term2 + term3) / x2)


def kahler_form(model: WeightedHopfModel, point: SpherePoint,
                frame: AdaptedFrame) -> AlternatingForm:
    """The canonical 2-form of the Hopf fibration on the horizontal fiber,
    w(e_i, e_j) = <i e_i, e_j>; nondegenerate with |w|^2 = q/2.

    Only defined for the unweighted action (all weights 1), where the
    horizontal space is invariant under the complex structure.
    """
    if not model.is_hopf:
        raise ValueError("the canonical 2-form requires all weights equal to 1")
    q = model.q
    w = AlternatingForm(2, q)
    jh = np.array([apply_complex_structure(h) for h in frame.horizontal])
    r = 0
    for i in range(q):
        for j in range(i + 1, q):
            w.coeffs[r] = jh[i] @ frame.horizontal[j]
            r += 1
    return w


def mean_curvature(model: WeightedHopfModel, point: SpherePoint) -> np.ndarray:
    """Horizontal part of the sphere covariant derivative of the unit
    vertical field along itself; zero exactly when all weights are 1
    (the Hopf circles are great circles)."""
    x = realify(point.z)
    zc = seed_point(x)
    xs = _field(model, "X", zc)
    norm = sum((w.abs2() for w in xs), start=xs[0].abs2() * 0.0).sqrt()
    n = x.shape[0]
    value = np.empty(n)
    jac = np.empty((n, n))
    for k, w in enumerate(xs):
        wk = w * (1.0 / norm)
        value[2 * k], value[2 * k + 1] = wk.re.value, wk.im.value
        jac[2 * k], jac[2 * k + 1] = wk.re.grad, wk.im.grad
    dvv = jac @ value                       # ambient flat derivative D_V V
    dvv = dvv - (dvv @ x) * x               # sphere projection (unit normal z)
    kappa = dvv - (dvv @ value) * value     # horizontal projection
    return kappa


def sample_point(model: WeightedHopfModel, rng_seed, eps_deg: float = 1e-3) -> SpherePoint:
    """Uniform point of the sphere, rejection-resampled until every
    coordinate modulus squared clears the degeneracy margin."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    for _ in range(10_000):
        g = rng.standard_normal(2 * model.m)
        g /= np.linalg.norm(g)
        z = complexify(g)
        if np.min(np.abs(z) ** 2) >= eps_deg:
            return SpherePoint(z)
    raise DegeneratePointError("rejection budget exhausted while sampling")

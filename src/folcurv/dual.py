"""Forward-mode dual numbers over arrays.

A ``Dual`` carries a value of shape S and its gradient, of shape S + (n,):
one tangent row per entry.  Seeding the coordinates of a point with the
identity tangent basis (``seed_point``) evaluates a family of functions with
their full Jacobians in one sweep (vectorized forward mode; Griewank &
Walther, *Evaluating Derivatives*, ch. 3).  No command runs a sweep: the Hopf
point pass takes its gradients in closed form.  The test oracle's full field
Jacobians and the benchmark's tracer read these products, and a frame with
more vertical fields (the quaternionic Hopf model) is planned on them.
``CDual`` packs two duals into a complex array with the few operations the
sphere fields need; ``suffix_sum`` gives the strict tail sums
sum_{k>l} x_k of an array or a dual along its last value axis.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Dual", "CDual", "seed_point", "suffix_sum"]


class Dual:
    __slots__ = ("value", "grad")
    __array_ufunc__ = None  # ndarray op Dual defers to the Dual's reflected method

    def __init__(self, value, grad):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)

    @classmethod
    def constant(cls, value, n: int) -> "Dual":
        value = np.asarray(value, dtype=float)
        return cls(value, np.zeros(value.shape + (n,)))

    def _coerce(self, other):
        if isinstance(other, Dual):
            return other
        if isinstance(other, CDual):
            return NotImplemented
        return Dual.constant(other, self.grad.shape[-1])

    def __getitem__(self, index) -> "Dual":
        """Index the value axes; the gradient axis is kept (no Ellipsis)."""
        return Dual(self.value[index], self.grad[index])

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dual(self.value + o.value, self.grad + o.grad)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dual(self.value - o.value, self.grad - o.grad)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Dual(o.value - self.value, o.grad - self.grad)

    def __neg__(self):
        return Dual(-self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, CDual):
            return NotImplemented
        if not isinstance(other, Dual):  # a constant scales the tangents
            c = np.asarray(other, dtype=float)
            return Dual(self.value * c, self.grad * c[..., None])
        return Dual(self.value * other.value,
                    self.value[..., None] * other.grad + other.value[..., None] * self.grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        inv = 1.0 / o.value
        q = self.value * inv
        return Dual(q, (self.grad - q[..., None] * o.grad) * inv[..., None])

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def sqrt(self) -> "Dual":
        r = np.sqrt(self.value)
        return Dual(r, self.grad / (2.0 * r)[..., None])

    def __repr__(self):
        return f"Dual({self.value}, grad={self.grad})"


class CDual:
    """Complex array with dual-number real and imaginary parts."""

    __slots__ = ("re", "im")
    __array_ufunc__ = None

    def __init__(self, re: Dual, im: Dual):
        self.re = re
        self.im = im

    def __getitem__(self, index) -> "CDual":
        return CDual(self.re[index], self.im[index])

    def __add__(self, other: "CDual") -> "CDual":
        return CDual(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CDual") -> "CDual":
        return CDual(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CDual":
        return CDual(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, CDual):
            return CDual(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        # real array or Dual
        return CDual(self.re * other, self.im * other)

    __rmul__ = __mul__

    def times_i(self) -> "CDual":
        return CDual(-self.im, self.re)

    def abs2(self) -> Dual:
        return self.re * self.re + self.im * self.im

    def interleaved(self) -> Dual:
        """The real dual whose last value axis interleaves the real and
        imaginary parts, [re_0, im_0, re_1, im_1, ...]."""
        value = np.stack([self.re.value, self.im.value], axis=-1)
        grad = np.stack([self.re.grad, self.im.grad], axis=-2)
        return Dual(value.reshape(*value.shape[:-2], -1),
                    grad.reshape(*grad.shape[:-3], -1, grad.shape[-1]))

    def __repr__(self):
        return f"CDual({self.re.value}+{self.im.value}j)"


def seed_point(x: np.ndarray) -> CDual:
    """Lift interleaved real coordinates [x0, y0, x1, y1, ...] to the complex
    dual coordinates z_k = x_k + i y_k, seeded with the identity tangent
    basis; leading axes of x are points, each seeded on its own."""
    eye = np.broadcast_to(np.eye(x.shape[-1]), x.shape[:-1] + (x.shape[-1],) * 2)
    return CDual(Dual(x[..., 0::2], eye[..., 0::2, :]), Dual(x[..., 1::2], eye[..., 1::2, :]))


def _tails(x: np.ndarray, axis: int) -> np.ndarray:  # axis -1 or -2
    rest = (slice(None),) * (-1 - axis)
    out = np.zeros_like(x)
    out[(..., slice(None, -1)) + rest] = np.cumsum(
        x[(..., slice(None, 0, -1)) + rest], axis=axis)[(..., slice(None, None, -1)) + rest]
    return out


def suffix_sum(x):
    """Strict suffix sums along the last value axis, out[..., l] = sum_{k>l}
    x[..., k] (zero in the last place), of an array or a ``Dual``: one
    reversed ``cumsum``, whose Jacobian is the same sum of the gradient rows."""
    if isinstance(x, Dual):
        return Dual(_tails(x.value, -1), _tails(x.grad, -2))
    return _tails(np.asarray(x, dtype=float), -1)

"""Seeded random instances for the identity and bound suites.

Space-form ambient tensors plus skew integrability tensors generate valid
transverse curvature data (the correction term preserves the curvature
symmetries and the first Bianchi identity for any skew A); sums of
Kulkarni-Nomizu squares of random symmetric matrices give generic algebraic
curvature tensors.
"""

from __future__ import annotations

import numpy as np

from .curvature import RiemannTensor, space_form
from .exterior import AlternatingForm
from .oneill import ONeillTensor

__all__ = [
    "random_space_form",
    "random_curvature",
    "random_skew_oneill",
    "random_form",
    "random_instance",
]


def random_space_form(rng: np.random.Generator, q: int) -> RiemannTensor:
    return space_form(q, float(rng.uniform(-1.5, 1.5)))


def random_curvature(rng: np.random.Generator, q: int) -> RiemannTensor:
    """Random algebraic curvature tensor: a sum of two Kulkarni-Nomizu squares
    of random symmetric matrices (each summand satisfies all the curvature
    symmetries including first Bianchi)."""
    R = np.zeros((q, q, q, q))
    for _ in range(2):
        h = rng.standard_normal((q, q))
        h = (h + h.T) / (2.0 * np.sqrt(q))
        R += (
            np.einsum("ik,jl->ijkl", h, h)
            - np.einsum("il,jk->ijkl", h, h)
        )
    return RiemannTensor(R)


def random_skew_oneill(rng: np.random.Generator, q: int, vdim: int) -> ONeillTensor:
    m = rng.standard_normal((q, q, vdim)) / np.sqrt(q)
    return ONeillTensor((m - m.transpose(1, 0, 2)) / 2.0)


def random_form(rng: np.random.Generator, q: int, p: int) -> AlternatingForm:
    """Random unit p-form."""
    a = AlternatingForm(p, q)
    a.coeffs[:] = rng.standard_normal(a.coeffs.shape)
    n = np.linalg.norm(a.coeffs)
    if n > 0:
        a.coeffs /= n
    return a


def random_instance(
    rng: np.random.Generator, q: int, p: int, vdim: int
) -> tuple[RiemannTensor, ONeillTensor, AlternatingForm]:
    """A (space-form R, skew A, unit p-form) triple on which every algebraic
    identity of the suite holds exactly."""
    return (
        random_space_form(rng, q),
        random_skew_oneill(rng, q, vdim),
        random_form(rng, q, p),
    )

"""Seeded random instances for the identity and bound suites.

Space-form ambient tensors plus skew integrability tensors generate valid
transverse curvature data (the correction term preserves the curvature
symmetries and the first Bianchi identity for any skew A); sums of
Kulkarni-Nomizu squares of random symmetric matrices give generic algebraic
curvature tensors.

Each distribution is one draw (the generator calls) and one build (array
operations that act row by row on a leading stack axis), so a stack of
trials built from ``random_trials`` equals, row by row, the instances drawn
one at a time from the same generator (``tests/oracles.py`` draws them so).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

import numpy as np

from .curvature import RiemannTensor, space_form
from .exterior import AlternatingForm
from .oneill import ONeillTensor

__all__ = [
    "random_form",
    "random_trials",
    "Trials",
]


def _draw_curvature_constant(rng: np.random.Generator) -> float:
    return float(rng.uniform(-1.5, 1.5))


def _build_skew(m: np.ndarray) -> np.ndarray:
    m = m / np.sqrt(m.shape[-2])
    return (m - np.swapaxes(m, -3, -2)) / 2.0


def _build_unit(x: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.vecdot(x, x))[..., None]
    return x / np.where(n > 0, n, 1.0)


def _draw_matrix_pair(rng: np.random.Generator, q: int) -> np.ndarray:
    return rng.standard_normal((2, q, q))


def _build_kulkarni_nomizu(h: np.ndarray) -> np.ndarray:
    """The sum of the Kulkarni-Nomizu squares of the two symmetrized
    matrices h[..., 0, :, :] and h[..., 1, :, :]."""
    q = h.shape[-1]
    h = (h + np.swapaxes(h, -2, -1)) / (2.0 * np.sqrt(q))
    R = 0.0
    for t in range(2):
        g = h[..., t, :, :]
        square = g[..., :, None, :, None] * g[..., None, :, None, :]   # g_ik g_jl
        square -= g[..., :, None, None, :] * g[..., None, :, :, None]  # g_il g_jk
        R = R + square
    return R


def random_form(rng: np.random.Generator, q: int, p: int) -> AlternatingForm:
    """Random unit p-form."""
    return AlternatingForm(p, q, _build_unit(rng.standard_normal(comb(q, p))))


class Trials(NamedTuple):
    """The generator draws of n trials of one vdim, stacked in draw order;
    ``build`` turns them into the stacked instances."""

    q: int
    p: int
    c: np.ndarray  # (n,) space-form curvatures
    m: np.ndarray  # (n, q, q, vdim) normal draws of A
    x: np.ndarray  # (n, C(q, p)) normal draws of the form
    h: np.ndarray  # (n, 2, q, q) normal draws of R_K

    def build(self) -> tuple[RiemannTensor, ONeillTensor, AlternatingForm, RiemannTensor]:
        """(R_M, A, a, R_K), each stacked on a leading axis."""
        return (space_form(self.q, self.c), ONeillTensor(_build_skew(self.m)),
                AlternatingForm(self.p, self.q, _build_unit(self.x)),
                RiemannTensor(_build_kulkarni_nomizu(self.h)))


def random_trials(rng: np.random.Generator, q: int, p: int, vdims) -> list[Trials]:
    """Trials drawn in order, trial k drawing a space-form curvature, the
    (q, q, vdims[k]) normals of A, the normals of a p-form and the matrix
    pair of R_K; one ``Trials`` per vdim, in order of first appearance.
    Each draw goes straight into its row of the ``Trials`` arrays; each
    stack of dense curvature arrays is made by its ``build``."""
    vdims = list(vdims)
    stacks = {v: Trials(q, p, *(np.empty((vdims.count(v), *shape)) for shape in
                                ((), (q, q, v), (comb(q, p),), (2, q, q))))
              for v in dict.fromkeys(vdims)}
    rows = {v: iter(range(len(t.c))) for v, t in stacks.items()}
    for vdim in vdims:
        t, r = stacks[vdim], next(rows[vdim])
        t.c[r] = _draw_curvature_constant(rng)
        t.m[r] = rng.standard_normal((q, q, vdim))
        t.x[r] = rng.standard_normal(comb(q, p))
        t.h[r] = _draw_matrix_pair(rng, q)
    return list(stacks.values())

"""Stacked evaluation: instances on a leading axis give, row by row, what
the same instances give one at a time, and the stacked draws of ``verify``
are the instances drawn one at a time."""

import json
from math import comb

import numpy as np
import pytest

import folcurv.cli as cli
from folcurv.curvature import (
    RiemannTensor,
    curvature_action_on_form,
    curvature_term,
    space_form,
    transverse_riemann,
)
from folcurv.exterior import AlternatingForm, inner
from folcurv.oneill import (
    ONeillTensor,
    bminus_norm,
    bminus_norm_closed,
    bplus_norm,
    bplus_norm_closed,
    contraction_chain,
    cor31_max,
    hodge_trace_residual,
    master_identity_residual,
    prop31_value,
    two_form_rewrite,
)
from folcurv.synthetic import _build_kulkarni_nomizu, _draw_matrix_pair, random_trials

from oracles import (
    dense_curvature_action,
    random_curvature,
    random_instance,
    random_trials_rows,
)

# every stacked evaluator, as a function of one (R_M, A, a, R_K) stack or instance
EVALUATORS = {
    "master_identity_residual":
        lambda RM, A, a, RK: master_identity_residual(RM, A, a, Rt=transverse_riemann(RM, A)),
    "bplus_norm": lambda RM, A, a, RK: bplus_norm(A, a),
    "bplus_norm_closed": lambda RM, A, a, RK: bplus_norm_closed(A, a),
    "bminus_norm": lambda RM, A, a, RK: bminus_norm(A, a),
    "bminus_norm_closed": lambda RM, A, a, RK: bminus_norm_closed(A, a),
    "curvature_term": lambda RM, A, a, RK: curvature_term(RK, a),
    "curvature_action_on_form":
        lambda RM, A, a, RK: curvature_action_on_form(transverse_riemann(RM, A), a).coeffs,
    "dense_curvature_action": lambda RM, A, a, RK: dense_curvature_action(RK, a).coeffs,
    "transverse_riemann": lambda RM, A, a, RK: transverse_riemann(RM, A).components,
    "hodge_trace_residual": lambda RM, A, a, RK: hodge_trace_residual(RK, a),
    "two_form_rewrite": lambda RM, A, a, RK: two_form_rewrite(RK, a),
    "contraction_chain": lambda RM, A, a, RK: contraction_chain(A, a),
    "prop31_value": lambda RM, A, a, RK: prop31_value(RM, A, a),
    "cor31_max": lambda RM, A, a, RK: cor31_max(RM, A),
}


def _stack(q, p, vdim, n, seed):
    """A stack of n trials of one vdim whose row 1 has an all-zero A."""
    (trials,) = random_trials(np.random.default_rng(seed), q, p, [vdim] * n)
    RM, A, a, RK = trials.build()
    zeroed = A.a.copy()
    zeroed[1] = 0.0
    return RM, ONeillTensor(zeroed), a, RK


def _row(RM, A, a, RK, i):
    """Row i of a stack; R_M as the space form it is, so it keeps its pair."""
    return (space_form(a.dimension, RM.space_form_curvature[i]), ONeillTensor(A.a[i]),
            AlternatingForm(a.degree, a.dimension, a.coeffs[i]), RiemannTensor(RK.components[i]))


def _rows(out, n):
    """The per-row values of a stacked evaluation, each as an array."""
    if isinstance(out, dict):
        return [{k: np.asarray(v)[i] for k, v in out.items()} for i in range(n)]
    assert isinstance(out, np.ndarray) and out.shape[0] == n
    return list(out)


def _single(out):
    """A one-instance evaluation as an array (from a float or an array)."""
    if isinstance(out, dict):
        return {k: np.asarray(v) for k, v in out.items()}
    return np.asarray(out)


def _close(x, y):
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_close(x[k], y[k]) for k in x)
    return x.shape == y.shape and np.allclose(x, y, rtol=1e-12, atol=1e-12)


def _equal(x, y):
    if isinstance(x, dict):
        return all(np.array_equal(x[k], y[k]) for k in x)
    return np.array_equal(x, y)


CELLS = [(q, p, vdim) for q, p in [(4, 1), (4, 2), (5, 3)] for vdim in (1, 2, 3)]


@pytest.mark.parametrize("name", list(EVALUATORS))
@pytest.mark.parametrize("q,p,vdim", CELLS)
def test_stacked_rows_equal_one_instance(name, q, p, vdim):
    evaluate, n = EVALUATORS[name], 4
    stack = _stack(q, p, vdim, n, seed=100 * q + 10 * p + vdim)
    rows = _rows(evaluate(*stack), n)
    for i in range(n):
        one = evaluate(*_row(*stack, i))
        if not isinstance(one, (dict, np.ndarray)):
            assert isinstance(one, float), (name, type(one))
        assert _close(rows[i], _single(one)), (name, i)


@pytest.mark.parametrize("name", list(EVALUATORS))
@pytest.mark.parametrize("q,p,vdim", CELLS)
def test_changing_one_row_changes_only_that_row(name, q, p, vdim):
    evaluate, n, j = EVALUATORS[name], 4, 2
    RM, A, a, RK = _stack(q, p, vdim, n, seed=7 * q + p + vdim)
    before = _rows(evaluate(RM, A, a, RK), n)
    RM2, A2, a2, RK2 = _stack(q, p, vdim, n, seed=999)
    mixed = []
    for old, new in ((RM.space_form_curvature, RM2.space_form_curvature), (A.a, A2.a),
                     (a.coeffs, a2.coeffs), (RK.components, RK2.components)):
        x = old.copy()
        x[j] = new[0]
        mixed.append(x)
    after = _rows(evaluate(space_form(q, mixed[0]), ONeillTensor(mixed[1]),
                           AlternatingForm(p, q, mixed[2]), RiemannTensor(mixed[3])), n)
    for i in range(n):
        if i != j:
            assert _equal(before[i], after[i]), (name, i)
    one = evaluate(space_form(q, RM2.space_form_curvature[0]), ONeillTensor(A2.a[0]),
                   AlternatingForm(p, q, a2.coeffs[0]), RiemannTensor(RK2.components[0]))
    assert _close(after[j], _single(one)), name


# every number the CLI reads off an evaluator, as a function of (R_M, A, a, R_K)
CLI_VALUES = {
    **{name: EVALUATORS[name] for name in (
        "master_identity_residual", "bplus_norm", "bplus_norm_closed", "bminus_norm",
        "bminus_norm_closed", "curvature_term", "hodge_trace_residual", "cor31_max")},
    "action_pairing": lambda RM, A, a, RK:
        inner(curvature_action_on_form(transverse_riemann(RM, A), a), a),
    "transverse_scalar": lambda RM, A, a, RK: transverse_riemann(RM, A).scalar(),
    "oneill_norm_sq": lambda RM, A, a, RK: A.norm_sq,
    **{f"two_form_rewrite.{key}": lambda RM, A, a, RK, key=key: two_form_rewrite(RK, a)[key]
       for key in ("half_s2", "theta_route", "bound")},
}


@pytest.mark.parametrize("name", list(CLI_VALUES))
@pytest.mark.parametrize("q,p,vdim", CELLS)
def test_each_cli_value_is_a_float_or_one_per_row(name, q, p, vdim):
    # one instance gives a float, a zero below the evaluator's degree
    # included, never a 0-d array; a stack of n gives n values
    evaluate, n = CLI_VALUES[name], 4
    stack = _stack(q, p, vdim, n, seed=3 * q + p + vdim)
    out = evaluate(*stack)
    assert isinstance(out, np.ndarray) and out.shape == (n,), name
    one = evaluate(*_row(*stack, 0))
    assert isinstance(one, float), (name, type(one))


@pytest.mark.parametrize("q", [3, 4, 5, 8, 12, 18])
def test_stacked_action_rows_are_the_one_form_actions_bit_for_bit(q):
    # hopf reads each point's Kahler residuals off its row of one stacked
    # action, so no row may depend on the stack around it: every row of
    # stacks of 1, 2, 7 and 20 is the action on that one form, bit for bit
    n = 20
    for p in range(min(q, 4) + 1):
        for vdim in (1, 2, 3):
            rng = np.random.default_rng(1000 * q + 10 * p + vdim)
            m = rng.standard_normal((n, q, q, vdim))
            a = (m - np.swapaxes(m, 1, 2)) / 2.0
            x = rng.standard_normal((n, comb(q, p)))
            c = rng.uniform(-1.5, 1.5, n)

            def action(rows):
                Rt = transverse_riemann(space_form(q, c[rows]), ONeillTensor(a[rows]))
                return curvature_action_on_form(Rt, AlternatingForm(p, q, x[rows])).coeffs

            one = [action(i) for i in range(n)]
            for lo, size in ((0, 1), (5, 2), (3, 7), (0, n)):
                stacked = action(slice(lo, lo + size))
                for i, row in enumerate(stacked, start=lo):
                    assert np.array_equal(row, one[i]), (p, vdim, lo, size, i)


@pytest.mark.parametrize("q,p", [(4, 1), (4, 3), (5, 2), (6, 3)])
def test_stacked_draws_are_the_one_at_a_time_draws(q, p):
    # a chunk of trials with every vdim, drawn stacked and one at a time
    vdims = [1 + k % 3 for k in range(8)]
    stacked_rng, single_rng = np.random.default_rng(q + p), np.random.default_rng(q + p)
    groups = random_trials(stacked_rng, q, p, vdims)
    assert [g.m.shape[-1] for g in groups] == [1, 2, 3]
    built = {g.m.shape[-1]: g.build() for g in groups}
    seen = dict.fromkeys(built, 0)
    for vdim in vdims:
        RM, A, a = random_instance(single_rng, q, p, vdim)
        RK = random_curvature(single_rng, q)
        sRM, sA, sa, sRK = built[vdim]
        i = seen[vdim]
        seen[vdim] += 1
        assert sRM.space_form_curvature[i] == RM.space_form_curvature
        assert np.array_equal(sRM.components[i], RM.components)
        assert np.array_equal(sA.a[i], A.a)
        assert np.array_equal(sa.coeffs[i], a.coeffs)
        assert np.array_equal(sRK.components[i], RK.components)
    assert all(seen[v] == len(built[v][2].coeffs) for v in seen)
    # the generator is left where the one-at-a-time draws leave it
    assert stacked_rng.standard_normal() == single_rng.standard_normal()


@pytest.mark.parametrize("q", [2, 4, 5])
def test_preallocated_draws_are_the_stacked_rows(q):
    # each draw written into its row of the Trials arrays is the stack of
    # the same draws held as rows, bit for bit, with the generator left in
    # the same place, for every vdim pattern verify makes and a shuffled one
    patterns = ([1], [2, 2], [1 + k % 3 for k in range(10)], [3, 1, 3, 2, 1, 3])
    for p in range(q + 1):
        for vdims in patterns:
            one, two = np.random.default_rng(q + p), np.random.default_rng(q + p)
            got, want = random_trials(one, q, p, vdims), random_trials_rows(two, q, p, vdims)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.q == w.q and g.p == w.p
                for name in ("c", "m", "x", "h"):
                    a, b = getattr(g, name), getattr(w, name)
                    assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
            assert one.standard_normal() == two.standard_normal()


@pytest.mark.parametrize("q", [2, 4, 5, 16])
def test_kulkarni_nomizu_draws_and_squares_are_their_definitions(q):
    # one (2, q, q) draw is two (q, q) draws, and the broadcast square is
    # the einsum g_ik g_jl - g_il g_jk, bit for bit, for one pair and a stack
    one, two = np.random.default_rng(q), np.random.default_rng(q)
    h = _draw_matrix_pair(one, q)
    assert np.array_equal(h, np.array([two.standard_normal((q, q)) for _ in range(2)]))
    for h in (h, np.random.default_rng(q + 1).standard_normal((3, 2, q, q))):
        g = (h + np.swapaxes(h, -2, -1)) / (2.0 * np.sqrt(q))
        want = 0.0
        for t in range(2):
            square = np.einsum("...ik,...jl->...ijkl", g[..., t, :, :], g[..., t, :, :])
            square -= np.einsum("...il,...jk->...ijkl", g[..., t, :, :], g[..., t, :, :])
            want = want + square
        assert np.array_equal(_build_kulkarni_nomizu(h), want)


def test_verify_reports_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch):
    # the chunks change where the stacks split, not the draws or the checks
    reports = []
    for nbytes in (cli.CHUNK_BYTES, 1):
        monkeypatch.setattr(cli, "CHUNK_BYTES", nbytes)
        out = tmp_path / f"r{nbytes}.json"
        assert cli.main(["verify", "--trials", "7", "--q", "4", "--seed", "2",
                         "--out", str(out), "--quiet"]) == 0
        reports.append(json.loads(out.read_text()))
    a, b = reports
    assert [c["name"] for c in a["checks"]] == [c["name"] for c in b["checks"]]
    assert [c["pass"] for c in a["checks"]] == [c["pass"] for c in b["checks"]]
    for x, y in zip(a["checks"], b["checks"]):
        assert abs(x["lhs"] - y["lhs"]) <= 1e-13

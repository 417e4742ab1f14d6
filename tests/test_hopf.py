"""The weighted circle foliations of odd spheres: frames, brackets, the
integrability tensor by both routes, and the geometric certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folcurv.curvature import (
    curvature_action_on_form,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from folcurv.dual import seed_point
from folcurv.exterior import inner, wedge
from folcurv import hopf
from folcurv.hopf import (
    BracketRouteError,
    DegeneratePointError,
    SpherePoint,
    WeightedHopfModel,
    adapted_frame,
    degeneracy_margin,
    fields_YW,
    generating_field,
    kahler_form,
    mean_curvature,
    oneill_closed_form,
    oneill_from_brackets,
    realify,
    sample_point,
)
from folcurv.oneill import bminus_norm, bplus_norm, prop31_value, prop41_sides

from oracles import (
    fd_directional,
    fd_lie_bracket,
    field_labels,
    jacobian_fields_YW,
    oneill_closed_form_loop,
)


def at(model, x):
    """The point of realified coordinates x, unnormalized (for finite
    differences off the sphere)."""
    zpt = SpherePoint.__new__(SpherePoint)
    object.__setattr__(zpt, "z", x[0::2] + 1j * x[1::2])
    return zpt


def displayed_pairing(model, point, label_y, label_w):
    """The three closed-form bracket pairings <[Y_l, W_p], X>."""
    m, th = model.m, model.theta
    zz = point.moduli_sq
    l, p = int(label_y[1:]), int(label_w[1:])
    if l == p == m - 1:
        return (-2.0 * zz[m - 2] * zz[m - 1] * th[m - 2] * th[m - 1]
                * (zz[m - 2] + zz[m - 1]))
    if l == p:
        return (-2.0 * th[l - 1] * zz[l - 1]
                * sum(th[s] ** 2 * zz[s] for s in range(l, m))
                * sum(zz[k] for k in range(l - 1, m)))
    if l > p:
        return (2.0 * zz[l - 1] * th[p - 1] * zz[p - 1]
                * sum((th[l - 1] ** 2 - th[k] ** 2) * zz[k] for k in range(l, m)))
    return 0.0


# ---------------------------------------------------------------------------
# model and point validation
# ---------------------------------------------------------------------------


def test_model_validation():
    with pytest.raises(ValueError):
        WeightedHopfModel(1, (1.0,))
    with pytest.raises(ValueError):
        WeightedHopfModel(2, (0.5, 1.0))       # first weight must be 1
    with pytest.raises(ValueError):
        WeightedHopfModel(2, (1.0, 1.5))       # out of (0, 1]
    with pytest.raises(ValueError):
        WeightedHopfModel(3, (1.0, 0.5))       # wrong length
    assert WeightedHopfModel(3, (1.0, 1.0, 1.0)).is_hopf
    assert WeightedHopfModel(3, (1.0, 1.0, 0.5)).q == 4


def test_sphere_point_validation():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0 + 0j, 1.0 + 0j]))
    pt = SpherePoint(np.array([0.6 + 0j, 0.8j]))
    assert pt.moduli_sq == pytest.approx([0.36, 0.64])


def test_sample_point_determinism_and_margins():
    model = WeightedHopfModel(3, (1.0, 1.0, 1.0))
    p1 = sample_point(model, 12345)
    p2 = sample_point(model, 12345)
    assert np.array_equal(p1.z, p2.z)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        pt = sample_point(model, rng)
        assert np.min(pt.moduli_sq) >= 1e-3
        assert abs(np.linalg.norm(pt.z) - 1.0) < 1e-12


def _one_point_draw(model, rng):
    """The one-point rejection draw written out, with its number of draws:
    2m normals, normalized, redrawn until every modulus squared clears
    the margin."""
    for draws in range(1, 10_000):
        g = rng.standard_normal(2 * model.m)
        g /= np.linalg.norm(g)
        z = g[0::2] + 1j * g[1::2]
        if np.min(np.abs(z) ** 2) >= degeneracy_margin(model.m):
            return z, draws
    raise AssertionError("no draw cleared the margin")


@pytest.mark.parametrize("m", [3, 16, 40])
def test_a_stack_is_drawn_point_by_point_from_its_own_streams(m):
    # a list of generators gives the stack of the one-point draws, bit for
    # bit, each rejected point redrawn from its own generator, which is
    # left where the one-point draw leaves it; one generator gives one point
    model = WeightedHopfModel(m, (1.0,) * m)
    redrawn = 0
    for n in (1, 2, 7, 20):
        seeds = range(100 * n, 100 * n + n)
        gens = [np.random.default_rng(s) for s in seeds]
        refs = [np.random.default_rng(s) for s in seeds]
        pts = sample_point(model, gens)
        want, draws = zip(*(_one_point_draw(model, rng) for rng in refs))
        assert pts.z.shape == (n, m) and np.array_equal(pts.z, np.array(want))
        assert [g.standard_normal() for g in gens] == [r.standard_normal() for r in refs]
        redrawn += sum(draws) - n
        one = sample_point(model, np.random.default_rng(seeds[0]))
        assert one.z.shape == (m,) and np.array_equal(one.z, want[0])
    if m >= 16:  # about a quarter of the draws miss the margin
        assert redrawn > 0


def test_degeneracy_margin_shrinks_with_m_squared_above_16():
    # the margin is exactly 1e-3 up to m = 16, so small-m draws are unchanged
    assert all(degeneracy_margin(m) == 1e-3 for m in range(2, 17))
    for m in (17, 40, 100, 128):
        assert degeneracy_margin(m) == pytest.approx(1e-3 * (16 / m) ** 2, rel=1e-15)
    # at m = 100 a fixed 1e-3 accepts about exp(-10) of the uniform draws;
    # the scaled margin accepts most of them, and the frame's field floor
    # follows it
    rng = np.random.default_rng(3)
    g = rng.standard_normal((400, 200))
    moduli = (g[:, 0::2] ** 2 + g[:, 1::2] ** 2) / np.sum(g * g, axis=1)[:, None]
    assert np.mean(np.min(moduli, axis=1) >= 1e-3) < 0.01
    assert np.mean(np.min(moduli, axis=1) >= degeneracy_margin(100)) > 0.6
    model = WeightedHopfModel(100, (1.0,) * 100)
    for _ in range(3):
        pt = sample_point(model, rng)
        assert np.min(pt.moduli_sq) >= degeneracy_margin(100)
        assert adapted_frame(model, pt).gram_residual < 1e-10


def test_sample_point_coordinate_distribution():
    # mean of |z_k|^2 is 1/m under the uniform measure; check within 3 sigma
    model = WeightedHopfModel(3, (1.0, 1.0, 1.0))
    rng = np.random.default_rng(1)
    vals = np.array([sample_point(model, rng).moduli_sq for _ in range(1000)])
    mean = vals.mean(axis=0)
    sigma = vals.std(axis=0) / np.sqrt(len(vals))
    assert np.all(np.abs(mean - 1.0 / 3.0) < 3.5 * sigma + 1e-3)


# ---------------------------------------------------------------------------
# fields and norms
# ---------------------------------------------------------------------------


def test_field_x_examples():
    hopf = WeightedHopfModel(2, (1.0, 1.0))
    pt = sample_point(hopf, 3)
    x = generating_field(hopf, pt)
    assert x @ x == pytest.approx(1.0, abs=1e-12)

    weighted = WeightedHopfModel(2, (1.0, 0.5))
    p10 = SpherePoint(np.array([1.0 + 0j, 0.0 + 0j]))
    x10 = generating_field(weighted, p10)
    assert np.allclose(x10, realify(np.array([1j, 0.0 + 0j])))
    assert x10 @ x10 == pytest.approx(1.0)
    p01 = SpherePoint(np.array([0.0 + 0j, 1.0 + 0j]))
    x01 = generating_field(weighted, p01)
    assert x01 @ x01 == pytest.approx(0.25)


def test_generating_field_is_its_dual_number_evaluation():
    # the closed form i theta z has the bits of X evaluated on the seeded dual
    # coordinates, whose Jacobian is the constant block matrix of i theta
    rng = np.random.default_rng(73)
    for m in (2, 5, 16):
        model = WeightedHopfModel(m, (1.0, *rng.uniform(0.2, 1.0, m - 1)))
        pt = sample_point(model, rng)
        x = (seed_point(realify(pt.z)).times_i() * np.asarray(model.theta)).interleaved()
        assert np.array_equal(generating_field(model, pt), x.value)
        assert np.array_equal(x.grad, np.kron(np.diag(model.theta), [[0.0, -1.0], [1.0, 0.0]]))


def test_m2_half_half_point_norms():
    model = WeightedHopfModel(2, (1.0, 1.0))
    pt = SpherePoint(np.array([1.0 + 0j, 1.0 + 0j]) / np.sqrt(2.0))
    (y1, w1), _ = fields_YW(model, pt, generating_field(model, pt))
    assert y1 @ y1 == pytest.approx(0.25, abs=1e-14)
    assert w1 @ w1 == pytest.approx(0.25, abs=1e-14)


def test_frame_orthonormality_and_tangency():
    rng = np.random.default_rng(7)
    for m in (2, 3, 4, 5, 6):
        theta = tuple([1.0] + [float(t) for t in rng.uniform(0.3, 1.0, m - 1)])
        model = WeightedHopfModel(m, theta)
        pt = sample_point(model, rng)
        frame = adapted_frame(model, pt)
        assert frame.gram_residual < 1e-10
        # the horizontal fields are tangent to the sphere and orthogonal to X
        x = generating_field(model, pt)
        assert np.max(np.abs(frame.horizontal @ realify(pt.z))) < 1e-10
        assert np.max(np.abs(frame.horizontal @ x)) < 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_every_field_jacobian_against_finite_differences(m):
    # X and every row of Y and W, the literal W_{m-1} included, at random
    # weights, each derivative against a central difference: X is linear,
    # so its Jacobian is the constant block matrix of i theta; the pass's
    # u_j is the gradient of the pairing <Z_j, x> with x = X(point) held
    # fixed; and the oracle's full Jacobians, column by column.
    rng = np.random.default_rng(100 + m)
    model = WeightedHopfModel(m, (1.0, *rng.uniform(0.2, 1.0, m - 1)))
    pt = sample_point(model, rng)
    x0 = realify(pt.z)
    x = generating_field(model, pt)
    fields, u = fields_YW(model, pt, x)
    oracle_fields, jacobians = jacobian_fields_YW(model, pt)
    assert fields.shape == u.shape == (model.q, 2 * m) and x.shape == (2 * m,)
    i_theta = np.kron(np.diag(model.theta), np.array([[0.0, -1.0], [1.0, 0.0]]))

    def field_x(y):
        return generating_field(model, at(model, y))

    def pairings(y):
        return fields_YW(model, at(model, y), x)[0] @ x

    def oracle(y):
        return jacobian_fields_YW(model, at(model, y))[0]

    assert np.array_equal(field_x(x0), x)
    assert np.array_equal(oracle(x0), oracle_fields)
    for d in range(2 * m):
        e = np.eye(2 * m)[d]
        assert np.max(np.abs(i_theta[:, d] - fd_directional(field_x, x0, e))) < 1e-8, d
        assert np.max(np.abs(u[:, d] - fd_directional(pairings, x0, e))) < 1e-8, d
        assert np.max(np.abs(jacobians[:, :, d] - fd_directional(oracle, x0, e))) < 1e-8, d


@pytest.mark.parametrize("m", range(2, 21))
def test_contracted_pass_is_the_jacobian_contraction(m):
    # the field values and u = J^T X0 of the full-Jacobian definition, at
    # random weights, with the literal last row of W
    rng = np.random.default_rng(300 + m)
    model = WeightedHopfModel(m, (1.0, *rng.uniform(0.1, 1.0, m - 1)))
    for _ in range(3):
        pt = sample_point(model, rng)
        x = generating_field(model, pt)
        fields, u = fields_YW(model, pt, x)
        ref_fields, jacobians = jacobian_fields_YW(model, pt)
        ref_u = jacobians.transpose(0, 2, 1) @ x
        assert np.max(np.abs(fields - ref_fields)) <= 1e-14 * np.max(np.abs(ref_fields))
        assert np.max(np.abs(u - ref_u)) <= 1e-14 * np.max(np.abs(ref_u))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.integers(2, 40).flatmap(lambda m: st.tuples(
    st.lists(st.floats(0.1, 1.0), min_size=m - 1, max_size=m - 1),
    st.integers(1, 5), st.integers(0, 2**32 - 1))))
def test_closed_form_gradients_are_the_dual_jacobian_contraction(case):
    # the closed-form u_j against J^T X of the dual-number Jacobians, at any
    # weights in [0.1, 1] and stacks of 1 to 5 points; each row of a stack
    # is its one-point call bit for bit
    weights, n, seed = case
    model = WeightedHopfModel(len(weights) + 1, (1.0, *weights))
    stack = sample_point(model, [np.random.default_rng([seed, r]) for r in range(n)])
    x = generating_field(model, stack)
    fields, u = fields_YW(model, stack, x)
    for r in range(n):
        one = SpherePoint(stack.z[r])
        fields1, u1 = fields_YW(model, one, x[r])
        assert np.array_equal(fields[r], fields1) and np.array_equal(u[r], u1)
        ref_u = jacobian_fields_YW(model, one)[1].transpose(0, 2, 1) @ x[r]
        assert np.max(np.abs(u1 - ref_u)) <= 1e-14 * np.max(np.abs(u1))


@pytest.mark.parametrize("theta", [(1.0, 1.0, 1.0), (1.0, 0.7, 0.4)])
def test_each_point_value_is_a_float_or_one_per_point(theta):
    # every number hopf and bounds read off a point is a float for one
    # point, never a 0-d array, and one value a point for a stack
    model = WeightedHopfModel(3, theta)
    stack = sample_point(model, [np.random.default_rng(11 + r) for r in range(3)])
    for pt, want in ((SpherePoint(stack.z[0]), None), (stack, (3,))):
        frame = adapted_frame(model, pt)
        A, display = oneill_from_brackets(model, pt, frame=frame)
        values = [frame.vertical_norm, frame.gram_residual, A.norm_sq, display,
                  oneill_closed_form(model, pt),
                  transverse_riemann(space_form(model.q, 1.0), A).scalar()]
        for v in values:
            assert isinstance(v, float) if want is None else v.shape == want


def test_a_stack_of_points_is_the_points_one_at_a_time():
    # every evaluator works row by row: a stack of n points gives, within
    # 1e-15 of their scale, what n one-point calls give
    rng = np.random.default_rng(5)
    for m, theta in [(2, (1.0, 0.6)), (3, (1.0, 1.0, 1.0)), (5, (1.0, 0.9, 0.7, 0.5, 0.2)),
                     (8, (1.0,) * 8)]:
        model = WeightedHopfModel(m, theta)
        pts = [sample_point(model, rng) for _ in range(5)]
        stack = SpherePoint(np.array([p.z for p in pts]))
        frame = adapted_frame(model, stack)
        A, display = oneill_from_brackets(model, stack, frame=frame)
        closed, kappa = oneill_closed_form(model, stack), mean_curvature(model, stack)
        assert A.a.shape == (5, model.q, model.q, 1) and closed.shape == display.shape == (5,)
        for r, pt in enumerate(pts):
            one = adapted_frame(model, pt)
            A1, display1 = oneill_from_brackets(model, pt, frame=one)
            pairs = [(frame.fields[r], one.fields), (frame.u[r], one.u),
                     (frame.horizontal[r], one.horizontal),
                     (frame.field_norms[r], one.field_norms),
                     (frame.vertical_norm[r], one.vertical_norm),
                     (frame.gram_residual[r], one.gram_residual),
                     (A.a[r], A1.a), (A.norm_sq[r], A1.norm_sq), (display[r], display1),
                     (closed[r], oneill_closed_form(model, pt)),
                     (kappa[r], mean_curvature(model, pt))]
            if model.is_hopf:
                pairs.append((kahler_form(model, frame).coeffs[r],
                              kahler_form(model, one).coeffs))
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


def test_the_first_degenerate_point_of_a_stack_raises_its_own_error(monkeypatch):
    # a stack raises what its first degenerate point raises alone: here a
    # coordinate modulus below the margin in the middle of the stack, then
    # a frame tolerance that some points miss and others meet
    model = WeightedHopfModel(3, (1.0, 0.8, 0.5))
    rng = np.random.default_rng(9)
    z = np.array([sample_point(model, rng).z for _ in range(6)])
    low = np.array([0.2, 0.0, 0.0]) * np.sqrt(degeneracy_margin(3)) + np.array([0, 1j, 1.0])
    z[3] = low / np.linalg.norm(low)
    with pytest.raises(DegeneratePointError) as one:
        adapted_frame(model, SpherePoint(z[3]))
    with pytest.raises(DegeneratePointError) as stacked:
        adapted_frame(model, SpherePoint(z))
    assert str(stacked.value) == str(one.value) == (
        f"coordinate modulus below margin {degeneracy_margin(3)}")
    z = np.delete(z, 3, axis=0)
    gram = adapted_frame(model, SpherePoint(z)).gram_residual
    monkeypatch.setattr(hopf, "FRAME_TOL", float(np.median(gram)))
    messages = []
    for row in z:
        try:
            adapted_frame(model, SpherePoint(row))
        except DegeneratePointError as exc:
            messages.append(str(exc))
    assert 0 < len(messages) < len(z)
    with pytest.raises(DegeneratePointError, match="orthonormality") as stacked:
        adapted_frame(model, SpherePoint(z))
    assert str(stacked.value) == messages[0]


def test_last_w_row_is_its_literal_definition():
    # W_{m-1} = (0, ..., -theta_m |z_m|^2 i z_{m-1}, theta_{m-1} |z_{m-1}|^2 i z_m)
    for m, theta in [(2, (1.0, 0.7)), (4, (1.0, 0.9, 0.6, 0.3))]:
        model = WeightedHopfModel(m, theta)
        pt = sample_point(model, 71)
        z, zz = pt.z, pt.moduli_sq
        expect = np.zeros(m, dtype=complex)
        expect[m - 2] = -theta[m - 1] * zz[m - 1] * 1j * z[m - 2]
        expect[m - 1] = theta[m - 2] * zz[m - 2] * 1j * z[m - 1]
        fields, _ = fields_YW(model, pt, generating_field(model, pt))
        assert np.allclose(fields[-1], realify(expect), rtol=0, atol=1e-15)


def test_a_zero_field_row_is_refused_by_the_gram_check(monkeypatch):
    # with no field floor, a zero field's NaN frame row fails the Gram and
    # tangency checks, which NaN cannot pass
    model = WeightedHopfModel(3, (1.0, 0.8, 0.5))
    pt = sample_point(model, 5)
    true_fields = hopf.fields_YW

    def zero_row(model, point, x):
        fields, u = true_fields(model, point, x)
        fields[..., 1, :] = 0.0
        return fields, u

    monkeypatch.setattr(hopf, "fields_YW", zero_row)
    with pytest.raises(DegeneratePointError, match="gram=nan, tangency=nan"):
        adapted_frame(model, pt)


def test_degenerate_point_rejected():
    model = WeightedHopfModel(2, (1.0, 1.0))
    pt = SpherePoint(np.array([1.0 + 0j, 0.0 + 0j]))
    with pytest.raises(DegeneratePointError):
        adapted_frame(model, pt)


# ---------------------------------------------------------------------------
# Lie brackets
# ---------------------------------------------------------------------------


def route_pairing(model, point):
    """The pairings <[Z_i, Z_j], X>, read back from the bracket route's
    a[i, j] = <[Z_i, Z_j], X> / (2 |Z_i| |Z_j| |X|)."""
    frame = adapted_frame(model, point)
    A, _ = oneill_from_brackets(model, point, frame=frame)
    norms = np.outer(frame.field_norms, frame.field_norms)
    return 2.0 * A.a[:, :, 0] * norms * frame.vertical_norm


def test_bracket_pairings_match_displays_and_vanish_otherwise():
    rng = np.random.default_rng(13)
    for m, theta in [(3, (1.0, 0.8, 0.5)), (4, (1.0, 0.9, 0.7, 0.4)),
                     (4, (1.0, 1.0, 1.0, 1.0))]:
        model = WeightedHopfModel(m, theta)
        pt = sample_point(model, rng)
        pairing = route_pairing(model, pt)
        labels = field_labels(model)
        for a, la in enumerate(labels):
            for b, lb in enumerate(labels):
                if la >= lb:
                    continue
                if la[0] == "Y" and lb[0] == "W":
                    expect = displayed_pairing(model, pt, la, lb)
                elif la[0] == "W" and lb[0] == "Y":
                    expect = -displayed_pairing(model, pt, lb, la)
                else:
                    expect = 0.0
                assert pairing[a, b] == pytest.approx(expect, abs=1e-10), (m, la, lb)


def test_equal_weights_kill_the_mixed_pairings():
    # the (theta_l^2 - theta_k^2) factor vanishes for equal weights
    model = WeightedHopfModel(4, (1.0, 1.0, 1.0, 1.0))
    pt = sample_point(model, 17)
    pairing = route_pairing(model, pt)
    labels = field_labels(model)
    for l, p in [(2, 1), (3, 1), (3, 2)]:
        assert pairing[labels.index(f"Y{l}"), labels.index(f"W{p}")] == pytest.approx(
            0.0, abs=1e-12)


def test_brackets_against_finite_differences():
    rng = np.random.default_rng(19)
    model = WeightedHopfModel(3, (1.0, 0.9, 0.6))
    pt = sample_point(model, rng)

    x0 = realify(pt.z)
    x = generating_field(model, pt)

    def as_field(i):
        return lambda y: fields_YW(model, at(model, y), x)[0][i]

    fields, _ = fields_YW(model, pt, x)
    norms = np.linalg.norm(fields, axis=1)
    A, _ = oneill_from_brackets(model, pt)
    q = model.q
    for i in range(q):
        for j in range(q):
            fd = fd_lie_bracket(as_field(i), as_field(j), x0) @ x
            fd /= 2.0 * norms[i] * norms[j] * np.linalg.norm(x)
            assert abs(A.a[i, j, 0] - fd) < 1e-8, (i, j)


# ---------------------------------------------------------------------------
# integrability tensor, both routes
# ---------------------------------------------------------------------------


def test_hopf_oneill_norm_is_2m_minus_2():
    rng = np.random.default_rng(23)
    for m in (2, 3, 4, 5):
        model = WeightedHopfModel(m, (1.0,) * m)
        for _ in range(5):
            pt = sample_point(model, rng)
            A, display = oneill_from_brackets(model, pt)
            assert A.norm_sq == pytest.approx(2.0 * (m - 1), abs=1e-9)
            assert display == pytest.approx(A.norm_sq, abs=1e-12)
            assert oneill_closed_form(model, pt) == pytest.approx(
                2.0 * (m - 1), abs=1e-8)
            assert np.array_equal(A.a, -A.a.transpose(1, 0, 2))


def test_weighted_m3_closed_form_agrees_and_varies():
    model = WeightedHopfModel(3, (1.0, 1.0, 0.5))
    rng = np.random.default_rng(29)
    values = []
    for _ in range(100):
        pt = sample_point(model, rng)
        A, _ = oneill_from_brackets(model, pt)
        closed = oneill_closed_form(model, pt)
        assert closed == pytest.approx(A.norm_sq, abs=1e-8)
        values.append(A.norm_sq)
    assert max(values) - min(values) > 1e-3          # non-constant
    assert np.var(values) > 0.01


def test_weighted_m4_closed_form_discrepancy_is_detected():
    # with a sub-unit weight in an interior slot the printed closed form
    # departs from the bracket route; the bracket route is the source of
    # truth and the disagreement must be visible, not hidden
    model = WeightedHopfModel(4, (1.0, 0.6, 0.8, 0.5))
    rng = np.random.default_rng(31)
    diffs = []
    for _ in range(10):
        pt = sample_point(model, rng)
        A, _ = oneill_from_brackets(model, pt)
        diffs.append(abs(oneill_closed_form(model, pt) - A.norm_sq))
    assert max(diffs) > 1e-3


def test_m2_closed_form_single_term():
    model = WeightedHopfModel(2, (1.0, 0.7))
    rng = np.random.default_rng(37)
    values = []
    for _ in range(20):
        pt = sample_point(model, rng)
        A, _ = oneill_from_brackets(model, pt)
        assert oneill_closed_form(model, pt) == pytest.approx(A.norm_sq, abs=1e-10)
        values.append(A.norm_sq)
    # any sub-unit weight already makes the norm non-constant
    assert np.var(values) > 0.0


@pytest.mark.parametrize("m", range(2, 17))
def test_closed_form_matches_the_term_by_term_oracle(m):
    rng = np.random.default_rng(200 + m)
    unit = WeightedHopfModel(m, (1.0,) * m)
    weighted = WeightedHopfModel(m, (1.0, *rng.uniform(0.1, 1.0, m - 1)))
    for model in (unit, weighted):
        for _ in range(3):
            pt = sample_point(model, rng)
            fast, loop = oneill_closed_form(model, pt), oneill_closed_form_loop(model, pt)
            assert abs(fast - loop) <= 1e-13 * abs(loop), (model.theta, fast, loop)
            if model is unit:
                assert abs(fast - 2.0 * (m - 1)) <= 1e-12


# ---------------------------------------------------------------------------
# geometric certificates on the unweighted model
# ---------------------------------------------------------------------------


def test_kahler_form_certificates():
    rng = np.random.default_rng(41)
    for m in (3, 4):
        model = WeightedHopfModel(m, (1.0,) * m)
        q = model.q
        pt = sample_point(model, rng)
        frame = adapted_frame(model, pt)
        w = kahler_form(model, frame)
        assert w.norm_sq == pytest.approx(q / 2.0, abs=1e-10)
        A, _ = oneill_from_brackets(model, pt, frame=frame)
        Rn = transverse_riemann(space_form(q, 1.0), A)
        act = curvature_action_on_form(Rn, w)
        assert np.linalg.norm(act.coeffs) < 1e-9
        assert abs(inner(act, w)) < 1e-9
        # nondegeneracy: w ^ w is a nonzero 4-form
        ww = wedge(w, w)
        assert np.max(np.abs(ww.coeffs)) > 1e-6


def test_unit_weight_tensor_is_minus_the_complex_structure(monkeypatch):
    # with unit weights a[i, j] = -<J e_i, e_j>; a tensor whose norm and
    # pairing display still agree but which is not -J raises
    rng = np.random.default_rng(37)
    model = WeightedHopfModel(4, (1.0,) * 4)
    pt = sample_point(model, rng)
    oneill_from_brackets(model, pt)
    real = hopf.ONeillTensor
    monkeypatch.setattr(hopf, "ONeillTensor", lambda a: real(-a))
    with pytest.raises(BracketRouteError, match="complex structure"):
        oneill_from_brackets(model, pt)
    # weighted models are not held to it
    weighted = WeightedHopfModel(4, (1.0, 0.9, 0.6, 0.3))
    oneill_from_brackets(weighted, sample_point(weighted, rng))


def test_kahler_form_requires_unit_weights():
    model = WeightedHopfModel(3, (1.0, 1.0, 0.5))
    pt = sample_point(model, 43)
    frame = adapted_frame(model, pt)
    with pytest.raises(ValueError, match="weights"):
        kahler_form(model, frame)


def test_parallel_form_realizes_bplus_identity():
    model = WeightedHopfModel(3, (1.0, 1.0, 1.0))
    pt = sample_point(model, 47)
    frame = adapted_frame(model, pt)
    w = kahler_form(model, frame)
    A, _ = oneill_from_brackets(model, pt, frame=frame)
    RM = space_form(4, 1.0)
    E = prop31_value(RM, A, w)
    assert E == pytest.approx(bplus_norm(A, w), abs=1e-9)
    assert E >= -1e-9
    # the harmonic-form slack on the same data
    lhs, rhs = prop41_sides(RM, A, w)
    assert lhs - rhs == pytest.approx(0.5 * bminus_norm(A, w) + bplus_norm(A, w),
                                      abs=1e-9)


def test_scal_transverse_is_24_on_s5():
    model = WeightedHopfModel(3, (1.0, 1.0, 1.0))
    pt = sample_point(model, 53)
    A, _ = oneill_from_brackets(model, pt)
    _, scal = transverse_ricci(space_form(4, 1.0), A)
    assert scal == pytest.approx(24.0, abs=1e-9)


# ---------------------------------------------------------------------------
# mean curvature
# ---------------------------------------------------------------------------


def test_mean_curvature_vanishes_for_unit_weights():
    rng = np.random.default_rng(59)
    for m in (2, 3, 4):
        model = WeightedHopfModel(m, (1.0,) * m)
        pt = sample_point(model, rng)
        assert np.linalg.norm(mean_curvature(model, pt)) < 1e-10


def test_mean_curvature_weighted_is_nonzero_and_orthogonal():
    model = WeightedHopfModel(2, (1.0, 0.5))
    rng = np.random.default_rng(61)
    pt = sample_point(model, rng)
    kappa = mean_curvature(model, pt)
    assert np.linalg.norm(kappa) > 1e-3
    x = generating_field(model, pt)
    v = x / np.linalg.norm(x)
    assert abs(kappa @ v) < 1e-10
    assert abs(kappa @ realify(pt.z)) < 1e-10


def test_mean_curvature_against_finite_differences():
    # kappa is the horizontal, sphere-tangent part of D_V V, V = X/|X|, which
    # mean_curvature takes in closed form
    model = WeightedHopfModel(3, (1.0, 0.8, 0.4))
    pt = sample_point(model, 67)
    x0 = realify(pt.z)

    def unit_x(y):
        x = generating_field(model, at(model, y))
        return x / np.linalg.norm(x)

    v = unit_x(x0)
    dvv = fd_directional(unit_x, x0, v)
    dvv -= (dvv @ x0) * x0
    dvv -= (dvv @ v) * v
    kappa = mean_curvature(model, pt)
    assert np.max(np.abs(kappa - dvv)) < 1e-8

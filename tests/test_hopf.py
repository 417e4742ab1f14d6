"""The weighted circle foliations of odd spheres: frames, brackets, the
integrability tensor by both routes, and the geometric certificates."""

import numpy as np
import pytest

from folcurv.curvature import (
    curvature_action_on_form,
    space_form,
    transverse_ricci,
    transverse_riemann,
)
from folcurv.exterior import inner, wedge
from folcurv.hopf import (
    DegeneratePointError,
    SpherePoint,
    WeightedHopfModel,
    adapted_frame,
    field_X,
    field_labels,
    fields_YW,
    kahler_form,
    lie_bracket,
    mean_curvature,
    oneill_closed_form,
    oneill_from_brackets,
    realify,
    sample_point,
)
from folcurv.oneill import bminus_norm, bplus_norm, prop31_value, prop41_check

from oracles import fd_lie_bracket


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
    x = field_X(hopf, pt)
    assert x @ x == pytest.approx(1.0, abs=1e-12)

    weighted = WeightedHopfModel(2, (1.0, 0.5))
    p10 = SpherePoint(np.array([1.0 + 0j, 0.0 + 0j]))
    x10 = field_X(weighted, p10)
    assert np.allclose(x10, realify(np.array([1j, 0.0 + 0j])))
    assert x10 @ x10 == pytest.approx(1.0)
    p01 = SpherePoint(np.array([0.0 + 0j, 1.0 + 0j]))
    x01 = field_X(weighted, p01)
    assert x01 @ x01 == pytest.approx(0.25)


def test_m2_half_half_point_norms():
    model = WeightedHopfModel(2, (1.0, 1.0))
    pt = SpherePoint(np.array([1.0 + 0j, 1.0 + 0j]) / np.sqrt(2.0))
    y1, w1 = fields_YW(model, pt)
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
        assert frame.tangency_residual < 1e-10
        # vertical spans the same line as X
        x = field_X(model, pt)
        cosine = abs(frame.vertical @ x) / np.linalg.norm(x)
        assert cosine == pytest.approx(1.0, abs=1e-12)


def test_degenerate_point_rejected():
    model = WeightedHopfModel(2, (1.0, 1.0))
    pt = SpherePoint(np.array([1.0 + 0j, 0.0 + 0j]))
    with pytest.raises(DegeneratePointError):
        fields_YW(model, pt)


# ---------------------------------------------------------------------------
# Lie brackets
# ---------------------------------------------------------------------------


def test_unknown_field_raises():
    model = WeightedHopfModel(3, (1.0, 1.0, 1.0))
    pt = sample_point(model, 11)
    with pytest.raises(ValueError, match="unknown field"):
        lie_bracket("Y9", "W1", model, pt)


def test_bracket_pairings_match_displays_and_vanish_otherwise():
    rng = np.random.default_rng(13)
    for m, theta in [(3, (1.0, 0.8, 0.5)), (4, (1.0, 0.9, 0.7, 0.4)),
                     (4, (1.0, 1.0, 1.0, 1.0))]:
        model = WeightedHopfModel(m, theta)
        pt = sample_point(model, rng)
        x = field_X(model, pt)
        labels = field_labels(model)
        for la in labels:
            for lb in labels:
                if la >= lb:
                    continue
                pairing = lie_bracket(la, lb, model, pt) @ x
                if la[0] == "Y" and lb[0] == "W":
                    expect = displayed_pairing(model, pt, la, lb)
                elif la[0] == "W" and lb[0] == "Y":
                    expect = -displayed_pairing(model, pt, lb, la)
                else:
                    expect = 0.0
                assert pairing == pytest.approx(expect, abs=1e-10), (m, la, lb)


def test_equal_weights_kill_the_mixed_pairings():
    # the (theta_l^2 - theta_k^2) factor vanishes for equal weights
    model = WeightedHopfModel(4, (1.0, 1.0, 1.0, 1.0))
    pt = sample_point(model, 17)
    x = field_X(model, pt)
    for l, p in [(2, 1), (3, 1), (3, 2)]:
        pairing = lie_bracket(f"Y{l}", f"W{p}", model, pt) @ x
        assert pairing == pytest.approx(0.0, abs=1e-12)


def test_brackets_against_finite_differences():
    rng = np.random.default_rng(19)
    model = WeightedHopfModel(3, (1.0, 0.9, 0.6))
    pt = sample_point(model, rng)

    def as_field(label):
        def f(x):
            zpt = SpherePoint.__new__(SpherePoint)
            object.__setattr__(zpt, "z", x[0::2] + 1j * x[1::2])
            if label == "X":
                return field_X(model, zpt)
            labs = field_labels(model)
            return fields_YW(model, zpt, eps_deg=0.0)[labs.index(label)]
        return f

    x0 = realify(pt.z)
    for la, lb in [("Y1", "W1"), ("Y2", "W1"), ("Y1", "Y2"), ("W1", "W2")]:
        exact = lie_bracket(la, lb, model, pt)
        fd = fd_lie_bracket(as_field(la), as_field(lb), x0)
        assert np.max(np.abs(exact - fd)) < 1e-8, (la, lb)


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
        w = kahler_form(model, pt, frame)
        assert w.norm_sq == pytest.approx(q / 2.0, abs=1e-10)
        A, _ = oneill_from_brackets(model, pt, frame=frame)
        Rn = transverse_riemann(space_form(q, 1.0), A)
        act = curvature_action_on_form(Rn, w)
        assert np.linalg.norm(act.coeffs) < 1e-9
        assert abs(inner(act, w)) < 1e-9
        # nondegeneracy: w ^ w is a nonzero 4-form
        ww = wedge(w, w)
        assert np.max(np.abs(ww.coeffs)) > 1e-6


def test_kahler_form_requires_unit_weights():
    model = WeightedHopfModel(3, (1.0, 1.0, 0.5))
    pt = sample_point(model, 43)
    frame = adapted_frame(model, pt)
    with pytest.raises(ValueError, match="weights"):
        kahler_form(model, pt, frame)


def test_parallel_form_realizes_bplus_identity():
    model = WeightedHopfModel(3, (1.0, 1.0, 1.0))
    pt = sample_point(model, 47)
    frame = adapted_frame(model, pt)
    w = kahler_form(model, pt, frame)
    A, _ = oneill_from_brackets(model, pt, frame=frame)
    RM = space_form(4, 1.0)
    E = prop31_value(RM, A, w)
    assert E == pytest.approx(bplus_norm(A, w), abs=1e-9)
    assert E >= -1e-9
    # the harmonic-form slack on the same data
    rep = prop41_check(RM, A, w)
    assert rep.gap == pytest.approx(0.5 * bminus_norm(A, w) + bplus_norm(A, w),
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
    x = field_X(model, pt)
    v = x / np.linalg.norm(x)
    assert abs(kappa @ v) < 1e-10
    assert abs(kappa @ realify(pt.z)) < 1e-10

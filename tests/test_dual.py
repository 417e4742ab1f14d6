"""Forward-mode dual numbers against finite differences and hand derivatives."""

import numpy as np
import pytest

from folcurv.dual import CDual, Dual, seed_point, suffix_sum


def test_arithmetic_values_and_gradients():
    x = Dual(2.0, np.array([1.0, 0.0]))
    y = Dual(3.0, np.array([0.0, 1.0]))
    s = x * y + x / y - 2.0 * x
    # f = xy + x/y - 2x: df/dx = y + 1/y - 2, df/dy = x - x/y^2
    assert s.value == pytest.approx(2.0 * 3.0 + 2.0 / 3.0 - 4.0)
    assert s.grad[0] == pytest.approx(3.0 + 1.0 / 3.0 - 2.0)
    assert s.grad[1] == pytest.approx(2.0 - 2.0 / 9.0)
    r = (x * x + y * y).sqrt()
    n = np.hypot(2.0, 3.0)
    assert r.value == pytest.approx(n)
    assert np.allclose(r.grad, [2.0 / n, 3.0 / n])
    inv = 1.0 / x
    assert inv.value == pytest.approx(0.5)
    assert inv.grad[0] == pytest.approx(-0.25)


def test_polynomial_jacobian_is_exact():
    # f(u, v) = (u^2 v, u - v^3); Jacobian rows (2uv, u^2), (1, -3v^2)
    u0, v0 = 1.7, -0.6
    eye = np.eye(2)
    u = Dual(u0, eye[0])
    v = Dual(v0, eye[1])
    f0 = u * u * v
    f1 = u - v * v * v
    assert np.allclose(f0.grad, [2 * u0 * v0, u0 * u0])
    assert np.allclose(f1.grad, [1.0, -3 * v0 * v0])


def test_cdual_complex_operations():
    x = np.array([0.3, -0.4, 1.1, 0.2])
    zc = seed_point(x)
    assert zc.re.value.shape == zc.im.value.shape == (2,)
    w = zc[0] * zc[1]
    z0, z1 = complex(0.3, -0.4), complex(1.1, 0.2)
    prod = z0 * z1
    assert w.re.value == pytest.approx(prod.real)
    assert w.im.value == pytest.approx(prod.imag)
    iw = zc[0].times_i()
    assert iw.re.value == pytest.approx((1j * z0).real)
    assert iw.im.value == pytest.approx((1j * z0).imag)
    m = zc[1].abs2()
    assert m.value == pytest.approx(abs(z1) ** 2)
    # d|z1|^2 / d(x1, y1) = (2 x1, 2 y1)
    assert np.allclose(m.grad, [0.0, 0.0, 2 * 1.1, 2 * 0.2])


def test_gradients_match_finite_differences():
    def f(x):
        zc = seed_point(x)
        w = zc[0] * zc[1].times_i() + zc[0] * zc[0].abs2()
        return w

    x0 = np.array([0.5, -0.2, 0.8, 0.3])
    w = f(x0)
    h = 1e-6
    for d in range(4):
        xp, xm = x0.copy(), x0.copy()
        xp[d] += h
        xm[d] -= h
        fd_re = (f(xp).re.value - f(xm).re.value) / (2 * h)
        fd_im = (f(xp).im.value - f(xm).im.value) / (2 * h)
        assert w.re.grad[d] == pytest.approx(fd_re, abs=1e-8)
        assert w.im.grad[d] == pytest.approx(fd_im, abs=1e-8)


# ---------------------------------------------------------------------------
# array-valued duals
# ---------------------------------------------------------------------------


def random_dual(rng, shape, n=3):
    return Dual(rng.standard_normal(shape), rng.standard_normal(shape + (n,)))


def test_array_operations_broadcast_value_and_gradient():
    # (4, 1) op (5,) broadcasts to (4, 5); the gradient axis stays last
    rng = np.random.default_rng(2)
    a, b = random_dual(rng, (4, 1)), random_dual(rng, (5,))
    c = rng.standard_normal((4, 5))
    for r, value, grad in [
        (a * b, a.value * b.value,
         a.value[..., None] * b.grad + b.value[..., None] * a.grad),
        (a + b, a.value + b.value, a.grad + b.grad),
        (a - b, a.value - b.value, a.grad - b.grad),
        (a * c, a.value * c, a.grad * c[..., None]),
        (c * a, a.value * c, a.grad * c[..., None]),
        (c - a, c - a.value, np.broadcast_to(-a.grad, (4, 5, 3))),
        (a + 1.5, a.value + 1.5, a.grad),
    ]:
        assert r.grad.shape == r.value.shape + (3,)
        assert np.array_equal(r.value, value)
        assert np.array_equal(r.grad, np.broadcast_to(grad, r.grad.shape))


def test_scalar_duals_equal_array_elements():
    # every entry of an array computation equals the same computation on
    # the scalar duals of that entry, bit for bit
    rng = np.random.default_rng(3)
    a, b = random_dual(rng, (6,)), random_dual(rng, (6,))
    arr = [a * b - 2.0 * a + b * b * a, a / b, (a * a + b * b).sqrt(), 1.0 / b, 3.0 - a]
    for k in range(6):
        ak, bk = Dual(a.value[k], a.grad[k]), Dual(b.value[k], b.grad[k])
        sca = [ak * bk - 2.0 * ak + bk * bk * ak, ak / bk, (ak * ak + bk * bk).sqrt(),
               1.0 / bk, 3.0 - ak]
        for r, s in zip(arr, sca):
            assert s.value.shape == ()
            assert r.value[k] == s.value
            assert np.array_equal(r.grad[k], s.grad)


def test_indexing_keeps_the_gradient_axis():
    rng = np.random.default_rng(4)
    a = random_dual(rng, (3, 4), n=5)
    for index in [1, (slice(None, -1), None), (2, 3), (slice(None), [0, 2])]:
        r = a[index]
        assert np.array_equal(r.value, a.value[index])
        assert r.grad.shape == r.value.shape + (5,)
    assert np.array_equal(a[:, None].grad[1, 0], a.grad[1])
    zc = seed_point(rng.standard_normal(6))
    z1 = zc[1]
    assert isinstance(z1, CDual) and z1.re.value.shape == ()
    assert np.array_equal(z1.re.grad, np.eye(6)[2])
    assert np.array_equal(z1.im.grad, np.eye(6)[3])


def test_suffix_sum_against_a_scalar_loop():
    # the sums run along the last value axis; leading axes are stacked points
    rng = np.random.default_rng(5)
    for m in (1, 2, 5):
        x = random_dual(rng, (2, m), n=4)
        s = suffix_sum(x)
        plain = suffix_sum(x.value)
        for l in range(m):
            value = sum((x.value[:, k] for k in range(l + 1, m)), start=np.zeros(2))
            grad = sum((x.grad[:, k] for k in range(l + 1, m)), start=np.zeros((2, 4)))
            assert np.allclose(s.value[:, l], value, rtol=1e-15, atol=1e-15)
            assert np.allclose(s.grad[:, l], grad, rtol=1e-15, atol=1e-15)
        assert np.array_equal(plain, s.value)
        assert np.array_equal(s.value[:, -1], np.zeros(2))
        assert np.array_equal(suffix_sum(x.value[0]), plain[0])


def test_seed_point_seeds_each_point_of_a_stack():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 8))
    stacked = seed_point(x)
    for r in range(3):
        one = seed_point(x[r])
        for part in ("re", "im"):
            assert np.array_equal(getattr(stacked, part).value[r], getattr(one, part).value)
            assert np.array_equal(getattr(stacked, part).grad[r], getattr(one, part).grad)


def test_interleaved_real_form():
    x = np.array([0.3, -0.4, 1.1, 0.2, -0.7, 0.5])
    zc = seed_point(x)
    r = zc.interleaved()
    assert np.array_equal(r.value, x)
    assert np.array_equal(r.grad, np.eye(6))
    w = (zc * zc[0]).times_i().interleaved()        # i z_0 z_k
    z = x[0::2] + 1j * x[1::2]
    expect = 1j * z[0] * z
    assert np.allclose(w.value[0::2], expect.real) and np.allclose(w.value[1::2], expect.imag)
    assert w.grad.shape == (6, 6)

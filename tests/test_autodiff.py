"""Engine checks: every op against local finite differences, plus
dispatch and accumulation behavior."""

import numpy as np
import pytest

from hsicaps import autodiff as ad


def fd_check(build, params, h=1e-6, tol=1e-6):
    """Compare reverse-mode grads of build() against central differences."""
    loss = build()
    ad.backward(loss)
    grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
             for p in params]
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(ad.value(build()))
            flat[i] = orig - h
            lo = float(ad.value(build()))
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            an = g.reshape(-1)[i]
            assert abs(fd - an) <= tol * max(1.0, abs(fd), abs(an)), (
                f"fd {fd} vs analytic {an} at {i}"
            )


def test_numpy_fallback_returns_arrays():
    x = np.ones((2, 3))
    assert isinstance(ad.add(x, x), np.ndarray)
    assert isinstance(ad.softmax(x, axis=1), np.ndarray)
    assert isinstance(ad.relu(-x), np.ndarray)


def test_add_mul_div_broadcasting(rng):
    a = ad.parameter(rng.normal(size=(3, 4)))
    b = ad.parameter(rng.normal(size=(4,)))
    c = ad.parameter(rng.normal(size=(3, 1)) + 3.0)

    def build():
        y = ad.div(ad.mul(ad.add(a, b), ad.sub(a, 0.3)), c)
        return ad.sum(ad.mul(y, y))

    fd_check(build, [a, b, c])


def test_matmul_and_reductions(rng):
    w = ad.parameter(rng.normal(size=(4, 3)))
    x = rng.normal(size=(5, 4))

    def build():
        y = ad.matmul(x, w)
        return ad.add(ad.sum(ad.power(ad.mean(y, axis=0), 2)), ad.mean(y))

    fd_check(build, [w])


def test_elementwise_ops(rng):
    x = ad.parameter(rng.uniform(0.5, 2.0, size=(6,)))

    def build():
        y = ad.add(ad.exp(ad.mul(x, 0.3)), ad.log(x))
        y = ad.add(y, ad.sqrt(x))
        return ad.sum(ad.mul(y, y))

    fd_check(build, [x])


def test_relu_and_clip_away_from_kinks(rng):
    x = ad.parameter(rng.normal(size=(20,)) * 2.0)

    def build():
        y = ad.relu(x)
        z = ad.clip(ad.mul(x, 0.4), -1.0, 1.0)
        return ad.add(ad.sum(ad.mul(y, y)), ad.sum(ad.mul(z, z)))

    fd_check(build, [x])


def test_clip_blocks_gradient_outside_range():
    x = ad.parameter(np.array([-3.0, 0.0, 3.0]))
    loss = ad.sum(ad.clip(x, -1.0, 1.0))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_signed_guard_values_and_gradient():
    x = ad.parameter(np.array([-2.0, 0.0, 2.0]))
    out = ad.signed_guard(x, 0.5)
    np.testing.assert_allclose(ad.value(out), [-2.5, 0.5, 2.5])
    ad.backward(ad.sum(out))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_shape_ops(rng):
    x = ad.parameter(rng.normal(size=(2, 3, 4)))

    def build():
        y = ad.transpose(ad.reshape(x, (6, 4)), (1, 0))
        z = ad.concat([y, ad.mul(y, 2.0)], axis=0)
        return ad.sum(ad.mul(z, z))

    fd_check(build, [x])


def selection(n, idx):
    """(n, len(idx)) 0/1 matrix whose column k picks element idx[k]."""
    sel = np.zeros((n, len(idx)))
    sel[idx, np.arange(len(idx))] = 1.0
    return sel


def test_selection_matmul_and_softmax(rng):
    x = ad.parameter(rng.normal(size=(3, 5)))
    sel = selection(5, [0, 2, 2, 4])  # repeats column 2

    def build():
        t = ad.matmul(x, sel)
        s = ad.softmax(t, axis=1)
        return ad.sum(ad.mul(s, t))

    fd_check(build, [x])


def test_repeated_selection_accumulates():
    x = ad.parameter(np.arange(4.0).reshape(1, 4))
    loss = ad.sum(ad.matmul(x, selection(4, [1, 1, 1])))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [[0.0, 3.0, 0.0, 0.0]])


def test_unfold1d_matches_manual_windows(rng):
    x = rng.normal(size=(2, 7, 3))
    out = ad.unfold1d(x, 4, 1)
    assert out.shape == (2, 4, 12)
    for p in range(2):
        for t in range(4):
            np.testing.assert_array_equal(out[p, t], x[p, t : t + 4, :].reshape(-1))


def test_unfold2d_stride_and_gradient(rng):
    x = ad.parameter(rng.normal(size=(2, 5, 5, 2)))

    def build():
        u = ad.unfold2d(x, 3, 2)
        return ad.sum(ad.mul(u, ad.mul(u, u)))

    fd_check(build, [x])


def test_norm_guarded_at_zero():
    x = ad.parameter(np.zeros(3))
    n = ad.norm(x)
    ad.backward(ad.sum(ad.mul(n, n)))
    assert np.all(np.isfinite(x.grad))


def test_reused_node_accumulates(rng):
    x = ad.parameter(np.array([2.0]))
    y = ad.mul(x, 3.0)
    loss = ad.sum(ad.add(ad.mul(y, y), y))  # 9x^2 + 3x
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [18 * 2.0 + 3.0])


def test_backward_twice_resets_grads():
    x = ad.parameter(np.array([1.0, 2.0]))
    loss = ad.sum(ad.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    loss2 = ad.sum(ad.mul(x, x))
    ad.backward(loss2)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, 2.0))


def test_operator_sugar(rng):
    a = ad.parameter(np.array([1.0, 2.0]))
    out = (2.0 * a + 1.0 - a / 2.0) ** 2
    ad.backward(ad.sum(out))
    # d/da (1.5a + 1)^2 = 2(1.5a+1)*1.5
    np.testing.assert_allclose(a.grad, 2 * (1.5 * a.data + 1) * 1.5)

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
    outs = [
        ad.add(x, x), ad.sub(x, 1.0), ad.mul(x, x), ad.div(x, 2.0),
        ad.matmul(x, x.T), ad.relu(-x), ad.sqrt(x), ad.clip(x, 0.0, 0.5),
        ad.signed_guard(x, 0.1), ad.sum(x, axis=0), ad.mean(x, axis=1),
        ad.reshape(x, (3, 2)), ad.transpose(x), ad.expand_dims(x, 0),
        ad.concat([x, x], axis=1), ad.unfold(x[..., None], (2,), 1),
        ad.unfold(np.ones((1, 3, 3, 2)), (2, 2), 1), ad.softmax(x, axis=1),
        ad.norm(x, axis=1),
    ]
    for out in outs:
        assert isinstance(out, np.ndarray)


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
        m = ad.mean(y, axis=0)
        return ad.add(ad.sum(ad.mul(m, m)), ad.mean(y))

    fd_check(build, [w])


def test_elementwise_ops(rng):
    x = ad.parameter(rng.uniform(0.5, 2.0, size=(6,)))

    def build():
        y = ad.add(ad.div(1.0, ad.add(x, 0.3)), ad.signed_guard(x, 0.2))
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


def brute_windows(x, size, stride):
    """Each window of a channels-last batch, flattened, one index at a time."""
    n, c = x.shape[0], x.shape[-1]
    outs = [(s - k) // stride + 1 for s, k in zip(x.shape[1:-1], size)]
    res = np.empty([n, *outs, int(np.prod(size)) * c])
    for idx in np.ndindex(n, *outs):
        sl = tuple(slice(i * stride, i * stride + k) for i, k in zip(idx[1:], size))
        res[idx] = x[(idx[0],) + sl].reshape(-1)
    return res


@pytest.mark.parametrize("stride", [1, 2])
def test_unfold_matches_brute_force_windows(rng, stride):
    x1 = rng.normal(size=(2, 9, 3))
    x2 = rng.normal(size=(2, 6, 7, 2))
    np.testing.assert_array_equal(ad.unfold(x1, (4,), stride), brute_windows(x1, (4,), stride))
    np.testing.assert_array_equal(ad.unfold(x2, (3, 3), stride),
                                  brute_windows(x2, (3, 3), stride))


def test_unfold1d_matches_manual_windows(rng):
    x = rng.normal(size=(2, 7, 3))
    out = ad.unfold(x, (4,), 1)
    assert out.shape == (2, 4, 12)
    for p in range(2):
        for t in range(4):
            np.testing.assert_array_equal(out[p, t], x[p, t : t + 4, :].reshape(-1))


def test_unfold1d_stride_gradient(rng):
    x = ad.parameter(rng.normal(size=(2, 8, 3)))

    def build():
        u = ad.unfold(x, (3,), 2)
        return ad.sum(ad.mul(u, ad.mul(u, u)))

    fd_check(build, [x])


def test_unfold2d_stride_and_gradient(rng):
    x = ad.parameter(rng.normal(size=(2, 5, 5, 2)))

    def build():
        u = ad.unfold(x, (3, 3), 2)
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


def test_same_input_twice_accumulates_both_vjps():
    x = ad.parameter(np.array([1.5, -2.0, 3.0]))
    ad.backward(ad.sum(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, 2 * x.data)


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


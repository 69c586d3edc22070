"""Engine checks: every op against local finite differences, plus
dispatch and accumulation behavior."""

import numpy as np
import pytest

from hsicaps import autodiff as ad
from hsicaps.errors import DataError


def parameter(data):
    """A leaf tensor over a float64 copy of ``data`` that accumulates gradients."""
    return ad.Tensor(np.array(data, dtype=np.float64))


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
        ad.reshape(x, (3, 2)), ad.transpose(x), ad.reshape(x, (1, 2, 3)),
        ad.concat([x, x], axis=1), ad.unfold(x[..., None], (2,), 1),
        ad.unfold(np.ones((1, 3, 3, 2)), (2, 2), 1), ad.softmax(x, axis=1),
        ad.norm(x, axis=1), ad.matmul(np.ones((2, 2, 3)), x.T),
        ad.conv(np.ones((1, 3, 3, 2)), np.ones((4, 2, 2, 2)), 1),
        ad.window_sum(np.ones((3, 2, 2)), np.zeros((4, 2), dtype=np.intp)),
    ]
    for out in outs:
        assert isinstance(out, np.ndarray)


def test_add_mul_div_broadcasting(rng):
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(4,)))
    c = parameter(rng.normal(size=(3, 1)) + 3.0)

    def build():
        y = ad.div(ad.mul(ad.add(a, b), ad.sub(a, 0.3)), c)
        return ad.sum(ad.mul(y, y))

    fd_check(build, [a, b, c])


def test_matmul_and_reductions(rng):
    w = parameter(rng.normal(size=(4, 3)))
    x = rng.normal(size=(5, 4))

    def build():
        y = ad.matmul(x, w)
        m = ad.mean(y, axis=0)
        return ad.add(ad.sum(ad.mul(m, m)), ad.mean(y))

    fd_check(build, [w])


def test_matmul_folds_leading_axes(rng):
    x = parameter(rng.normal(size=(2, 3, 4)))
    w = parameter(rng.normal(size=(4, 5)))
    g = rng.normal(size=(2, 3, 5))
    y = ad.matmul(x, w)
    assert np.array_equal(y.data, (x.data.reshape(-1, 4) @ w.data).reshape(2, 3, 5))
    ad.backward(ad.sum(ad.mul(y, g)))  # the VJPs are the same folded products
    assert np.array_equal(x.grad, (g.reshape(-1, 5) @ w.data.T).reshape(2, 3, 4))
    assert np.array_equal(w.grad, x.data.reshape(-1, 4).T @ g.reshape(-1, 5))

    def build():
        y = ad.matmul(x, w)
        return ad.sum(ad.mul(y, y))

    fd_check(build, [x, w])


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("a_shape", [(6, 4), (2, 3, 4)])
def test_matmul_bias_and_relu_equal_the_separate_ops_bit_for_bit(rng, a_shape, relu):
    """``matmul(a, w, bias, relu)`` equals ``relu(add(matmul(a, w), bias))``
    in value and in every gradient, with one pre-activation exactly 0."""
    a_data, w_data, b_data = (rng.normal(size=s) for s in (a_shape, (4, 5), (5,)))
    b_data[2] = -(a_data.reshape(-1, 4) @ w_data)[0, 2]
    pre = (a_data.reshape(-1, 4) @ w_data + b_data).reshape(a_shape[:-1] + (5,))
    assert pre.reshape(-1, 5)[0, 2] == 0.0
    g = rng.normal(size=pre.shape)

    def run(fused):
        a, w, b = map(parameter, (a_data, w_data, b_data))
        if fused:
            y = ad.matmul(a, w, b, relu)
        else:
            y = ad.add(ad.matmul(a, w), b)
            y = ad.relu(y) if relu else y
        ad.backward(ad.sum(ad.mul(y, g)))
        return y.data, a.grad, w.grad, b.grad

    plain = ad.matmul(a_data, w_data, b_data, relu)
    assert type(plain) is np.ndarray
    want = run(False)
    for got, ref in zip((plain, *run(True)), (want[0], *want)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(plain, np.maximum(pre, 0.0) if relu else pre)


def test_a_fused_relu_is_a_node_over_the_affine_nodes_buffer(rng):
    """With tracked operands, the relu is a second node whose one input is
    the affine node (product plus bias), and both hold the same array."""
    a, w, b = (parameter(rng.normal(size=s)) for s in ((6, 4), (4, 5), (5,)))
    y = ad.matmul(a, w, b, relu=True)
    [(affine, _)] = y._inputs
    assert [x for x, _ in affine._inputs] == [a, w, b]
    assert np.shares_memory(y.data, affine.data)
    np.testing.assert_array_equal(y.data, np.maximum(a.data @ w.data + b.data, 0.0))


@pytest.mark.parametrize("shape", [(4,)])
def test_matmul_needs_2d_right_operand(rng, shape):
    with pytest.raises(ValueError, match="2-D right operand"):
        ad.matmul(rng.normal(size=(3, 4)), rng.normal(size=shape))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((3, 4, 5), (3, 5, 2)),  # (M, P, K) @ (M, K, n)
    ((1, 4, 5), (3, 5, 2)),  # a broadcast batch axis
    ((3, 4), (2, 4, 5)),  # a left matrix under a stack of right ones
    ((2, 1, 1, 3), (2, 3, 3, 2)),  # (..., n, 1, M) @ (..., n, M, D), routing's sum
])
def test_batched_matmul_equals_np_matmul_and_fd(rng, a_shape, b_shape):
    a = parameter(rng.normal(size=a_shape))
    b = parameter(rng.normal(size=b_shape))
    assert np.array_equal(ad.value(ad.matmul(a, b)), np.matmul(a.data, b.data))

    def build():
        y = ad.matmul(a, b)
        return ad.sum(ad.mul(y, y))

    fd_check(build, [a, b])


def test_batched_matmul_needs_2d_left_operand(rng):
    with pytest.raises(ValueError, match="2-D right operand"):
        ad.matmul(rng.normal(size=(4,)), rng.normal(size=(2, 4, 5)))


def test_conv_channel_mismatch_error():
    with pytest.raises(DataError, match="channel mismatch"):
        ad.conv(np.ones((1, 5, 2)), np.ones((3, 2, 3)), 1)
    with pytest.raises(DataError, match="channel mismatch"):
        ad.conv(np.ones((1, 4, 4, 2)), np.ones((3, 2, 2, 1)), 1)


def test_elementwise_ops(rng):
    x = parameter(rng.uniform(0.5, 2.0, size=(6,)))

    def build():
        y = ad.add(ad.div(1.0, ad.add(x, 0.3)), ad.signed_guard(x, 0.2))
        y = ad.add(y, ad.sqrt(x))
        return ad.sum(ad.mul(y, y))

    fd_check(build, [x])


def test_relu_and_clip_away_from_kinks(rng):
    x = parameter(rng.normal(size=(20,)) * 2.0)

    def build():
        y = ad.relu(x)
        z = ad.clip(ad.mul(x, 0.4), -1.0, 1.0)
        return ad.add(ad.sum(ad.mul(y, y)), ad.sum(ad.mul(z, z)))

    fd_check(build, [x])


def test_clip_blocks_gradient_outside_range():
    x = parameter(np.array([-3.0, 0.0, 3.0]))
    loss = ad.sum(ad.clip(x, -1.0, 1.0))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_signed_guard_values_and_gradient():
    x = parameter(np.array([-2.0, 0.0, 2.0]))
    out = ad.signed_guard(x, 0.5)
    np.testing.assert_allclose(ad.value(out), [-2.5, 0.5, 2.5])
    ad.backward(ad.sum(out))
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_shape_ops(rng):
    x = parameter(rng.normal(size=(2, 3, 4)))

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
    x = parameter(rng.normal(size=(3, 5)))
    sel = selection(5, [0, 2, 2, 4])  # repeats column 2

    def build():
        t = ad.matmul(x, sel)
        s = ad.softmax(t, axis=1)
        return ad.sum(ad.mul(s, t))

    fd_check(build, [x])


def test_repeated_selection_accumulates():
    x = parameter(np.arange(4.0).reshape(1, 4))
    loss = ad.sum(ad.matmul(x, selection(4, [1, 1, 1])))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [[0.0, 3.0, 0.0, 0.0]])


def brute_window_sum(y, windows):
    """``sum_t y[windows[..., t], t]``, one output and one tap at a time."""
    out = np.zeros(windows.shape[:-1] + y.shape[2:])
    for idx in np.ndindex(*windows.shape[:-1]):
        for t in range(windows.shape[-1]):
            out[idx] += y[windows[idx + (t,)], t]
    return out


@pytest.mark.parametrize("index", [
    [2, 0, 2, 2, 1, 0],  # every row, some repeated
    [3, 3, 0, 3],  # rows 1, 2 and 4 unreferenced
    [],
])
def test_window_sum_and_vjp_equal_loops_and_add_at(rng, index):
    index = np.asarray(index, dtype=np.intp)
    windows = np.stack([index, np.roll(index, 1)], axis=-1)  # T = 2 taps per output
    y = parameter(rng.normal(size=(5, 2, 3)))
    g = rng.normal(size=(len(index), 3))
    out = ad.window_sum(y, windows)
    np.testing.assert_allclose(out.data, brute_window_sum(y.data, windows), rtol=1e-15, atol=0)
    ad.backward(ad.sum(ad.mul(out, g)))
    want = np.zeros_like(y.data)
    np.add.at(want, (windows, np.arange(2)), g[:, None, :])
    np.testing.assert_allclose(y.grad, want, rtol=1e-13, atol=1e-15)  # sums reassociate
    unused = np.setdiff1d(np.arange(5), index)
    np.testing.assert_array_equal(y.grad[unused], 0.0)
    assert isinstance(ad.window_sum(y.data, windows), np.ndarray)  # untracked: no node


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
    # a transposed, non-contiguous map unfolds like a contiguous one, every
    # slice head's conv1 unfolds a one-channel band axis, and the stage-2
    # conv unfolds an integer grid of row ids into window ids
    cases = [(rng.normal(size=(2, 9, 3)), (4,)), (rng.normal(size=(2, 6, 7, 2)), (3, 3)),
             (rng.normal(size=(3, 2, 7, 6)).transpose(0, 2, 3, 1), (3, 3)),
             (rng.integers(0, 9, size=(2, 5, 6, 1)), (3, 3)),
             (rng.normal(size=(4, 11, 1)), (5,))]
    for x, size in cases:
        out = ad.unfold(x, size, stride)
        assert out.dtype == x.dtype
        np.testing.assert_array_equal(out, brute_windows(x, size, stride))
    bands = cases[-1][0]
    out = ad.unfold(bands, (5,), stride)
    assert np.shares_memory(out, bands) and not out.flags.writeable


def brute_fold(g, shape, size, stride):
    """Adjoint of ``brute_windows``: each window's gradient added back into
    its input positions, one output index at a time."""
    gx = np.zeros(shape)
    for idx in np.ndindex(*g.shape[:-1]):
        sl = tuple(slice(i * stride, i * stride + k) for i, k in zip(idx[1:], size))
        gx[(idx[0],) + sl] += g[idx].reshape(*size, shape[-1])
    return gx


@pytest.mark.parametrize("shape, size", [((2, 9, 3), (4,)), ((2, 6, 7, 2), (3, 3))])
@pytest.mark.parametrize("stride", [1, 2])
def test_unfold_vjp_equals_brute_force_fold(rng, shape, size, stride):
    data = rng.normal(size=shape)
    data.setflags(write=False)
    x = ad.Tensor(data)
    u = ad.unfold(x, size, stride)
    g = rng.normal(size=u.data.shape)
    ad.backward(ad.sum(ad.mul(u, g)))
    np.testing.assert_allclose(x.grad, brute_fold(g, shape, size, stride), rtol=0, atol=1e-12)


def test_unfold1d_matches_manual_windows(rng):
    x = rng.normal(size=(2, 7, 3))
    out = ad.unfold(x, (4,), 1)
    assert out.shape == (2, 4, 12)
    for p in range(2):
        for t in range(4):
            np.testing.assert_array_equal(out[p, t], x[p, t : t + 4, :].reshape(-1))


def test_unfold1d_stride_gradient(rng):
    x = parameter(rng.normal(size=(2, 8, 3)))

    def build():
        u = ad.unfold(x, (3,), 2)
        return ad.sum(ad.mul(u, ad.mul(u, u)))

    fd_check(build, [x])


def test_unfold2d_stride_and_gradient(rng):
    x = parameter(rng.normal(size=(2, 5, 5, 2)))

    def build():
        u = ad.unfold(x, (3, 3), 2)
        return ad.sum(ad.mul(u, ad.mul(u, u)))

    fd_check(build, [x])


def test_norm_guarded_at_zero():
    x = parameter(np.zeros(3))
    n = ad.norm(x)
    ad.backward(ad.sum(ad.mul(n, n)))
    assert np.all(np.isfinite(x.grad))


def test_reused_node_accumulates(rng):
    x = parameter(np.array([2.0]))
    y = ad.mul(x, 3.0)
    loss = ad.sum(ad.add(ad.mul(y, y), y))  # 9x^2 + 3x
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [18 * 2.0 + 3.0])


def test_same_input_twice_accumulates_both_vjps():
    x = parameter(np.array([1.5, -2.0, 3.0]))
    ad.backward(ad.sum(ad.mul(x, x)))
    np.testing.assert_array_equal(x.grad, 2 * x.data)


def test_backward_twice_resets_grads():
    """A second pass over a freshly built loss replaces the leaf grads of
    the first instead of adding to them."""
    x = parameter(np.array([1.0, 2.0]))
    loss = ad.sum(ad.mul(x, x))
    ad.backward(loss)
    first = x.grad.copy()
    loss2 = ad.sum(ad.mul(x, x))
    ad.backward(loss2)
    np.testing.assert_array_equal(x.grad, first)


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    x = parameter(np.array([1.0, -2.0]))
    y = ad.mul(x, 3.0)
    loss = ad.sum(ad.mul(y, y))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, 18.0 * x.data)
    for node in (y, loss):
        assert node.grad is None and node._inputs is None
    assert x._inputs == ()


def test_walking_a_walked_graph_raises():
    x = parameter(np.array([1.0, 2.0]))
    y = ad.mul(x, x)
    loss, other = ad.sum(y), ad.sum(ad.mul(y, 2.0))  # both built before the walk
    ad.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ValueError, match="already walked"):
        ad.backward(loss)
    with pytest.raises(ValueError, match="already walked"):
        ad.backward(other)  # reaches the released y
    with pytest.raises(ValueError, match="already walked"):
        ad.add(y, x)  # would otherwise read y as a constant
    np.testing.assert_array_equal(x.grad, first)


def test_backward_requires_scalar():
    x = parameter(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(x, 2.0))


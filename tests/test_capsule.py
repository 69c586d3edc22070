"""Spatial conv, squash, capsules and routing against brute-force oracles."""

import numpy as np
import pytest

from hsicaps import autodiff as ad
from hsicaps import capsule
from hsicaps.errors import DataError
from test_model import rel_gap


def conv2d(fmap, weights, bias=None, stride=1):
    """im2col relu conv2d on a single (H, W, C) map, i.e. an N = 1 batch."""
    w = np.asarray(weights, dtype=np.float64)
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    return ad.relu(ad.add(ad.conv(fmap[None], w, stride), b))[0]


def brute_conv2d(fmap, weights, bias, stride):
    """Quadruple-loop valid cross-correlation oracle (no activation)."""
    J, k, _, C = weights.shape
    H, W, _ = fmap.shape
    H1 = (H - k) // stride + 1
    W1 = (W - k) // stride + 1
    out = np.zeros((H1, W1, J))
    for y in range(H1):
        for x in range(W1):
            for j in range(J):
                acc = 0.0
                for i in range(k):
                    for jj in range(k):
                        for c in range(C):
                            acc += weights[j, i, jj, c] * fmap[y * stride + i,
                                                               x * stride + jj, c]
                out[y, x, j] = acc + bias[j]
    return out


# conv2d -------------------------------------------------------------------


def test_conv2d_ones():
    fmap = np.ones((3, 3, 1))
    np.testing.assert_allclose(conv2d(fmap, np.ones((1, 3, 3, 1))), [[[9.0]]])


def test_conv2d_delta_kernel_identity(rng):
    fmap = rng.uniform(0.1, 1.0, size=(5, 5, 1))
    w = np.zeros((1, 3, 3, 1))
    w[0, 1, 1, 0] = 1.0
    out = conv2d(fmap, w)
    np.testing.assert_allclose(out[:, :, 0], fmap[1:4, 1:4, 0])


def test_conv2d_matches_brute_force(rng):
    for stride in (1, 2):
        fmap = rng.normal(size=(6, 6, 3))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        expected = np.maximum(brute_conv2d(fmap, w, b, stride), 0.0)
        np.testing.assert_allclose(conv2d(fmap, w, b, stride), expected,
                                   rtol=1e-12, atol=1e-13)


def test_conv2d_too_small_error():
    with pytest.raises(DataError, match="smaller than kernel"):
        conv2d(np.zeros((2, 2, 1)), np.ones((1, 3, 3, 1)))
    with pytest.raises(DataError, match="smaller than kernel"):
        capsule.conv2d_batch(np.zeros((4, 1)), np.zeros((1, 2, 2), dtype=np.intp),
                             np.ones((1, 3, 3, 1)), np.zeros(1), 1)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_batch_equals_conv_on_gathered_map(rng, stride):
    # row 5 repeats within and across the two maps; row 6 is unreferenced
    index = rng.integers(0, 6, size=(2, 6, 5))
    index[0, :, 0] = index[1, 2] = 5
    leaves = [ad.Tensor(rng.normal(size=shape))
              for shape in ((7, 4), (3, 3, 3, 4), (3,))]  # pixels, kernel, bias
    oracle = [ad.Tensor(t.data.copy()) for t in leaves]
    got = capsule.conv2d_batch(leaves[0], index, leaves[1], leaves[2], stride)
    pixels, kernel, bias = oracle
    fmap = ad.reshape(ad.matmul(np.eye(7)[index], pixels), index.shape + (4,))
    want = ad.relu(ad.add(ad.conv(fmap, kernel, stride), bias))
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-14)
    assert np.count_nonzero(want.data) and np.count_nonzero(want.data == 0.0)  # both relu sides
    g = rng.normal(size=got.data.shape)
    for out in (got, want):
        ad.backward(ad.sum(ad.mul(out, g)))
    for mine, ref in zip(leaves, oracle):
        assert np.any(ref.grad != 0.0)
        np.testing.assert_allclose(mine.grad, ref.grad, rtol=1e-12, atol=1e-13)
    np.testing.assert_array_equal(leaves[0].grad[6], 0.0)


# squash -------------------------------------------------------------------


def test_squash_unit_and_triple_norms_exact():
    u = np.array([1.0, 0.0, 0.0])
    out = np.asarray(capsule.squash(u))
    assert np.linalg.norm(out) == 0.5
    out3 = np.asarray(capsule.squash(np.array([3.0, 0.0])))
    assert np.linalg.norm(out3) == 0.9


def test_squash_zero_is_zero():
    np.testing.assert_array_equal(np.asarray(capsule.squash(np.zeros(4))), np.zeros(4))


def test_squash_norm_law_and_direction(rng):
    u = rng.normal(size=(10_000, 5)) * rng.uniform(0.01, 5.0, size=(10_000, 1))
    out = np.asarray(capsule.squash(u, axis=-1))
    norms = np.linalg.norm(u, axis=-1)
    expected = norms**2 / (1.0 + norms**2)
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), expected, atol=1e-12)
    # direction preserved: out = c*u with c >= 0
    c = expected / norms
    np.testing.assert_allclose(out, u * c[:, None], atol=1e-12)


# primary capsules -----------------------------------------------------------


def primary(fmap, count, kernels):
    """Batched primary capsules on a single (H, W, C) map (N = 1)."""
    kernels = np.asarray(kernels, dtype=np.float64)
    return np.asarray(capsule.primary_capsules_batch(fmap[None], kernels, count))[0]


def test_primary_capsules_zero_map():
    poses = primary(np.zeros((5, 5, 2)), 2, np.ones((4, 3, 3, 2)))
    assert poses.shape == (2 * 3 * 3, 2)
    np.testing.assert_array_equal(poses, 0.0)


def test_primary_capsule_norm_bound(rng):
    poses = primary(rng.normal(size=(6, 6, 2)) * 5, 3, rng.normal(size=(12, 3, 3, 2)))
    assert np.all(np.linalg.norm(poses, axis=-1) < 1.0)


def test_primary_capsules_composition_oracle(rng):
    count, dim = 2, 3
    kernels = rng.normal(size=(count * dim, 3, 3, 2))
    fmap = rng.normal(size=(4, 4, 2))
    poses = primary(fmap, count, kernels)
    # oracle: linear conv per neuron, regroup, squash
    raw = brute_conv2d(fmap, kernels, np.zeros(count * dim), 1)  # (2, 2, count*dim)
    h2 = raw.shape[0]
    regrouped = raw.reshape(h2, h2, count, dim).transpose(2, 0, 1, 3).reshape(-1, dim)
    expected = np.asarray(capsule.squash(regrouped, axis=-1))
    np.testing.assert_allclose(poses, expected, rtol=1e-10, atol=1e-12)


# predict vectors -------------------------------------------------------------


def test_predict_vectors_identity():
    M, K = 3, 4
    w = np.broadcast_to(np.eye(K), (M, 2, K, K)).copy()
    poses = np.arange(M * K, dtype=np.float64).reshape(M, K) / 10.0
    u_hat = np.asarray(capsule.predict_vectors(poses, w, np.zeros((2, K))))
    for n in range(2):
        np.testing.assert_allclose(u_hat[:, n, :], poses)


def test_predict_vectors_zero_poses_give_biases(rng):
    M, K, D, n = 4, 3, 5, 2
    b = rng.normal(size=(n, D))
    w = rng.normal(size=(M, n, D, K))
    u_hat = np.asarray(capsule.predict_vectors(np.zeros((M, K)), w, b))
    for m in range(M):
        np.testing.assert_allclose(u_hat[m], b)


def test_predict_vectors_matmul_oracle(rng):
    M, K, D, n = 5, 4, 3, 3
    w = rng.normal(size=(M, n, D, K))
    b = rng.normal(size=(n, D))
    poses = rng.normal(size=(M, K))
    u_hat = np.asarray(capsule.predict_vectors(poses, w, b))
    expected = np.zeros((M, n, D))
    for m in range(M):
        for c in range(n):
            expected[m, c] = w[m, c] @ poses[m] + b[c]
    np.testing.assert_allclose(u_hat, expected, rtol=1e-12, atol=1e-14)


# routing ---------------------------------------------------------------------


def route(u_hat, iterations):
    """Batched routing of one (M, n_class, D) prediction set (N = 1).

    Returns the final activities (n_class, D) and the per-iteration
    coupling coefficients, each (M, n_class).
    """
    v, history = capsule.dynamic_routing(np.asarray(u_hat)[None], iterations)
    return np.asarray(v)[0], [np.asarray(c)[0] for c, _, _ in history]


def test_routing_initial_coefficients_uniform(rng):
    u_hat = rng.normal(size=(6, 4, 3))
    _, couplings = route(u_hat, iterations=3)
    np.testing.assert_allclose(couplings[0], 0.25)


def test_routing_single_class(rng):
    u_hat = rng.normal(size=(5, 1, 3))
    v, couplings = route(u_hat, iterations=2)
    np.testing.assert_allclose(couplings[-1], 1.0)
    expected_v = np.asarray(capsule.squash(u_hat[:, 0, :].sum(axis=0)))
    np.testing.assert_allclose(v[0], expected_v, rtol=1e-12)


def test_routing_rows_sum_to_one(rng):
    u_hat = rng.normal(size=(7, 5, 4)) * 2.0
    _, couplings = route(u_hat, iterations=4)
    for c in couplings:
        np.testing.assert_allclose(c.sum(axis=-1), 1.0, atol=1e-9)


def unanimous_fixture(dim=3, norm=1.2):
    """Two capsules agree on class 1; class 2 predictions are zero."""
    w = np.zeros(dim)
    w[0] = norm
    u_hat = np.zeros((2, 2, dim))
    u_hat[:, 0, :] = w
    return u_hat, w


def test_routing_monotone_agreement_hand_simulation():
    u_hat, w = unanimous_fixture()
    _, couplings = route(u_hat, iterations=3)
    coeffs = [c[0, 0] for c in couplings]
    # strict growth toward the agreed class
    assert coeffs[0] == pytest.approx(0.5)
    assert coeffs[0] < coeffs[1] < coeffs[2]

    # independent scalar recurrence: both capsules identical by symmetry.
    # c = sigmoid(b) since the other logit stays 0; s = 2c*w;
    # v = squash(s); b += v . w
    wn = np.linalg.norm(w)
    b = 0.0
    for it in range(3):
        c = 1.0 / (1.0 + np.exp(-b))
        assert c == pytest.approx(coeffs[it], abs=1e-12)
        s_norm = 2.0 * c * wn
        v_norm = s_norm**2 / (1.0 + s_norm**2)
        b += v_norm * wn  # v and w are parallel


def test_routing_permutation_invariance(rng):
    u_hat = rng.normal(size=(6, 3, 4))
    perm = rng.permutation(6)
    v_a, _ = route(u_hat, 3)
    v_b, _ = route(u_hat[perm], 3)
    np.testing.assert_allclose(v_a, v_b, atol=1e-12)


def test_routing_needs_iterations():
    with pytest.raises(DataError):
        capsule.dynamic_routing(np.zeros((1, 2, 2, 2)), iterations=0)


# batched tail against the broadcast-and-sum reference ----------------------------


def reference_predict_vectors(poses, weights, biases):
    """(..., M, K) poses times (M, n, D, K) weights as one broadcast
    (..., M, n, D, K) product summed over K, plus the (n, D) biases."""
    shape = ad.shape_of(poses)
    u = ad.reshape(poses, tuple(shape[:-1]) + (1, 1, shape[-1]))
    return ad.add(ad.sum(ad.mul(u, weights), axis=-1), biases)


def reference_routing(u_hat, iterations):
    """Agreement routing with both contractions as broadcast products summed
    over M and over D; coefficients (..., M, n) as ``dynamic_routing``'s."""
    shape = ad.shape_of(u_hat)
    b = np.zeros(shape[:-1])
    history = []
    for _ in range(iterations):
        c = ad.softmax(b, axis=-1)
        s = ad.sum(ad.mul(ad.reshape(c, shape[:-1] + (1,)), u_hat), axis=-3)
        v = capsule.squash(s, axis=-1)
        history.append((c, s, v))
        b = ad.add(b, ad.sum(ad.mul(u_hat, ad.reshape(v, shape[:-3] + (1,) + shape[-2:])),
                             axis=-1))
    return v, history


@pytest.mark.parametrize("lead", [(5,), ()])  # five pose sets, one unbatched set
def test_batched_tail_matches_broadcast_reference(rng, lead):
    M, n, D, K = 72, 9, 8, 8
    raw = (rng.uniform(-1, 1, size=lead + (M, K)), rng.uniform(-0.3, 0.3, size=(M, n, D, K)),
           rng.uniform(-0.1, 0.1, size=(n, D)))  # poses, weights, biases
    g = rng.normal(size=lead + (n, D))
    runs = []
    for predict, route_fn in ((capsule.predict_vectors, capsule.dynamic_routing),
                              (reference_predict_vectors, reference_routing)):
        leaves = [ad.Tensor(x.copy()) for x in raw]
        u_hat = predict(*leaves)
        v, history = route_fn(u_hat, 3)
        values = [u_hat] + [x for step in history for x in step]
        ad.backward(ad.sum(ad.mul(v, g)))
        runs.append(([np.array(x.data) for x in values], [t.grad for t in leaves]))
    (got_values, got_grads), (want_values, want_grads) = runs
    assert got_values[0].shape == lead + (M, n, D) and got_values[1].shape == lead + (M, n)
    for got, want in zip(got_values + got_grads, want_values + want_grads):
        assert got.shape == want.shape
        assert rel_gap(got, want) < 1e-12


# class probabilities ----------------------------------------------------------


def predict_class(lengths):
    """1-based class ids from (N, n_class) lengths, as the model predicts them."""
    return np.argmax(lengths, axis=1) + 1


def test_class_probabilities_and_argmax(rng):
    v, _ = route(rng.normal(size=(4, 3, 5)), 3)
    lengths = np.asarray(ad.norm(v[None], axis=-1))
    assert np.all(lengths >= 0.0) and np.all(lengths < 1.0)
    assert predict_class(np.array([[0.2, 0.9, 0.4]]))[0] == 2
    assert predict_class(np.zeros((1, 3)))[0] == 1  # tie -> lowest id


def test_zero_routing_state_predicts_class_one():
    v, _ = route(np.zeros((3, 4, 2)), 2)
    lengths = np.asarray(ad.norm(v[None], axis=-1))
    np.testing.assert_allclose(lengths, 0.0, atol=1e-15)
    assert predict_class(lengths)[0] == 1


def test_argmax_invariant_under_prescale(rng):
    for _ in range(20):
        s = rng.normal(size=(4, 6))
        a = float(rng.uniform(0.1, 9.0))
        base = np.asarray(capsule.squash(s, axis=-1))
        scaled = np.asarray(capsule.squash(a * s, axis=-1))
        assert np.argmax(np.linalg.norm(base, axis=-1)) == \
            np.argmax(np.linalg.norm(scaled, axis=-1))
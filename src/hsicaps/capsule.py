"""Spatial convolution, capsule encoding and dynamic routing.

A batch of enhanced feature maps, given as distinct per-pixel feature
rows and a grid of row ids, passes through the stage-2 relu convolution
(``conv2d_batch``, which multiplies each row by the kernel taps once and
sums each window's products by id), a bank of linear convolutional capsules
(``ad.conv``) whose channel groups form pose vectors (squashed so
lengths live in [0, 1)), and a class-capsule layer whose coupling
coefficients are refined by agreement routing. Every routine is batched
over a leading sample axis and takes its weights as arguments (plain
arrays or autodiff tensors); the model passes them in from its parameter
registry. Everything after the relu convolution is one capsule block
(``model._capsules``), which the per-patch forward and the whole-scene
path both call.
"""

import numpy as np

from . import autodiff as ad
from .errors import DataError


def conv2d_batch(pixels, index, weights, bias, stride):
    """The stage-2 relu conv of the (N, H, W, C) map ``pixels[index]``:
    (N, H1, W1, J) for rows ``pixels`` (U, C), an integer (N, H, W) ``index``
    into them, weights (J, k, k, C) and bias (J,).

    The conv is linear per pixel before its spatial sum, so each row is
    multiplied by the k*k taps once, (U, C) @ (C, k*k*J), and each output
    position adds up its window's k*k tap products, picked by the window
    ids of ``index`` (``ad.window_sum``). No C-wide window is copied.
    """
    J, k, _, C = ad.shape_of(weights)
    taps = ad.reshape(ad.transpose(weights, (3, 1, 2, 0)), (C, k * k * J))
    products = ad.reshape(ad.matmul(pixels, taps), (-1, k * k, J))
    windows = ad.unfold(index[..., None], (k, k), stride)
    return ad.relu(ad.add(ad.window_sum(products, windows), bias))


def squash(u, axis=-1):
    """Norm-compressing nonlinearity: maps norm r to r^2/(1+r^2).

    Zero vectors map to zero; direction is always preserved.
    """
    s = ad.sum(ad.mul(u, u), axis=axis, keepdims=True)
    n = ad.sqrt(ad.add(s, ad.NORM_EPS))
    return ad.mul(ad.div(u, n), ad.div(s, ad.add(s, 1.0)))


def primary_capsules_batch(x, kernels, count: int, stride: int = 1):
    """(N, H, W, C) -> (N, M, dim) squashed pose vectors.

    ``count`` capsules of ``dim = kernels.shape[0] // count`` linear conv
    neurons each run over the map. Pose m enumerates (capsule, row, col)
    in C order and every pose is squashed independently.
    """
    raw = ad.conv(x, kernels, stride)
    N, H2, W2, zk = ad.shape_of(raw)
    dim = zk // count
    poses = ad.reshape(raw, (N, H2, W2, count, dim))
    poses = ad.transpose(poses, (0, 3, 1, 2, 4))
    poses = ad.reshape(poses, (N, count * H2 * W2, dim))
    return squash(poses, axis=-1)


def predict_vectors(poses, weights, biases):
    """Per-class predictions of every pose: (..., M, K) -> (..., M, n, D).

    ``weights`` (M, n_class, D, K) hold one transformation matrix per
    (pose, class) pair; ``biases`` (n_class, D) are shared over poses.
    """
    shape = ad.shape_of(poses)
    M, K = shape[-2], shape[-1]
    wv = ad.value(weights)
    if wv.shape[0] != M or wv.shape[3] != K:
        raise DataError(
            f"pose set ({M} vectors of dim {K}) incompatible with weights {wv.shape}"
        )
    u = ad.reshape(poses, tuple(shape[:-1]) + (1, 1, K))
    u_hat = ad.sum(ad.mul(u, weights), axis=-1)
    return ad.add(u_hat, biases)


def dynamic_routing(u_hat, iterations: int):
    """Agreement routing over predictions (..., M, n_class, D).

    Logits start at zero; per iteration the coefficients are the softmax
    of the logits over classes, class inputs are the coupled sums, the
    activities are their squash, and each logit grows by the activity /
    prediction agreement. Returns (v, b, history of (c, s, v))."""
    if iterations < 1:
        raise DataError("routing needs at least 1 iteration")
    shape = ad.shape_of(u_hat)
    b = np.zeros(shape[:-1])
    history = []
    v = s = c = None
    for _ in range(iterations):
        c = ad.softmax(b, axis=-1)
        s = ad.sum(ad.mul(ad.expand_dims(c, -1), u_hat), axis=-3)
        v = squash(s, axis=-1)
        history.append((c, s, v))
        b = ad.add(b, ad.sum(ad.mul(u_hat, ad.expand_dims(v, -3)), axis=-1))
    return v, b, history

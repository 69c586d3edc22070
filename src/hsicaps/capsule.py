"""Spatial convolution, capsule encoding and dynamic routing.

A batch of enhanced feature maps passes through a relu 2-D convolution,
a bank of linear convolutional capsules whose channel groups form pose
vectors (squashed so lengths live in [0, 1)), and a class-capsule layer
whose coupling coefficients are refined by agreement routing. Every
routine is batched over a leading sample axis and takes its weights as
arguments (plain arrays or autodiff tensors); the model passes them in
from its parameter registry.
"""

import numpy as np

from . import autodiff as ad
from .errors import DataError


def conv2d_batch(x, weights, bias, stride, activation):
    """Batched valid cross-correlation: (N, H, W, C) -> (N, H1, W1, J)."""
    N, H, W, C = ad.shape_of(x)
    wv = ad.value(weights)
    J, k, _, Cw = wv.shape
    if Cw != C:
        raise DataError(f"conv2d channel mismatch: input {C}, weights {Cw}")
    if H < k or W < k:
        raise DataError(f"spatial extent {H}x{W} smaller than kernel {k}")
    cols = ad.unfold2d(x, k, stride)  # (N, H1, W1, k*k*C)
    _, H1, W1, _ = ad.shape_of(cols)
    wmat = ad.transpose(ad.reshape(weights, (J, k * k * C)))
    flat = ad.matmul(ad.reshape(cols, (-1, k * k * C)), wmat)
    out = ad.reshape(ad.add(flat, bias) if bias is not None else flat, (N, H1, W1, J))
    if activation == "relu":
        out = ad.relu(out)
    return out


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
    neurons each run over the map; pose m enumerates (capsule, row, col)
    in C order and every pose is squashed independently.
    """
    dim = ad.value(kernels).shape[0] // count
    raw = conv2d_batch(x, kernels, None, stride, "identity")
    N, H2, W2, _ = ad.shape_of(raw)
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

"""Spatial convolution, capsule encoding and dynamic routing.

A batch of enhanced feature maps, given as distinct per-pixel feature
rows and a grid of row ids, passes through the stage-2 relu convolution
(``conv2d_batch``, which multiplies each row by the kernel taps once and
sums each window's products by id), a bank of linear convolutional capsules
(``ad.conv``) whose channel groups form pose vectors (squashed so
lengths live in [0, 1)), and a class-capsule layer whose coupling
coefficients are refined by agreement routing. The class predictions and
both routing contractions are batched matmuls (``ad.matmul`` with a stack
of right matrices), so no (N, M, n_class, D, K) product is formed. Every
routine is batched over a leading sample axis and takes its weights as
arguments (plain arrays or autodiff tensors); the model passes them in from
its parameter registry. Training batches (``model.forward``) and scene
tiles (``model.scene_forward``) each call ``conv2d_batch`` on their own
id grid, and everything after it is one capsule block
(``model._capsules``).
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
    (pose, class) pair; ``biases`` (n_class, D) are shared over poses. The
    P = prod(...) pose sets run as one batched matmul over M,
    (M, P, K) @ (M, K, n * D).
    """
    shape = ad.shape_of(poses)
    M, K = shape[-2], shape[-1]
    wv = ad.value(weights)
    if wv.shape[0] != M or wv.shape[3] != K:
        raise DataError(
            f"pose set ({M} vectors of dim {K}) incompatible with weights {wv.shape}"
        )
    _, n, D, _ = wv.shape
    u = ad.transpose(ad.reshape(poses, (-1, M, K)), (1, 0, 2))
    w = ad.transpose(ad.reshape(weights, (M, n * D, K)), (0, 2, 1))
    u_hat = ad.transpose(ad.matmul(u, w), (1, 0, 2))
    return ad.add(ad.reshape(u_hat, shape[:-1] + (n, D)), biases)


def dynamic_routing(u_hat, iterations: int):
    """Agreement routing over predictions (..., M, n_class, D).

    Logits start at zero; per iteration the coefficients are the softmax
    of the logits over classes, class inputs are the coupled sums, the
    activities are their squash, and each logit grows by the activity /
    prediction agreement. The predictions are laid out once as (..., n_class,
    M, D), so both contractions are batched matmuls per class: the coupled
    sum (..., n_class, 1, M) @ (..., n_class, M, D) and the agreement
    (..., n_class, M, D) @ (..., n_class, D, 1). Returns (v, history of
    (c, s, v)), with coefficients c (..., M, n_class)."""
    if iterations < 1:
        raise DataError("routing needs at least 1 iteration")
    *lead, M, n, D = ad.shape_of(u_hat)
    nd = len(lead)
    swap = (*range(nd), nd + 1, nd)  # (..., M, n) <-> (..., n, M)
    per_class = ad.transpose(u_hat, swap + (nd + 2,))
    b = np.zeros((*lead, n, M))
    history = []
    for i in range(iterations):
        c = ad.softmax(b, axis=-2)
        s = ad.reshape(ad.matmul(ad.reshape(c, (*lead, n, 1, M)), per_class), (*lead, n, D))
        v = squash(s, axis=-1)
        history.append((ad.transpose(c, swap), s, v))
        if i + 1 < iterations:
            agreement = ad.matmul(per_class, ad.reshape(v, (*lead, n, D, 1)))
            b = ad.add(b, ad.reshape(agreement, (*lead, n, M)))
    return v, history

"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray, so a scalar loss can be
backpropagated to every parameter with ``backward(loss)``. Every Tensor
is tracked, and a leaf is a Tensor with no inputs; it may wrap a view of
a larger array (the model's parameters view one flat vector), since
``Tensor`` does not copy float64 input.

Every op follows one rule: it computes its forward value with numpy and
passes it to ``_node`` with one ``(input, vjp)`` pair per input, where
``vjp`` maps the gradient of the output to the gradient of that input
(a vector-Jacobian product). When no input is a Tensor, ``_node`` returns
the plain ndarray, so numeric model code can be written once and serve
both the training graph and plain (inference / inspection) evaluation.
Otherwise it returns a Tensor that keeps the tracked pairs, and
``backward`` walks them in reverse topological order, adding each VJP
into its input's ``.grad`` and releasing each interior node once its VJPs
have run. An input passed twice receives both VJPs.

Every linear map runs through one contraction, ``matmul``. With a 2-D
right operand it folds the leading axes of its left operand into one 2-D
product; ``conv`` is that product over ``unfold``'s strided views (no op
writes its inputs). With a stack of right matrices it is ``np.matmul``'s
batched product, whose batch axes broadcast; the capsule tail runs its
per-pose predictions and its routing sums that way. ``matmul`` (and so
``conv``) also takes an optional bias and relu, applied in the product's
own buffer: a fused layer is two nodes over one array, the affine node
and a relu node that masks the gradient once.
``window_sum`` adds up per-row products picked by integer ids, so a
convolution over gathered rows can multiply each distinct row once and
never copy its windows.

Hinge-style kinks (relu, clip) use the zero-side subgradient.
"""

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataError

# Guard added under square roots of sums of squares; small enough to be
# absorbed by float64 rounding for any norm above ~1e-18.
NORM_EPS = 1e-40


class Tensor:
    """Node of the computation graph."""

    __slots__ = ("data", "grad", "_inputs")

    # Keep numpy from interpreting Tensor operands elementwise.
    __array_ufunc__ = None

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._inputs = ()  # tracked (input, vjp) pairs; none for a leaf

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Seeded uniform init over +/- sqrt(6/(fan_in+fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def value(x):
    """Underlying ndarray of a tensor, or ``x`` itself."""
    return x.data if isinstance(x, Tensor) else x


def _tracked(x):
    if isinstance(x, Tensor) and x._inputs is None:
        raise ValueError("backward already walked and released this graph")
    return isinstance(x, Tensor)


def _val(x):
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _node(out, *pairs):
    """``out``, or a Tensor holding it and the tracked ``(input, vjp)`` pairs."""
    tracked = [pair for pair in pairs if _tracked(pair[0])]
    if not tracked:
        return out
    t = Tensor(out)
    t._inputs = tracked
    return t


def shape_of(x):
    return _val(x).shape


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# binary ops -----------------------------------------------------------


def add(a, b):
    av, bv = _val(a), _val(b)
    return _node(av + bv,
                 (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(g, bv.shape)))


def sub(a, b):
    av, bv = _val(a), _val(b)
    return _node(av - bv,
                 (a, lambda g: _unbroadcast(g, av.shape)),
                 (b, lambda g: _unbroadcast(-g, bv.shape)))


def mul(a, b):
    av, bv = _val(a), _val(b)
    return _node(av * bv,
                 (a, lambda g: _unbroadcast(g * bv, av.shape)),
                 (b, lambda g: _unbroadcast(g * av, bv.shape)))


def div(a, b):
    av, bv = _val(a), _val(b)
    return _node(av / bv,
                 (a, lambda g: _unbroadcast(g / bv, av.shape)),
                 (b, lambda g: _unbroadcast(-g * av / (bv * bv), bv.shape)))


def matmul(a, b, bias=None, relu=False):
    """``a @ b`` over the last axis of any (..., K) ``a``, then ``+ bias``
    and a relu when asked.

    For a (K, n) ``b`` the leading axes of ``a`` fold into the rows of one
    2-D product. A (..., K, n) ``b`` is a stack of matrices whose batch axes
    broadcast against those of a (..., P, K) ``a`` as in ``np.matmul``.
    The bias and the relu work in the product's own buffer: the product plus
    bias is the affine node, whose VJPs never read it, and a relu node over
    it masks the gradient once. The two hold one array where
    ``relu(add(matmul(a, b), bias))`` holds three, with the same value and
    gradients bit for bit.
    """
    av, bv = _val(a), _val(b)
    if bv.ndim < 2 or (bv.ndim > 2 and av.ndim < 2):
        raise ValueError("matmul needs a 2-D right operand, or a stack of them "
                         "under a left operand of 2-D or more")
    if bv.ndim > 2:
        out = av @ bv
        pairs = [(a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape)),
                 (b, lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))]
    else:
        a2 = av.reshape(-1, av.shape[-1])
        n = bv.shape[1]
        out = (a2 @ bv).reshape(av.shape[:-1] + (n,))
        pairs = [(a, lambda g: (g.reshape(-1, n) @ bv.T).reshape(av.shape)),
                 (b, lambda g: a2.T @ g.reshape(-1, n))]
    if bias is not None:
        cv = _val(bias)
        out += cv
        pairs.append((bias, lambda g: _unbroadcast(g, cv.shape)))
    affine = _node(out, *pairs)
    if not relu:
        return affine
    np.maximum(out, 0.0, out=out)  # out > 0 exactly where the pre-activation is
    return _node(out, (affine, lambda g: g * (out > 0.0)))


# elementwise ----------------------------------------------------------


def relu(x):
    xv = _val(x)
    return _node(np.maximum(xv, 0.0), (x, lambda g: g * (xv > 0.0)))


def sqrt(x):
    out = np.sqrt(_val(x))
    return _node(out, (x, lambda g: g * 0.5 / out))


def clip(x, lo, hi):
    """Clamp to [lo, hi]; gradient passes only strictly inside."""
    xv = _val(x)
    return _node(np.clip(xv, lo, hi), (x, lambda g: g * ((xv > lo) & (xv < hi))))


def signed_guard(x, eps):
    """x + eps*sign(x), with sign(0) = +1; derivative treated as 1."""
    xv = _val(x)
    return _node(xv + np.where(xv >= 0.0, eps, -eps), (x, lambda g: g))


# reductions -----------------------------------------------------------


def _expand_reduced(g, shape, axis, keepdims):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum(x, axis=None, keepdims=False):  # noqa: A001 - module namespace op
    xv = _val(x)
    return _node(np.sum(xv, axis=axis, keepdims=keepdims),
                 (x, lambda g: _expand_reduced(g, xv.shape, axis, keepdims)))


def mean(x, axis=None, keepdims=False):
    xv = _val(x)
    out = np.mean(xv, axis=axis, keepdims=keepdims)
    count = xv.size // max(np.size(out), 1)  # elements averaged into each output
    return _node(out, (x, lambda g: _expand_reduced(g / count, xv.shape, axis, keepdims)))


# shape ops ------------------------------------------------------------


def reshape(x, shape):
    xv = _val(x)
    return _node(xv.reshape(shape), (x, lambda g: g.reshape(xv.shape)))


def transpose(x, axes=None):
    return _node(np.transpose(_val(x), axes),
                 (x, lambda g: np.transpose(g, None if axes is None else np.argsort(axes))))


def concat(xs, axis):
    vals = [_val(x) for x in xs]
    offsets = list(itertools.accumulate((v.shape[axis] for v in vals), initial=0))

    def part(lo, hi):
        return lambda g: g[(slice(None),) * (axis % g.ndim) + (slice(lo, hi),)]

    return _node(np.concatenate(vals, axis=axis),
                 *((x, part(lo, hi)) for x, lo, hi in zip(xs, offsets[:-1], offsets[1:])))


# sliding windows (valid convolution support) --------------------------


def unfold(x, size, stride):
    """Sliding windows over the spatial axes of a channels-last batch.

    ``size`` is the tuple ``(w,)`` for (P, L, C) -> (P, L1, w*C), or
    ``(k, k)`` for (N, H, W, C) -> (N, H1, W1, k*k*C): a read-only strided
    view of ``x`` where the window and channel axes merge without a copy.
    ``as_strided`` builds it; ``sliding_window_view``'s checks slow tiny arrays.
    An integer ``x`` keeps its dtype, so an id grid unfolds into window ids.
    """
    xv = np.asarray(value(x))
    (n, *dims, c), (s0, *steps, sc) = xv.shape, xv.strides
    if any(d < k for d, k in zip(dims, size)):
        raise DataError(f"spatial extent {'x'.join(map(str, dims))} smaller than kernel "
                        f"{'x'.join(map(str, size))}")
    outs = tuple((d - k) // stride + 1 for d, k in zip(dims, size))
    windows = as_strided(xv, (n, *outs, *size, c), (s0, *(stride * s for s in steps), *steps, sc),
                         writeable=False)

    def vjp(g):
        gw = g.reshape(windows.shape)
        gx = np.zeros_like(xv)
        for off in itertools.product(*map(range, size)):
            src = tuple(slice(o, o + stride * m, stride) for o, m in zip(off, outs))
            gx[(slice(None), *src)] += gw[(..., *off, slice(None))]
        return gx

    return _node(windows.reshape(n, *outs, math.prod(size) * c), (x, vjp))


def conv(x, weights, stride, bias=None, relu=False):
    """Valid cross-correlation of a channels-last batch.

    (N, *dims, C) input and (J, *size, C) weights give (N, *outs, J): one
    ``matmul`` of ``unfold``'s windows with the weights as a (prod(size) * C, J)
    matrix, which also adds a (J,) ``bias`` and applies a relu when asked.
    One spatial axis is a 1-D conv, two a 2-D conv.
    """
    C = shape_of(x)[-1]
    J, *size, Cw = shape_of(weights)
    if Cw != C:
        raise DataError(f"conv channel mismatch: input {C}, weights {Cw}")
    return matmul(unfold(x, tuple(size), stride), transpose(reshape(weights, (J, -1))),
                  bias, relu)


def window_sum(y, windows):
    """``sum_t y[windows[..., t], t]``: (U, T, J) rows and (..., T) integer
    row ids give (..., J).

    Each output adds up one tap product per tap t, picked from its row by id,
    so no window of ``y`` is copied beyond the (..., T, J) picks. The VJP
    scatters the gradient back with one ``np.bincount`` over (row, tap,
    channel) ids: entries that no id picks get zero.
    """
    yv = _val(y)
    U, T, J = yv.shape
    picks = windows * T + np.arange(T)  # rows of yv as (U * T, J)

    def vjp(g):
        ids = (picks[..., None] * J + np.arange(J)).reshape(-1)
        weights = np.broadcast_to(np.expand_dims(g, -2), picks.shape + (J,)).reshape(-1)
        return np.bincount(ids, weights, minlength=yv.size).reshape(yv.shape)

    return _node(yv.reshape(U * T, J)[picks].sum(axis=-2), (y, vjp))


# softmax and norms ----------------------------------------------------


def softmax(x, axis=-1):
    xv = _val(x)
    shifted = xv - np.max(xv, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)
    return _node(out, (x, lambda g: out * (g - np.sum(g * out, axis=axis, keepdims=True))))


def norm(x, axis=-1, keepdims=False):
    """Euclidean norm along ``axis`` (guarded so grads stay finite)."""
    s = sum(mul(x, x), axis=axis, keepdims=keepdims)
    return sqrt(add(s, NORM_EPS))


# backward pass --------------------------------------------------------


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._inputs is None:
            raise ValueError("backward already walked and released this graph")
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._inputs:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``.grad`` of every leaf tensor reachable from ``loss``.

    Grads from any previous backward pass over the same leaves are reset.
    The walk releases the tape as it goes: once an interior node's VJPs
    have run, its ``.grad`` and its inputs are dropped (``_inputs`` becomes
    None), so only leaves keep ``.grad``. Walking the same graph again, or
    passing a released node to an op, raises ValueError.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()
        if not node._inputs:
            continue
        for x, vjp in node._inputs:
            g = vjp(node.grad)
            x.grad = g if x.grad is None else x.grad + g
        node.grad, node._inputs = None, None

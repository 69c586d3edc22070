"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray, so a scalar loss can be
backpropagated to every parameter with ``backward(loss)``. A leaf
Tensor may wrap a view of a larger array (the model's parameters view
one flat vector), since ``Tensor`` does not copy float64 input.

Every op follows one rule: it computes its forward value with numpy and
passes it to ``_node`` with one ``(input, vjp)`` pair per input, where
``vjp`` maps the gradient of the output to the gradient of that input
(a vector-Jacobian product). When no input is tracked, ``_node`` returns
the plain ndarray, so numeric model code can be written once and serve
both the training graph and plain (inference / inspection) evaluation.
Otherwise it returns a Tensor that keeps the tracked pairs, and
``backward`` walks them in reverse topological order, adding each VJP
into its input's ``.grad``. An input passed twice receives both VJPs.

Hinge-style kinks (relu, clip) use the zero-side subgradient.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

# Guard added under square roots of sums of squares; small enough to be
# absorbed by float64 rounding for any norm above ~1e-18.
NORM_EPS = 1e-40


class Tensor:
    """Node of the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_inputs")

    # Keep numpy from interpreting Tensor operands elementwise.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._inputs = ()  # tracked (input, vjp) pairs

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data):
    """Create a leaf tensor that accumulates gradients."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def glorot_uniform(rng, shape, fan_in, fan_out):
    """Seeded uniform init over +/- sqrt(6/(fan_in+fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def value(x):
    """Underlying ndarray of a tensor, or ``x`` itself."""
    return x.data if isinstance(x, Tensor) else x


def _tracked(x):
    return isinstance(x, Tensor) and (x.requires_grad or x._inputs)


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


def matmul(a, b):
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    return _node(av @ bv, (a, lambda g: g @ bv.T), (b, lambda g: av.T @ g))


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
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            g = np.expand_dims(g, a)
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


def expand_dims(x, axis):
    xv = _val(x)
    return _node(np.expand_dims(xv, axis), (x, lambda g: g.reshape(xv.shape)))


def concat(xs, axis):
    vals = [_val(x) for x in xs]
    offsets = list(itertools.accumulate((v.shape[axis] for v in vals), initial=0))

    def part(lo, hi):
        return lambda g: g[(slice(None),) * (axis % g.ndim) + (slice(lo, hi),)]

    return _node(np.concatenate(vals, axis=axis),
                 *((x, part(lo, hi)) for x, lo, hi in zip(xs, offsets[:-1], offsets[1:])))


# sliding windows (valid convolution support) --------------------------


@lru_cache(maxsize=128)
def _window_picks(shape, size, stride):
    """Window and output shapes of ``unfold``, and per window offset, in
    row-major order, the (window index, source slice of x) pair it copies."""
    n, *dims, c = shape
    outs = [(d - k) // stride + 1 for d, k in zip(dims, size)]
    spans = [[slice(o, o + stride * m, stride) for o in range(k)] for k, m in zip(size, outs)]
    picks = tuple(((..., *off, slice(None)), (slice(None), *src))
                  for off, src in zip(itertools.product(*map(range, size)),
                                      itertools.product(*spans)))
    return (n, *outs, *size, c), (n, *outs, math.prod(size) * c), picks


def unfold(x, size, stride):
    """Sliding windows over the spatial axes of a channels-last batch.

    ``size`` is the tuple ``(w,)`` for (P, L, C) -> (P, L1, w*C), or
    ``(k, k)`` for (N, H, W, C) -> (N, H1, W1, k*k*C). Windows are copied
    one offset at a time, and the backward scatter-adds in the same order.
    """
    xv = _val(x)
    win_shape, out_shape, picks = _window_picks(xv.shape, size, stride)
    windows = np.empty(win_shape, dtype=np.float64)
    for at, src in picks:
        windows[at] = xv[src]

    def vjp(g):
        gw = g.reshape(win_shape)
        gx = np.zeros_like(xv)
        for at, src in picks:
            gx[src] += gw[at]
        return gx

    return _node(windows.reshape(out_shape), (x, vjp))


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
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._inputs:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``.grad`` of every tracked tensor reachable from ``loss``.

    Grads from any previous backward pass over the same nodes are reset.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    order = _toposort(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        for x, vjp in node._inputs:
            g = vjp(node.grad)
            x.grad = g if x.grad is None else x.grad + g

"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ndarray and records the operation that
produced it, so a scalar loss can be backpropagated to every parameter
with ``backward(loss)``.

Every op in this module also accepts plain numpy inputs: when no tracked
tensor is involved the op evaluates eagerly and returns an ndarray.
Numeric model code can therefore be written once and serve both the
training graph and plain (inference / inspection) evaluation.

Hinge-style kinks (relu, clip) use the zero-side subgradient.
"""

import numpy as np

# Guard added under square roots of sums of squares; small enough to be
# absorbed by float64 rounding for any norm above ~1e-18.
NORM_EPS = 1e-40


class Tensor:
    """Node of the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # Keep numpy from interpreting Tensor operands elementwise.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __matmul__(self, other):
        return matmul(self, other)


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
    return isinstance(x, Tensor) and (x.requires_grad or x._parents)


def _val(x):
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _accum(node, g):
    node.grad = g if node.grad is None else node.grad + g


def _make(data, parents, backward):
    """Internal node; ``parents`` must all be tracked tensors."""
    t = Tensor(data)
    t._parents = parents
    t._backward = backward
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
    out = av + bv
    if not (_tracked(a) or _tracked(b)):
        return out

    def bw(g):
        if _tracked(a):
            _accum(a, _unbroadcast(g, av.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(g, bv.shape))

    return _make(out, tuple(x for x in (a, b) if _tracked(x)), bw)


def sub(a, b):
    av, bv = _val(a), _val(b)
    out = av - bv
    if not (_tracked(a) or _tracked(b)):
        return out

    def bw(g):
        if _tracked(a):
            _accum(a, _unbroadcast(g, av.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(-g, bv.shape))

    return _make(out, tuple(x for x in (a, b) if _tracked(x)), bw)


def mul(a, b):
    av, bv = _val(a), _val(b)
    out = av * bv
    if not (_tracked(a) or _tracked(b)):
        return out

    def bw(g):
        if _tracked(a):
            _accum(a, _unbroadcast(g * bv, av.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(g * av, bv.shape))

    return _make(out, tuple(x for x in (a, b) if _tracked(x)), bw)


def div(a, b):
    av, bv = _val(a), _val(b)
    out = av / bv
    if not (_tracked(a) or _tracked(b)):
        return out

    def bw(g):
        if _tracked(a):
            _accum(a, _unbroadcast(g / bv, av.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(-g * av / (bv * bv), bv.shape))

    return _make(out, tuple(x for x in (a, b) if _tracked(x)), bw)


def matmul(a, b):
    av, bv = _val(a), _val(b)
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul supports 2-D operands only")
    out = av @ bv
    if not (_tracked(a) or _tracked(b)):
        return out

    def bw(g):
        if _tracked(a):
            _accum(a, g @ bv.T)
        if _tracked(b):
            _accum(b, av.T @ g)

    return _make(out, tuple(x for x in (a, b) if _tracked(x)), bw)


# elementwise ----------------------------------------------------------


def relu(x):
    xv = _val(x)
    out = np.maximum(xv, 0.0)
    if not _tracked(x):
        return out
    mask = xv > 0.0

    def bw(g):
        _accum(x, g * mask)

    return _make(out, (x,), bw)


def exp(x):
    xv = _val(x)
    out = np.exp(xv)
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, g * out)

    return _make(out, (x,), bw)


def log(x):
    xv = _val(x)
    out = np.log(xv)
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, g / xv)

    return _make(out, (x,), bw)


def sqrt(x):
    xv = _val(x)
    out = np.sqrt(xv)
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, g * 0.5 / out)

    return _make(out, (x,), bw)


def power(x, p):
    xv = _val(x)
    out = xv**p
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, g * p * xv ** (p - 1))

    return _make(out, (x,), bw)


def clip(x, lo, hi):
    """Clamp to [lo, hi]; gradient passes only strictly inside."""
    xv = _val(x)
    out = np.clip(xv, lo, hi)
    if not _tracked(x):
        return out
    mask = (xv > lo) & (xv < hi)

    def bw(g):
        _accum(x, g * mask)

    return _make(out, (x,), bw)


def signed_guard(x, eps):
    """x + eps*sign(x), with sign(0) = +1; derivative treated as 1."""
    xv = _val(x)
    out = xv + np.where(xv >= 0.0, eps, -eps)
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, g)

    return _make(out, (x,), bw)


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
    out = np.sum(xv, axis=axis, keepdims=keepdims)
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, _expand_reduced(g, xv.shape, axis, keepdims))

    return _make(out, (x,), bw)


def mean(x, axis=None, keepdims=False):
    xv = _val(x)
    out = np.mean(xv, axis=axis, keepdims=keepdims)
    if not _tracked(x):
        return out
    count = xv.size if axis is None else np.prod(
        [xv.shape[a % xv.ndim] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def bw(g):
        _accum(x, _expand_reduced(g / count, xv.shape, axis, keepdims))

    return _make(out, (x,), bw)


# shape ops ------------------------------------------------------------


def reshape(x, shape):
    xv = _val(x)
    out = xv.reshape(shape)
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, g.reshape(xv.shape))

    return _make(out, (x,), bw)


def transpose(x, axes=None):
    xv = _val(x)
    out = np.transpose(xv, axes)
    if not _tracked(x):
        return out
    inv = None if axes is None else np.argsort(axes)

    def bw(g):
        _accum(x, np.transpose(g, inv))

    return _make(out, (x,), bw)


def expand_dims(x, axis):
    xv = _val(x)
    out = np.expand_dims(xv, axis)
    if not _tracked(x):
        return out

    def bw(g):
        _accum(x, g.reshape(xv.shape))

    return _make(out, (x,), bw)


def concat(xs, axis):
    vals = [_val(x) for x in xs]
    out = np.concatenate(vals, axis=axis)
    if not any(_tracked(x) for x in xs):
        return out
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:]):
            if _tracked(x):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accum(x, g[tuple(idx)])

    return _make(out, tuple(x for x in xs if _tracked(x)), bw)


# sliding windows (valid convolution support) --------------------------


def unfold1d(x, width, stride=1):
    """(P, L, C) -> (P, L1, width*C) sliding windows along L."""
    xv = _val(x)
    P, L, C = xv.shape
    L1 = (L - width) // stride + 1
    windows = np.empty((P, L1, width, C), dtype=np.float64)
    for t in range(width):
        windows[:, :, t, :] = xv[:, t : t + stride * L1 : stride, :]
    out = windows.reshape(P, L1, width * C)
    if not _tracked(x):
        return out

    def bw(g):
        gw = g.reshape(P, L1, width, C)
        gx = np.zeros_like(xv)
        for t in range(width):
            gx[:, t : t + stride * L1 : stride, :] += gw[:, :, t, :]
        _accum(x, gx)

    return _make(out, (x,), bw)


def unfold2d(x, k, stride=1):
    """(N, H, W, C) -> (N, H1, W1, k*k*C) sliding windows over H, W."""
    xv = _val(x)
    N, H, W, C = xv.shape
    H1 = (H - k) // stride + 1
    W1 = (W - k) // stride + 1
    windows = np.empty((N, H1, W1, k, k, C), dtype=np.float64)
    for i in range(k):
        for j in range(k):
            windows[:, :, :, i, j, :] = xv[
                :, i : i + stride * H1 : stride, j : j + stride * W1 : stride, :
            ]
    out = windows.reshape(N, H1, W1, k * k * C)
    if not _tracked(x):
        return out

    def bw(g):
        gw = g.reshape(N, H1, W1, k, k, C)
        gx = np.zeros_like(xv)
        for i in range(k):
            for j in range(k):
                gx[:, i : i + stride * H1 : stride, j : j + stride * W1 : stride, :] += gw[
                    :, :, :, i, j, :
                ]
        _accum(x, gx)

    return _make(out, (x,), bw)


# softmax and norms ----------------------------------------------------


def softmax(x, axis=-1):
    xv = _val(x)
    shifted = xv - np.max(xv, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)
    if not _tracked(x):
        return out

    def bw(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        _accum(x, out * (g - inner))

    return _make(out, (x,), bw)


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
        for p in node._parents:
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
        if node._backward is not None:
            node._backward(node.grad)

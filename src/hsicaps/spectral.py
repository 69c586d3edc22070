"""Per-slice spectral feature extraction and index-based enhancement.

Each non-empty band slice feeds a small stack (two 1-D convolutions or a
dense fallback for narrow slices, then two fully connected layers) that
emits ``n_class`` values per pixel. The concatenated base features are
expanded with two fixed algebraic transforms patterned on two- and
three-band reflectance indices:

* binary index: normalized difference of every unordered feature pair,
* triangular index: signed triangle area spanned by every feature triple
  over the (position, value) plane.

The head of the i-th non-empty slice reads its weights from the model's
parameter registry under ``spectral.<i>.*``. All forward routines run on
plain arrays or on autodiff tensors.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import DataError

# Below this band count a slice uses the dense fallback instead of the
# two-convolution stack (valid convolution would leave no room).
MIN_CONV_BANDS = 8


# combination bookkeeping ----------------------------------------------


@lru_cache(maxsize=128)
def pair_indices(n: int) -> np.ndarray:
    """All i<j pairs over 0..n-1 in lexicographic order, shape (C(n,2), 2)."""
    return np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)


@lru_cache(maxsize=128)
def triple_indices(n: int) -> np.ndarray:
    """All i<j<h triples over 0..n-1 in lexicographic order, shape (C(n,3), 3)."""
    return np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)


def feature_count(m: int, n_class: int, cap: int = None) -> int:
    """Total enhanced feature count for m slices and n_class classes."""
    base = m * n_class
    if base < 3:
        raise DataError(f"too few base features ({base}); need at least 3")
    tri = math.comb(base, 3)
    if cap is not None:
        tri = min(tri, cap)
    return base + math.comb(base, 2) + tri


# forward routines -----------------------------------------------------


def conv1d_batch(x, weights, bias, stride):
    """Batched multichannel valid conv: (P, L, C) -> (P, L1, filters)."""
    P, L, C = ad.shape_of(x)
    J, Cw, rm = ad.value(weights).shape
    if Cw != C:
        raise DataError(f"conv1d channel mismatch: input {C}, weights {Cw}")
    if L < rm:
        raise DataError(f"signal length {L} shorter than receptive field {rm}")
    cols = ad.unfold1d(x, rm, stride)  # (P, L1, rm*C)
    L1 = ad.shape_of(cols)[1]
    wmat = ad.reshape(ad.transpose(weights, (2, 1, 0)), (rm * C, J))
    flat = ad.matmul(ad.reshape(cols, (-1, rm * C)), wmat)
    return ad.reshape(ad.add(flat, bias), (P, L1, J))


def dense_forward(x, weights, biases, relu=True):
    """Affine layer over the last axis: weights (out, in), biases (out,)."""
    shape = ad.shape_of(x)
    flat = ad.reshape(x, (-1, shape[-1]))
    y = ad.add(ad.matmul(flat, ad.transpose(weights)), biases)
    y = ad.reshape(y, tuple(shape[:-1]) + (ad.value(biases).size,))
    return ad.relu(y) if relu else y


def _slice_features(pixels, p, prefix, stride):
    """Per-slice feature head: (P, L_slice) -> (P, n_class).

    Two relu 1-D convolutions, or the dense fallback when the registry
    holds ``<prefix>.dense``, then fc1 (relu) and fc2 (identity).
    """
    P, L = ad.shape_of(pixels)
    if f"{prefix}.dense.w" in p:
        h = dense_forward(pixels, p[f"{prefix}.dense.w"], p[f"{prefix}.dense.b"])
    else:
        h = ad.reshape(pixels, (P, L, 1))
        for conv in ("conv1", "conv2"):
            h = ad.relu(conv1d_batch(h, p[f"{prefix}.{conv}.w"], p[f"{prefix}.{conv}.b"],
                                      stride))
        sh = ad.shape_of(h)
        h = ad.reshape(h, (P, sh[1] * sh[2]))
    h = dense_forward(h, p[f"{prefix}.fc1.w"], p[f"{prefix}.fc1.b"])
    return dense_forward(h, p[f"{prefix}.fc2.w"], p[f"{prefix}.fc2.b"], relu=False)


def base_features(pixels, model):
    """Concatenated per-slice features: (P, B) -> (P, n_slices * n_class).

    ``model`` supplies the registry, the segmented slices and the stage-1
    stride; only its ``spectral.*`` parameters are read.
    """
    parts = []
    for i, (_, bands) in enumerate(model.slices.non_empty()):
        sliced = ad.take(pixels, np.asarray(bands, dtype=np.intp), axis=1)
        parts.append(_slice_features(sliced, model.params, f"spectral.{i}",
                                     model.config.stage1.stride))
    return ad.concat(parts, axis=1)


def binary_index(x1, epsilon: float = 1e-8):
    """Normalized difference of every unordered feature pair.

    Works on any (..., F) array; pairs are enumerated lexicographically
    and the denominator carries a sign-preserving epsilon guard. Results
    are clamped to [-1, 1].
    """
    F = ad.shape_of(x1)[-1]
    if F < 2:
        raise DataError("binary index needs at least 2 features")
    pairs = pair_indices(F)
    last = len(ad.shape_of(x1)) - 1
    xi = ad.take(x1, pairs[:, 0], axis=last)
    xj = ad.take(x1, pairs[:, 1], axis=last)
    den = ad.signed_guard(ad.add(xi, xj), epsilon)
    return ad.clip(ad.div(ad.sub(xi, xj), den), -1.0, 1.0)


def triangular_index(x1, combos=None):
    """Signed triangle area for feature triples over (position, value).

    ``combos`` restricts evaluation to a fitted (S, 3) subset; by default
    every i<j<h triple is produced in lexicographic order. Positions are
    1-based feature indices.
    """
    F = ad.shape_of(x1)[-1]
    if F < 3:
        raise DataError("triangular index needs at least 3 features")
    if combos is None:
        combos = triple_indices(F)
    combos = np.asarray(combos, dtype=np.intp)
    last = len(ad.shape_of(x1)) - 1
    xi = ad.take(x1, combos[:, 0], axis=last)
    xj = ad.take(x1, combos[:, 1], axis=last)
    xh = ad.take(x1, combos[:, 2], axis=last)
    # 1-based positions; |j-h| = h-j and |i-h| = h-i since i < j < h.
    c_jh = (combos[:, 2] - combos[:, 1]).astype(np.float64)
    c_ih = (combos[:, 2] - combos[:, 0]).astype(np.float64)
    area = ad.sub(ad.mul(c_jh, ad.sub(xi, xh)), ad.mul(c_ih, ad.sub(xj, xh)))
    return ad.mul(area, 0.5)


def fit_triangular_cap(x1_train: np.ndarray, cap: int) -> np.ndarray:
    """Select the ``cap`` highest-variance triples on training features.

    Ranking uses variance (descending) with lexicographic tie-breaks; the
    selected combinations are returned in lexicographic order so feature
    identity stays stable.
    """
    F = x1_train.shape[-1]
    combos = triple_indices(F)
    if cap >= combos.shape[0]:
        return combos
    values = np.asarray(triangular_index(x1_train, combos))
    variances = values.var(axis=0)
    ranked = np.lexsort((combos[:, 2], combos[:, 1], combos[:, 0], -variances))
    selected = np.sort(ranked[:cap])
    return combos[selected]


def enhanced_features(x1, epsilon: float = 1e-8, tri_combos=None, enabled: bool = True):
    """(P, base) -> (P, F_N): base features, binary index, triangular index.

    ``tri_combos`` restricts the triples to a fitted subset; with
    ``enabled`` false the base features pass through unchanged.
    """
    if not enabled:
        return x1
    x2 = binary_index(x1, epsilon)
    x3 = triangular_index(x1, tri_combos)
    return ad.concat([x1, x2, x3], axis=1)


def feature_names(base: int, tri_combos=None, enabled: bool = True) -> list:
    """Stable column names of ``enhanced_features`` for exports (1-based)."""
    names = [f"b1_{i + 1}" for i in range(base)]
    if enabled:
        names += [f"bin_{i + 1}_{j + 1}" for i, j in pair_indices(base)]
        combos = tri_combos if tri_combos is not None else triple_indices(base)
        names += [f"tri_{i + 1}_{j + 1}_{h + 1}" for i, j, h in combos]
    return names

"""Per-slice spectral feature extraction and index-based enhancement.

Each non-empty band slice feeds a small stack (two 1-D convolutions,
``ad.conv``, or a dense fallback for narrow slices, then two fully
connected layers) that emits ``n_class`` values per pixel. The
concatenated base features are expanded with two fixed algebraic
transforms patterned on two- and three-band reflectance indices:

* binary index: normalized difference of every unordered feature pair,
* triangular index: signed triangle area spanned by every feature triple
  over the (position, value) plane.

The binary index is ``(x1 @ D) / (x1 @ S)`` and the triangular index
``x1 @ T``, for fixed matrices, each one ``ad.matmul`` over the last
axis. T vanishes exactly on affine (collinear) sequences, so it has rank
b - 2 for b base features: all C(b,3) triangle features, and any capped
subset, span at most b - 2 directions (19 at b = 21).

The head of the i-th non-empty slice reads its weights from the model's
parameter registry under ``spectral.<i>.*``. ``pixel_features`` is the one
composition of heads and enhancement that every forward pass uses; it returns
the stage-2 conv input [x1, x2] of b + C(b,2) channels. Since x3 = x1 @ T
is linear and so is the conv before its relu, ``conv_kernel`` folds the
triangular part of ``caps.conv.w`` into its base part, and no forward
pass builds x3. The cap fit ranks triples by variances taken from x1's
covariance, so only ``interpret``'s export, through ``enhanced_features``,
builds x3. All forward routines run on plain arrays or on autodiff tensors.
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
def pair_matrices(n: int):
    """(D, S), each (n, C(n,2)): ``x @ D`` is x_i - x_j and ``x @ S`` is
    x_i + x_j for every lexicographic pair; read-only, as they are cached."""
    (i, j), cols = pair_indices(n).T, np.arange(math.comb(n, 2))
    d = np.zeros((n, cols.size))
    d[i, cols], d[j, cols] = 1.0, -1.0
    s = np.abs(d)
    d.flags.writeable = s.flags.writeable = False
    return d, s


@lru_cache(maxsize=128)
def triple_indices(n: int) -> np.ndarray:
    """All i<j<h triples over 0..n-1 in lexicographic order, shape (C(n,3), 3)."""
    return np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)


def feature_count(m: int, n_class: int, cap: int = None) -> int:
    """Total enhanced feature count for m slices and n_class classes."""
    base = m * n_class
    if base < 3:
        raise DataError(f"too few base features ({base}) for enhancement; need at least 3: "
                        "use more slices or classes, or disable enhancement")
    tri = math.comb(base, 3)
    if cap is not None:
        tri = min(tri, cap)
    return base + math.comb(base, 2) + tri


# forward routines -----------------------------------------------------


def dense_forward(x, weights, biases, relu=True):
    """Affine layer over the last axis: weights (out, in), biases (out,)."""
    return ad.matmul(x, ad.transpose(weights), biases, relu)


def _slice_features(pixels, p, prefix, stride):
    """Per-slice feature head: (P, L_slice) -> (P, n_class).

    Two relu 1-D convolutions, or the dense fallback when the registry
    holds ``<prefix>.dense``, then fc1 (relu) and fc2 (identity). The conv
    weights are registered (filters, channels, width) and run channels-last.
    """
    P, L = ad.shape_of(pixels)
    if f"{prefix}.dense.w" in p:
        h = dense_forward(pixels, p[f"{prefix}.dense.w"], p[f"{prefix}.dense.b"])
    else:
        h = ad.reshape(pixels, (P, L, 1))
        for conv in ("conv1", "conv2"):
            w = ad.transpose(p[f"{prefix}.{conv}.w"], (0, 2, 1))
            h = ad.conv(h, w, stride, p[f"{prefix}.{conv}.b"], relu=True)
        sh = ad.shape_of(h)
        h = ad.reshape(h, (P, sh[1] * sh[2]))
    h = dense_forward(h, p[f"{prefix}.fc1.w"], p[f"{prefix}.fc1.b"])
    return dense_forward(h, p[f"{prefix}.fc2.w"], p[f"{prefix}.fc2.b"], relu=False)


def base_features(pixels, model):
    """Concatenated per-slice features: (P, B) spectra -> (P, n_slices * n_class).

    ``pixels`` may hold any float dtype (a normalized cube is float32);
    they are converted to float64 here. ``model`` supplies the registry,
    the band slices and the stage-1 stride; only its ``spectral.*``
    parameters are read.
    """
    pixels, parts = np.asarray(pixels, dtype=np.float64), []
    for i, bands in enumerate(model.slices.band_indices):
        sliced = pixels[:, np.asarray(bands, dtype=np.intp)]
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
    diff, total = pair_matrices(F)
    den = ad.signed_guard(ad.matmul(x1, total), epsilon)
    return ad.clip(ad.div(ad.matmul(x1, diff), den), -1.0, 1.0)


def triangular_matrix(F: int, combos=None) -> np.ndarray:
    """(F, S) map T with ``x1 @ T`` the signed triangle area of each triple.

    ``combos`` restricts T to a fitted (S, 3) subset; by default every
    i<j<h triple is a column, in lexicographic order. Positions are
    1-based feature indices.
    """
    if F < 3:
        raise DataError("triangular index needs at least 3 features")
    if combos is None:
        combos = triple_indices(F)
    (i, j, h), (a, b, c) = _triangle_terms(combos)
    cols = np.arange(i.size)
    tri = np.zeros((F, i.size))
    tri[i, cols], tri[j, cols], tri[h, cols] = a, b, c
    return tri


def _triangle_terms(combos):
    """Feature ids (i, j, h) of each (S, 3) triple and the coefficients
    (a, b, c) of its area ((h-j)(x_i-x_h) - (h-i)(x_j-x_h)) / 2, expanded
    per feature to a x_i + b x_j + c x_h."""
    i, j, h = np.asarray(combos, dtype=np.intp).T
    return (i, j, h), (0.5 * (h - j), -0.5 * (h - i), 0.5 * (j - i))


def triangular_index(x1, combos=None):
    """Signed triangle area for feature triples over (position, value):
    ``x1 @ triangular_matrix(F, combos)`` over the last axis."""
    return ad.matmul(x1, triangular_matrix(ad.shape_of(x1)[-1], combos))


def triangular_variances(x1: np.ndarray, combos) -> np.ndarray:
    """Variance over the rows of (n, F) ``x1`` of each triple's triangle area.

    The area is a x_i + b x_j + c x_h, so its variance is a quadratic form
    in x1's (F, F) covariance Σ: a²Σii + b²Σjj + c²Σhh + 2(abΣij + acΣih +
    bcΣjh). No (n, S) area matrix is built.
    """
    centred = x1 - x1.mean(axis=0)
    cov = centred.T @ centred / x1.shape[0]
    (i, j, h), (a, b, c) = _triangle_terms(combos)
    return (a * a * cov[i, i] + b * b * cov[j, j] + c * c * cov[h, h]
            + 2.0 * (a * b * cov[i, j] + a * c * cov[i, h] + b * c * cov[j, h]))


def fit_triangular_cap(x1_train: np.ndarray, cap: int) -> np.ndarray:
    """Select the ``cap`` highest-variance triples on training features.

    Ranking uses variance (descending, ``triangular_variances``) with
    lexicographic tie-breaks; the selected combinations are returned in
    lexicographic order so feature identity stays stable.
    """
    F = x1_train.shape[-1]
    combos = triple_indices(F)
    variances = triangular_variances(x1_train, combos)
    ranked = np.lexsort((combos[:, 2], combos[:, 1], combos[:, 0], -variances))
    selected = np.sort(ranked[:cap])
    return combos[selected]


def enhanced_features(x1, epsilon: float = 1e-8, tri_combos=None, enabled: bool = True):
    """(P, base) -> (P, F_N): base features, binary index, triangular index.

    The full feature vector that ``caps.conv.w`` and ``feature_names`` are
    laid out over. ``tri_combos`` restricts the triples to a fitted subset;
    with ``enabled`` false the base features pass through unchanged.
    """
    if not enabled:
        return x1
    x2 = binary_index(x1, epsilon)
    x3 = triangular_index(x1, tri_combos)
    return ad.concat([x1, x2, x3], axis=1)


def pixel_features(pixels, model):
    """(P, B) spectra -> (P, b + C(b,2)) stage-2 conv input of ``model``:
    the base features and their binary index, or the base features alone
    with enhancement off.

    The one composition of the slice heads and the index enhancement,
    under the model's epsilon and enhancement flag. The triangular index
    is not built: ``conv_kernel`` folds it into the stage-2 kernel.
    """
    cfg = model.config
    x1 = base_features(pixels, model)
    if not cfg.training.enhancement_on:
        return x1
    return ad.concat([x1, binary_index(x1, cfg.stage1.epsilon)], axis=1)


def conv_kernel(model):
    """Stage-2 conv kernel (J, k, k, b + C(b,2)) over ``pixel_features``.

    ``caps.conv.w`` is laid out over [x1, x2, x3] with x3 = x1 @ T. The
    conv is linear before its relu, so its base, binary and triangular
    parts fold into [W_base + W_tri @ T^T, W_bin], which gives the same
    conv over [x1, x2]. With enhancement off the kernel is ``caps.conv.w``.
    """
    w = model.params["caps.conv.w"]
    if not model.config.training.enhancement_on:
        return w
    b = len(model.slices.slices) * model.n_class
    n, tri, wv = b + math.comb(b, 2), triangular_matrix(b, model.tri_combos), ad.value(w)
    kernel = np.concatenate([wv[..., :b] + ad.matmul(wv[..., n:], tri.T), wv[..., b:n]], -1)

    def vjp(g):  # one array [g_base, g_bin, g_base @ T]
        return np.concatenate([g, ad.matmul(g[..., :b], tri)], axis=-1)

    return ad._node(kernel, (w, vjp))


def feature_names(base: int, tri_combos=None, enabled: bool = True) -> list:
    """Stable column names of ``enhanced_features`` for exports (1-based)."""
    names = [f"b1_{i + 1}" for i in range(base)]
    if enabled:
        names += [f"bin_{i + 1}_{j + 1}" for i, j in pair_indices(base)]
        combos = tri_combos if tri_combos is not None else triple_indices(base)
        names += [f"tri_{i + 1}_{j + 1}_{h + 1}" for i, j, h in combos]
    return names

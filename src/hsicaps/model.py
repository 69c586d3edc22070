"""Full network assembly: the parameter registry and the batched forward.

All parameters live in one ordered ``dict[name, array | Tensor]``. Its
insertion order, written down once in ``param_spec``, is both the rng
draw order at init and the checkpoint order. The forward pass maps a
batch of patches to class-capsule activities: per-pixel stage-1 features
(``spectral.pixel_features``) -> spatial convolution -> the capsule
block (``_capsules``: primary capsules -> routed class capsules). The
spatial convolution runs on the base features and their binary index
with ``spectral.conv_kernel``, the registry's ``caps.conv.w`` with its
triangular-index part folded in. With tracked parameters the same code
builds the training graph; with detached parameters it runs as plain
numpy. Inference runs the pixel features and the spatial convolution
fully convolutionally over row tiles of a whole scene (``scene_forward``),
so each pixel's spectrum is processed once, and then feeds every centre's
conv window through the same capsule block.
"""

import copy
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from . import capsule, data, spectral
from .errors import DataError, NumericError

# Centre rows per tile of ``scene_forward``. Its peak memory follows the
# tile: the stage-2 unfold holds about (tile + patch) * (width + patch)
# * conv_kernel^2 * (b + C(b,2)) doubles, the folded conv's input width.
SCENE_TILE_ROWS = 8
# Patches per ``forward`` call in predict_lengths, and centres per
# ``_capsules`` call in scene_forward.
TAIL_BATCH = 64


def param_spec(slices, n_class: int, config, tri_cap: int = None) -> list:
    """Ordered (name, shape, fan_in, fan_out) of every parameter.

    ``slices`` must already be segmented; slices holding fewer bands than
    the two valid convolutions need get the dense fallback head.
    ``tri_cap`` is the number of kept triangular features (None keeps
    every triple). Biases carry no fans.
    """
    s1, s2, tcfg = config.stage1, config.stage2, config.training
    spec = []

    def add(name, shape, fan_in, fan_out, bias=True):
        spec.append((f"{name}.w", shape, fan_in, fan_out))
        if bias:
            spec.append((f"{name}.b", shape[:1] if bias is True else bias, None, None))

    heads = slices.non_empty()
    for i, (_, bands) in enumerate(heads):
        pre, L = f"spectral.{i}", len(bands)
        if L < max(spectral.MIN_CONV_BANDS, s1.conv1_width + s1.conv2_width):
            add(f"{pre}.dense", (s1.small_slice_width, L), L, s1.small_slice_width)
            width = s1.small_slice_width
        else:
            add(f"{pre}.conv1", (s1.conv1_filters, 1, s1.conv1_width),
                s1.conv1_width, s1.conv1_filters)
            add(f"{pre}.conv2", (s1.conv2_filters, s1.conv1_filters, s1.conv2_width),
                s1.conv2_width * s1.conv1_filters, s1.conv2_filters)
            l1 = (L - s1.conv1_width) // s1.stride + 1
            width = ((l1 - s1.conv2_width) // s1.stride + 1) * s1.conv2_filters
        add(f"{pre}.fc1", (s1.fc1_width, width), width, s1.fc1_width)
        add(f"{pre}.fc2", (n_class, s1.fc1_width), s1.fc1_width, n_class)
    if not heads:
        raise DataError("no band overlaps slice specification")

    f_n = len(heads) * n_class
    if tcfg.enhancement_on:
        if f_n < 3:
            raise DataError(
                f"enhancement needs >= 3 base features, got {f_n}; "
                "use more slices or classes, or disable enhancement"
            )
        f_n = spectral.feature_count(len(heads), n_class, tri_cap)
    k1, k2 = s2.conv_kernel, s2.capsule_kernel
    h1 = (tcfg.patch_size - k1) // s2.conv_stride + 1
    if h1 < k2:
        raise DataError(f"patch size {tcfg.patch_size} too small for kernels {k1} then {k2}")
    h2 = (h1 - k2) // s2.capsule_stride + 1
    zk = s2.capsules * s2.capsule_dim
    d_class = s2.class_capsule_dim or s2.capsules
    add("caps.conv", (s2.conv_filters, k1, k1, f_n), k1 * k1 * f_n, s2.conv_filters)
    add("caps.primary", (zk, k2, k2, s2.conv_filters), k2 * k2 * s2.conv_filters, zk,
        bias=False)
    add("caps.class", (s2.capsules * h2 * h2, n_class, d_class, s2.capsule_dim),
        s2.capsule_dim, d_class, bias=(n_class, d_class))
    flat, hidden = n_class * d_class, tcfg.decoder_hidden
    add("decoder.fc1", (hidden, flat), flat, hidden)
    add("decoder.fc2", (n_class, hidden), hidden, n_class)
    return spec


def init_params(spec, rng) -> dict:
    """Tracked registry: Glorot-uniform ``.w`` drawn in spec order, zero ``.b``."""
    return {
        name: ad.parameter(np.zeros(shape) if fan_in is None
                           else ad.glorot_uniform(rng, shape, fan_in, fan_out))
        for name, shape, fan_in, fan_out in spec
    }


def check_finite(params) -> None:
    """Raise NumericError naming the first parameter holding a non-finite value."""
    for name, t in params.items():
        if not np.all(np.isfinite(ad.value(t))):
            raise NumericError(f"non-finite values in parameter {name}")


@dataclass
class Model:
    """The parameter registry plus what the forward pass reads besides it."""

    params: dict  # name -> array or Tensor, in param_spec order
    config: object  # RunConfig
    slices: object  # segmented BandSliceSet
    n_class: int
    tri_combos: object = None  # (S, 3) int array, or None for all triples

    @property
    def patch_size(self):
        return self.config.training.patch_size

    @property
    def f_n(self):
        """F_N, the registry's stage-2 channel count: b + C(b,2) + kept triples
        with enhancement on (the conv itself runs on the first two groups)."""
        return ad.value(self.params["caps.conv.w"]).shape[3]

    def detached(self):
        check_finite(self.params)
        params = {k: ad.value(v) for k, v in self.params.items()}
        return Model(params, self.config, self.slices, self.n_class, self.tri_combos)


def init_model(slices, n_class: int, run_cfg, rng, tri_cap: int = None) -> Model:
    """Build a seeded model for an already-segmented slice set.

    ``tri_cap`` sizes the registry for that many kept triples (None keeps
    every triple); the caller then sets the fitted ``tri_combos``.
    """
    params = init_params(param_spec(slices, n_class, run_cfg, tri_cap), rng)
    # forward reads strides, routing and enhancement from the config, so the
    # model owns a copy that later edits of the caller's config cannot reach
    return Model(params, copy.deepcopy(run_cfg), slices, n_class)


def forward(model: Model, patches: np.ndarray):
    """Batch forward pass.

    Args:
        model: tracked or detached model.
        patches: (N, s, s, B) reflectance windows.

    Returns:
        dict with poses (N, M, K), v (N, n_class, D) and lengths
        (N, n_class), the keys of ``scene_forward``; entries are tensors
        when the model parameters are tracked.
    """
    N, s1, s2, B = patches.shape
    if s1 != model.patch_size or s2 != model.patch_size:
        raise DataError(
            f"patch shape {s1}x{s2} does not match model patch size {model.patch_size}"
        )
    p, cfg = model.params, model.config
    feats = spectral.pixel_features(patches.reshape(N * s1 * s2, B), model)
    fmap = ad.reshape(feats, (N, s1, s2, ad.shape_of(feats)[-1]))
    o = capsule.conv2d_batch(fmap, spectral.conv_kernel(model), p["caps.conv.b"],
                             cfg.stage2.conv_stride, "relu")
    return _capsules(model, o)


def _capsules(model: Model, o) -> dict:
    """The capsule block of stage-2 conv maps o (N, h1, h1, J): squashed
    primary poses and their routed class capsules, the keys of ``forward``."""
    p, s2 = model.params, model.config.stage2
    poses = capsule.primary_capsules_batch(o, p["caps.primary.w"], s2.capsules,
                                           s2.capsule_stride)
    u_hat = capsule.predict_vectors(poses, p["caps.class.w"], p["caps.class.b"])
    v, _, _ = capsule.dynamic_routing(u_hat, s2.routing_iterations)
    return {"poses": poses, "v": v, "lengths": ad.norm(v, axis=-1)}


def scene_forward(model: Model, norm_cube, coords, tile_rows: int = SCENE_TILE_ROWS) -> dict:
    """Detached poses (N, M, K), v (N, n_class, D) and lengths (N, n_class)
    of the patches centred on ``coords`` of a normalized cube.

    The fully convolutional form of ``forward`` on every centre's patch.
    The cube is reflect-padded once, as ``data.extract_patch_batch`` does,
    so every patch is a window of the same array. Per tile of ``tile_rows``
    centre rows (plus a patch // 2 halo each side; tiles without a centre
    are skipped) the spectral head, enhancement and stride-1 stage-2 conv
    run once per pixel; the folded stage-2 kernel is built once per call.
    Each centre's h1 x h1 window of that map, at the conv stride, is the
    stage-2 output of its patch, and the windows go through ``forward``'s
    capsule block. Rows follow ``coords``, duplicates included.
    """
    mdl = model.detached()
    p, size, stride = mdl.params, mdl.patch_size, mdl.config.stage2.conv_stride
    width = size - mdl.config.stage2.conv_kernel + 1  # stride-1 conv positions per patch
    padded = data.reflect_pad(norm_cube, size)
    rc = data.centre_array(norm_cube, coords)
    M, n_class, D, K = p["caps.class.w"].shape
    out = {"poses": np.empty((len(rc), M, K)), "v": np.empty((len(rc), n_class, D)),
           "lengths": np.empty((len(rc), n_class))}
    kernel = spectral.conv_kernel(mdl)
    tile_of = rc[:, 0] // tile_rows
    for tile in np.unique(tile_of):
        ids = np.flatnonzero(tile_of == tile)
        r0 = tile * tile_rows
        rows = padded[r0 : r0 + tile_rows + size - 1]
        R, W, B = rows.shape
        feats = spectral.pixel_features(rows.reshape(R * W, B), mdl)
        o = capsule.conv2d_batch(feats.reshape(1, R, W, -1), kernel, p["caps.conv.b"], 1,
                                 "relu")[0]
        windows = sliding_window_view(o, (width, width), axis=(0, 1))[..., ::stride, ::stride]
        o_centres = windows[rc[ids, 0] - r0, rc[ids, 1]].transpose(0, 2, 3, 1)
        for lo in range(0, len(ids), TAIL_BATCH):
            for key, val in _capsules(mdl, o_centres[lo : lo + TAIL_BATCH]).items():
                out[key][ids[lo : lo + TAIL_BATCH]] = val
    return out


def predict_lengths(model: Model, patches: np.ndarray) -> np.ndarray:
    """Class-capsule lengths for many patches using a detached model."""
    detached = model.detached()
    chunks = []
    for lo in range(0, patches.shape[0], TAIL_BATCH):
        out = forward(detached, patches[lo : lo + TAIL_BATCH])
        chunks.append(np.asarray(out["lengths"]))
    return np.concatenate(chunks, axis=0)

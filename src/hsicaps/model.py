"""Full network assembly: the parameter registry and the batched forward.

All parameters live in one ordered ``dict[name, array | Tensor]``. Its
insertion order, written down once in ``param_spec``, is both the rng
draw order at init and the checkpoint order. The forward pass maps a
batch of patches to class-capsule activities: per-pixel slice features
-> index enhancement -> spatial convolution -> primary capsules ->
routed class capsules. With tracked parameters the same code builds the
training graph; with detached parameters it runs as plain numpy.
"""

import copy
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import capsule, spectral
from .errors import DataError, NumericError


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
        return ad.value(self.params["caps.conv.w"]).shape[3]

    def detached(self):
        check_finite(self.params)
        params = {k: ad.value(v) for k, v in self.params.items()}
        return Model(params, self.config, self.slices, self.n_class, self.tri_combos)


def init_model(slices, n_class: int, run_cfg, rng, tri_combos=None) -> Model:
    """Build a seeded model for an already-segmented slice set.

    ``tri_combos`` freezes a fitted triangular-feature subset; None keeps
    every triple.
    """
    cap = None if tri_combos is None else int(tri_combos.shape[0])
    params = init_params(param_spec(slices, n_class, run_cfg, cap), rng)
    # forward reads strides, routing and enhancement from the config, so the
    # model owns a copy that later edits of the caller's config cannot reach
    return Model(params, copy.deepcopy(run_cfg), slices, n_class, tri_combos)


def forward(model: Model, patches: np.ndarray):
    """Batch forward pass.

    Args:
        model: tracked or detached model.
        patches: (N, s, s, B) reflectance windows.

    Returns:
        dict with x1 (N*s*s, base), features (N*s*s, F_N), poses
        (N, M, K), v (N, n_class, D) and lengths (N, n_class); entries are
        tensors when the model parameters are tracked.
    """
    N, s1, s2, B = patches.shape
    if s1 != model.patch_size or s2 != model.patch_size:
        raise DataError(
            f"patch shape {s1}x{s2} does not match model patch size {model.patch_size}"
        )
    p, cfg = model.params, model.config
    pixels = patches.reshape(N * s1 * s2, B).astype(np.float64)
    x1 = spectral.base_features(pixels, model)
    feats = spectral.enhanced_features(x1, cfg.stage1.epsilon, model.tri_combos,
                                       cfg.training.enhancement_on)
    fmap = ad.reshape(feats, (N, s1, s2, model.f_n))
    o = capsule.conv2d_batch(fmap, p["caps.conv.w"], p["caps.conv.b"],
                             cfg.stage2.conv_stride, "relu")
    poses = capsule.primary_capsules_batch(o, p["caps.primary.w"], cfg.stage2.capsules,
                                           cfg.stage2.capsule_stride)
    u_hat = capsule.predict_vectors(poses, p["caps.class.w"], p["caps.class.b"])
    v, _, _ = capsule.dynamic_routing(u_hat, cfg.stage2.routing_iterations)
    lengths = ad.norm(v, axis=-1)
    return {"x1": x1, "features": feats, "poses": poses, "v": v, "lengths": lengths}


def predict_lengths(model: Model, patches: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Class-capsule lengths for many patches using a detached model."""
    detached = model.detached()
    chunks = []
    for lo in range(0, patches.shape[0], batch_size):
        out = forward(detached, patches[lo : lo + batch_size])
        chunks.append(np.asarray(out["lengths"]))
    return np.concatenate(chunks, axis=0)

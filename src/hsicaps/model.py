"""Full network assembly: the parameter registry and the batched forward.

All parameters live in one flat float64 vector, ``Model.theta``, laid out
in the order that ``param_spec`` writes down once: it is the rng draw
order at init, the gradient's and Adam's layout and the checkpoint blob.
``Model.params`` maps each name to a view of its slice of ``theta``, a
tracked Tensor in training and a plain array when detached, so every
in-place update of ``theta`` shows through the views. With tracked
parameters the forward code builds the training graph; detached, it runs
as plain numpy. ``forward`` (training batches) and ``scene_forward``
(scene tiles) share the stage-2 parts: the stage-1 features
(``spectral.pixel_features``) of distinct pixels, the spatial convolution
over a grid of ids into them (``capsule.conv2d_batch`` with
``spectral.conv_kernel``, the registry's ``caps.conv.w`` with its
triangular part folded in) and the capsule block (``_capsules``: primary
capsules -> routed class capsules). Each builds its own id grid: a batch
dedups its rows by their bytes, and a tile reads the cube's source pixels
under the conv positions that its centres read.
"""

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import capsule, data, spectral
from .errors import DataError, NumericError

# Centre rows per tile of ``scene_forward``. Its peak memory follows the
# source pixels under the tile's patches, each with b + C(b,2) + k^2 * J
# doubles (its stage-2 input and its tap products over J = conv_filters
# channels), at most (tile + patch) * (width + patch) of them, plus J
# doubles per conv position that a centre reads.
SCENE_TILE_ROWS = 8
# Patches per ``forward`` call in predict_lengths, and centres per
# ``_capsules`` call (and per pick of h1 * h1 * J conv maps) in scene_forward.
TAIL_BATCH = 64


def param_spec(slices, n_class: int, config, tri_cap: int = None) -> list:
    """Ordered (name, shape, fan_in, fan_out) of every parameter.

    ``slices`` is a ``data.BandSliceSet``; slices holding fewer bands than
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

    for i, bands in enumerate(slices.band_indices):
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
    f_n = len(slices.slices) * n_class
    if tcfg.enhancement_on:
        if f_n < 3:
            raise DataError(
                f"enhancement needs >= 3 base features, got {f_n}; "
                "use more slices or classes, or disable enhancement"
            )
        f_n = spectral.feature_count(len(slices.slices), n_class, tri_cap)
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


def init_params(spec, rng) -> np.ndarray:
    """Flat theta: each Glorot-uniform ``.w`` drawn into its slice in spec
    order, ``.b`` left zero."""
    shapes = [shape for _, shape, _, _ in spec]
    theta = np.zeros(sum(map(math.prod, shapes)))
    for (_, shape, fan_in, fan_out), view in zip(spec, views(theta, shapes)):
        if fan_in is not None:
            view[...] = ad.glorot_uniform(rng, shape, fan_in, fan_out)
    return theta


def views(vec, shapes: list) -> list:
    """Consecutive slices of flat ``vec``, one per shape, each in its shape."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(vec, cuts), shapes)]


def check_finite(model) -> None:
    """Raise NumericError naming the first non-finite entry of ``theta``."""
    if not np.isfinite(model.theta).all():
        where = model.name_of(int(np.argmin(np.isfinite(model.theta))))
        raise NumericError(f"non-finite values in parameter {where}")


@dataclass
class Model:
    """The parameter registry plus what the forward pass reads besides it."""

    theta: np.ndarray  # every parameter, flat float64, in param_spec order
    params: dict  # name -> view of theta (Tensor or array), in param_spec order
    config: object  # RunConfig
    slices: object  # data.BandSliceSet
    n_class: int
    tri_combos: object = None  # (S, 3) int array, or None for all triples

    @classmethod
    def tracked(cls, theta, spec, config, slices, n_class, tri_combos=None):
        """Model over flat ``theta`` laid out by ``spec``, with tracked views."""
        shapes = [shape for _, shape, *_ in spec]
        params = {name: ad.Tensor(view, requires_grad=True)
                  for (name, *_), view in zip(spec, views(theta, shapes))}
        return cls(theta, params, config, slices, n_class, tri_combos)

    @property
    def patch_size(self):
        return self.config.training.patch_size

    @property
    def f_n(self):
        """F_N, the registry's stage-2 channel count: b + C(b,2) + kept triples
        with enhancement on (the conv itself runs on the first two groups)."""
        return ad.value(self.params["caps.conv.w"]).shape[3]

    def name_of(self, i: int) -> str:
        """``name[j]`` of flat index ``i`` of theta: the parameter holding it
        and its index within that parameter."""
        for name, t in self.params.items():
            if i < ad.value(t).size:
                return f"{name}[{i}]"
            i -= ad.value(t).size

    def detached(self):
        check_finite(self)
        return replace(self, params={k: ad.value(v) for k, v in self.params.items()})


def init_model(slices, n_class: int, run_cfg, rng, tri_cap: int = None) -> Model:
    """Build a seeded model for an already-segmented slice set.

    ``tri_cap`` sizes the registry for that many kept triples (None keeps
    every triple); the caller then sets the fitted ``tri_combos``.
    """
    spec = param_spec(slices, n_class, run_cfg, tri_cap)
    # forward reads strides, routing and enhancement from the config, so the
    # model owns a copy that later edits of the caller's config cannot reach
    return Model.tracked(init_params(spec, rng), spec, copy.deepcopy(run_cfg), slices,
                         n_class)


def forward(model: Model, patches: np.ndarray):
    """Batch forward pass.

    Stage 1 is per pixel, so it runs once per distinct spectrum of the
    batch: rows are deduped by their bytes (overlapping windows and reflect
    padding repeat pixels), and the stage-2 conv reads the patches as an
    (N, s, s) grid of ids into those rows at the conv stride. Equal bytes
    give equal features, so the result is the one a per-row pass would
    give, up to rounding.

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
    rows = np.ascontiguousarray(patches).reshape(N * s1 * s2, B)
    keys = rows.view(np.dtype((np.void, rows.itemsize * B))).reshape(-1)
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    o = capsule.conv2d_batch(spectral.pixel_features(rows[first], model), inv.reshape(N, s1, s2),
                             spectral.conv_kernel(model), model.params["caps.conv.b"],
                             model.config.stage2.conv_stride)
    return _capsules(model, o)


def _capsules(model: Model, o) -> dict:
    """The capsule block of stage-2 conv maps o (N, h1, h1, J): squashed
    primary poses and their routed class capsules, the keys of ``forward``."""
    p, s2 = model.params, model.config.stage2
    poses = capsule.primary_capsules_batch(o, p["caps.primary.w"], s2.capsules,
                                           s2.capsule_stride)
    u_hat = capsule.predict_vectors(poses, p["caps.class.w"], p["caps.class.b"])
    v, _ = capsule.dynamic_routing(u_hat, s2.routing_iterations)
    return {"poses": poses, "v": v, "lengths": ad.norm(v, axis=-1)}


def scene_forward(model: Model, norm_cube, coords) -> dict:
    """Detached poses (N, M, K), v (N, n_class, D) and lengths (N, n_class)
    of the patches centred on ``coords`` of a normalized cube: ``forward``
    without the patches. The cube's rows are read through
    ``data.reflect_index``, where the patch centred on (r, c) starts at
    (r, c), once per tile of ``SCENE_TILE_ROWS`` centre rows that holds a
    centre. Per tile the spectral head runs once per distinct source pixel
    under the conv positions that the tile's centres read, and the conv,
    with the kernel folded once per call, once per such position
    (Graham and van der Maaten, arXiv:1706.01307). The capsule block takes
    ``TAIL_BATCH`` centres at a time, each picking its h1 x h1 conv map
    from the tile's positions. Rows follow ``coords``, duplicates included.
    """
    mdl = model.detached()
    grid = data.reflect_index(norm_cube, mdl.patch_size)
    values = norm_cube.data.reshape(-1, norm_cube.bands)
    rc = data.centre_array(norm_cube, coords)
    s2, W = mdl.config.stage2, grid.shape[1]
    corners = rc[:, 0] * W + rc[:, 1]
    reach = s2.conv_stride * np.arange((mdl.patch_size - s2.conv_kernel) // s2.conv_stride + 1)
    taps = np.arange(s2.conv_kernel)
    M, n_class, D, K = mdl.params["caps.class.w"].shape
    out = {"poses": np.empty((len(rc), M, K)), "v": np.empty((len(rc), n_class, D)),
           "lengths": np.empty((len(rc), n_class))}
    kernel = spectral.conv_kernel(mdl)
    tile_of = rc[:, 0] // SCENE_TILE_ROWS
    for tile in np.unique(tile_of):
        ids = np.flatnonzero(tile_of == tile)
        reads = corners[ids, None, None] + (W * reach[:, None] + reach)
        sites, picks = np.unique(reads, return_inverse=True)
        under = grid.reshape(-1)[sites[:, None, None] + (W * taps[:, None] + taps)]
        pixels, inv = np.unique(under, return_inverse=True)
        o = capsule.conv2d_batch(spectral.pixel_features(values[pixels], mdl),
                                 inv.reshape(under.shape), kernel, mdl.params["caps.conv.b"], 1)
        # np.unique's inverse is flat or input-shaped depending on the numpy release
        o, picks = o.reshape(len(sites), -1), picks.reshape(reads.shape)
        for lo in range(0, len(ids), TAIL_BATCH):
            for key, val in _capsules(mdl, o[picks[lo : lo + TAIL_BATCH]]).items():
                out[key][ids[lo : lo + TAIL_BATCH]] = val
    return out


def predict_lengths(model: Model, patches: np.ndarray) -> np.ndarray:
    """Class-capsule lengths for many patches using a detached model."""
    detached = model.detached()
    # at least one chunk, so no patches give (0, n_class)
    return np.concatenate([np.asarray(forward(detached, patches[lo : lo + TAIL_BATCH])["lengths"])
                           for lo in range(0, max(len(patches), 1), TAIL_BATCH)])

"""Losses, optimization, the training loop and checkpoints.

The loss is a per-class hinge on capsule lengths plus a weighted MSE
between a masked-capsule reconstruction and the one-hot center label.
Every gradient, in training and in ``gradcheck``, comes from one
reverse-mode step, ``compute_gradients``, as one flat vector in the
layout of the model's ``theta``; Adam updates ``theta`` in place with
flat moments, and ``gradcheck`` perturbs single entries of ``theta``
with a central finite difference. The triangular cap is fitted on the
initial slice heads of the model it belongs to.
Checkpoints store ``theta``'s bytes; loading is exact against the spec
of the stored config or raises.
"""

import copy
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import data, model as model_mod, spectral
from .config import MarginLossConfig, RunConfig, config_from_dict, config_to_dict
from .errors import ConfigError, DataError, NumericError

CHECKPOINT_FORMAT = "hsicaps-checkpoint-v1"
# Manifest entries that loading and check_cube_compatible read.
MANIFEST_KEYS = ("config", "n_class", "wavelengths_nm", "slices", "slice_band_indices",
                 "tri_combos", "params")

# gradcheck compares GRADCHECK_SAMPLES coordinates of theta, drawn with
# GRADCHECK_SEED, against central differences of step GRADCHECK_H and
# passes below GRADCHECK_TOLERANCE relative error.
GRADCHECK_SAMPLES = 200
GRADCHECK_H = 1e-5
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_SEED = 7

# Values per block of ``adam_step``: a block's theta, gradient and moments
# and at most three temporaries of its update take 7 * 8 * 16,384 bytes =
# 896 KiB, inside a 2 MiB per-core L2. At ablation model3's 480,800 values,
# on a 2-vCPU Xeon VM, a step took a median of 3.2-3.7 ms. With blocks of
# 32,768, a process whose heap had not yet grown page-faulted their 256 KiB
# temporaries in at every block, and a step took 5.0-5.4 ms.
ADAM_BLOCK = 16384


# losses ---------------------------------------------------------------


def margin_loss(lengths, onehot, cfg: MarginLossConfig):
    """Per-sample margin loss over the last axis; accepts tensors.

    ``onehot`` marks each sample's target class; the canonical variant
    squares the positive hinge, the as-printed one hinges the squared
    length.
    """
    pos_gap = ad.relu(ad.sub(cfg.edge_plus, lengths))
    neg_gap = ad.relu(ad.sub(lengths, cfg.edge_minus))
    if cfg.variant == "canonical":
        pos = ad.mul(onehot, ad.mul(pos_gap, pos_gap))
    else:  # literal printed form: un-squared hinge on the squared length
        pos = ad.mul(onehot, ad.relu(ad.sub(cfg.edge_plus, ad.mul(lengths, lengths))))
    neg = ad.mul(ad.mul(ad.sub(1.0, onehot), cfg.mu), ad.mul(neg_gap, neg_gap))
    return ad.sum(ad.add(pos, neg), axis=-1)


def reconstruction_loss(y_hat, y):
    """Mean squared error between two equal-shape arrays; accepts tensors."""
    if ad.shape_of(y_hat) != ad.shape_of(y):
        raise DataError(f"length mismatch: {ad.shape_of(y_hat)} vs {ad.shape_of(y)}")
    diff = ad.sub(y_hat, y)
    return ad.mean(ad.mul(diff, diff))


def total_loss(margin, recon, theta: float):
    """margin + theta * reconstruction."""
    return ad.add(margin, ad.mul(recon, theta))


def reconstruct(v, onehot, params):
    """Masked reconstruction for a batch: (N, n_class, D) -> (N, n_class).

    Every capsule except the ``onehot`` target is zeroed before the
    decoder's two dense layers (relu, then identity).
    """
    N, n_class, d = ad.shape_of(v)
    masked = ad.mul(v, onehot.reshape(N, n_class, 1))
    h = spectral.dense_forward(ad.reshape(masked, (N, n_class * d)),
                               params["decoder.fc1.w"], params["decoder.fc1.b"])
    return spectral.dense_forward(h, params["decoder.fc2.w"], params["decoder.fc2.b"],
                                  relu=False)


def batch_loss(mdl: model_mod.Model, patches, targets, cfg):
    """Mean total loss of a batch.

    ``targets`` are 1-based class ids; ``cfg`` is a TrainConfig.
    """
    out = model_mod.forward(mdl, patches)
    n = mdl.n_class
    onehot = np.zeros((len(targets), n))
    onehot[np.arange(len(targets)), np.asarray(targets) - 1] = 1.0
    margin = ad.mean(margin_loss(out["lengths"], onehot, cfg.margin))
    recon = reconstruct(out["v"], onehot, mdl.params)
    rloss = reconstruction_loss(recon, onehot)
    return total_loss(margin, rloss, cfg.reconstruction_weight)


# gradients ------------------------------------------------------------


def compute_gradients(loss_fn, params):
    """Reverse-mode gradient of ``loss_fn()`` as one flat vector.

    ``params`` are the leaf tensors the loss closure reads, in the layout
    of the flat vector they view (a model's ``params.values()`` views its
    theta). Returns (loss value, gradient in that layout); a leaf the loss
    does not reach gets zeros. Each leaf's ``.grad`` is set back to None
    once copied, so the flat vector is the step's one live gradient.
    """
    loss = loss_fn()
    lv = float(ad.value(loss))
    if not np.isfinite(lv):
        raise NumericError(f"non-finite loss {lv}")
    ad.backward(loss)
    params = list(params)
    grad = np.zeros(sum(p.data.size for p in params))
    for p, g in zip(params, model_mod.views(grad, [p.data.shape for p in params])):
        if p.grad is not None:
            g[...] = p.grad
            p.grad = None
    return lv, grad


def finite_difference_gradient(loss_fn, theta, i):
    """Central-difference derivative of ``loss_fn()`` w.r.t. ``theta[i]``."""
    orig = theta[i]
    try:
        theta[i] = orig + GRADCHECK_H
        hi = float(ad.value(loss_fn()))
        theta[i] = orig - GRADCHECK_H
        lo = float(ad.value(loss_fn()))
    finally:
        theta[i] = orig
    return (hi - lo) / (2.0 * GRADCHECK_H)


# Adam -----------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray  # flat first moment, in theta's layout
    v: np.ndarray  # flat second moment
    t: int = 0

    @classmethod
    def for_theta(cls, theta):
        return cls(np.zeros_like(theta), np.zeros_like(theta))


def adam_step(theta, grad, state: AdamState, cfg) -> AdamState:
    """One bias-corrected Adam update, applied in place to flat ``theta``.

    ``grad`` has theta's shape. The textbook update (Kingma and Ba) runs
    over consecutive blocks of ``ADAM_BLOCK`` values, so its temporaries
    are block-sized and each block's passes stay in cache; it is elementwise,
    so blocking changes no bit. Returns the advanced state.
    """
    if theta.shape != grad.shape:
        raise DataError(f"gradient shape {grad.shape} does not match theta {theta.shape}")
    t = state.t + 1
    b1, b2 = cfg.beta1, cfg.beta2
    for lo in range(0, theta.size, ADAM_BLOCK):
        p, g, m, v = (x[lo : lo + ADAM_BLOCK] for x in (theta, grad, state.m, state.v))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= cfg.learning_rate * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + cfg.adam_epsilon)
    state.t = t
    return state


# model construction helpers -------------------------------------------


def _band_slices(wavelengths, config: RunConfig) -> data.BandSliceSet:
    """The default slices with segmentation on, else the whole spectrum."""
    return data.segment_bands(wavelengths, data.DEFAULT_SLICES if config.training.segmentation_on
                              else data.WHOLE_SPECTRUM)


def build_model(cube: data.HsiCube, labels: data.LabelMap, split: data.SampleSplit,
                config: RunConfig) -> model_mod.Model:
    """Seeded model for a dataset, fitting the triangular cap if needed.

    The registry, drawn once over the cube's ``_band_slices``, is sized for
    the cap. The cap ranking then runs on the model's own initial base
    features of the train pixels and is frozen for the rest of the run.
    """
    tcfg = config.training
    slices = _band_slices(cube.wavelengths, config)
    base = len(slices.slices) * labels.n_class
    cap = config.stage1.resolve_cap(labels.n_class) if tcfg.enhancement_on else None
    if cap is not None and cap >= math.comb(base, 3):
        cap = None
    spec = model_mod.param_spec(slices, labels.n_class, config, cap)
    theta = model_mod.init_params(spec, np.random.default_rng(tcfg.seed))
    # forward reads strides, routing and enhancement from the config, so the
    # model owns a copy that later edits of the caller's config cannot reach
    mdl = model_mod.Model.tracked(theta, spec, copy.deepcopy(config), slices, labels.n_class)
    if cap is not None:
        spectra = data.pixels_at(cube.data, split.train_indices)
        x1 = np.asarray(spectral.base_features(spectra, mdl.detached()))
        mdl.tri_combos = spectral.fit_triangular_cap(x1, cap)
    return mdl


# training loop ---------------------------------------------------------


@dataclass
class TrainResult:
    model: model_mod.Model
    history: list  # rows of (epoch, train_loss, train_oa, test_oa)
    epoch_seconds: list = field(default_factory=list)


def classes_at(mdl, norm_cube, coords) -> np.ndarray:
    """1-based predicted class at each of ``coords`` of a normalized cube."""
    lengths = model_mod.scene_forward(mdl, norm_cube, coords)["lengths"]
    return np.argmax(lengths, axis=1) + 1


def train(cube: data.HsiCube, labels: data.LabelMap, split: data.SampleSplit,
          config: RunConfig) -> TrainResult:
    """Mini-batch training over the split's train pixels.

    The cube is min-max normalized per band before patch extraction.
    After each epoch the train and test pixels are scored together on
    that normalized cube. Raises NumericError naming the epoch and the
    batch (both 1-based) if the loss goes non-finite.
    """
    if not split.train_indices:
        raise DataError("empty train set")
    tcfg = config.training
    cube = data.normalize_cube(cube)
    mdl = build_model(cube, labels, split, config)
    state = AdamState.for_theta(mdl.theta)

    train_rc = data.centre_array(cube, split.train_indices)
    scored = split.train_indices + split.test_indices
    truth = data.pixels_at(labels.labels, scored)
    n_train = len(split.train_indices)
    train_labels = truth[:n_train]

    rng = np.random.default_rng(tcfg.seed + 1)
    history = []
    epoch_seconds = []
    for epoch in range(1, tcfg.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n_train)
        losses = []
        for batch, lo in enumerate(range(0, n_train, tcfg.batch_size), 1):
            sel = order[lo : lo + tcfg.batch_size]
            patches = data.extract_patch_batch(cube, train_rc[sel], tcfg.patch_size)
            try:
                lv, grad = compute_gradients(
                    lambda: batch_loss(mdl, patches, train_labels[sel], tcfg),
                    mdl.params.values())
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, batch {batch}") from exc
            state = adam_step(mdl.theta, grad, state, tcfg)
            del grad  # the next batch's graph builds next to theta and the moments alone
            losses.append(lv)
        hit = classes_at(mdl, cube, scored) == truth
        train_oa = float(np.mean(hit[:n_train]))
        test_oa = float(np.mean(hit[n_train:])) if split.test_indices else float("nan")
        epoch_seconds.append(time.perf_counter() - started)
        history.append((epoch, float(np.mean(losses)), train_oa, test_oa))
    return TrainResult(mdl, history, epoch_seconds)


def save_history(history, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,train_oa,test_oa\n")
        for epoch, loss, tr, te in history:
            fh.write(f"{epoch},{loss!r},{tr!r},{te!r}\n")


def predict_map(mdl: model_mod.Model, cube: data.HsiCube) -> np.ndarray:
    """(H, W) class-id map of a scene: ``classes_at`` every pixel of it, normalized."""
    cube = data.normalize_cube(cube)
    coords = np.argwhere(np.ones((cube.height, cube.width), dtype=bool))
    return classes_at(mdl, cube, coords).reshape(cube.height, cube.width)


# checkpoints ------------------------------------------------------------


def save_checkpoint(path: str, mdl: model_mod.Model, config: RunConfig,
                    wavelengths) -> None:
    """Single-file checkpoint: one JSON manifest line, then theta's bytes
    as little-endian float64."""
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": config_to_dict(config),
        "n_class": mdl.n_class,
        "patch_size": mdl.patch_size,
        "f_n": mdl.f_n,
        "wavelengths_nm": [float(w) for w in wavelengths],
        "slices": [list(s) for s in mdl.slices.slices],
        "slice_band_indices": [list(ix) for ix in mdl.slices.band_indices],
        "tri_combos": (None if mdl.tri_combos is None
                       else np.asarray(mdl.tri_combos).tolist()),
        "params": [{"name": n, "shape": list(ad.value(t).shape)}
                   for n, t in mdl.params.items()],
        "dtype": "f64le",
    }
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write((json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(mdl.theta.astype("<f8", copy=False).tobytes())
    os.replace(tmp, path)


def _manifest_fields(manifest) -> tuple:
    """(config, slices, n_class, tri_combos) of a checkpoint manifest.

    Raises DataError when an entry that loading or ``check_cube_compatible``
    reads is missing or malformed, or when the listed slices are not the
    ``_band_slices`` of its wavelengths and config.
    """
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise DataError("unrecognized checkpoint format")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise DataError(f"checkpoint manifest missing key {missing[0]!r}")

    def malformed(key, want):
        return DataError(f"malformed checkpoint manifest: {key} must be {want}")

    n_class, wavelengths = manifest["n_class"], manifest["wavelengths_nm"]
    if not (data.is_int(n_class) and n_class >= 1):
        raise malformed("n_class", "a positive integer")
    if not (isinstance(wavelengths, list) and all(map(data.is_number, wavelengths))):
        raise malformed("wavelengths_nm", "a list of numbers")
    params = manifest["params"]
    if not (isinstance(params, list) and all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list) and all(map(data.is_int, e["shape"]))
            for e in params)):
        raise malformed("params", "a list of {name, shape} entries")
    try:
        config = config_from_dict(manifest["config"])
    except ConfigError as exc:
        raise DataError(f"malformed checkpoint manifest: config: {exc}") from exc
    slices = _band_slices(wavelengths, config)
    try:  # older files also list the slices that hold no band, with []
        listed = [[s, ix] for s, ix in zip(manifest["slices"], manifest["slice_band_indices"],
                                           strict=True) if ix != []]
    except (TypeError, ValueError):  # not lists, or lists of unequal length
        listed = None
    if listed != [[list(s), list(ix)] for s, ix in zip(slices.slices, slices.band_indices)]:
        raise DataError("checkpoint slices differ from those of its wavelengths and config")
    tri = manifest["tri_combos"]
    if tri is None:
        return config, slices, n_class, None
    b = len(slices.slices) * n_class
    try:
        tri = np.asarray(tri)
    except ValueError:  # ragged rows
        tri = None
    if not (tri is not None and tri.ndim == 2 and tri.shape[0] >= 1 and tri.shape[1] == 3
            and np.issubdtype(tri.dtype, np.integer)
            and np.all((0 <= tri[:, 0]) & (tri[:, 0] < tri[:, 1])
                       & (tri[:, 1] < tri[:, 2]) & (tri[:, 2] < b))
            and np.all(np.diff((tri[:, 0] * b + tri[:, 1]) * b + tri[:, 2]) > 0)):
        raise malformed("tri_combos", f"null or an (S, 3) integer array of distinct "
                        f"triples 0 <= i < j < h < {b} in lexicographic order")
    return config, slices, n_class, tri.astype(np.intp)


def load_checkpoint(path: str):
    """Rebuild (model, config, manifest) from a checkpoint file."""
    if not os.path.exists(path):
        raise DataError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"malformed checkpoint manifest: {exc}") from exc
    config, slices, n_class, tri_combos = _manifest_fields(manifest)
    spec = model_mod.param_spec(slices, n_class, config,
                                None if tri_combos is None else len(tri_combos))
    want = [(name, tuple(shape)) for name, shape, _, _ in spec]
    got = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
    if got != want:
        i = next(i for i in range(max(len(got), len(want))) if got[i : i + 1] != want[i : i + 1])
        raise DataError(
            f"checkpoint parameters differ from the spec of its config at entry {i}: "
            f"{got[i : i + 1]} vs {want[i : i + 1]} ({len(got)} vs {len(want)} entries)"
        )
    if sum(math.prod(shape) for _, shape in want) * 8 != len(blob):
        raise DataError("checkpoint blob size mismatch")
    theta = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    mdl = model_mod.Model.tracked(theta, spec, config, slices, n_class, tri_combos)
    model_mod.check_finite(mdl)
    return mdl, config, manifest


def check_cube_compatible(manifest: dict, cube: data.HsiCube) -> None:
    stored = manifest["wavelengths_nm"]
    if cube.bands != len(stored):
        raise DataError(
            f"cube has {cube.bands} bands but checkpoint was trained with {len(stored)}"
        )
    if not np.allclose(stored, np.asarray(cube.wavelengths), rtol=0, atol=1e-6):
        raise DataError("cube wavelengths differ from the checkpoint's")


# gradient check ----------------------------------------------------------


@dataclass
class GradcheckReport:
    max_rel_error: float
    n_checked: int
    worst_param: str
    tolerance: float
    elapsed_seconds: float

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance


def _rel_error(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale < 1e-8:
        return 0.0
    return abs(a - b) / max(scale, 1e-6)


def gradcheck(config: RunConfig = None) -> GradcheckReport:
    """Compare reverse-mode gradients of the full loss with central
    finite differences over sampled parameter coordinates."""
    started = time.perf_counter()
    config = config or gradcheck_config()
    cube, labels = _gradcheck_dataset(GRADCHECK_SEED)
    split = data.split_samples(labels, 0.5, GRADCHECK_SEED)
    cube = data.normalize_cube(cube)
    mdl = build_model(cube, labels, split, config)
    _condition_check_point(mdl, GRADCHECK_SEED)
    coords = split.train_indices[:4]
    patches = data.extract_patch_batch(cube, coords, config.training.patch_size)
    targets = data.pixels_at(labels.labels, coords)

    def loss_of(m):
        return lambda: batch_loss(m, patches, targets, config.training)

    _, grad = compute_gradients(loss_of(mdl), mdl.params.values())
    # detached views share theta, so they see each perturbation, and the
    # finite-difference losses build no graph
    fd_loss = loss_of(mdl.detached())
    rng = np.random.default_rng(GRADCHECK_SEED)
    total = mdl.theta.size
    picks = rng.choice(total, size=min(GRADCHECK_SAMPLES, total), replace=False)
    worst, at = 0.0, None
    for i in picks:
        err = _rel_error(float(grad[i]), finite_difference_gradient(fd_loss, mdl.theta, i))
        if err > worst:
            worst, at = err, int(i)
    return GradcheckReport(worst, len(picks), "" if at is None else mdl.name_of(at),
                           GRADCHECK_TOLERANCE, time.perf_counter() - started)


def _condition_check_point(mdl, seed: int) -> None:
    """Move biases off zero so the finite-difference comparison is taken
    at a smooth point.

    At the canonical init (zero biases, min-max zeros in the cube) relu
    inputs sit exactly on hinge kinks, and near-zero slice
    features put binary-index denominators next to their guarded pole,
    where a secant at h=1e-5 cannot follow the curvature. Positive fc2
    biases keep every pair denominator near 1.
    """
    rng = np.random.default_rng(seed + 1)
    for name, tensor in mdl.params.items():
        if not name.endswith(".b"):
            continue
        lo, hi = (0.5, 1.0) if ".fc2." in name else (0.01, 0.2)
        tensor.data[...] = rng.uniform(lo, hi, tensor.data.shape)


def gradcheck_config() -> RunConfig:
    """Small model configuration used by the default gradient check."""
    cfg = RunConfig()
    cfg.training.patch_size = 5
    cfg.training.epochs = 1
    cfg.stage1.conv1_filters = 4
    cfg.stage1.conv2_filters = 6
    cfg.stage1.fc1_width = 8
    cfg.stage1.small_slice_width = 6
    cfg.stage2.conv_filters = 6
    cfg.stage2.capsules = 2
    cfg.stage2.capsule_dim = 3
    cfg.validate()
    return cfg


def _gradcheck_dataset(seed: int):
    """Tiny random cube spanning four slices; one slice is wide enough
    to exercise the 1-D convolution path and F_N stays below 400."""
    rng = np.random.default_rng(seed)
    h = w = 8
    wavelengths = tuple(np.concatenate([
        np.linspace(440.0, 510.0, 8),  # blue: conv path
        [530.0, 560.0],                # green: dense fallback
        [610.0, 640.0, 670.0],         # red
        [690.0],                       # red-edge1
    ]))
    bands = len(wavelengths)
    cube = data.HsiCube(h, w, bands, wavelengths,
                        rng.uniform(0.05, 0.95, size=(h, w, bands)).astype(np.float32))
    labels = data.labelmap_from_array(rng.integers(1, 4, size=(h, w)))
    return cube, labels

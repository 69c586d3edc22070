"""Losses, optimization, the training loop and checkpoints.

The loss is a per-class hinge on capsule lengths plus a weighted MSE
between a masked-capsule reconstruction and the one-hot center label.
Every gradient, in training and in ``gradcheck``, comes from one
reverse-mode step, ``compute_gradients``; a central finite-difference
comparator provides the independent check used by ``gradcheck``. The
triangular cap is fitted on the initial slice heads of the model it
belongs to.
Checkpoints store the parameter registry in its spec order; loading is
exact against that spec or raises.
"""

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
    """Reverse-mode gradients of ``loss_fn(params)`` for each parameter.

    ``params`` is a list of leaf tensors the loss closure reads. Returns
    (loss value, list of gradient arrays).
    """
    loss = loss_fn(params)
    lv = float(ad.value(loss))
    if not np.isfinite(lv):
        raise NumericError(f"non-finite loss {lv}")
    ad.backward(loss)
    return lv, [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]


def finite_difference_gradient(loss_fn, params, param_idx, flat_idx, h: float = 1e-5):
    """Central-difference derivative of the loss w.r.t. one coordinate."""
    p = params[param_idx]
    flat = p.data.reshape(-1)
    orig = flat[flat_idx]
    try:
        flat[flat_idx] = orig + h
        hi = float(ad.value(loss_fn(params)))
        flat[flat_idx] = orig - h
        lo = float(ad.value(loss_fn(params)))
    finally:
        flat[flat_idx] = orig
    return (hi - lo) / (2.0 * h)


# Adam -----------------------------------------------------------------


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls([np.zeros_like(ad.value(p)) for p in params],
                   [np.zeros_like(ad.value(p)) for p in params])


def adam_step(params, grads, state: AdamState, cfg) -> AdamState:
    """One bias-corrected Adam update, applied in place to ``params``.

    ``params`` may be tensors or arrays; shapes must match ``grads``. The
    moments are updated in place and the step goes through two scratch
    buffers, in the operation order of m = b1*m + (1-b1)*g,
    v = b2*v + (1-b2)*g*g and lr * m_hat / (sqrt(v_hat) + eps).
    Returns the advanced state.
    """
    t = state.t + 1
    b1, b2 = cfg.beta1, cfg.beta2
    for i, (p, g) in enumerate(zip(params, grads)):
        arr = p.data if isinstance(p, ad.Tensor) else p
        if arr.shape != g.shape:
            raise DataError(f"gradient shape mismatch at parameter {i}")
        m, v = state.m[i], state.v[i]
        step, den = np.multiply(g, 1 - b1), np.multiply(g, 1 - b2)
        m *= b1
        m += step
        den *= g
        v *= b2
        v += den
        np.divide(m, 1 - b1**t, out=step)
        step *= cfg.learning_rate
        np.divide(v, 1 - b2**t, out=den)
        np.sqrt(den, out=den)
        den += cfg.adam_epsilon
        step /= den
        arr -= step
    state.t = t
    return state


# model construction helpers -------------------------------------------


def _segmented_slices(cube: data.HsiCube, tcfg) -> data.BandSliceSet:
    spec = data.default_band_slices() if tcfg.segmentation_on else data.whole_spectrum_slices()
    return data.segment_bands(cube, spec)


def build_model(cube: data.HsiCube, labels: data.LabelMap, split: data.SampleSplit,
                config: RunConfig) -> model_mod.Model:
    """Seeded model for a dataset, fitting the triangular cap if needed.

    The registry is drawn once, sized for the cap. The cap ranking then
    runs on the model's own initial base features of the train pixels and
    is frozen for the rest of the run.
    """
    tcfg = config.training
    slices = _segmented_slices(cube, tcfg)
    base = len(slices.non_empty()) * labels.n_class
    cap = config.stage1.resolve_cap(labels.n_class) if tcfg.enhancement_on else None
    if cap is not None and cap >= math.comb(base, 3):
        cap = None
    mdl = model_mod.init_model(slices, labels.n_class, config,
                               np.random.default_rng(tcfg.seed), cap)
    if cap is not None:
        spectra = data.pixels_at(cube.data, split.train_indices).astype(np.float64)
        x1 = np.asarray(spectral.base_features(spectra, mdl.detached()))
        mdl.tri_combos = spectral.fit_triangular_cap(x1, cap)
    return mdl


# training loop ---------------------------------------------------------


@dataclass
class TrainResult:
    model: model_mod.Model
    history: list  # rows of (epoch, train_loss, train_oa, test_oa)
    epoch_seconds: list = field(default_factory=list)


def _classes_at(mdl, norm_cube, coords) -> np.ndarray:
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
    params = list(mdl.params.values())
    state = AdamState.for_params(params)

    train_patches = data.extract_patch_batch(cube, split.train_indices, tcfg.patch_size)
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
            try:
                lv, grads = compute_gradients(
                    lambda _: batch_loss(mdl, train_patches[sel], train_labels[sel], tcfg),
                    params)
            except NumericError as exc:
                raise NumericError(f"{exc} at epoch {epoch}, batch {batch}") from exc
            state = adam_step(params, grads, state, tcfg)
            losses.append(lv)
        hit = _classes_at(mdl, cube, scored) == truth
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


def predict_map(mdl: model_mod.Model, cube: data.HsiCube, coords=None) -> np.ndarray:
    """Class-id map of a scene at every pixel, or only at ``coords`` (0 elsewhere)."""
    cube = data.normalize_cube(cube)
    if coords is None:
        coords = np.argwhere(np.ones((cube.height, cube.width), dtype=bool))
    rc = data.centre_array(cube, coords)
    out = np.zeros((cube.height, cube.width), dtype=np.int64)
    out[rc[:, 0], rc[:, 1]] = _classes_at(mdl, cube, rc)
    return out


# checkpoints ------------------------------------------------------------


def save_checkpoint(path: str, mdl: model_mod.Model, config: RunConfig,
                    wavelengths) -> None:
    """Single-file checkpoint: one JSON manifest line, then the raw
    little-endian float64 parameter blob in registry order."""
    entries = mdl.params.items()
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
        "params": [{"name": n, "shape": list(ad.value(t).shape)} for n, t in entries],
        "dtype": "f64le",
    }
    blob = b"".join(np.ascontiguousarray(ad.value(t), dtype="<f8").tobytes()
                    for _, t in entries)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write((json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(blob)
    os.replace(tmp, path)


def _manifest_fields(manifest) -> tuple:
    """(config, slices, n_class, tri_combos) of a checkpoint manifest.

    Raises DataError when an entry that loading or ``check_cube_compatible``
    reads is missing or malformed, so such a checkpoint is never used.
    """
    if not isinstance(manifest, dict) or manifest.get("format") != CHECKPOINT_FORMAT:
        raise DataError("unrecognized checkpoint format")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise DataError(f"checkpoint manifest missing key {missing[0]!r}")

    def malformed(key, want):
        return DataError(f"malformed checkpoint manifest: {key} must be {want}")

    n_class, wavelengths = manifest["n_class"], manifest["wavelengths_nm"]
    slices, indices = manifest["slices"], manifest["slice_band_indices"]
    if not (data.is_int(n_class) and n_class >= 1):
        raise malformed("n_class", "a positive integer")
    if not (isinstance(wavelengths, list) and all(map(data.is_number, wavelengths))):
        raise malformed("wavelengths_nm", "a list of numbers")
    if not (isinstance(slices, list) and all(
            isinstance(s, list) and len(s) == 3 and isinstance(s[0], str)
            and all(map(data.is_number, s[1:])) for s in slices)):
        raise malformed("slices", "a list of [name, lower_nm, upper_nm]")
    if not (isinstance(indices, list) and len(indices) == len(slices) and all(
            isinstance(ix, list) and all(map(data.is_int, ix)) and ix == sorted(set(ix))
            and all(0 <= i < len(wavelengths) for i in ix) for ix in indices)):
        raise malformed("slice_band_indices", "one ascending list of band indices per slice")
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
    slices = data.BandSliceSet(tuple(map(tuple, slices)), tuple(map(tuple, indices)))
    tri = manifest["tri_combos"]
    if tri is None:
        return config, slices, n_class, None
    b = len(slices.non_empty()) * n_class
    try:
        tri = np.asarray(tri)
    except ValueError:  # ragged rows
        tri = None
    if not (tri is not None and tri.ndim == 2 and tri.shape[0] >= 1 and tri.shape[1] == 3
            and np.issubdtype(tri.dtype, np.integer)
            and np.all((0 <= tri[:, 0]) & (tri[:, 0] < tri[:, 1])
                       & (tri[:, 1] < tri[:, 2]) & (tri[:, 2] < b))):
        raise malformed("tri_combos", f"null or an (S, 3) integer array of triples "
                        f"0 <= i < j < h < {b}")
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
    counts = [int(np.prod(shape)) for _, shape in want]
    if sum(counts) * 8 != len(blob):
        raise DataError("checkpoint blob size mismatch")
    flat = np.frombuffer(blob, dtype="<f8")
    params, offset = {}, 0
    for (name, shape), count in zip(want, counts):
        params[name] = ad.parameter(flat[offset : offset + count].reshape(shape)
                                    .astype(np.float64))
        offset += count
    model_mod.check_finite(params)
    return model_mod.Model(params, config, slices, n_class, tri_combos), config, manifest


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


def gradcheck(config: RunConfig = None, n_samples: int = 200, h: float = 1e-5,
              tolerance: float = 1e-4, seed: int = 7) -> GradcheckReport:
    """Compare reverse-mode gradients of the full loss with central
    finite differences over sampled parameter coordinates."""
    started = time.perf_counter()
    config = config or gradcheck_config()
    cube, labels = _gradcheck_dataset(seed)
    split = data.split_samples(labels, 0.5, seed)
    cube = data.normalize_cube(cube)
    mdl = build_model(cube, labels, split, config)
    _condition_check_point(mdl, seed)
    coords = split.train_indices[:4]
    patches = data.extract_patch_batch(cube, coords, config.training.patch_size)
    targets = data.pixels_at(labels.labels, coords)
    entries = list(mdl.params.items())
    params = [t for _, t in entries]

    def loss_fn(_):
        return batch_loss(mdl, patches, targets, config.training)

    _, grads = compute_gradients(loss_fn, params)

    rng = np.random.default_rng(seed)
    sizes = np.array([ad.value(p).size for p in params])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    bounds = np.cumsum(sizes)
    worst = (0.0, "")
    for pick in picks:
        pi = int(np.searchsorted(bounds, pick, side="right"))
        flat = int(pick - (bounds[pi - 1] if pi else 0))
        fd = finite_difference_gradient(loss_fn, params, pi, flat, h)
        an = float(grads[pi].reshape(-1)[flat])
        err = _rel_error(an, fd)
        if err > worst[0]:
            worst = (err, f"{entries[pi][0]}[{flat}]")
    return GradcheckReport(worst[0], len(picks), worst[1], tolerance,
                           time.perf_counter() - started)


def _condition_check_point(mdl, seed: int) -> None:
    """Move biases off zero so the finite-difference comparison is taken
    at a smooth point.

    At the canonical init (zero biases, min-max zeros in the cube) relu
    pre-activations sit exactly on hinge kinks, and near-zero slice
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

"""Seeded workload generator for the benchmark.

Each workload is a scene (cube + labels) and a run configuration, made
only from the benchmark seed. ``write_workload`` puts them on disk the
way a user would hand them to ``hsicaps``; the program never sees the
seed itself. Every workload runs the whole pipeline (train, gradcheck,
predict, evaluate, interpret), so each stresses different layers:

* ``ablation``: the acceptance protocol (12x12x20, three classes, patch
  5, 15 epochs, batch 16) trained as model1, model2 and model3; tiny
  arrays, so Python and per-op overhead dominate.
* ``train-9class``: a Pavia-University-like scene (18x18, 103 bands,
  nine classes, 2 columns each) under the default config for one epoch,
  so the capped-triple path (2,000 triples, f_n = 4016) runs.
* ``scene-3class``: a 40x40x200 three-class scene labelled only in
  rectangular fields (under a fifth of the pixels), with a seeded
  untrained checkpoint written at set-up for whole-scene inference.
"""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from hsicaps import data, synthetic, training
from hsicaps.config import RunConfig, load_config, save_config

NAMES = ("ablation", "train-9class", "scene-3class")
VARIANTS = {"ablation": ("model1", "model2", "model3"),
            "train-9class": ("model3",), "scene-3class": ("model3",)}

# scene-3class field layout: 6 non-overlapping 7x7 fields, 2 per class,
# so every seed labels exactly 294 of 1,600 pixels, balanced by class.
SCENE_SIZE = 40
SCENE_BANDS = 200
FIELD = 7
FIELDS_PER_CLASS = 2


@dataclass
class Workload:
    """A generated workload: file paths plus what the benchmark runs."""

    name: str
    directory: str
    cube: str
    labels: str
    config: str
    variants: tuple  # ablation variants to train, in order
    checkpoint: str  # untrained checkpoint written at set-up, or None

    def run_config(self, variant=None) -> RunConfig:
        cfg = load_config(self.config)
        if variant is not None:
            cfg.apply_variant(variant)
        return cfg


def ablation_config(seed: int) -> RunConfig:
    cfg = RunConfig()
    cfg.training.patch_size = 5
    cfg.training.epochs = 15
    cfg.training.batch_size = 16
    cfg.training.seed = seed
    cfg.stage1.conv1_filters = 16
    cfg.stage1.conv1_width = 7
    cfg.stage1.conv2_filters = 32
    cfg.stage1.conv2_width = 5
    cfg.stage1.fc1_width = 64
    return cfg


def nine_class_config(seed: int) -> RunConfig:
    cfg = RunConfig()
    cfg.train_fraction = 0.5
    cfg.training.epochs = 1
    cfg.training.seed = seed
    return cfg


def scene_config(seed: int) -> RunConfig:
    """Default architecture; trains one epoch on 30% of the field pixels.

    One epoch cannot learn this scene, and at the default step size its
    test OA is seed noise (0.29 to 0.88 over ten seeds). A step size of
    0.2 costs the same and drives the model onto one class on every
    seed, so test OA reads exactly 1/3 on the class-balanced fields and
    only a change that breaks prediction moves it.
    """
    cfg = RunConfig()
    cfg.train_fraction = 0.3
    cfg.training.learning_rate = 0.2
    cfg.training.epochs = 1
    cfg.training.seed = seed
    return cfg


def make_field_scene(seed: int):
    """40x40x200 three-class cube; labels only inside rectangular fields.

    Every pixel belongs to a class (coarse 8x8 blocks), so whole-scene
    prediction sees realistic spectra everywhere, but only the fields are
    labelled, like field-surveyed ground truth.
    """
    rng = np.random.default_rng(seed)
    n = SCENE_SIZE
    wavelengths = np.linspace(400.0, 2500.0, SCENE_BANDS)
    centers = np.array([650.0, 1100.0, 1650.0])
    signatures = 0.2 + 0.5 * np.exp(
        -((wavelengths[None, :] - centers[:, None]) ** 2) / (2 * 180.0**2))
    blocks = rng.integers(0, 3, size=(n // 8, n // 8))
    truth = np.kron(blocks, np.ones((8, 8), dtype=np.int64)) + 1
    labels = np.zeros((n, n), dtype=np.int64)
    classes = rng.permutation(np.repeat(np.arange(1, 4), FIELDS_PER_CLASS))
    for cls in classes:
        while True:
            r, c = rng.integers(0, n - FIELD + 1, size=2)
            window = (slice(r, r + FIELD), slice(c, c + FIELD))
            if not labels[window].any():
                break
        labels[window] = cls
        truth[window] = cls
    gain = rng.uniform(0.7, 1.3, size=(n, n, 1))
    cube = signatures[truth - 1] * gain + rng.normal(0.0, 0.02, size=(n, n, SCENE_BANDS))
    cube = np.clip(cube, 0.01, 0.99).astype(np.float32)
    return (data.HsiCube(n, n, SCENE_BANDS, tuple(wavelengths), np.ascontiguousarray(cube)),
            data.labelmap_from_array(labels))


def make_scene(name: str, seed: int):
    """(cube, labels, config) for a workload and seed."""
    if name == "ablation":
        return (*synthetic.make_separable_cube(seed=seed), ablation_config(seed))
    if name == "train-9class":
        return (*synthetic.make_separable_cube(18, 18, 103, 9, seed=seed),
                nine_class_config(seed))
    if name == "scene-3class":
        return (*make_field_scene(seed), scene_config(seed))
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write_workload(name: str, seed: int, directory: str) -> Workload:
    """Generate a workload under ``directory`` and return its paths.

    On ``scene-3class`` this also writes the seeded untrained checkpoint
    that the inference commands load.
    """
    cube, labels, cfg = make_scene(name, seed)
    synthetic.write_dataset(directory, cube, labels)
    save_config(cfg, os.path.join(directory, "config.json"))
    if name == "scene-3class":
        split = data.split_samples(labels, cfg.train_fraction, cfg.training.seed)
        mdl = training.build_model(data.normalize_cube(cube), labels, split, cfg)
        training.save_checkpoint(os.path.join(directory, "init.ckpt"), mdl, cfg,
                                 cube.wavelengths)
    return open_workload(name, directory)


def open_workload(name: str, directory: str) -> Workload:
    """The Workload whose files ``write_workload`` put under ``directory``."""
    checkpoint = os.path.join(directory, "init.ckpt") if name == "scene-3class" else None
    return Workload(name, directory, os.path.join(directory, "cube.json"),
                    os.path.join(directory, "labels.csv"),
                    os.path.join(directory, "config.json"), VARIANTS[name], checkpoint)


def digest(directory: str) -> str:
    """sha256 over every file of a generated workload, in name order."""
    h = hashlib.sha256()
    for fname in sorted(os.listdir(directory)):
        h.update(fname.encode())
        with open(os.path.join(directory, fname), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()

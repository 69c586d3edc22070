"""Seeded synthetic scenes for desk-scale runs and tests."""

import os

import numpy as np

from . import data

ILLUMINATION = 0.45
NOISE = 0.05


def make_separable_cube(height: int = 12, width: int = 12, bands: int = 20,
                        n_class: int = 3, seed: int = 0):
    """Cube + labels with Gaussian-bump class spectra on spatial stripes.

    Class k's reflectance is a smooth bump centered at a class-specific
    wavelength, scaled by a per-pixel brightness gain (uniform in
    1 +/- ``ILLUMINATION``) plus i.i.d. Gaussian noise of standard
    deviation ``NOISE``. Classes therefore differ
    in spectral shape while brightness varies within each class, yet
    they stay separable by a nearest-centroid rule. Labels tile the
    scene in vertical stripes, one class per stripe, every pixel
    labeled.
    """
    rng = np.random.default_rng(seed)
    wavelengths = np.linspace(430.0, 905.0, bands)
    centers = np.linspace(600.0, 710.0, n_class)
    signatures = np.stack([
        0.2 + 0.55 * np.exp(-((wavelengths - mu) ** 2) / (2 * 50.0**2))
        for mu in centers
    ])
    labels = np.zeros((height, width), dtype=np.int64)
    stripe = max(1, width // n_class)
    for c in range(width):
        labels[:, c] = min(c // stripe, n_class - 1) + 1
    gain = rng.uniform(1.0 - ILLUMINATION, 1.0 + ILLUMINATION, size=(height, width, 1))
    cube_data = (signatures[labels - 1] * gain
                 + rng.normal(0.0, NOISE, size=(height, width, bands)))
    cube_data = np.clip(cube_data, 0.01, 0.99).astype(np.float32)
    cube = data.HsiCube(height, width, bands, tuple(wavelengths),
                        np.ascontiguousarray(cube_data))
    return cube, data.labelmap_from_array(labels)


def write_dataset(directory: str, cube: data.HsiCube, labels: data.LabelMap):
    """Write cube + labels under ``directory``; returns (header, labels) paths."""
    os.makedirs(directory, exist_ok=True)
    header = os.path.join(directory, "cube.json")
    data.write_cube(cube, header)
    label_path = os.path.join(directory, "labels.csv")
    data.write_grid_csv(labels.labels, label_path)
    return header, label_path

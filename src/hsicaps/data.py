"""Hyperspectral cube ingestion, band slicing, patches and splits.

Cube container format: a UTF-8 JSON header
``{height, width, bands, dtype:"f32le", interleave:"bip",
wavelengths_nm:[...], data_file:"<relative path>"}`` next to a raw file
of little-endian float32, band-interleaved-by-pixel, row-major.

Cubes, label maps, slice sets and splits are frozen after construction
(their arrays are write-locked) and every operation is a pure function.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Default wavelength slices (nm, lower-inclusive / upper-exclusive).
DEFAULT_SLICES = (
    ("blue", -math.inf, 515.0),
    ("green", 515.0, 600.0),
    ("red", 600.0, 680.0),
    ("red-edge1", 680.0, 710.0),
    ("red-edge2", 710.0, 750.0),
    ("red-edge3", 750.0, 790.0),
    ("nir", 790.0, math.inf),
)


def _freeze(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HsiCube:
    """Reflectance cube of shape (H, W, B) with per-band wavelengths."""

    height: int
    width: int
    bands: int
    wavelengths: tuple
    data: np.ndarray

    def __post_init__(self):
        if len(self.wavelengths) != self.bands:
            raise DataError(
                f"wavelength count mismatch: header declares {self.bands} bands "
                f"but lists {len(self.wavelengths)} wavelengths"
            )
        w = np.asarray(self.wavelengths, dtype=np.float64)
        if self.bands > 1 and not np.all(np.diff(w) > 0):
            raise DataError("wavelengths must be strictly increasing")
        if self.data.shape != (self.height, self.width, self.bands):
            raise DataError(
                f"data shape {self.data.shape} does not match header "
                f"({self.height}, {self.width}, {self.bands})"
            )
        _freeze(self.data)


@dataclass(frozen=True)
class LabelMap:
    """Integer class ids per pixel; 0 means unlabeled."""

    height: int
    width: int
    labels: np.ndarray
    n_class: int

    def __post_init__(self):
        if self.labels.shape != (self.height, self.width):
            raise DataError("label map shape mismatch")
        if self.labels.min() < 0:
            raise DataError("labels must be non-negative")
        ids = np.unique(self.labels[self.labels > 0])
        if ids.size and (ids.size != self.n_class or ids[-1] != self.n_class):
            raise DataError(
                f"class ids must be exactly 1..{self.n_class}, found {ids.tolist()}"
            )
        _freeze(self.labels)


def labelmap_from_array(labels) -> LabelMap:
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    n_class = int(labels.max()) if labels.size else 0
    return LabelMap(labels.shape[0], labels.shape[1], labels, n_class)


@dataclass(frozen=True)
class BandSliceSet:
    """Ordered wavelength intervals plus, once segmented, the cube band
    indices falling inside each interval."""

    slices: tuple  # of (name, lower_nm, upper_nm)
    band_indices: tuple = None  # of int tuples, parallel to slices

    def __post_init__(self):
        prev_hi = -math.inf
        for name, lo, hi in self.slices:
            if lo >= hi:
                raise DataError(f"slice {name!r} has empty interval [{lo}, {hi})")
            if lo < prev_hi:
                raise DataError(f"slice {name!r} overlaps its predecessor")
            prev_hi = hi

    @property
    def names(self):
        return tuple(s[0] for s in self.slices)

    def non_empty(self):
        """(name, band index tuple) for every slice holding >= 1 band."""
        if self.band_indices is None:
            raise DataError("slice set has not been segmented against a cube")
        return [
            (s[0], idx) for s, idx in zip(self.slices, self.band_indices) if idx
        ]


def default_band_slices() -> BandSliceSet:
    return BandSliceSet(DEFAULT_SLICES)


def whole_spectrum_slices() -> BandSliceSet:
    """Single slice covering every band (segmentation disabled)."""
    return BandSliceSet((("full", -math.inf, math.inf),))


@dataclass(frozen=True)
class SampleSplit:
    """Disjoint labeled-pixel coordinate sets for train and test."""

    train_indices: tuple
    test_indices: tuple
    seed: int
    train_fraction: float

    def __post_init__(self):
        overlap = set(self.train_indices) & set(self.test_indices)
        if overlap:
            raise DataError(f"train/test overlap on {len(overlap)} pixels")


# cube file IO ---------------------------------------------------------


def _header_bytes(cube: HsiCube, data_file: str) -> bytes:
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32le",
        "interleave": "bip",
        "wavelengths_nm": [float(w) for w in cube.wavelengths],
        "data_file": data_file,
    }
    return (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")


def write_cube(cube: HsiCube, header_path: str, data_path: str = None) -> None:
    """Write header JSON plus the raw float32 BIP file."""
    if data_path is None:
        data_path = os.path.splitext(header_path)[0] + ".raw"
    rel = os.path.relpath(data_path, os.path.dirname(header_path) or ".")
    with open(header_path, "wb") as fh:
        fh.write(_header_bytes(cube, rel))
    raw = np.ascontiguousarray(cube.data, dtype="<f4")
    with open(data_path, "wb") as fh:
        fh.write(raw.tobytes())


def load_cube(header_path: str) -> HsiCube:
    """Load a cube from its JSON header.

    Raises DataError on missing files, dimension/wavelength mismatches or
    non-finite samples (reported with their flat offset).
    """
    if not os.path.exists(header_path):
        raise DataError(f"cube header not found: {header_path}")
    try:
        with open(header_path, "r", encoding="utf-8") as fh:
            header = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed cube header {header_path}: {exc}") from exc
    for key in ("height", "width", "bands", "dtype", "interleave", "wavelengths_nm", "data_file"):
        if key not in header:
            raise DataError(f"cube header missing key {key!r}")
    if header["dtype"] != "f32le" or header["interleave"] != "bip":
        raise DataError("unsupported cube encoding (expected f32le / bip)")
    h, w, b = int(header["height"]), int(header["width"]), int(header["bands"])
    wavelengths = tuple(float(x) for x in header["wavelengths_nm"])
    if len(wavelengths) != b:
        raise DataError(
            f"wavelength count mismatch: header declares {b} bands "
            f"but lists {len(wavelengths)} wavelengths"
        )
    data_path = os.path.join(os.path.dirname(header_path) or ".", header["data_file"])
    if not os.path.exists(data_path):
        raise DataError(f"cube data file not found: {data_path}")
    raw = np.fromfile(data_path, dtype="<f4")
    if raw.size != h * w * b:
        raise DataError(
            f"cube data size mismatch: expected {h * w * b} samples, got {raw.size}"
        )
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise DataError(f"non-finite value at flat offset {int(bad[0])}")
    data = np.ascontiguousarray(raw.reshape(h, w, b))
    return HsiCube(h, w, b, wavelengths, data)


def load_labels(csv_path: str) -> LabelMap:
    """Label map CSV: H rows of W comma-separated non-negative ints."""
    if not os.path.exists(csv_path):
        raise DataError(f"label file not found: {csv_path}")
    rows = []
    with open(csv_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise DataError(f"bad label at line {line_no}: {exc}") from exc
    if not rows:
        raise DataError("empty label file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError("ragged label rows")
    return labelmap_from_array(np.array(rows, dtype=np.int64))


def write_labels(labels: LabelMap, csv_path: str) -> None:
    with open(csv_path, "w", encoding="utf-8") as fh:
        for row in labels.labels:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


# core operations ------------------------------------------------------


def normalize_cube(cube: HsiCube) -> HsiCube:
    """Per-band min-max scaling to [0, 1]; constant bands map to 0."""
    data = cube.data.astype(np.float32)
    lo = data.min(axis=(0, 1), keepdims=True)
    hi = data.max(axis=(0, 1), keepdims=True)
    span = hi - lo
    span[span == 0] = 1.0
    out = (data - lo) / span
    return HsiCube(cube.height, cube.width, cube.bands, cube.wavelengths,
                   np.ascontiguousarray(out))


def segment_bands(cube: HsiCube, spec: BandSliceSet = None) -> BandSliceSet:
    """Assign each cube band to the slice whose interval contains its
    wavelength (lower-inclusive, upper-exclusive)."""
    if spec is None:
        spec = default_band_slices()
    assigned = []
    for _, lo, hi in spec.slices:
        idx = tuple(
            i for i, w in enumerate(cube.wavelengths) if lo <= w < hi
        )
        assigned.append(idx)
    if not any(assigned):
        raise DataError("no band overlaps slice specification")
    return BandSliceSet(spec.slices, tuple(assigned))


def extract_patch_batch(cube: HsiCube, coords, size: int) -> np.ndarray:
    """Stack of windows centered on ``coords``, shape (N, s, s, B).

    Borders are mirror-reflected; every center must lie in the image.
    """
    if size % 2 == 0:
        raise DataError(f"patch size must be odd, got {size}")
    pad = size // 2
    padded = np.pad(cube.data, ((pad, pad), (pad, pad), (0, 0)), mode="reflect")
    out = np.empty((len(coords), size, size, cube.bands), dtype=np.float64)
    for i, (r, c) in enumerate(coords):
        if not (0 <= r < cube.height and 0 <= c < cube.width):
            raise DataError(f"patch center ({r}, {c}) outside image")
        out[i] = padded[r : r + size, c : c + size, :]
    return out


def split_samples(labels: LabelMap, train_fraction: float, seed: int) -> SampleSplit:
    """Stratified split: per class, round(fraction*count) pixels to train
    (at least 1 and at most count-1 when count >= 2), rest to test."""
    if not 0 < train_fraction < 1:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    lab = labels.labels
    classes = sorted(int(c) for c in np.unique(lab) if c > 0)
    if not classes:
        raise DataError("label map has no labeled pixels")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in classes:
        coords = [tuple(int(v) for v in rc) for rc in np.argwhere(lab == cls)]
        coords.sort()
        rng.shuffle(coords)
        count = len(coords)
        n_train = int(math.floor(train_fraction * count + 0.5))
        if count >= 2:
            n_train = min(max(n_train, 1), count - 1)
        train.extend(coords[:n_train])
        test.extend(coords[n_train:])
    return SampleSplit(tuple(train), tuple(test), seed, train_fraction)


def save_split(split: SampleSplit, path: str) -> None:
    doc = {
        "seed": split.seed,
        "train_fraction": split.train_fraction,
        "train": [[r, c] for r, c in split.train_indices],
        "test": [[r, c] for r, c in split.test_indices],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_split(path: str) -> SampleSplit:
    if not os.path.exists(path):
        raise DataError(f"split file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return SampleSplit(
        tuple((int(r), int(c)) for r, c in doc["train"]),
        tuple((int(r), int(c)) for r, c in doc["test"]),
        int(doc["seed"]),
        float(doc["train_fraction"]),
    )

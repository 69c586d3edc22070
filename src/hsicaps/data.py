"""Hyperspectral cube ingestion, band slicing, patches and splits.

Cube container format: a UTF-8 JSON header
``{height, width, bands, dtype:"f32le", interleave:"bip",
wavelengths_nm:[...], data_file:"<relative path>"}`` next to a raw file
of little-endian float32, band-interleaved-by-pixel, row-major.

A ``BandSliceSet`` holds only the wavelength intervals that hold at least
one cube band, each with its band indices: ``segment_bands`` drops the
empty intervals of ``DEFAULT_SLICES`` (or of ``WHOLE_SPECTRUM``, with
segmentation off), so slice ``i`` is the model's i-th spectral head.
Patches are gathered through ``reflect_index``, the mirror-padded grid of
source-pixel ids, so no padded copy of the spectra is made.
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
# The one interval of a run with segmentation off.
WHOLE_SPECTRUM = (("full", -math.inf, math.inf),)


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
    """Ordered wavelength intervals that each hold at least one cube band,
    with the indices of the bands inside each interval."""

    slices: tuple  # of (name, lower_nm, upper_nm)
    band_indices: tuple  # of non-empty int tuples, parallel to slices

    def __post_init__(self):
        if not self.slices:
            raise DataError("no band overlaps slice specification")
        prev_hi = -math.inf
        for name, lo, hi in self.slices:
            if lo >= hi:
                raise DataError(f"slice {name!r} has empty interval [{lo}, {hi})")
            if lo < prev_hi:
                raise DataError(f"slice {name!r} overlaps its predecessor")
            prev_hi = hi


@dataclass(frozen=True)
class SampleSplit:
    """Disjoint labeled-pixel coordinate sets for train and test."""

    train_indices: tuple
    test_indices: tuple
    seed: int
    train_fraction: float

    def __post_init__(self):
        for name, pixels in (("train", self.train_indices), ("test", self.test_indices)):
            seen = set()
            for rc in pixels:
                if rc in seen:
                    raise DataError(f"pixel {rc} is listed twice in the {name} list")
                seen.add(rc)
        overlap = set(self.train_indices) & set(self.test_indices)
        if overlap:
            raise DataError(f"train/test overlap on {len(overlap)} pixels")


# cube file IO ---------------------------------------------------------


def write_cube(cube: HsiCube, header_path: str) -> None:
    """Write header JSON plus the raw float32 BIP file beside it, named
    after the header with a ``.raw`` suffix (``cube.json``, ``cube.raw``)."""
    data_path = os.path.splitext(header_path)[0] + ".raw"
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32le",
        "interleave": "bip",
        "wavelengths_nm": [float(w) for w in cube.wavelengths],
        "data_file": os.path.basename(data_path),
    }
    with open(header_path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
    raw = np.ascontiguousarray(cube.data, dtype="<f4")
    with open(data_path, "wb") as fh:
        fh.write(raw.tobytes())


def load_cube(header_path: str) -> HsiCube:
    """Load a cube from its JSON header.

    Raises DataError on missing files, mistyped header entries,
    dimension/wavelength mismatches or non-finite samples (reported with
    their flat offset).
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
    h, w, b = dims = [header[key] for key in ("height", "width", "bands")]
    if not all(is_int(v) and v > 0 for v in dims):
        raise DataError(f"cube header height, width and bands must be positive integers, "
                        f"got {dims}")
    listed = header["wavelengths_nm"]
    if not (isinstance(listed, list) and all(map(is_number, listed))):
        raise DataError("cube header wavelengths_nm must be a list of numbers")
    wavelengths = tuple(float(x) for x in listed)
    if not isinstance(header["data_file"], str):
        raise DataError("cube header data_file must be a file name")
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


def read_grid_csv(csv_path: str, name: str) -> np.ndarray:
    """Integer-grid CSV, the format of label and class maps: H rows of W
    comma-separated ints, blank lines skipped. ``name`` ("label file",
    "class map") leads the not-found and malformed-file errors."""
    if not os.path.exists(csv_path):
        raise DataError(f"{name} not found: {csv_path}")
    rows = []
    with open(csv_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise DataError(f"malformed {name} {csv_path} at line {line_no}: {exc}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise DataError(f"malformed {name} {csv_path}: " + ("ragged rows" if rows else "no rows"))
    return np.array(rows, dtype=np.int64)


def write_grid_csv(grid, csv_path: str) -> None:
    """Write an (H, W) integer grid in the format ``read_grid_csv`` reads."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        for row in grid:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_labels(csv_path: str) -> LabelMap:
    """Label map CSV: H rows of W comma-separated non-negative ints."""
    return labelmap_from_array(read_grid_csv(csv_path, "label file"))


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


def segment_bands(wavelengths, intervals: tuple) -> BandSliceSet:
    """The (name, lower_nm, upper_nm) ``intervals`` that hold at least one
    of the band ``wavelengths``, each with the indices of the bands it
    contains (lower-inclusive, upper-exclusive)."""
    pairs = [(s, tuple(i for i, w in enumerate(wavelengths) if s[1] <= w < s[2]))
             for s in intervals]
    return BandSliceSet(tuple(s for s, idx in pairs if idx), tuple(idx for _, idx in pairs if idx))


def reflect_index(cube: HsiCube, size: int) -> np.ndarray:
    """The grid of flat pixel ids ``r * width + c`` mirror-padded by
    ``size // 2`` on both sides: (height + size - 1, width + size - 1).

    The patch of odd ``size`` centred on (r, c) reads the pixels under the
    window of this grid whose top-left corner is (r, c); reflection repeats
    where the image is narrower than the pad.
    """
    if size % 2 == 0:
        raise DataError(f"patch size must be odd, got {size}")
    ids = np.arange(cube.height * cube.width).reshape(cube.height, cube.width)
    return np.pad(ids, size // 2, mode="reflect")


def centre_array(cube: HsiCube, coords) -> np.ndarray:
    """``coords`` as an (N, 2) index array; every centre must lie in the image."""
    rc = np.asarray(coords, dtype=np.intp).reshape(-1, 2)
    outside = (rc < 0).any(axis=1) | (rc[:, 0] >= cube.height) | (rc[:, 1] >= cube.width)
    if outside.any():
        r, c = rc[np.argmax(outside)]
        raise DataError(f"patch center ({r}, {c}) outside image")
    return rc


def pixels_at(array: np.ndarray, coords) -> np.ndarray:
    """``array[r, c]`` for every (r, c) in ``coords``, by one fancy index."""
    rc = np.asarray(coords, dtype=np.intp).reshape(-1, 2)
    return array[rc[:, 0], rc[:, 1]]


def extract_patch_batch(cube: HsiCube, coords, size: int) -> np.ndarray:
    """Windows centered on ``coords``, a C-contiguous float64 (N, s, s, B).

    Borders are mirror-reflected; every center must lie in the image.
    """
    rc, span = centre_array(cube, coords), np.arange(size)
    ids = reflect_index(cube, size)[(rc[:, :1] + span)[:, :, None], (rc[:, 1:] + span)[:, None, :]]
    return cube.data.reshape(-1, cube.bands)[ids].astype(np.float64)


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


def is_int(v) -> bool:
    """True for a JSON integer (a Python int that is not a bool)."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """True for a JSON number (int or float, not bool)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pixel(rc) -> bool:
    return isinstance(rc, list) and len(rc) == 2 and all(map(is_int, rc))


def load_split(path: str) -> SampleSplit:
    """Read a ``save_split`` file. Unreadable JSON, a missing key, or a
    train/test entry that is not an integer [row, col] pair raises DataError."""
    if not os.path.exists(path):
        raise DataError(f"split file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        pixels = {key: doc[key] for key in ("train", "test")}
        seed, fraction = int(doc["seed"]), float(doc["train_fraction"])
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSONDecodeError
        raise DataError(f"malformed split file {path}: {exc!r}") from exc
    for key, entries in pixels.items():
        if not isinstance(entries, list) or not all(map(_is_pixel, entries)):
            raise DataError(f"malformed split file {path}: {key!r} must be a list of "
                            "[row, col] integer pairs")
    return SampleSplit(tuple(map(tuple, pixels["train"])), tuple(map(tuple, pixels["test"])),
                       seed, fraction)

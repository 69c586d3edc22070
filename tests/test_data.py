"""Cube IO, normalization, slicing, patches and splits."""

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicaps import data, training
from hsicaps.errors import DataError


def make_cube(arr, wavelengths):
    arr = np.asarray(arr, dtype=np.float32)
    return data.HsiCube(arr.shape[0], arr.shape[1], arr.shape[2],
                        tuple(wavelengths), arr)


# cube IO ----------------------------------------------------------------


def test_round_trip_small_cube(tmp_path):
    arr = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3) / 10.0
    cube = make_cube(arr, [500.0, 650.0, 800.0])
    header = tmp_path / "cube.json"
    data.write_cube(cube, str(header))
    loaded = data.load_cube(str(header))
    assert (loaded.height, loaded.width, loaded.bands) == (2, 2, 3)
    assert loaded.wavelengths == (500.0, 650.0, 800.0)
    np.testing.assert_array_equal(loaded.data, arr)


def test_wavelength_count_mismatch(tmp_path):
    arr = np.zeros((1, 1, 4), dtype=np.float32)
    header = tmp_path / "cube.json"
    data.write_cube(make_cube(arr, [1.0, 2.0, 3.0, 4.0]), str(header))
    doc = json.loads(header.read_text())
    doc["wavelengths_nm"] = [1.0, 2.0, 3.0]
    header.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="wavelength count mismatch"):
        data.load_cube(str(header))


def test_round_trip_bytes_identical_random_cubes(tmp_path, rng):
    for trial in range(5):
        h, w, b = rng.integers(1, 6, size=3)
        arr = rng.uniform(0, 1, size=(h, w, b)).astype(np.float32)
        wl = np.sort(rng.uniform(400, 2500, size=b))
        while b > 1 and np.any(np.diff(wl) == 0):
            wl = np.sort(rng.uniform(400, 2500, size=b))
        adir = tmp_path / f"a{trial}"
        bdir = tmp_path / f"b{trial}"
        adir.mkdir(), bdir.mkdir()
        data.write_cube(make_cube(arr, wl), str(adir / "cube.json"))
        data.write_cube(data.load_cube(str(adir / "cube.json")), str(bdir / "cube.json"))
        # same relative names -> both files byte-identical
        assert (adir / "cube.json").read_bytes() == (bdir / "cube.json").read_bytes()
        assert (adir / "cube.raw").read_bytes() == (bdir / "cube.raw").read_bytes()


def test_load_missing_and_nonfinite(tmp_path):
    with pytest.raises(DataError, match="not found"):
        data.load_cube(str(tmp_path / "missing.json"))
    arr = np.zeros((1, 2, 2), dtype=np.float32)
    header = tmp_path / "cube.json"
    data.write_cube(make_cube(arr, [5.0, 6.0]), str(header))
    raw = tmp_path / "cube.raw"
    buf = np.fromfile(raw, dtype="<f4")
    buf[3] = np.nan
    buf.tofile(raw)
    with pytest.raises(DataError, match="offset 3"):
        data.load_cube(str(header))


def test_labels_round_trip(tmp_path, small_labels):
    path = tmp_path / "labels.csv"
    data.write_grid_csv(small_labels.labels, str(path))
    loaded = data.load_labels(str(path))
    np.testing.assert_array_equal(loaded.labels, small_labels.labels)
    assert loaded.n_class == 3


def test_labels_must_be_contiguous():
    with pytest.raises(DataError, match="class ids"):
        data.labelmap_from_array(np.array([[1, 3]]))


@pytest.mark.parametrize("build, message", [
    (lambda: data.HsiCube(1, 1, 2, (1.0, 2.0), np.zeros((1, 2, 2), dtype=np.float32)),
     "data shape (1, 2, 2) does not match header (1, 1, 2)"),
    (lambda: data.LabelMap(2, 2, np.zeros((3, 3), dtype=np.int64), 0),
     "label map shape mismatch"),
    (lambda: data.BandSliceSet((("a", 5.0, 5.0),), ((0,),)),
     "slice 'a' has empty interval [5.0, 5.0)"),
    (lambda: data.segment_bands((450.0, 550.0), (("a", 400.0, 600.0), ("b", 500.0, 700.0))),
     "slice 'b' overlaps its predecessor"),
    (lambda: data.split_samples(data.labelmap_from_array(np.ones((2, 2), dtype=int)), 1.0, 0),
     "train_fraction must be in (0, 1), got 1.0"),
], ids=["cube-data-shape", "label-shape", "empty-interval", "overlapping-slices",
        "train-fraction"])
def test_containers_reject_inconsistent_parts(build, message):
    with pytest.raises(DataError, match=re.escape(message)):
        build()


# normalize ---------------------------------------------------------------


def test_normalize_affine_endpoints():
    arr = np.array([[[2.0], [4.0]], [[6.0], [6.0]]], dtype=np.float32)
    out = data.normalize_cube(make_cube(arr, [500.0]))
    np.testing.assert_allclose(sorted(out.data.reshape(-1)), [0.0, 0.5, 1.0, 1.0])


def test_normalize_constant_band_maps_to_zero():
    arr = np.full((1, 2, 1), 5.0, dtype=np.float32)
    out = data.normalize_cube(make_cube(arr, [500.0]))
    np.testing.assert_array_equal(out.data, np.zeros((1, 2, 1)))


def test_normalize_range_property(rng):
    for _ in range(10):
        arr = rng.normal(0, 10, size=(3, 4, 5)).astype(np.float32)
        out = data.normalize_cube(make_cube(arr, [1, 2, 3, 4, 5]))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


# segment -----------------------------------------------------------------


def test_segment_hand_assignment():
    cube = make_cube(np.zeros((1, 1, 4), dtype=np.float32), [480.0, 550.0, 700.0, 900.0])
    seg = data.segment_bands(cube.wavelengths, data.DEFAULT_SLICES)
    by_name = {name: idx for (name, _, _), idx in zip(seg.slices, seg.band_indices)}
    assert by_name["blue"] == (0,)
    assert by_name["green"] == (1,)
    assert by_name["red-edge1"] == (2,)
    assert by_name["nir"] == (3,)
    # red, red-edge2 and red-edge3 hold no band, so the set leaves them out
    assert list(by_name) == ["blue", "green", "red-edge1", "nir"]


def test_segment_lower_bound_inclusive():
    cube = make_cube(np.zeros((1, 1, 1), dtype=np.float32), [515.0])
    seg = data.segment_bands(cube.wavelengths, data.DEFAULT_SLICES)
    assert [s[0] for s in seg.slices] == ["green"] and seg.band_indices == ((0,),)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=300, max_value=2600), min_size=1, max_size=30,
                unique=True))
def test_segment_is_partition(wavelengths):
    wavelengths = sorted(wavelengths)
    cube = make_cube(np.zeros((1, 1, len(wavelengths)), dtype=np.float32), wavelengths)
    seg = data.segment_bands(cube.wavelengths, data.DEFAULT_SLICES)
    assigned = [i for idx in seg.band_indices for i in idx]
    assert sorted(assigned) == list(range(len(wavelengths)))
    assert len(assigned) == len(set(assigned))


def test_segment_keeps_only_the_filled_slices_in_interval_order():
    """gradcheck's 14 bands fill blue, green, red and red-edge1 only."""
    cube, _ = training._gradcheck_dataset(0)
    seg = data.segment_bands(cube.wavelengths, data.DEFAULT_SLICES)
    assert seg.slices == data.DEFAULT_SLICES[:4]
    assert seg.band_indices == (tuple(range(8)), (8, 9), (10, 11, 12), (13,))
    whole = data.segment_bands(cube.wavelengths, data.WHOLE_SPECTRUM)
    assert whole.slices == data.WHOLE_SPECTRUM and whole.band_indices == (tuple(range(14)),)
    with pytest.raises(DataError, match="no band overlaps"):
        data.segment_bands(cube.wavelengths, (("swir", 1000.0, 2500.0),))


def test_segment_no_overlap_error():
    cube = make_cube(np.zeros((1, 1, 1), dtype=np.float32), [450.0])
    custom = (("nir-only", 790.0, math.inf),)
    with pytest.raises(DataError, match="no band overlaps"):
        data.segment_bands(cube.wavelengths, custom)


# patches -----------------------------------------------------------------


def test_interior_patch_exact_window(small_cube, small_labels):
    patch = data.extract_patch_batch(small_cube, [(2, 2)], 3)[0]
    np.testing.assert_array_equal(patch, small_cube.data[1:4, 1:4, :])
    assert small_labels.labels[2, 2] == 2


def test_corner_patch_mirrors():
    grid = np.arange(9, dtype=np.float32).reshape(3, 3, 1)
    cube = make_cube(grid, [500.0])
    patch = data.extract_patch_batch(cube, [(0, 0)], 3)[0]
    # mirror about the edge: row -1 -> row 1, col -1 -> col 1
    expected = np.array([
        [4, 3, 4],
        [1, 0, 1],
        [4, 3, 4],
    ], dtype=np.float32).reshape(3, 3, 1)
    np.testing.assert_array_equal(patch, expected)


@pytest.mark.parametrize("shape, size", [((6, 5, 3), 3), ((2, 3, 4), 5)])
def test_patch_batch_is_contiguous_float64_window_of_reflect_pad(rng, shape, size):
    # the second cube is narrower than the patch, so its padding reflects twice
    wavelengths = [400.0 + 10 * i for i in range(shape[2])]
    cube = make_cube(rng.random(shape).astype(np.float32), wavelengths)
    coords = [(r, c) for r in range(shape[0]) for c in range(shape[1])][::-1]
    patches = data.extract_patch_batch(cube, coords, size)
    assert patches.dtype == np.float64 and patches.flags.c_contiguous
    assert patches.shape == (len(coords), size, size, shape[2])
    pad = size // 2
    padded = np.pad(cube.data, ((pad, pad), (pad, pad), (0, 0)), mode="reflect")
    for (r, c), patch in zip(coords, patches):
        np.testing.assert_array_equal(patch, padded[r : r + size, c : c + size])


def mirrored(i, n):
    """Image index that reflect padding shows at index ``i`` of an axis of ``n``."""
    period = max(2 * (n - 1), 1)
    i %= period
    return min(i, period - i)


@pytest.mark.parametrize("shape, size", [((6, 5), 3), ((2, 3), 5), ((1, 4), 3), ((3, 2), 7)])
def test_reflect_index_is_the_reflect_padded_id_grid(shape, size):
    # all but the first scene are narrower than the pad on some axis, so
    # their padding reflects more than once (or repeats a single row)
    cube = make_cube(np.zeros(shape + (1,), dtype=np.float32), [500.0])
    grid = data.reflect_index(cube, size)
    ids = np.arange(shape[0] * shape[1]).reshape(shape)
    np.testing.assert_array_equal(grid, np.pad(ids, size // 2, mode="reflect"))
    pad = size // 2
    for i, j in np.ndindex(grid.shape):
        assert grid[i, j] == mirrored(i - pad, shape[0]) * shape[1] + mirrored(j - pad, shape[1])
    with pytest.raises(DataError, match="odd"):
        data.reflect_index(cube, size + 1)


def test_patch_label_matches_center(small_cube, small_labels):
    # a patch carries no label: its center pixel is the one the coords name
    coords = [(r, c) for r in range(small_cube.height) for c in range(small_cube.width)]
    patches = data.extract_patch_batch(small_cube, coords, 3)
    for (r, c), patch in zip(coords, patches):
        np.testing.assert_array_equal(patch[1, 1], small_cube.data[r, c])


def test_patch_errors(small_cube, small_labels):
    with pytest.raises(DataError, match="odd"):
        data.extract_patch_batch(small_cube, [(1, 1)], 4)
    for center in ((9, 0), (0, 5), (-1, 2)):
        with pytest.raises(DataError, match="outside"):
            data.extract_patch_batch(small_cube, [(1, 1), center], 3)


def test_patch_translation_consistency(small_cube, small_labels):
    patch = data.extract_patch_batch(small_cube, [(2, 2)], 3)[0]
    for i in range(3):
        for j in range(3):
            np.testing.assert_array_equal(
                patch[i, j], small_cube.data[2 + i - 1, 2 + j - 1]
            )


# splits ------------------------------------------------------------------


def test_split_rounding_rule():
    labels = data.labelmap_from_array(np.array([[1, 1, 1]]))
    split = data.split_samples(labels, 2.0 / 3.0, 0)
    assert len(split.train_indices) == 2
    assert len(split.test_indices) == 1


def test_split_deterministic(small_labels):
    a = data.split_samples(small_labels, 0.5, 42)
    b = data.split_samples(small_labels, 0.5, 42)
    assert a.train_indices == b.train_indices
    assert a.test_indices == b.test_indices


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.1, max_value=0.9))
def test_split_set_algebra(seed, fraction):
    rng = np.random.default_rng(seed)
    lab = rng.integers(0, 4, size=(6, 6))
    if not (lab > 0).any():
        lab[0, 0] = 1
    lab = _contiguize(lab)
    labels = data.labelmap_from_array(lab)
    split = data.split_samples(labels, fraction, seed)
    train, test = set(split.train_indices), set(split.test_indices)
    assert not train & test
    labeled = {tuple(map(int, rc)) for rc in np.argwhere(lab > 0)}
    assert train | test == labeled
    for cls in np.unique(lab[lab > 0]):
        count = int((lab == cls).sum())
        n_train = sum(1 for rc in train if lab[rc] == cls)
        if count >= 2:
            assert 1 <= n_train <= count - 1
            assert n_train == min(max(int(np.floor(fraction * count + 0.5)), 1),
                                  count - 1)


def _contiguize(lab):
    ids = sorted(int(v) for v in np.unique(lab) if v > 0)
    out = np.zeros_like(lab)
    for new, old in enumerate(ids, start=1):
        out[lab == old] = new
    return out


def test_split_all_unlabeled_error():
    labels = data.labelmap_from_array(np.zeros((3, 3), dtype=int))
    with pytest.raises(DataError):
        data.split_samples(labels, 0.5, 0)


def test_split_round_trip(tmp_path, small_labels):
    split = data.split_samples(small_labels, 0.5, 3)
    path = tmp_path / "split.json"
    data.save_split(split, str(path))
    loaded = data.load_split(str(path))
    assert loaded.train_indices == split.train_indices
    assert loaded.test_indices == split.test_indices
    assert loaded.seed == 3

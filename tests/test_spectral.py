"""Slice feature heads and the two index transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicaps import data, model as model_mod, spectral
from hsicaps.config import RunConfig
from hsicaps.errors import DataError


def conv1d(signal, kernels, bias=None, stride=1):
    """Batched conv1d on one single-channel signal (N = 1): (positions, filters)."""
    w = np.asarray(kernels, dtype=np.float64)
    if w.ndim == 1:
        w = w.reshape(1, 1, -1)
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    sig = np.asarray(signal, dtype=np.float64)
    return spectral.conv1d_batch(sig.reshape(1, -1, 1), w, b, stride)[0]


# conv1d -------------------------------------------------------------------


def test_conv1d_identity_pick_kernel():
    out = conv1d([1, 2, 3, 4], [1, 0])
    np.testing.assert_allclose(out.reshape(-1), [1, 2, 3])


def test_conv1d_box_kernel():
    out = conv1d([1, 2, 3], [1, 1, 1])
    np.testing.assert_allclose(out.reshape(-1), [6])


def test_conv1d_linearity(rng):
    w = rng.normal(size=5)  # zero bias
    s = rng.normal(size=12)
    a = 3.7
    np.testing.assert_allclose(conv1d(a * s, w), a * conv1d(s, w), rtol=1e-12)


def brute_conv1d(signal, weights, bias, stride):
    """Independent dot-product oracle."""
    J, _, rm = weights.shape
    positions = (len(signal) - rm) // stride + 1
    out = np.zeros((positions, J))
    for p in range(positions):
        for j in range(J):
            acc = 0.0
            for t in range(rm):
                acc += weights[j, 0, t] * signal[p * stride + t]
            out[p, j] = acc + bias[j]
    return out


def test_conv1d_matches_brute_force(rng):
    for stride in (1, 2):
        w = rng.normal(size=(3, 1, 4))
        b = rng.normal(size=3)
        sig = rng.normal(size=11)
        np.testing.assert_allclose(
            conv1d(sig, w, b, stride),
            brute_conv1d(sig, w, b, stride),
            rtol=1e-12, atol=1e-14,
        )


def test_conv1d_short_signal_error():
    with pytest.raises(DataError, match="shorter"):
        conv1d([1.0], [1, 1])


# slice nets ----------------------------------------------------------------


def build_model(slices, n_class, seed=0):
    """Seeded model over ``slices`` with the default configuration."""
    return model_mod.init_model(slices, n_class, RunConfig(), np.random.default_rng(seed))


def segmented(wavelengths):
    cube = data.HsiCube(1, 1, len(wavelengths), tuple(wavelengths),
                        np.zeros((1, 1, len(wavelengths)), dtype=np.float32))
    return data.segment_bands(cube)


def base_features(spectrum, mdl):
    """Batched base features of one spectrum (N = 1)."""
    return np.asarray(spectral.base_features(spectrum.reshape(1, -1), mdl.detached()))[0]


def test_base_features_length_and_zero_params(rng):
    slices = segmented([480, 550, 620, 700, 760, 900])  # 6 slices non-empty
    mdl = build_model(slices, n_class=3)
    base_width = len(slices.non_empty()) * 3
    spectrum = rng.uniform(0, 1, size=6)
    x1 = base_features(spectrum, mdl)
    assert x1.shape == (base_width,)
    # zero every parameter -> zero features
    for t in mdl.params.values():
        t.data[...] = 0.0
    np.testing.assert_array_equal(base_features(spectrum, mdl), 0.0)


def head_kinds(slices, n_class):
    """Per slice head: "dense" for the fallback, "conv" for the conv stack."""
    names = {name for name, *_ in model_mod.param_spec(slices, n_class, RunConfig())}
    return ["dense" if f"spectral.{i}.dense.w" in names else "conv"
            for i in range(len(slices.non_empty()))]


def test_dense_fallback_for_narrow_slices():
    slices = segmented([480, 550, 620, 700, 760, 900])
    assert set(head_kinds(slices, 2)) == {"dense"}  # all slices narrow
    wide = segmented(list(np.linspace(400, 510, 10)) + [550.0])
    # 10-band blue slice takes the conv path, the single green band the fallback
    assert head_kinds(wide, 2) == ["conv", "dense"]


def test_conv_path_shapes(rng):
    wide = segmented(list(np.linspace(400, 510, 12)))
    mdl = build_model(wide, n_class=4)
    x1 = base_features(rng.uniform(0, 1, 12), mdl)
    assert x1.shape == (4,)


# binary index ---------------------------------------------------------------


def test_binary_index_hand_values():
    out = spectral.binary_index(np.array([0.6, 0.2]))
    np.testing.assert_allclose(out, [0.5], rtol=1e-6)
    np.testing.assert_allclose(spectral.binary_index(np.array([0.4, 0.4])), [0.0],
                               atol=1e-12)


def test_binary_index_count_formula():
    for n in range(2, 11):
        out = spectral.binary_index(np.arange(1.0, n + 1.0))
        assert out.shape == (math.comb(n, 2),)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=8),
       st.integers(min_value=0, max_value=10**6))
def test_binary_index_antisymmetry(values, swap_seed):
    x = np.array(values)
    rng = np.random.default_rng(swap_seed)
    i, j = sorted(rng.choice(len(x), size=2, replace=False))
    pairs = spectral.pair_indices(len(x))
    k = int(np.where((pairs[:, 0] == i) & (pairs[:, 1] == j))[0][0])
    swapped = x.copy()
    swapped[i], swapped[j] = swapped[j], swapped[i]
    a = spectral.binary_index(x)[k]
    b = spectral.binary_index(swapped)[k]
    assert abs(a + b) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=8),
       st.floats(min_value=0.1, max_value=50.0))
def test_binary_index_scale_invariance(values, a):
    x = np.array(values)
    np.testing.assert_allclose(spectral.binary_index(a * x), spectral.binary_index(x),
                               atol=1e-6)


def test_binary_index_clamped():
    out = spectral.binary_index(np.array([1.0, -0.9]))
    assert np.all(out <= 1.0) and np.all(out >= -1.0)


def test_binary_index_zero_denominator_guarded():
    out = spectral.binary_index(np.array([0.5, -0.5]))
    assert np.isfinite(out).all()


# triangular index ------------------------------------------------------------


def test_triangular_hand_values():
    np.testing.assert_allclose(spectral.triangular_index(np.array([1.0, 1.0, 1.0])), [0.0],
                               atol=1e-15)
    np.testing.assert_allclose(spectral.triangular_index(np.array([0.5, 0.3, 0.1])), [0.0],
                               atol=1e-15)
    np.testing.assert_allclose(spectral.triangular_index(np.array([1.0, 0.0, 0.0])), [0.5])


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-1, max_value=1),
       st.integers(min_value=3, max_value=9))
def test_triangular_collinear_is_zero(intercept, slope, n):
    x = intercept + slope * np.arange(1.0, n + 1.0)
    out = spectral.triangular_index(x)
    np.testing.assert_allclose(out, 0.0, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=3, max_size=7),
       st.floats(min_value=0.1, max_value=10.0))
def test_triangular_homogeneity(values, a):
    x = np.array(values)
    np.testing.assert_allclose(spectral.triangular_index(a * x),
                               a * spectral.triangular_index(x),
                               rtol=1e-9, atol=1e-12)


def test_triangular_cap_selects_top_variance(rng):
    # feature 0 varies wildly -> triples containing it dominate
    n = 100
    x1 = np.zeros((n, 5))
    x1[:, 0] = rng.normal(0, 10.0, size=n)
    x1[:, 1:] = rng.normal(0, 0.01, size=(n, 4))
    combos = spectral.fit_triangular_cap(x1, 6)
    assert combos.shape == (6, 3)
    assert np.all(combos[:, 0] == 0)  # highest-variance triples all include 0
    # lexicographic output order
    keys = [tuple(c) for c in combos]
    assert keys == sorted(keys)
    # cap larger than the population keeps everything
    assert spectral.fit_triangular_cap(x1, 1000).shape == (math.comb(5, 3), 3)


# enhance / feature_count -------------------------------------------------------


def test_feature_count_values():
    assert spectral.feature_count(7, 3) == 1561
    assert spectral.feature_count(7, 17) == 280959
    assert spectral.feature_count(7, 3, cap=100) == 331
    with pytest.raises(DataError, match="too few"):
        spectral.feature_count(1, 2)


def test_enhance_bookkeeping(rng):
    x1 = rng.normal(size=(1, 21))
    feats = spectral.enhanced_features(x1)
    np.testing.assert_array_equal(feats[:, :21], x1)
    assert feats[:, 21:231].shape == (1, 210)  # binary index
    assert feats[:, 231:].shape == (1, 1330)  # triangular index
    assert feats.shape == (1, 1561)


def test_enhance_zeros():
    feats = spectral.enhanced_features(np.zeros((1, 5)))
    np.testing.assert_array_equal(feats[:, 5:15], 0.0)
    np.testing.assert_array_equal(feats[:, 15:], 0.0)


def test_enhance_lengths_exhaustive(rng):
    for m in range(1, 31):
        for n_class in range(1, 31):
            base = m * n_class
            if base < 3 or base > 30:
                continue
            feats = spectral.enhanced_features(rng.normal(size=(1, base)))
            assert feats.shape[1] == spectral.feature_count(m, n_class)


def test_feature_names_stable():
    names = spectral.feature_names(3)  # three base features
    assert names[0] == "b1_1"
    assert names[3] == "bin_1_2"
    assert names[3 + 3] == "tri_1_2_3"
    assert len(names) == spectral.feature_count(1, 3)


def test_batched_matches_per_vector(rng):
    batch = rng.normal(size=(6, 5))
    b_all = spectral.binary_index(batch)
    t_all = spectral.triangular_index(batch)
    for i in range(6):
        np.testing.assert_allclose(b_all[i], spectral.binary_index(batch[i]), rtol=1e-12)
        np.testing.assert_allclose(t_all[i], spectral.triangular_index(batch[i]), rtol=1e-12)

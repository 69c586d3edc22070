"""Slice feature heads and the two index transforms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_autodiff import fd_check, parameter

from hsicaps import autodiff as ad
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
    return (ad.conv(sig.reshape(1, -1, 1), w.transpose(0, 2, 1), stride) + b)[0]


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
    with pytest.raises(DataError, match="smaller than kernel"):
        conv1d([1.0], [1, 1])


# slice nets ----------------------------------------------------------------


def build_model(slices, n_class, seed=0):
    """Seeded model over ``slices`` with the default configuration."""
    return model_mod.init_model(slices, n_class, RunConfig(), np.random.default_rng(seed))


def segmented(wavelengths):
    cube = data.HsiCube(1, 1, len(wavelengths), tuple(wavelengths),
                        np.zeros((1, 1, len(wavelengths)), dtype=np.float32))
    return data.segment_bands(cube, data.DEFAULT_SLICES)


def base_features(spectrum, mdl):
    """Batched base features of one spectrum (N = 1)."""
    return np.asarray(spectral.base_features(spectrum.reshape(1, -1), mdl.detached()))[0]


def test_base_features_length_and_zero_params(rng):
    slices = segmented([480, 550, 620, 700, 760, 900])  # 6 slices non-empty
    mdl = build_model(slices, n_class=3)
    base_width = len(slices.slices) * 3
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
            for i in range(len(slices.slices))]


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


def correlated_features(rng, n, F=63):
    """(n, F) features with unequal scales and correlated columns, as slice
    heads give."""
    mix = rng.normal(size=(F, F)) * rng.uniform(0.1, 3.0, size=F)
    return rng.normal(size=(n, F)) @ mix + rng.uniform(-2.0, 2.0, size=F)


def dense_cap_reference(x1, cap):
    """The cap fit with the variances of the dense (n, C(F,3)) area matrix."""
    combos = spectral.triple_indices(x1.shape[1])
    variances = (x1 @ spectral.triangular_matrix(x1.shape[1])).var(axis=0)
    ranked = np.lexsort((combos[:, 2], combos[:, 1], combos[:, 0], -variances))
    return combos[np.sort(ranked[:cap])]


def test_triangular_variances_equal_the_dense_area_variances(rng):
    for n, F in ((162, 63), (40, 12), (7, 5)):
        x1 = correlated_features(rng, n, F)
        combos = spectral.triple_indices(F)
        want = (x1 @ spectral.triangular_matrix(F)).var(axis=0)
        got = spectral.triangular_variances(x1, combos)
        assert np.max(np.abs(got - want) / want) < 1e-12
        subset = combos[::3]
        np.testing.assert_array_equal(spectral.triangular_variances(x1, subset), got[::3])


def test_triangular_cap_equals_the_dense_variance_reference():
    for seed in range(4):
        x1 = correlated_features(np.random.default_rng(seed), 162)
        for cap in (1, 50, 2000):
            np.testing.assert_array_equal(spectral.fit_triangular_cap(x1, cap),
                                          dense_cap_reference(x1, cap))


def test_triangular_cap_memory_does_not_grow_with_the_training_set(rng):
    """C(63, 3) = 39,711 triples: a dense area matrix over 1,152 training
    pixels would be 349 MiB. Only the (n, 63) centred copy grows with n."""
    spectral.triple_indices(63)  # the cached triple list is not part of the fit
    peaks = []
    for n in (144, 1152):
        x1 = correlated_features(rng, n)
        tracemalloc.start()
        try:
            spectral.fit_triangular_cap(x1, 2000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 63 * 1152 * 8 + 2**16, [p / 2**20 for p in peaks]
    assert peaks[1] < 8 * 2**20, f"tracemalloc peak {peaks[1] / 2**20:.1f} MiB"


# index transforms as fixed matrices -------------------------------------------


def test_binary_index_matches_pair_loop(rng):
    eps = 1e-8
    x = rng.normal(size=(50, 21))
    x[3, 2] = -x[3, 5]  # zero denominator
    x[4, :2] = [1.0, -0.9]  # clamped
    out = spectral.binary_index(x, eps)
    ref = np.empty_like(out)
    for k, (i, j) in enumerate(spectral.pair_indices(21)):
        den = x[:, i] + x[:, j]
        ref[:, k] = np.clip((x[:, i] - x[:, j]) / (den + np.where(den >= 0, eps, -eps)),
                            -1.0, 1.0)
    np.testing.assert_array_equal(out, ref)


def shoelace(x, combos):
    """Signed area of the triangle on (i+1, x_i), (j+1, x_j), (h+1, x_h)."""
    out = np.empty((x.shape[0], len(combos)))
    for k, (i, j, h) in enumerate(combos):
        out[:, k] = 0.5 * ((j - i) * (x[:, h] - x[:, i]) - (h - i) * (x[:, j] - x[:, i]))
    return out


def test_triangular_index_matches_shoelace(rng):
    x = rng.normal(size=(40, 12))
    everything = spectral.triple_indices(12)
    np.testing.assert_allclose(spectral.triangular_index(x), shoelace(x, everything),
                               rtol=1e-12, atol=1e-13)
    capped = spectral.fit_triangular_cap(x, 50)
    assert capped.shape == (50, 3)
    np.testing.assert_allclose(spectral.triangular_index(x, capped), shoelace(x, capped),
                               rtol=1e-12, atol=1e-13)


def test_index_transform_gradients(rng):
    # positive features keep every normalized difference strictly inside the clamp
    x1 = parameter(rng.uniform(0.2, 1.0, size=(3, 6)))
    combos = spectral.triple_indices(6)[::3]

    def build():
        b = spectral.binary_index(x1)
        t = spectral.triangular_index(x1, combos)
        return ad.add(ad.sum(ad.mul(b, b)), ad.sum(ad.mul(t, t)))

    fd_check(build, [x1])


def test_triangular_map_rank():
    # Affine sequences (collinear points) have zero area; rank b - 2 says
    # they make up the whole null space of the full triangular map.
    for b in range(3, 31):
        tri = spectral.triangular_index(np.eye(b))  # rows of the (b, C(b,3)) map
        assert np.linalg.matrix_rank(tri) == b - 2


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

"""Metrics, McNemar, entropy, Dunn, reflectance indices, r-squared."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsicaps import evaluation as ev
from hsicaps.errors import DataError


def index_by_name(name: str) -> ev.VegetationIndexDef:
    """The built-in vegetation index called ``name``."""
    return next(idx for idx in ev.BUILTIN_INDICES if idx.name == name)


# confusion --------------------------------------------------------------


def test_confusion_diagonal():
    cm = ev.confusion([1, 2, 3, 1], [1, 2, 3, 1], n_class=3)
    np.testing.assert_array_equal(cm.counts, np.diag([2, 1, 1]))


def test_confusion_single_offdiagonal():
    cm = ev.confusion([1], [2], n_class=2)
    assert cm.counts[0][1] == 1 and cm.total == 1
    np.testing.assert_array_equal(ev.confusion([1], [2], n_class=3).counts,
                                  [[0, 1, 0], [0, 0, 0], [0, 0, 0]])


def test_confusion_skips_unlabeled_and_counts(rng):
    for _ in range(20):
        truth = rng.integers(0, 4, size=30)
        pred = rng.integers(1, 4, size=30)
        cm = ev.confusion(truth, pred, n_class=3)
        assert cm.total == int((truth > 0).sum())


def test_confusion_length_mismatch():
    with pytest.raises(DataError, match="length mismatch"):
        ev.confusion([1, 2], [1], n_class=2)
    with pytest.raises(DataError, match=r"labels outside \[1, 2\]"):
        ev.confusion([1, 3], [1, 1], n_class=2)


# oa / aa / kappa / sens-spec ---------------------------------------------


def cm_from(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return ev.ConfusionMatrix(counts.shape[0], counts)


def test_oa_aa_perfect():
    oa, aa = ev.oa_aa(cm_from([[4, 0], [0, 6]]))
    assert oa == 1.0 and aa == 1.0


def test_oa_aa_hand_values():
    oa, aa = ev.oa_aa(cm_from([[8, 2], [5, 5]]))
    assert oa == pytest.approx(0.65)
    assert aa == pytest.approx((0.8 + 0.5) / 2)


def test_aa_excludes_empty_class():
    oa, aa = ev.oa_aa(cm_from([[3, 1, 0], [0, 0, 0], [1, 0, 5]]))
    assert aa == pytest.approx((3 / 4 + 5 / 6) / 2)


def test_kappa_values():
    assert ev.kappa(cm_from([[5, 0], [0, 5]])) == pytest.approx(1.0)
    assert ev.kappa(cm_from([[5, 5], [5, 5]])) == pytest.approx(0.0)
    assert ev.kappa(cm_from([[8, 2], [5, 5]])) == pytest.approx(0.3)


def test_kappa_degenerate():
    with pytest.raises(DataError, match="degenerate"):
        ev.kappa(cm_from([[7, 0], [0, 0]]))


def test_sens_spec_values():
    assert ev.sens_spec(cm_from([[4, 0], [0, 4]]), 1) == (1.0, 1.0)
    sens, spec = ev.sens_spec(cm_from([[8, 2], [5, 5]]), 1)
    assert sens == pytest.approx(0.8)
    assert spec == pytest.approx(0.5)


def test_sens_spec_undefined_marker():
    sens, _spec = ev.sens_spec(cm_from([[0, 0], [1, 3]]), 1)
    assert math.isnan(sens)


def brute_metrics(truth, pred, n_class):
    """Per-pixel counting oracle for every supported metric."""
    pairs = [(t, p) for t, p in zip(truth, pred) if t > 0]
    total = len(pairs)
    oa = sum(1 for t, p in pairs if t == p) / total
    recalls = []
    for c in range(1, n_class + 1):
        truths = [(t, p) for t, p in pairs if t == c]
        if truths:
            recalls.append(sum(1 for t, p in truths if p == c) / len(truths))
    aa = sum(recalls) / len(recalls)
    p_e = 0.0
    for c in range(1, n_class + 1):
        row = sum(1 for t, _ in pairs if t == c)
        col = sum(1 for _, p in pairs if p == c)
        p_e += row * col
    p_e /= total**2
    kap = (oa - p_e) / (1 - p_e) if p_e != 1 else None
    per_class = {}
    for c in range(1, n_class + 1):
        tp = sum(1 for t, p in pairs if t == c and p == c)
        fn = sum(1 for t, p in pairs if t == c and p != c)
        fp = sum(1 for t, p in pairs if t != c and p == c)
        tn = total - tp - fn - fp
        sens = tp / (tp + fn) if tp + fn else None
        spec = tn / (tn + fp) if tn + fp else None
        per_class[c] = (sens, spec)
    return oa, aa, kap, per_class


def compositions(total, cells):
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, cells - 1):
            yield (first,) + rest


def test_metrics_exhaustive_small_cases():
    """Every confusion matrix with <= 3 classes and <= 6 total pixels."""
    checked = 0
    for total in range(1, 7):
        for cells in compositions(total, 9):
            counts = np.array(cells, dtype=np.int64).reshape(3, 3)
            truth, pred = [], []
            for t in range(3):
                for p in range(3):
                    truth.extend([t + 1] * counts[t, p])
                    pred.extend([p + 1] * counts[t, p])
            cm = ev.confusion(truth, pred, n_class=3)
            np.testing.assert_array_equal(cm.counts, counts)
            oa, aa = ev.oa_aa(cm)
            b_oa, b_aa, b_kappa, b_pc = brute_metrics(truth, pred, 3)
            assert oa == pytest.approx(b_oa)
            assert aa == pytest.approx(b_aa)
            if b_kappa is not None:
                assert ev.kappa(cm) == pytest.approx(b_kappa)
            for c in (1, 2, 3):
                sens, spec = ev.sens_spec(cm, c)
                bs, bp = b_pc[c]
                assert (math.isnan(sens) and bs is None) or sens == pytest.approx(bs)
                assert (math.isnan(spec) and bp is None) or spec == pytest.approx(bp)
            checked += 1
    assert checked == 5004


def test_metrics_random_counting_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(5, 50))
        truth = rng.integers(0, 5, size=n)
        pred = rng.integers(1, 5, size=n)
        if not (truth > 0).any():
            truth[0] = 1
        cm = ev.confusion(truth, pred, n_class=4)
        oa, aa = ev.oa_aa(cm)
        b_oa, b_aa, b_kappa, _ = brute_metrics(truth.tolist(), pred.tolist(), 4)
        assert oa == pytest.approx(b_oa)
        assert aa == pytest.approx(b_aa)
        if b_kappa is not None:
            assert ev.kappa(cm) == pytest.approx(b_kappa)


# mcnemar ------------------------------------------------------------------


def test_mcnemar_hand_values():
    chi2, band = ev.mcnemar_from_counts(25, 10)
    assert chi2 == pytest.approx((15 - 1) ** 2 / 35)
    assert band == "**"
    chi2, band = ev.mcnemar_from_counts(10, 10)
    assert chi2 == pytest.approx(0.05)
    assert band == "NS"


def test_mcnemar_band_thresholds():
    assert ev.mcnemar_from_counts(50, 10)[1] == "***"  # chi2 = 39^2/60 = 25.35
    assert ev.mcnemar_from_counts(14, 4)[1] == "**"  # 81/18 = 4.5
    assert ev.mcnemar_from_counts(12, 4)[1] == "*"  # 49/16 = 3.0625
    assert ev.mcnemar_from_counts(6, 4)[1] == "NS"  # 1/10


def test_mcnemar_no_discordant_pairs():
    with pytest.raises(DataError, match="no discordant"):
        ev.mcnemar([1, 2], [1, 2], [1, 2])


def test_mcnemar_symmetry(rng):
    truth = rng.integers(1, 4, size=60)
    a = rng.integers(1, 4, size=60)
    b = rng.integers(1, 4, size=60)
    chi_ab = ev.mcnemar(truth, a, b)[0]
    chi_ba = ev.mcnemar(truth, b, a)[0]
    assert chi_ab == pytest.approx(chi_ba)


def test_mcnemar_skips_unlabeled():
    truth = [0, 1, 1, 1]
    a = [9, 1, 1, 2]
    b = [9, 2, 2, 1]
    chi2, _, f12, f21 = ev.mcnemar(truth, a, b)
    assert (f12, f21) == (2, 1)
    assert chi2 == pytest.approx((abs(2 - 1) - 1) ** 2 / 3)


# entropy --------------------------------------------------------------------


def test_entropy_single_active_feature():
    feats = np.array([[0.0, 3.0, 0.0]])
    assert ev.shannon_entropy(feats) == pytest.approx(0.0)


def test_entropy_uniform_maximum():
    feats = np.ones((5, 4))
    assert ev.shannon_entropy(feats) == pytest.approx(math.log(4))


def test_entropy_hand_value():
    feats = np.array([[0.5, 0.25, 0.25]])
    expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
    assert ev.shannon_entropy(feats) == pytest.approx(expected, abs=1e-4)
    assert expected == pytest.approx(1.0397, abs=1e-4)


def test_entropy_all_zero_uniform_fallback():
    assert ev.shannon_entropy(np.zeros((3, 8))) == pytest.approx(math.log(8))


def test_entropy_per_class_matches_per_class_calls(rng):
    feats = rng.normal(size=(12, 5))
    labs = np.array([3, 1, 1, 2, 3, 3, 1, 2, 2, 1, 3, 2])
    got = ev.entropy_per_class(feats, labs)
    assert list(got) == [1, 2, 3]
    for cls, e in got.items():
        assert e == ev.shannon_entropy(feats[labs == cls])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
                min_size=1, max_size=6))
def test_entropy_bounds(rows):
    e = ev.shannon_entropy(np.array(rows))
    assert -1e-12 <= e <= math.log(3) + 1e-12


# dunn -----------------------------------------------------------------------


def test_dunn_hand_value():
    feats = np.array([[0.0], [0.2], [1.0], [1.2]])
    labels = [1, 1, 2, 2]
    assert ev.dunn_index(feats, labels) == pytest.approx(5.0)


def test_dunn_zero_spread_error():
    feats = np.array([[1.0], [1.0], [2.0], [2.0]])
    with pytest.raises(DataError, match="zero intra-class spread"):
        ev.dunn_index(feats, [1, 1, 2, 2])


def test_dunn_needs_two_eligible_classes():
    with pytest.raises(DataError, match="fewer than 2"):
        ev.dunn_index(np.array([[0.0], [1.0], [2.0]]), [1, 1, 2])


def broadcast_dunn(features, labels):
    """All-pairs (n, n, F) oracle of dunn_index, for small inputs only."""
    labels = np.asarray(labels)
    groups = [features[labels == c] for c in np.unique(labels) if (labels == c).sum() >= 2]
    diameter = max(np.linalg.norm(g[:, None, :] - g[None, :, :], axis=-1).max()
                   for g in groups)
    centers = [g.mean(axis=0) for g in groups]
    return float(min(np.linalg.norm(a - b) for i, a in enumerate(centers)
                     for b in centers[i + 1 :]) / diameter)


@pytest.mark.parametrize("n, f", [(40, 231), (12, 1561), (30, 400), (5, 3)])
def test_dunn_equals_broadcast_oracle(rng, n, f):
    feats = rng.normal(size=(3 * n, f))
    labels = np.repeat([1, 2, 3], n)
    assert ev.dunn_index(feats, labels) == broadcast_dunn(feats, labels)


def test_dunn_scale_invariance(rng):
    feats = rng.normal(size=(20, 4))
    labels = rng.integers(1, 4, size=20)
    while min((labels == c).sum() for c in (1, 2, 3)) < 2:
        labels = rng.integers(1, 4, size=20)
    base = ev.dunn_index(feats, labels)
    np.testing.assert_allclose(ev.dunn_index(7.3 * feats, labels), base, rtol=1e-12)


def test_dunn_separated_beats_shuffled(rng):
    feats = np.concatenate([rng.normal(0, 0.1, size=(10, 3)),
                            rng.normal(5, 0.1, size=(10, 3))])
    labels = np.array([1] * 10 + [2] * 10)
    shuffled = labels.copy()
    rng.shuffle(shuffled)
    assert ev.dunn_index(feats, labels) > ev.dunn_index(feats, shuffled)


# vegetation indices ------------------------------------------------------------


def spectrum_with(values):
    """(wavelength -> reflectance) lookup as aligned arrays."""
    wl = np.array(sorted(values))
    return np.array([values[w] for w in wl]), wl


def test_ndvi_hand_value():
    spec, wl = spectrum_with({760.0: 0.5, 560.0: 0.1})
    out = ev.vegetation_index(spec, wl, index_by_name("NDVI"))
    assert out == pytest.approx(0.4 / 0.6)


def test_equal_bands_zero():
    spec, wl = spectrum_with({760.0: 0.3, 560.0: 0.3})
    assert ev.vegetation_index(spec, wl, index_by_name("NDVI")) == pytest.approx(0.0)
    assert ev.vegetation_index(spec, wl, index_by_name("CIred-edge")) == \
        pytest.approx(0.0)


def test_ndwi_unavailable_on_vnir_sensor():
    wl = np.linspace(450.0, 950.0, 125)
    spec = np.full(125, 0.4)
    with pytest.raises(DataError, match="wavelength unavailable for NDWI"):
        ev.vegetation_index(spec, wl, index_by_name("NDWI"))


def test_nearest_band_tolerance():
    assert ev.INDEX_TOLERANCE_NM == 10.0
    ndvi = index_by_name("NDVI")  # 760 and 560 nm
    # bands exactly 10 nm away are read
    spec, wl = spectrum_with({750.0: 0.5, 570.0: 0.1})
    assert ev.vegetation_index(spec, wl, ndvi) == pytest.approx(0.4 / 0.6)
    assert ndvi in ev.available_indices(wl)
    # 10.5 nm away is too far
    spec, wl = spectrum_with({760.0: 0.5, 549.5: 0.1})
    with pytest.raises(DataError, match="unavailable for NDVI: 560.0 nm"):
        ev.vegetation_index(spec, wl, ndvi)
    assert ndvi not in ev.available_indices(wl)


def hand_oracles(r):
    """Independently coded formulas over an exact-wavelength lookup."""
    return {
        "NDVI": (r[760] - r[560]) / (r[760] + r[560]),
        "PRI": (r[570] - r[531]) / (r[570] + r[531]),
        "CIred-edge": r[760] / r[560] - 1,
        "NDWI": (r[860] - r[1240]) / (r[860] + r[1240]),
        "TVI": 0.5 * (120 * (r[750] - r[550]) - 200 * (r[670] - r[550])),
        "SIPI": (r[800] - r[445]) / (r[800] + r[680]),
        "PSRI": (r[678] - r[550]) / r[750],
        "NPCI": (r[680] - r[430]) / (r[680] + r[430]),
        "OSAVI": (r[760] - r[560]) / (r[760] + r[560] + 0.16),
    }


def test_all_nine_indices_match_oracles(rng):
    needed = sorted({w for idx in ev.BUILTIN_INDICES for w in idx.wavelengths})
    for _ in range(50):
        values = {w: float(rng.uniform(0.02, 0.98)) for w in needed}
        spec, wl = spectrum_with(values)
        oracle = hand_oracles({int(w): v for w, v in values.items()})
        for idx in ev.BUILTIN_INDICES:
            got = ev.vegetation_index(spec, wl, idx)
            assert got == pytest.approx(oracle[idx.name], rel=1e-12), idx.name


def test_vegetation_index_stack_equals_per_pixel_calls(rng):
    needed = sorted({w for idx in ev.BUILTIN_INDICES for w in idx.wavelengths})
    wl = np.array(needed)
    spectra = rng.uniform(0.02, 0.98, size=(3, 4, wl.size))
    spectra[0, 0] = 0.0  # every denominator zero: 0/0 and x/0 poles
    spectra[1, 2, needed.index(560.0)] = 0.0  # CIred-edge divides by zero
    for idx in ev.BUILTIN_INDICES:
        stacked = ev.vegetation_index(spectra, wl, idx)
        assert stacked.shape == (3, 4)
        per_pixel = np.array([[ev.vegetation_index(spectra[i, j], wl, idx)
                               for j in range(4)] for i in range(3)])
        assert np.array_equal(stacked, per_pixel, equal_nan=True), idx.name
    assert np.isinf(ev.vegetation_index(spectra[1, 2], wl, index_by_name("CIred-edge")))
    assert isinstance(ev.vegetation_index(spectra[1, 1], wl, ev.BUILTIN_INDICES[0]), float)


def test_available_indices_on_vnir():
    wl = np.linspace(450.0, 950.0, 125)
    names = {i.name for i in ev.available_indices(wl)}
    assert "NDWI" not in names
    assert {"NDVI", "PRI", "TVI", "OSAVI"} <= names


# r squared ----------------------------------------------------------------------


def _textbook_r2(x, y):
    n = len(x)
    sx, sy = x.sum(), y.sum()
    sxy = (x * y).sum()
    sxx, syy = (x * x).sum(), (y * y).sum()
    r = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx**2) * (n * syy - sy**2))
    return r * r


def test_r_squared_perfect_linear():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = 2 * x + 1
    got = ev.r_squared(np.column_stack([x, -x]), y)
    assert got.shape == (2,)
    for column, r2 in zip((x, -x), got):
        assert r2 == pytest.approx(_textbook_r2(column, y), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


def test_r_squared_zero_variance():
    x = np.array([[1.0, 4.0], [2.0, 4.0], [3.0, 4.0]])
    y = np.array([5.0, 6.0, 8.0])
    got = ev.r_squared(x, y)
    assert got[0] == pytest.approx(_textbook_r2(x[:, 0], y), rel=1e-12)
    assert np.isnan(got[1])  # constant column
    assert np.isnan(ev.r_squared(x, [5.0, 5.0, 5.0])).all()  # constant y


def test_r_squared_textbook_oracle(rng):
    for _ in range(30):
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        got = ev.r_squared(x, y)
        for i in range(3):
            assert got[i] == pytest.approx(_textbook_r2(x[:, i], y), rel=1e-12)


def test_r_squared_matrix_matches_per_column_oracle(rng):
    x = rng.normal(size=(40, 7))
    x[:, 2] = 0.25  # constant columns give NaN, not an error
    x[:, 5] = -3.0
    y = rng.normal(size=40)
    x[:, 6] = 2.0 * y - 1.0
    got = ev.r_squared(x, y)
    assert got.shape == (7,)
    constant = np.array([False, False, True, False, False, True, False])
    np.testing.assert_array_equal(np.isnan(got), constant)
    want = np.array([_textbook_r2(x[:, i], y) for i in np.flatnonzero(~constant)])
    np.testing.assert_allclose(got[~constant], want, rtol=0, atol=1e-13)
    assert got[6] == pytest.approx(1.0, abs=1e-13)
    assert np.isnan(ev.r_squared(x, np.full(40, 7.0))).all()


def test_r_squared_matrix_checks_lengths():
    with pytest.raises(DataError, match="equal lengths"):
        ev.r_squared(np.ones((4, 2)), np.arange(5.0))
    with pytest.raises(DataError, match="at least 3"):
        ev.r_squared(np.eye(2), np.arange(2.0))
    with pytest.raises(DataError, match=r"needs an \(n, F\) x"):
        ev.r_squared(np.arange(4.0), np.arange(4.0))


# report documents ----------------------------------------------------------


def test_metrics_report_bundle():
    cm = cm_from([[8, 2], [5, 5]])
    doc = ev.metrics_report(cm, split="train")
    assert doc["oa"] == pytest.approx(0.65)
    assert doc["aa"] == pytest.approx(0.65)
    assert doc["kappa"] == pytest.approx(0.3)
    assert doc["confusion"] == [[8, 2], [5, 5]]
    assert doc["split"] == "train"
    assert doc["n_evaluated"] == 20
    assert doc["per_class"][0] == {"class": 1, "sensitivity": pytest.approx(0.8),
                                   "specificity": pytest.approx(0.5)}
    assert "mcnemar" not in doc
    with_mc = ev.metrics_report(cm, mcnemar_result={"note": "no discordant pairs"})
    assert with_mc["split"] == "test"
    assert with_mc["mcnemar"]["note"] == "no discordant pairs"


def test_interpretability_report_invariants():
    r2 = np.array([[0.2, np.nan, np.nan],
                   [0.9, np.nan, 0.4],
                   [0.9, np.nan, 0.1]])
    good = ev.interpretability_report(
        entropy_per_class={1: 0.5, 2: 1.2},
        capsule_entropy_per_class={1: 0.1, 2: 0.2},
        dunn=2.0,
        r2=r2,
        features=["b1_1", "b1_2", "b1_3"],
        references=("NDVI", "blank", "PRI"),
        n_pixels=10,
    )
    assert good["entropy_mean"] == pytest.approx(0.85)
    assert good["references"] == ["NDVI", "blank", "PRI"]
    assert good["dunn_index"] == 2.0
    assert (good["n_pixels"], good["n_features"]) == (10, 3)
    # the first of tied maxima wins; an all-NaN reference has no best feature
    assert good["r_squared_best"] == {"NDVI": {"feature": "b1_2", "r2": 0.9},
                                      "PRI": {"feature": "b1_2", "r2": 0.4}}
    empty = np.zeros((1, 0))
    with pytest.raises(DataError, match="entropies"):
        ev.interpretability_report({1: -0.1}, {}, None, empty, ["f"], (), 1)
    with pytest.raises(DataError, match="Dunn"):
        ev.interpretability_report({1: 0.1}, {}, -0.5, empty, ["f"], (), 1)
    with pytest.raises(DataError, match="outside"):
        ev.interpretability_report({1: 0.1}, {}, None, np.array([[1.5]]), ["f"], ["x"], 1)

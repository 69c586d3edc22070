"""Classification metrics, significance testing and interpretability
measures.

Includes the pooled/averaged accuracies, kappa, one-vs-rest sensitivity
and specificity, the continuity-corrected McNemar chi-squared with its
star bands, per-class Shannon entropy over feature values, the Dunn
cluster-validity index, nine built-in two/three-band reflectance
indices, the squared Pearson correlation of one reference with every
feature column at once (post-hoc feature attribution), and the report
dicts that ``evaluate`` and ``interpret`` write as JSON.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# 1-degree-of-freedom chi-squared thresholds for the star bands.
MCNEMAR_BANDS = ((6.635, "***"), (3.841, "**"), (2.706, "*"))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[t-1][p-1] of truth t predicted as p."""

    n_class: int
    counts: np.ndarray

    def __post_init__(self):
        if self.counts.shape != (self.n_class, self.n_class):
            raise DataError("confusion matrix shape mismatch")
        if (self.counts < 0).any():
            raise DataError("confusion matrix counts must be non-negative")

    @property
    def total(self):
        return int(self.counts.sum())


def confusion(truth, pred, n_class: int) -> ConfusionMatrix:
    """Count matrix over labeled pixels (truth 0 entries are skipped)."""
    t = np.asarray(truth, dtype=np.int64).reshape(-1)
    p = np.asarray(pred, dtype=np.int64).reshape(-1)
    if t.shape != p.shape:
        raise DataError(f"length mismatch: truth {t.size} vs pred {p.size}")
    keep = t > 0
    t, p = t[keep], p[keep]
    if (t > n_class).any() or (p < 1).any() or (p > n_class).any():
        raise DataError(f"labels outside [1, {n_class}]")
    counts = np.zeros((n_class, n_class), dtype=np.int64)
    np.add.at(counts, (t - 1, p - 1), 1)
    return ConfusionMatrix(n_class, counts)


def oa_aa(cm: ConfusionMatrix):
    """(overall accuracy, average per-class recall).

    Classes with no truth pixels are excluded from the average.
    """
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    oa = float(np.trace(cm.counts) / cm.total)
    row_sums = cm.counts.sum(axis=1)
    present = row_sums > 0
    recalls = np.diag(cm.counts)[present] / row_sums[present]
    return oa, float(np.mean(recalls))


def kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e)."""
    if cm.total == 0:
        raise DataError("empty confusion matrix")
    p_o = np.trace(cm.counts) / cm.total
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    p_e = float(np.sum(rows * cols)) / (cm.total**2)
    if p_e == 1.0:
        raise DataError("degenerate confusion matrix: chance agreement is 1")
    return float((p_o - p_e) / (1.0 - p_e))


def sens_spec(cm: ConfusionMatrix, cls: int):
    """One-vs-rest (sensitivity, specificity) for a 1-based class.

    A zero denominator yields nan, not an error.
    """
    if not 1 <= cls <= cm.n_class:
        raise DataError(f"class {cls} outside [1, {cm.n_class}]")
    i = cls - 1
    tp = cm.counts[i, i]
    fn = cm.counts[i, :].sum() - tp
    fp = cm.counts[:, i].sum() - tp
    tn = cm.total - tp - fn - fp
    sens = float(tp / (tp + fn)) if (tp + fn) > 0 else float("nan")
    spec = float(tn / (tn + fp)) if (tn + fp) > 0 else float("nan")
    return sens, spec


def mcnemar(truth, pred_a, pred_b):
    """Continuity-corrected McNemar test: (chi2, band, f12, f21).

    f12 counts pixels only A gets right, f21 those only B gets right,
    skipping unlabeled (truth 0) pixels; chi2 = (|f12 - f21| - 1)^2 /
    (f12 + f21). Bands: *** chi2 >= 6.635, ** >= 3.841, * >= 2.706,
    else NS.
    """
    t = np.asarray(truth, dtype=np.int64).reshape(-1)
    a = np.asarray(pred_a, dtype=np.int64).reshape(-1)
    b = np.asarray(pred_b, dtype=np.int64).reshape(-1)
    if not (t.shape == a.shape == b.shape):
        raise DataError("mcnemar inputs must have equal lengths")
    keep = t > 0
    t, a, b = t[keep], a[keep], b[keep]
    f12 = int(np.sum((a == t) & (b != t)))
    f21 = int(np.sum((a != t) & (b == t)))
    return (*mcnemar_from_counts(f12, f21), f12, f21)


def mcnemar_from_counts(f12: int, f21: int):
    if f12 + f21 == 0:
        raise DataError("no discordant pairs")
    chi2 = (abs(f12 - f21) - 1) ** 2 / (f12 + f21)
    band = "NS"
    for threshold, stars in MCNEMAR_BANDS:
        if chi2 >= threshold:
            band = stars
            break
    return float(chi2), band


def shannon_entropy(class_features) -> float:
    """Entropy, in nats, of the normalized mean absolute value per feature.

    ``class_features`` is (samples, M) for one class. All-zero
    features fall back to the uniform distribution.
    """
    feats = np.atleast_2d(np.asarray(class_features, dtype=np.float64))
    if feats.size == 0:
        raise DataError("entropy needs at least one sample")
    p = np.abs(feats).mean(axis=0)
    total = p.sum()
    p = np.full_like(p, 1.0 / p.size) if total == 0 else p / total
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def entropy_per_class(values, labels) -> dict:
    """``shannon_entropy`` of the rows of ``values`` for each class in ``labels``."""
    labs = np.asarray(labels).reshape(-1)
    return {int(cls): shannon_entropy(values[labs == cls]) for cls in np.unique(labs)}


def dunn_index(features, labels) -> float:
    """Minimum inter-class center distance over maximum intra-class
    diameter. Classes need >= 2 samples to be eligible; at least two
    eligible classes are required."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labs = np.asarray(labels).reshape(-1)
    if x.shape[0] != labs.size:
        raise DataError("features/labels length mismatch")
    groups = [x[labs == cls] for cls in np.unique(labs) if (labs == cls).sum() >= 2]
    if len(groups) < 2:
        raise DataError("fewer than 2 classes with >= 2 samples")
    # row by row, so memory stays O(n * F) rather than the (n, n, F) of all pairs
    max_diameter = max(np.linalg.norm(g[i + 1 :] - g[i], axis=-1).max()
                       for g in groups for i in range(len(g) - 1))
    if max_diameter == 0:
        raise DataError("zero intra-class spread")
    centers = np.array([g.mean(axis=0) for g in groups])
    seps = [
        np.linalg.norm(centers[i] - centers[j])
        for i in range(len(groups))
        for j in range(i + 1, len(groups))
    ]
    return float(min(seps) / max_diameter)


# vegetation indices -----------------------------------------------------


@dataclass(frozen=True)
class VegetationIndexDef:
    """Named reflectance-index formula over specific wavelengths (nm)."""

    name: str
    wavelengths: tuple
    formula: object  # callable(dict wavelength -> reflectance) -> float


BUILTIN_INDICES = (
    VegetationIndexDef("NDVI", (760.0, 560.0),
                       lambda r: (r[760.0] - r[560.0]) / (r[760.0] + r[560.0])),
    VegetationIndexDef("PRI", (570.0, 531.0),
                       lambda r: (r[570.0] - r[531.0]) / (r[570.0] + r[531.0])),
    VegetationIndexDef("CIred-edge", (760.0, 560.0),
                       lambda r: r[760.0] / r[560.0] - 1.0),
    VegetationIndexDef("NDWI", (860.0, 1240.0),
                       lambda r: (r[860.0] - r[1240.0]) / (r[860.0] + r[1240.0])),
    VegetationIndexDef("TVI", (750.0, 550.0, 670.0),
                       lambda r: 0.5 * (120.0 * (r[750.0] - r[550.0])
                                        - 200.0 * (r[670.0] - r[550.0]))),
    VegetationIndexDef("SIPI", (800.0, 445.0, 680.0),
                       lambda r: (r[800.0] - r[445.0]) / (r[800.0] + r[680.0])),
    VegetationIndexDef("PSRI", (678.0, 550.0, 750.0),
                       lambda r: (r[678.0] - r[550.0]) / r[750.0]),
    VegetationIndexDef("NPCI", (680.0, 430.0),
                       lambda r: (r[680.0] - r[430.0]) / (r[680.0] + r[430.0])),
    VegetationIndexDef("OSAVI", (760.0, 560.0),
                       lambda r: (r[760.0] - r[560.0]) / (r[760.0] + r[560.0] + 0.16)),
)

# A required wavelength is read from the nearest band within this distance.
INDEX_TOLERANCE_NM = 10.0


def vegetation_index(spectrum, wavelengths, index: VegetationIndexDef):
    """Evaluate an index on (..., B) spectra using nearest-band lookup.

    One spectrum gives a float; a stack gives an array of its leading
    shape. Every required wavelength must lie within ``INDEX_TOLERANCE_NM`` of
    some band center, otherwise a DataError names the index and wavelength.
    """
    spec = np.asarray(spectrum, dtype=np.float64)
    wl = np.asarray(wavelengths, dtype=np.float64).reshape(-1)
    if spec.shape[-1:] != wl.shape:
        raise DataError("spectrum/wavelength length mismatch")
    refl = {}
    for need in index.wavelengths:
        pos = int(np.argmin(np.abs(wl - need)))
        if abs(wl[pos] - need) > INDEX_TOLERANCE_NM:
            raise DataError(
                f"wavelength unavailable for {index.name}: {need} nm "
                f"(nearest band {wl[pos]} nm)"
            )
        refl[need] = spec[..., pos]
    # IEEE semantics at formula poles (e.g. a zero denominator band)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = index.formula(refl)
    return float(out) if spec.ndim == 1 else out


def available_indices(wavelengths):
    """Built-in indices whose wavelengths the sensor covers."""
    wl = np.asarray(wavelengths, dtype=np.float64)
    out = []
    for idx in BUILTIN_INDICES:
        if all(np.abs(wl - need).min() <= INDEX_TOLERANCE_NM for need in idx.wavelengths):
            out.append(idx)
    return out


def r_squared(x, y):
    """Squared Pearson correlation of ``y`` with each column of an (n, F) ``x``.

    Returns an (F,) array that is NaN wherever a column of ``x``, or
    ``y``, has zero variance. The samples need equal lengths and at
    least 3 values.
    """
    cols = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64).reshape(-1)
    if cols.ndim != 2:
        raise DataError(f"r_squared needs an (n, F) x, got shape {cols.shape}")
    if cols.shape[0] != b.size:
        raise DataError("r_squared inputs must have equal lengths")
    if b.size < 3:
        raise DataError("r_squared needs at least 3 samples")
    # the centred (n, F) copy lives only in this call
    da = cols - cols.mean(axis=0)
    db = b - b.mean()
    va = np.einsum("ij,ij->j", da, da)
    vb = float(np.dot(db, db))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (db @ da) / np.sqrt(va * vb)
    return np.where((va == 0) | (vb == 0), np.nan, np.minimum(r * r, 1.0))


# report documents -----------------------------------------------------------


def metrics_report(cm: ConfusionMatrix, split: str = "test",
                   mcnemar_result: dict = None) -> dict:
    """The ``metrics.json`` document: OA/AA/kappa, the confusion counts and
    one-vs-rest rates (nan when undefined), plus ``mcnemar_result`` if given."""
    oa, aa = oa_aa(cm)
    rates = [sens_spec(cm, c) for c in range(1, cm.n_class + 1)]
    doc = {
        "oa": oa,
        "aa": aa,
        "kappa": kappa(cm),
        "confusion": cm.counts.tolist(),
        "n_evaluated": cm.total,
        "split": split,
        "per_class": [{"class": i + 1, "sensitivity": s, "specificity": p}
                      for i, (s, p) in enumerate(rates)],
    }
    if mcnemar_result is not None:
        doc["mcnemar"] = mcnemar_result
    return doc


def interpretability_report(entropy_per_class: dict, capsule_entropy_per_class: dict,
                            dunn, r2: np.ndarray, features, references, n_pixels: int) -> dict:
    """The ``interpretability.json`` document: entropy and Dunn measures plus
    each reference's best feature, the first maximum of its column of the
    (features, references) ``r2`` matrix; an all-NaN column has none.

    ``dunn`` is None when fewer than 2 classes are eligible. Negative
    entropies or Dunn index, or a best r2 outside [0, 1], raise DataError.
    """
    if any(e < 0 for e in entropy_per_class.values()):
        raise DataError("entropies must be non-negative")
    if dunn is not None and dunn < 0:
        raise DataError("Dunn index must be non-negative")
    best = {}
    for ref, column in zip(references, r2.T):
        if np.isnan(column).all():
            continue
        i = int(np.nanargmax(column))  # the first of tied maxima
        if not 0.0 <= column[i] <= 1.0:
            raise DataError(f"r2 for {ref} outside [0, 1]")
        best[ref] = {"feature": features[i], "r2": float(column[i])}
    return {
        "entropy_per_class": entropy_per_class,
        "entropy_mean": float(np.mean(list(entropy_per_class.values()))),
        "capsule_entropy_per_class": capsule_entropy_per_class,
        "dunn_index": dunn,
        "r_squared_best": best,
        "references": list(references),
        "n_pixels": n_pixels,
        "n_features": len(features),
    }

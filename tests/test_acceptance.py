"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

import json
import math
import time

import numpy as np
import pytest
from test_evaluation import index_by_name

from hsicaps import autodiff as ad, capsule, cli, data, evaluation, model as model_mod
from hsicaps import spectral, synthetic, training
from hsicaps.config import MarginLossConfig, RunConfig
from hsicaps.errors import DataError

SEED = 1


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def nearest_centroid_accuracy(cube, labels, train_coords) -> float:
    """Fraction of labeled pixels matching their nearest train centroid."""
    spectra = cube.data.reshape(-1, cube.bands).astype(np.float64)
    labs = labels.labels.reshape(-1)
    train_set = {tuple(rc) for rc in train_coords}
    train_mask = np.array(
        [(r, c) in train_set for r in range(cube.height) for c in range(cube.width)]
    )
    classes = sorted(int(k) for k in np.unique(labs) if k > 0)
    centroids = np.stack([
        spectra[train_mask & (labs == k)].mean(axis=0) for k in classes
    ])
    eval_mask = labs > 0
    dists = np.linalg.norm(spectra[eval_mask, None, :] - centroids[None, :, :], axis=-1)
    pred = np.array(classes)[np.argmin(dists, axis=1)]
    return float(np.mean(pred == labs[eval_mask]))


# shared fixtures -----------------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    cube, labels = synthetic.make_separable_cube(seed=SEED)
    split = data.split_samples(labels, 2.0 / 3.0, SEED)
    return cube, labels, split


def run_config(variant="model3"):
    cfg = RunConfig()
    cfg.training.patch_size = 5
    cfg.training.epochs = 15
    cfg.training.batch_size = 16
    cfg.training.learning_rate = 0.0005
    cfg.training.seed = SEED
    cfg.stage1.conv1_filters = 16
    cfg.stage1.conv1_width = 7
    cfg.stage1.conv2_filters = 32
    cfg.stage1.conv2_width = 5
    cfg.stage1.fc1_width = 64
    cfg.apply_variant(variant)
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def trained(dataset):
    """All three ablation variants trained under the same protocol."""
    cube, labels, split = dataset
    out = {}
    for variant in ("model1", "model2", "model3"):
        started = time.perf_counter()
        result = training.train(cube, labels, split, run_config(variant))
        elapsed = time.perf_counter() - started
        # mean per-class entropy of |class-capsule activities| on the test
        # pixels; the activity width is the same for every variant
        v = model_mod.scene_forward(result.model, data.normalize_cube(cube),
                                    split.test_indices)["v"]
        ents = evaluation.entropy_per_class(v.reshape(len(v), -1),
                                            data.pixels_at(labels.labels, split.test_indices))
        entropy = float(np.mean([e for cls, e in ents.items() if cls > 0]))
        out[variant] = {"result": result, "elapsed": elapsed, "entropy": entropy}
    return out


# 1. gradient fidelity --------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    started = time.perf_counter()
    rep = training.gradcheck()
    elapsed = time.perf_counter() - started
    assert rep.n_checked >= 200
    assert rep.max_rel_error < 1e-4, f"max rel error {rep.max_rel_error}"
    assert elapsed < 120.0
    # the checked model stays within the stated feature budget
    cfg = training.gradcheck_config()
    cube, labels = training._gradcheck_dataset(7)
    split = data.split_samples(labels, 0.5, 7)
    mdl = training.build_model(data.normalize_cube(cube), labels, split, cfg)
    assert mdl.f_n <= 400
    report(1, f"max rel error {rep.max_rel_error:.2e} over {rep.n_checked} "
              f"params (F_N={mdl.f_n}) in {elapsed:.1f}s")


# 2. squash law ---------------------------------------------------------------


def test_criterion_02_squash_law():
    rng = np.random.default_rng(SEED)
    u = rng.normal(size=(10_000, 6)) * rng.uniform(0.01, 4.0, size=(10_000, 1))
    out = np.asarray(capsule.squash(u, axis=-1))
    norms = np.linalg.norm(u, axis=-1)
    expected = norms**2 / (1.0 + norms**2)
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), expected, atol=1e-12)
    np.testing.assert_allclose(out, u * (expected / norms)[:, None], atol=1e-12)
    unit = np.asarray(capsule.squash(np.array([1.0, 0.0, 0.0])))
    triple = np.asarray(capsule.squash(np.array([0.0, 3.0])))
    assert np.linalg.norm(unit) == 0.5
    assert np.linalg.norm(triple) == 0.9
    report(2, "norm law and direction on 10^4 vectors at 1e-12; "
              "unit/triple norms exact")


# 3. routing invariants --------------------------------------------------------


def test_criterion_03_routing_invariants():
    rng = np.random.default_rng(SEED)
    u_hat = rng.normal(size=(1, 8, 5, 4)) * 1.5  # one sample, batched
    _, history = capsule.dynamic_routing(u_hat, iterations=4)
    for c, _, _ in history:
        np.testing.assert_allclose(c.sum(axis=-1), 1.0, atol=1e-9)
    np.testing.assert_allclose(history[0][0], 1.0 / 5.0, atol=1e-15)

    unanimous = np.zeros((1, 2, 2, 3))
    unanimous[0, :, 0, 0] = 1.2
    _, history = capsule.dynamic_routing(unanimous, iterations=3)
    agreed = [c[0, 0, 0] for c, _, _ in history]
    assert agreed[0] == pytest.approx(0.5)
    assert agreed[0] < agreed[1] < agreed[2]
    report(3, f"rows sum to 1 (1e-9), uniform init, agreement grows "
              f"{agreed[0]:.3f} -> {agreed[1]:.3f} -> {agreed[2]:.3f}")


# 4. feature-count formula -------------------------------------------------------


def test_criterion_04_feature_count_and_index_algebra():
    assert spectral.feature_count(7, 3) == 1561
    assert spectral.feature_count(7, 17) == 280959
    rng = np.random.default_rng(SEED)
    feats = spectral.enhanced_features(rng.normal(size=(1, 21)))
    assert feats.shape == (1, 1561)

    # antisymmetry over 10^4 random vectors
    x = rng.normal(size=(10_000, 6))
    pairs = spectral.pair_indices(6)
    base = np.asarray(spectral.binary_index(x))
    for k, (i, j) in enumerate(pairs):
        swapped = x.copy()
        swapped[:, [i, j]] = swapped[:, [j, i]]
        np.testing.assert_allclose(
            np.asarray(spectral.binary_index(swapped))[:, k], -base[:, k], atol=1e-9
        )

    # collinearity-zero over 10^4 random affine sequences
    intercept = rng.normal(size=(10_000, 1))
    slope = rng.normal(size=(10_000, 1))
    affine = intercept + slope * np.arange(1.0, 7.0)
    np.testing.assert_allclose(np.asarray(spectral.triangular_index(affine)), 0.0,
                               atol=1e-10)
    report(4, "F_N(7,3)=1561 (matches enumeration), F_N(7,17)=280959; "
              "antisymmetry and collinearity-zero on 10^4 vectors")


# 5. synthetic end-to-end ---------------------------------------------------------


def test_criterion_05_synthetic_end_to_end(dataset, trained, tmp_path):
    cube, labels, split = dataset
    centroid = nearest_centroid_accuracy(cube, labels, split.train_indices)
    assert centroid >= 0.95
    run = trained["model3"]
    result = run["result"]
    assert result.model.patch_size == 5
    assert len(result.history) <= 50
    final = result.history[-1]
    assert final[2] >= 0.95, f"train OA {final[2]}"
    assert final[3] >= 0.85, f"test OA {final[3]}"
    assert run["elapsed"] < 600.0

    # the same bar holds through the CLI surface on the train split
    cube_path, label_path = synthetic.write_dataset(str(tmp_path / "ds"), cube, labels)
    ckpt = str(tmp_path / "model.ckpt")
    training.save_checkpoint(ckpt, result.model, run_config("model3"), cube.wavelengths)
    rc = cli.main(["evaluate", "--checkpoint", ckpt, "--cube", cube_path,
                   "--labels", label_path, "--on", "train",
                   "--out", str(tmp_path / "eval")])
    assert rc == 0
    metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert metrics["oa"] >= 0.95

    report(5, f"centroid oracle {centroid:.3f}; train OA {final[2]:.3f}, "
              f"test OA {final[3]:.3f} in {run['elapsed']:.1f}s "
              f"({len(result.history)} epochs); CLI train-split OA "
              f"{metrics['oa']:.3f}")


# 6. ablation direction -----------------------------------------------------------


def multiply_adds_per_patch(mdl):
    """Forward multiply-adds of one training patch, counted from the registry
    shapes: each weight array's size times the positions it runs at. The
    binary index's fixed pair matrices are left out; model1 and model2 run
    without enhancement."""
    p, s1, s2 = mdl.detached().params, mdl.config.stage1, mdl.config.stage2
    per_pixel = 0
    for i, bands in enumerate(mdl.slices.band_indices):
        pre = f"spectral.{i}"
        if f"{pre}.dense.w" in p:
            per_pixel += p[f"{pre}.dense.w"].size
        else:
            l1 = (len(bands) - s1.conv1_width) // s1.stride + 1
            l2 = (l1 - s1.conv2_width) // s1.stride + 1
            per_pixel += p[f"{pre}.conv1.w"].size * l1 + p[f"{pre}.conv2.w"].size * l2
        per_pixel += p[f"{pre}.fc1.w"].size + p[f"{pre}.fc2.w"].size
    h1 = (mdl.patch_size - s2.conv_kernel) // s2.conv_stride + 1
    h2 = (h1 - s2.capsule_kernel) // s2.capsule_stride + 1
    M, n_class, D, _ = p["caps.class.w"].shape
    return (per_pixel * mdl.patch_size ** 2
            + np.asarray(spectral.conv_kernel(mdl.detached())).size * h1 * h1
            + p["caps.primary.w"].size * h2 * h2
            + p["caps.class.w"].size + 2 * s2.routing_iterations * M * n_class * D
            + p["decoder.fc1.w"].size + p["decoder.fc2.w"].size)


def matmul_multiply_adds_per_patch(mdl, patches, monkeypatch):
    """Multiply-adds that ``ad.matmul`` executes in one forward batch, per
    patch: rows times inner width times output width, summed over calls."""
    count = [0]
    matmul = ad.matmul

    def counted(a, b):
        count[0] += math.prod(ad.shape_of(a)) * ad.shape_of(b)[-1]  # rows * K * n
        return matmul(a, b)

    with monkeypatch.context() as mp:
        mp.setattr(ad, "matmul", counted)
        model_mod.forward(mdl.detached(), patches)
    return count[0] // len(patches)


def test_criterion_06_ablation_direction(dataset, trained, monkeypatch):
    cube, _, split = dataset
    ent = {k: v["entropy"] for k, v in trained.items()}
    test_oa = {k: v["result"].history[-1][3] for k, v in trained.items()}
    per_epoch = {k: float(np.min(v["result"].epoch_seconds)) for k, v in trained.items()}
    macs = {k: multiply_adds_per_patch(trained[k]["result"].model) for k in ("model1", "model2")}
    patches = data.extract_patch_batch(data.normalize_cube(cube), split.train_indices[:16], 5)
    executed = {k: matmul_multiply_adds_per_patch(trained[k]["result"].model, patches,
                                                  monkeypatch) for k in ("model1", "model2")}
    assert ent["model3"] <= ent["model1"], f"entropy {ent}"
    assert test_oa["model3"] >= test_oa["model2"], f"test OA {test_oa}"
    assert test_oa["model2"] >= test_oa["model1"] - 0.02, f"test OA {test_oa}"
    assert macs["model2"] <= macs["model1"], f"multiply-adds per patch {macs}"
    assert executed["model2"] <= executed["model1"], f"matmul multiply-adds {executed}"
    report(6, f"entropy m3 {ent['model3']:.3f} <= m1 {ent['model1']:.3f}; "
              f"test OA m3 {test_oa['model3']:.3f} >= m2 {test_oa['model2']:.3f} "
              f">= m1-2pt; multiply-adds per patch m2 {macs['model2']:,} <= "
              f"m1 {macs['model1']:,}; executed by matmul m2 {executed['model2']:,} <= "
              f"m1 {executed['model1']:,}; per-epoch m2 {per_epoch['model2']:.3f}s, "
              f"m1 {per_epoch['model1']:.3f}s")


# 7. metrics oracle equivalence ------------------------------------------------------


def _compositions(total, cells):
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, cells - 1):
            yield (first,) + rest


def test_criterion_07_metrics_oracle_equivalence():
    checked = 0
    for total in range(1, 7):
        for cells in _compositions(total, 9):
            counts = np.array(cells, dtype=np.int64).reshape(3, 3)
            truth, pred = [], []
            for t in range(3):
                for p in range(3):
                    truth.extend([t + 1] * counts[t, p])
                    pred.extend([p + 1] * counts[t, p])
            cm = evaluation.confusion(truth, pred, n_class=3)
            pairs = list(zip(truth, pred))
            oa, aa = evaluation.oa_aa(cm)
            assert oa == pytest.approx(sum(t == p for t, p in pairs) / len(pairs))
            recalls = []
            for c in (1, 2, 3):
                cls = [(t, p) for t, p in pairs if t == c]
                if cls:
                    recalls.append(sum(t == p for t, p in cls) / len(cls))
            assert aa == pytest.approx(sum(recalls) / len(recalls))
            p_e = sum(
                sum(1 for t, _ in pairs if t == c) * sum(1 for _, p in pairs if p == c)
                for c in (1, 2, 3)
            ) / len(pairs) ** 2
            if p_e != 1.0:
                assert evaluation.kappa(cm) == pytest.approx((oa - p_e) / (1 - p_e))
            for c in (1, 2, 3):
                tp = sum(1 for t, p in pairs if t == c and p == c)
                fn = sum(1 for t, p in pairs if t == c and p != c)
                fp = sum(1 for t, p in pairs if t != c and p == c)
                tn = len(pairs) - tp - fn - fp
                sens, spec = evaluation.sens_spec(cm, c)
                assert (math.isnan(sens) if tp + fn == 0
                        else sens == pytest.approx(tp / (tp + fn)))
                assert (math.isnan(spec) if tn + fp == 0
                        else spec == pytest.approx(tn / (tn + fp)))
            checked += 1
    assert checked == 5004

    chi2, band = evaluation.mcnemar_from_counts(25, 10)
    assert chi2 == pytest.approx(5.6)
    assert band == "**"
    _, band_eq = evaluation.mcnemar_from_counts(10, 10)
    assert band_eq == "NS"
    report(7, f"{checked} confusion matrices match the counting oracle; "
              f"McNemar 25/10 -> chi2 5.6 (**), equal counts -> NS")


# 8. reflectance-index formulas --------------------------------------------------------


def test_criterion_08_index_formulas():
    rng = np.random.default_rng(SEED)
    needed = sorted({w for idx in evaluation.BUILTIN_INDICES for w in idx.wavelengths})
    oracles = {
        "NDVI": lambda r: (r[760] - r[560]) / (r[760] + r[560]),
        "PRI": lambda r: (r[570] - r[531]) / (r[570] + r[531]),
        "CIred-edge": lambda r: r[760] / r[560] - 1,
        "NDWI": lambda r: (r[860] - r[1240]) / (r[860] + r[1240]),
        "TVI": lambda r: 0.5 * (120 * (r[750] - r[550]) - 200 * (r[670] - r[550])),
        "SIPI": lambda r: (r[800] - r[445]) / (r[800] + r[680]),
        "PSRI": lambda r: (r[678] - r[550]) / r[750],
        "NPCI": lambda r: (r[680] - r[430]) / (r[680] + r[430]),
        "OSAVI": lambda r: (r[760] - r[560]) / (r[760] + r[560] + 0.16),
    }
    for _ in range(200):
        values = {w: float(rng.uniform(0.02, 0.98)) for w in needed}
        wl = np.array(sorted(values))
        spec = np.array([values[w] for w in wl])
        lut = {int(w): v for w, v in values.items()}
        for idx in evaluation.BUILTIN_INDICES:
            got = evaluation.vegetation_index(spec, wl, idx)
            want = oracles[idx.name](lut)
            assert got == pytest.approx(want, rel=1e-12), idx.name

    vnir = np.linspace(450.0, 950.0, 125)
    with pytest.raises(DataError, match="wavelength unavailable for NDWI"):
        evaluation.vegetation_index(np.full(125, 0.5), vnir, index_by_name("NDWI"))
    report(8, "all nine index formulas match hand oracles at 1e-12 on 200 "
              "random stubs; NDWI raises on a 450-950 nm sensor")


# 9. margin loss ------------------------------------------------------------------------


def test_criterion_09_margin_loss():
    target = np.array([[1.0, 0.0]])  # one sample of class 1, batched
    canonical_cfg = MarginLossConfig()

    def loss(lengths, cfg):
        return float(training.margin_loss(np.array([lengths]), target, cfg)[0])

    assert loss([0.9, 0.1], canonical_cfg) == pytest.approx(0.0)
    assert loss([0.5, 0.5], canonical_cfg) == pytest.approx(0.24)
    printed = MarginLossConfig(variant="as-printed")
    canonical = loss([0.5, 0.5], canonical_cfg)
    literal = loss([0.5, 0.5], printed)
    assert literal == pytest.approx(0.73)
    assert abs(literal - canonical) > 1e-6
    report(9, f"canonical fixtures 0 and 0.24 hold; as-printed gives "
              f"{literal:.2f} on the 0.24 fixture")


# 10. determinism ---------------------------------------------------------------------------


def test_criterion_10_cmd_train_determinism(tmp_path):
    cube, labels = synthetic.make_separable_cube(height=8, width=8, seed=SEED)
    cube_path, label_path = synthetic.write_dataset(str(tmp_path / "ds"), cube, labels)
    out_dir = tmp_path / "run"
    config = {
        "cube": cube_path,
        "labels": label_path,
        "output_dir": str(out_dir),
        "train_fraction": 0.5,
        "stage1": {"conv1_filters": 4, "conv2_filters": 4, "fc1_width": 6,
                   "small_slice_width": 4},
        "stage2": {"conv_filters": 4, "capsules": 2, "capsule_dim": 3},
        "training": {"epochs": 3, "batch_size": 8, "patch_size": 5, "seed": SEED},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    assert cli.main(["train", "--config", str(config_path)]) == 0
    first = {name: (out_dir / name).read_bytes()
             for name in ("history.csv", "model.ckpt")}
    assert cli.main(["train", "--config", str(config_path)]) == 0
    second = {name: (out_dir / name).read_bytes()
              for name in ("history.csv", "model.ckpt")}
    assert first["history.csv"] == second["history.csv"]
    assert first["model.ckpt"] == second["model.ckpt"]
    report(10, f"two cmd_train runs byte-identical "
               f"({len(first['model.ckpt'])} checkpoint bytes)")

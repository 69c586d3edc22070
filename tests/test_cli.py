"""End-to-end command-line runs on a small synthetic dataset."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from hsicaps import cli, data, evaluation, model as model_mod, spectral, synthetic, training
from hsicaps.config import RunConfig, config_from_dict, load_config, save_config
from hsicaps.errors import ConfigError
from test_training import corrupt_gradients


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    cube, labels = synthetic.make_separable_cube(height=8, width=8, seed=3)
    cube_path, label_path = synthetic.write_dataset(str(root / "dataset"), cube, labels)
    config = {
        "cube": cube_path,
        "labels": label_path,
        "output_dir": str(root / "run"),
        "train_fraction": 0.5,
        "stage1": {"conv1_filters": 4, "conv2_filters": 4, "fc1_width": 6,
                   "small_slice_width": 4},
        "stage2": {"conv_filters": 4, "capsules": 2, "capsule_dim": 3},
        "training": {"epochs": 2, "batch_size": 8, "patch_size": 5, "seed": 3},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    rc = cli.main(["train", "--config", str(config_path)])
    assert rc == 0
    return {
        "root": root,
        "config": config,
        "config_path": str(config_path),
        "run": root / "run",
        "checkpoint": str(root / "run" / "model.ckpt"),
        "cube": cube_path,
        "labels": label_path,
    }


def test_train_outputs(workspace):
    run = workspace["run"]
    for name in ("model.ckpt", "history.csv", "config.json", "split.json"):
        assert (run / name).exists()
    lines = (run / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_oa,test_oa"
    assert len(lines) == 1 + workspace["config"]["training"]["epochs"]


def test_train_persisted_config_is_loadable(workspace):
    doc = json.loads((workspace["run"] / "config.json").read_text())
    cfg = config_from_dict(doc)
    assert cfg.training.epochs == 2


def test_persisted_config_reproduces_run_bytes(workspace):
    run = workspace["run"]
    before = {name: (run / name).read_bytes()
              for name in ("history.csv", "model.ckpt")}
    rc = cli.main(["train", "--config", str(run / "config.json")])
    assert rc == 0
    for name, blob in before.items():
        assert (run / name).read_bytes() == blob


def test_train_bad_cube_path_no_partial_outputs(workspace, tmp_path):
    config = dict(workspace["config"])
    config["cube"] = str(tmp_path / "missing.json")
    config["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["train", "--config", str(path)])
    assert rc == 2
    assert not (tmp_path / "out").exists()


def test_unknown_config_key_rejected(workspace, tmp_path):
    config = dict(workspace["config"])
    config["typo_key"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["train", "--config", str(path)])
    assert rc == 1
    with pytest.raises(ConfigError, match="typo_key"):
        config_from_dict(config)


@pytest.mark.parametrize("section,key,value", [
    ("stage1", "triangular_cap", True),
    ("training", "patch_size", 5.0),
    ("training", "epochs", "2"),
    ("training", "enhancement_on", 1),
    ("training", "learning_rate", False),
])
def test_wrongly_typed_config_value_rejected(workspace, tmp_path, section, key, value):
    config = json.loads(json.dumps(workspace["config"]))
    config.setdefault(section, {})[key] = value
    config["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path)]) == 1
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        config_from_dict(config)


@pytest.mark.parametrize("section,key,value", [
    ("stage2", "conv_stride", 0),
    ("stage2", "conv_filters", 0),
    ("stage2", "conv_kernel", -1),
    ("stage2", "capsule_kernel", -3),
    ("training", "seed", -1),
    ("training", "adam_epsilon", 0),
    ("stage1", "conv1_filters", 0),
    ("stage1", "epsilon", 0),
    ("stage2", "routing_iterations", 0),
    ("stage2", "class_capsule_dim", 1),
    ("training", "epochs", 0),
    ("training", "batch_size", 0),
    ("training", "learning_rate", 0),
    ("training", "reconstruction_weight", -0.5),
    ("training", "patch_size", 4),
    ("training", "decoder_hidden", 0),
])
def test_out_of_range_config_value_rejected(workspace, tmp_path, section, key, value):
    config = json.loads(json.dumps(workspace["config"]))
    config.setdefault(section, {})[key] = value
    config["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path)]) == 1
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        config_from_dict(config)


@pytest.mark.parametrize("edit, message", [
    (lambda c: c["stage2"].update(conv_kernel=2), "stage2 kernels must be odd"),
    (lambda c: c["stage2"].update(capsules=1), "stage2 needs >= 2 capsules of dimension >= 2"),
    (lambda c: c["training"].update(margin={"edge_minus": 0.95}),
     "margin edges must satisfy 0 < edge_minus < edge_plus < 1"),
    (lambda c: c["training"].update(margin={"mu": 0}), "margin.mu must be positive"),
    (lambda c: c["training"].update(margin={"variant": "squared"}),
     "unknown margin variant 'squared'"),
    (lambda c: c["training"].update(beta2=1.0), "adam betas must be in (0, 1)"),
    (lambda c: c.update(train_fraction=1.0), "train_fraction must be in (0, 1)"),
], ids=["even-kernel", "one-capsule", "margin-edges", "margin-mu", "margin-variant", "beta2",
        "train-fraction"])
def test_a_config_that_fails_its_checks_is_rejected(workspace, tmp_path, capsys, edit, message):
    config = json.loads(json.dumps(workspace["config"]))
    edit(config)
    config["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_override_rejected(workspace, tmp_path):
    config = dict(workspace["config"], output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path), "--seed-override", "-1"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("drop, message", [
    ("cube", "config must set 'cube' and 'labels' paths"),
    ("labels", "config must set 'cube' and 'labels' paths"),
    ("output_dir", "no output directory (set 'output_dir' or pass --out)"),
])
def test_train_rejects_a_config_without_its_paths(workspace, tmp_path, capsys, drop, message):
    config = {k: v for k, v in workspace["config"].items() if k != drop}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(path)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err


def test_default_config_round_trips_and_float_fields_take_ints(tmp_path):
    path = tmp_path / "default.json"
    save_config(RunConfig(), str(path))
    assert load_config(str(path)) == RunConfig()
    cfg = config_from_dict({"training": {"learning_rate": 1, "margin": {"mu": 2}},
                            "stage1": {"triangular_cap": 7}})
    assert (cfg.training.learning_rate, cfg.training.margin.mu) == (1, 2)
    assert cfg.stage1.triangular_cap == 7


def test_usage_error_exit_code():
    assert cli.main([]) == 1
    assert cli.main(["train"]) == 1
    assert cli.main(["no-such-command"]) == 1


def test_variant_flag_sets_ablation(workspace, tmp_path):
    config = dict(workspace["config"])
    config["output_dir"] = str(tmp_path / "m1")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["train", "--config", str(path), "--variant", "model1"])
    assert rc == 0
    saved = json.loads((tmp_path / "m1" / "config.json").read_text())
    assert saved["training"]["segmentation_on"] is False
    assert saved["training"]["enhancement_on"] is False


def test_an_unknown_variant_is_rejected():
    with pytest.raises(ConfigError, match="unknown variant 'model4'"):
        RunConfig().apply_variant("model4")


def test_evaluate_writes_report(workspace, tmp_path):
    out = tmp_path / "eval"
    rc = cli.main([
        "evaluate", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    for key in ("oa", "aa", "kappa", "confusion", "per_class", "n_evaluated"):
        assert key in report
    assert 0.0 <= report["oa"] <= 1.0
    assert len(report["confusion"]) == 3
    assert len(report["per_class"]) == 3


def test_evaluate_self_compare_notes_no_discordant(workspace, tmp_path):
    # predict first to get a map identical to the checkpoint's output
    pred_dir = tmp_path / "pred"
    rc = cli.main(["predict", "--checkpoint", workspace["checkpoint"],
                   "--cube", workspace["cube"], "--out", str(pred_dir)])
    assert rc == 0
    out = tmp_path / "eval2"
    rc = cli.main([
        "evaluate", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--compare", str(pred_dir / "map.csv"), "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["mcnemar"] == {"note": "no discordant pairs"}


def test_evaluate_mcnemar_against_degraded_map(workspace, tmp_path):
    labels = data.load_labels(workspace["labels"])
    degraded = labels.labels.copy()
    degraded[degraded == 2] = 1  # break one class
    degraded[degraded == 0] = 1
    path = tmp_path / "other.csv"
    with open(path, "w") as fh:
        for row in degraded:
            fh.write(",".join(str(int(v)) for v in row) + "\n")
    out = tmp_path / "eval3"
    rc = cli.main([
        "evaluate", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--compare", str(path), "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "metrics.json").read_text())
    if "note" not in report["mcnemar"]:
        assert report["mcnemar"]["band"] in ("NS", "*", "**", "***")
        assert (out / "mcnemar.csv").exists()


def test_evaluate_mcnemar_counts_skip_unlabelled(workspace, tmp_path):
    # Five test pixels lose their label, and the comparison map marks them 0
    # too: both classifiers then "agree with truth 0" there, and only
    # the checkpoint is wrong. Those pixels must not enter f12 / f21.
    pred_dir = tmp_path / "pred"
    assert cli.main(["predict", "--checkpoint", workspace["checkpoint"],
                     "--cube", workspace["cube"], "--out", str(pred_dir)]) == 0
    pred = data.read_grid_csv(str(pred_dir / "map.csv"), "class map")
    split_path = str(workspace["run"] / "split.json")
    test = data.load_split(split_path).test_indices
    labels = data.load_labels(workspace["labels"]).labels.copy()
    other = pred.copy()
    for r, c in test[:5]:
        labels[r, c] = other[r, c] = 0
    want = [0, 0]  # f12, f21
    for r, c in test[5:7]:  # exactly two labelled discordant pairs
        right = pred[r, c] == labels[r, c]
        other[r, c] = labels[r, c] % 3 + 1 if right else labels[r, c]
        want[0 if right else 1] += 1
    label_path, other_path = tmp_path / "labels.csv", tmp_path / "other.csv"
    data.write_grid_csv(labels, str(label_path))
    data.write_grid_csv(other, str(other_path))
    out = tmp_path / "eval"
    rc = cli.main([
        "evaluate", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", str(label_path),
        "--split", split_path, "--compare", str(other_path), "--out", str(out),
    ])
    assert rc == 0
    got = json.loads((out / "metrics.json").read_text())["mcnemar"]
    assert [got["f12"], got["f21"]] == want
    assert got["chi2"] == evaluation.mcnemar_from_counts(*want)[0]


def test_predict_outputs_and_determinism(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli.main(["predict", "--checkpoint", workspace["checkpoint"],
                       "--cube", workspace["cube"], "--out", str(out)])
        assert rc == 0
    map_a = (a / "map.csv").read_bytes()
    assert map_a == (b / "map.csv").read_bytes()
    assert (a / "map.pgm").read_bytes() == (b / "map.pgm").read_bytes()
    rows = map_a.decode().strip().splitlines()
    assert len(rows) == 8 and len(rows[0].split(",")) == 8
    pgm = (a / "map.pgm").read_bytes()
    assert pgm.startswith(b"P5\n8 8\n255\n")
    assert len(pgm) == len(b"P5\n8 8\n255\n") + 64


def test_predict_shape_mismatch(workspace, tmp_path):
    other_cube, _ = synthetic.make_separable_cube(height=4, width=4, bands=9, seed=1)
    cube_path, _ = synthetic.write_dataset(str(tmp_path / "other"), other_cube,
                                           data.labelmap_from_array(np.ones((4, 4), int)))
    rc = cli.main(["predict", "--checkpoint", workspace["checkpoint"],
                   "--cube", cube_path])
    assert rc == 2


def _triples(manifest, first):
    """Every triple of the manifest's base features, in order, with the
    first replaced by ``first``: as many rows as the full registry needs."""
    b = sum(1 for ix in manifest["slice_band_indices"] if ix) * manifest["n_class"]
    return [list(first)] + [list(t) for t in itertools.combinations(range(b), 3)][1:]


MALFORMED_MANIFESTS = {
    "slices missing": lambda m: {k: v for k, v in m.items() if k != "slices"},
    "tri_combos missing": lambda m: {k: v for k, v in m.items() if k != "tri_combos"},
    "triple index past b": lambda m: {**m, "tri_combos": _triples(m, [0, 1, 99])},
    "ragged triples": lambda m: {**m, "tri_combos": _triples(m, [0, 1])},
    "unordered triple": lambda m: {**m, "tri_combos": _triples(m, [2, 1, 0])},
    "triple with i = j": lambda m: {**m, "tri_combos": _triples(m, [0, 0, 1])},
    "triple with j = h": lambda m: {**m, "tri_combos": _triples(m, [0, 1, 1])},
    "negative triple index": lambda m: {**m, "tri_combos": _triples(m, [-1, 0, 1])},
    "float triple": lambda m: {**m, "tri_combos": _triples(m, [0.0, 1.0, 2.0])},
    "extra repeated triple": lambda m: {**m, "tri_combos": _triples(m, [0, 1, 2]) + [[0, 1, 2]]},
    "triple repeated in place of another": lambda m: {**m, "tri_combos": _triples(m, [0, 1, 3])},
    "n_class as text": lambda m: {**m, "n_class": "3"},
    "band index past the cube": lambda m: {
        **m, "slice_band_indices": [m["slice_band_indices"][0][:-1] + [99]]
        + m["slice_band_indices"][1:]},
    "slices not a list": lambda m: {**m, "slices": None},
    "a slice listed without its band indices": lambda m: {
        **m, "slices": m["slices"] + [["swir", 1000.0, 2500.0]]},
    "band indices swapped between slices": lambda m: {
        **m, "slice_band_indices": m["slice_band_indices"][:1] + m["slice_band_indices"][2:0:-1]
        + m["slice_band_indices"][3:]},
    "descending band indices": lambda m: {
        **m, "slice_band_indices": [m["slice_band_indices"][0][::-1]]
        + m["slice_band_indices"][1:]},
    "wavelengths not a list": lambda m: {**m, "wavelengths_nm": None},
    "parameter entry not an object": lambda m: {**m, "params": ["x"] + m["params"][1:]},
    "config not an object": lambda m: {**m, "config": []},
    "manifest not an object": lambda m: [m],
}


@pytest.mark.parametrize("edit", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS)
def test_predict_rejects_malformed_manifest(workspace, tmp_path, capsys, edit):
    with open(workspace["checkpoint"], "rb") as fh:
        manifest, blob = json.loads(fh.readline()), fh.read()
    assert manifest["tri_combos"] is None  # every triple, so _triples fits the registry
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(json.dumps(edit(manifest)).encode("utf-8") + b"\n" + blob)
    out = tmp_path / "out"
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--cube", workspace["cube"],
                   "--out", str(out)])
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rewrite, rc, message", [
    (None, 2, "data error: checkpoint not found"),
    (lambda line, blob: b"{manifest\n" + blob, 2, "data error: malformed checkpoint manifest"),
    (lambda line, blob: line + np.array([np.nan], "<f8").tobytes() + blob[8:], 3,
     "numeric error: non-finite values in parameter spectral.0.dense.w[0]"),
], ids=["missing", "manifest-not-json", "nan-parameter"])
def test_predict_rejects_a_checkpoint_it_cannot_load(workspace, tmp_path, capsys, rewrite, rc,
                                                     message):
    ckpt = tmp_path / "model.ckpt"
    if rewrite is not None:
        with open(workspace["checkpoint"], "rb") as fh:
            line, blob = fh.readline(), fh.read()
        ckpt.write_bytes(rewrite(line, blob))
    out = tmp_path / "out"
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--cube", workspace["cube"],
                     "--out", str(out)]) == rc
    assert message in capsys.readouterr().err
    assert not out.exists()


def _cube_header(workspace):
    """The workspace cube's header, its data file named by absolute path."""
    with open(workspace["cube"], encoding="utf-8") as fh:
        header = json.load(fh)
    header["data_file"] = os.path.join(os.path.dirname(workspace["cube"]), header["data_file"])
    return header


@pytest.mark.parametrize("key, value", [("height", "x"), ("width", 2.5), ("bands", True),
                                        ("height", -8), ("wavelengths_nm", "400"),
                                        ("wavelengths_nm", [400.0] * 19 + ["x"]),
                                        ("data_file", 5)])
def test_predict_rejects_mistyped_cube_header(workspace, tmp_path, capsys, key, value):
    header = _cube_header(workspace)
    header[key] = value
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(header))
    rc = cli.main(["predict", "--checkpoint", workspace["checkpoint"], "--cube", str(cube),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "cube header" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.pop("dtype"), "cube header missing key 'dtype'"),
    (lambda h: h.update(interleave="bsq"), "unsupported cube encoding (expected f32le / bip)"),
    (lambda h: h.update(data_file="missing.raw"), "cube data file not found"),
    (lambda h: h.update(height=4), "cube data size mismatch: expected 640 samples, got 1280"),
    (lambda h: h["wavelengths_nm"].reverse(), "wavelengths must be strictly increasing"),
], ids=["missing-key", "encoding", "missing-raw-file", "raw-size-mismatch",
        "descending-wavelengths"])
def test_predict_rejects_a_cube_it_cannot_read(workspace, tmp_path, capsys, edit, message):
    header = _cube_header(workspace)
    assert header["bands"] == 20
    edit(header)
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(header))
    out = tmp_path / "out"
    assert cli.main(["predict", "--checkpoint", workspace["checkpoint"], "--cube", str(cube),
                     "--out", str(out)]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_predict_rejects_a_cube_header_that_is_not_json(workspace, tmp_path, capsys):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(_cube_header(workspace))[:-1])
    out = tmp_path / "out"
    assert cli.main(["predict", "--checkpoint", workspace["checkpoint"], "--cube", str(cube),
                     "--out", str(out)]) == 2
    assert f"data error: malformed cube header {cube}" in capsys.readouterr().err
    assert not out.exists()


INTERPRET_FILES = ("features.npy", "features_index.csv", "feature_names.txt",
                   "r_squared.csv", "lengths.csv", "poses.npy", "conv_kernels.npy",
                   "interpretability.json")


def _read_features(out):
    """(pixel coordinates, feature names, feature matrix) from an interpret
    output directory."""
    lines = (out / "features_index.csv").read_text().splitlines()
    coords = np.array([[int(v) for v in line.split(",")[:2]] for line in lines[1:]])
    names = (out / "feature_names.txt").read_text().splitlines()
    feats = np.load(out / "features.npy", allow_pickle=False)
    assert feats.shape == (len(coords), len(names))
    return coords, names, feats


def _interpret(workspace, out, *extra):
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--out", str(out), *extra,
    ])
    assert rc == 0


def test_interpret_report(workspace, tmp_path):
    out = tmp_path / "interp"
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "interpretability.json").read_text())
    n_features = report["n_features"]
    for entropy in report["entropy_per_class"].values():
        assert 0.0 <= entropy <= math.log(n_features) + 1e-9
    assert report["dunn_index"] is None or report["dunn_index"] >= 0.0
    for name in INTERPRET_FILES:
        assert (out / name).exists()
    for name in ("features.csv", "conv_kernels.csv", "poses.csv"):
        assert not (out / name).exists()
    assert (out / "features_index.csv").read_text().splitlines()[0] == "row,col,label"
    assert (out / "feature_names.txt").read_text().splitlines()[0].startswith("b1_")


def test_interpret_features_npy_equals_pixel_features(workspace, tmp_path):
    # features.npy is the full [x1, x2, x3] vector, though forward passes
    # never build x3 since the triangular index is folded into the conv kernel
    out = tmp_path / "interp_feats"
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--out", str(out),
    ])
    assert rc == 0
    mdl = training.load_checkpoint(workspace["checkpoint"])[0]
    labels = data.load_labels(workspace["labels"]).labels
    rows, cols = np.nonzero(labels)
    norm = data.normalize_cube(data.load_cube(workspace["cube"]))
    detached = mdl.detached()
    x1 = spectral.base_features(norm.data[rows, cols].astype(np.float64), detached)
    want = spectral.enhanced_features(x1, mdl.config.stage1.epsilon, mdl.tri_combos)
    assert want.shape[1] == mdl.f_n
    feats = np.load(out / "features.npy", allow_pickle=False)
    assert feats.dtype == np.float64
    np.testing.assert_array_equal(feats, want)
    lines = (out / "features_index.csv").read_text().splitlines()
    assert lines[0] == "row,col,label"
    index = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(index[:, :2], np.column_stack([rows, cols]))
    np.testing.assert_array_equal(index[:, 2], labels[rows, cols])


def test_interpret_conv_kernels_npy_equals_checkpoint(workspace, tmp_path):
    out = tmp_path / "interp_kernels"
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--out", str(out),
    ])
    assert rc == 0
    kernels = training.load_checkpoint(workspace["checkpoint"])[0].params["caps.conv.w"].data
    got = np.load(out / "conv_kernels.npy", allow_pickle=False)
    assert got.shape == kernels.shape and got.dtype == kernels.dtype == np.float64
    for index in np.ndindex(kernels.shape):  # (filter, ki, kj, channel)
        assert got[index] == kernels[index]


def test_interpret_poses_npy_equals_scene_forward(workspace, tmp_path):
    out = tmp_path / "interp_poses"
    _interpret(workspace, out)
    mdl = training.load_checkpoint(workspace["checkpoint"])[0]
    labelled = np.argwhere(data.load_labels(workspace["labels"]).labels > 0)
    norm = data.normalize_cube(data.load_cube(workspace["cube"]))
    want = model_mod.scene_forward(mdl, norm, labelled)["poses"]
    got = np.load(out / "poses.npy", allow_pickle=False)
    assert got.dtype == np.float64 and got.ndim == 3
    np.testing.assert_array_equal(got, want)
    index = (out / "features_index.csv").read_text().splitlines()[1:]
    assert [tuple(map(int, line.split(",")[:2])) for line in index] == list(
        map(tuple, labelled.tolist()))


def test_interpret_self_reference_r2_is_one(workspace, tmp_path):
    base = tmp_path / "interp_base"
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--out", str(base),
    ])
    assert rc == 0
    coords, names, feats = _read_features(base)
    col = names.index("b1_1")
    refs = tmp_path / "refs.csv"
    with open(refs, "w") as fh:
        fh.write("row,col,self_ref\n")
        for (r, c), value in zip(coords, feats[:, col].tolist()):
            fh.write(f"{r},{c},{value!r}\n")
    out = tmp_path / "interp_self"
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--references", str(refs), "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "interpretability.json").read_text())
    assert report["r_squared_best"]["self_ref"]["r2"] == pytest.approx(1.0, abs=1e-9)


def test_gradcheck_cli(monkeypatch):
    assert cli.main(["gradcheck"]) == 0
    corrupt_gradients(monkeypatch)
    assert cli.main(["gradcheck"]) == 3


@pytest.mark.parametrize("content, message", [(None, "cannot read config"),
                                              ("{", "malformed config")],
                         ids=["missing", "malformed-json"])
def test_gradcheck_rejects_a_config_it_cannot_read(tmp_path, capsys, content, message):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    assert cli.main(["gradcheck", "--config", str(path)]) == 1
    assert f"config error: {message} {path}" in capsys.readouterr().err


def test_evaluate_rejects_out_of_bounds_split(workspace, tmp_path):
    split_path = tmp_path / "bad_split.json"
    split_path.write_text(json.dumps({
        "seed": 0, "train_fraction": 0.5,
        "train": [[0, 0]], "test": [[99, 99]],
    }))
    rc = cli.main([
        "evaluate", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--split", str(split_path), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2


def _labels_file(tmp_path, grid):
    path = str(tmp_path / "labels.csv")
    data.write_grid_csv(np.asarray(grid), path)
    return path


def _run_on_labels(workspace, tmp_path, command, labels, *extra):
    return cli.main([command, "--checkpoint", workspace["checkpoint"], "--cube", workspace["cube"],
                     "--labels", labels, "--out", str(tmp_path / command), *extra])


def test_evaluate_names_the_split_pixel_outside_the_image(workspace, tmp_path, capsys):
    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps({"seed": 0, "train_fraction": 0.5,
                                      "train": [[0, 0]], "test": [[1, 1], [3, 8]]}))
    rc = _run_on_labels(workspace, tmp_path, "evaluate", workspace["labels"],
                        "--split", str(split_path))
    assert rc == 2
    assert "patch center (3, 8) outside image" in capsys.readouterr().err
    assert not (tmp_path / "evaluate").exists()


@pytest.mark.parametrize("command", ["evaluate", "interpret"])
def test_label_map_of_another_shape_than_the_cube_is_rejected(workspace, tmp_path, capsys,
                                                              command):
    labels = _labels_file(tmp_path, np.ones((4, 8), dtype=int))
    assert _run_on_labels(workspace, tmp_path, command, labels) == 2
    assert "label map 4x8 does not match cube 8x8" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1,1\n1,x\n", "malformed label file {path} at line 2"),
    ("1,1\n1\n", "malformed label file {path}: ragged rows"),
    ("1,1\n1,-1\n", "labels must be non-negative"),
], ids=["non-integer", "ragged", "negative-id"])
def test_a_label_file_that_is_not_an_integer_grid_is_rejected(workspace, tmp_path, capsys, text,
                                                              message):
    path = tmp_path / "labels.csv"
    path.write_text(text)
    assert _run_on_labels(workspace, tmp_path, "evaluate", str(path)) == 2
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "evaluate").exists()


def test_a_blank_line_between_label_rows_is_skipped(workspace, tmp_path):
    with open(workspace["labels"], encoding="utf-8") as fh:
        rows = fh.readlines()
    path = tmp_path / "labels.csv"
    path.write_text("".join(rows[:3]) + "\n" + "".join(rows[3:]))
    assert _run_on_labels(workspace, tmp_path, "evaluate", str(path)) == 0
    assert cli.main(["evaluate", "--checkpoint", workspace["checkpoint"], "--cube",
                     workspace["cube"], "--labels", workspace["labels"],
                     "--out", str(tmp_path / "plain")]) == 0
    assert ((tmp_path / "evaluate" / "metrics.json").read_bytes()
            == (tmp_path / "plain" / "metrics.json").read_bytes())


def test_evaluate_rejects_a_class_count_other_than_the_checkpoints(workspace, tmp_path, capsys):
    labels = _labels_file(tmp_path, np.tile([1, 2], (8, 4)))
    assert _run_on_labels(workspace, tmp_path, "evaluate", labels) == 2
    assert "label map has 2 classes, checkpoint 3" in capsys.readouterr().err


def test_evaluate_rejects_a_comparison_map_of_another_shape(workspace, tmp_path, capsys):
    other = str(tmp_path / "other.csv")
    data.write_grid_csv(np.ones((8, 7), dtype=int), other)
    rc = _run_on_labels(workspace, tmp_path, "evaluate", workspace["labels"], "--compare", other)
    assert rc == 2
    assert "comparison map shape does not match cube" in capsys.readouterr().err
    assert not (tmp_path / "evaluate").exists()


def test_evaluate_rejects_a_missing_comparison_map(workspace, tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    rc = _run_on_labels(workspace, tmp_path, "evaluate", workspace["labels"], "--compare", missing)
    assert rc == 2
    assert f"class map not found: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "evaluate").exists()


def test_interpret_rejects_a_label_map_with_no_labelled_pixel(workspace, tmp_path, capsys):
    labels = _labels_file(tmp_path, np.zeros((8, 8), dtype=int))
    assert _run_on_labels(workspace, tmp_path, "interpret", labels) == 2
    assert "no labeled pixels to interpret" in capsys.readouterr().err
    assert not (tmp_path / "interpret").exists()


def test_interpret_reports_no_dunn_index_with_one_class_of_two_or_more_pixels(
        workspace, tmp_path, capsys):
    grid = np.zeros((8, 8), dtype=int)
    grid[2, 2:5], grid[5, 5], grid[6, 1] = 1, 2, 3
    labels = _labels_file(tmp_path, grid)
    assert _run_on_labels(workspace, tmp_path, "interpret", labels) == 0
    assert "dunn n/a" in capsys.readouterr().out
    report = json.loads((tmp_path / "interpret" / "interpretability.json").read_text())
    assert report["dunn_index"] is None


@pytest.mark.parametrize("command", ["evaluate", "predict", "interpret"])
def test_scene_commands_take_the_checkpoint_cube_and_out_flags(command, capsys):
    assert cli.main([command, "--help"]) == 0
    usage = capsys.readouterr().out
    for flag in ("--checkpoint", "--cube", "--out"):
        assert flag in usage
    assert cli.main([command, "--cube", "cube.json"]) == 1
    assert "--checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("variant, b", [("model1", 3), ("model2", 21)])
def test_interpret_without_enhancement_exports_the_base_features_alone(workspace, tmp_path,
                                                                       variant, b):
    """model1 (one slice) and model2 (seven) run without enhancement, so
    interpret exports the b base features and caps.conv.w is b wide. The
    run goes to --out, not to the config's output_dir."""
    before = (workspace["run"] / "model.ckpt").read_bytes()
    run = tmp_path / "run"
    assert cli.main(["train", "--config", workspace["config_path"], "--variant", variant,
                     "--out", str(run)]) == 0
    assert (workspace["run"] / "model.ckpt").read_bytes() == before
    assert json.loads((run / "config.json").read_text())["output_dir"] == str(run)
    out = tmp_path / "interp"
    assert cli.main(["interpret", "--checkpoint", str(run / "model.ckpt"),
                     "--cube", workspace["cube"], "--labels", workspace["labels"],
                     "--out", str(out)]) == 0
    _, names, feats = _read_features(out)
    assert names == [f"b1_{i + 1}" for i in range(b)] and feats.shape[1] == b
    assert np.load(out / "conv_kernels.npy", allow_pickle=False).shape[-1] == b


def test_interpret_names_the_capped_triples(workspace, tmp_path):
    config = json.loads(json.dumps(workspace["config"]))
    config["stage1"]["triangular_cap"] = 7
    config["training"]["epochs"] = 1
    config["output_dir"] = str(tmp_path / "run")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(config_path)]) == 0
    ckpt = tmp_path / "run" / "model.ckpt"
    with open(ckpt, "rb") as fh:
        triples = json.loads(fh.readline())["tri_combos"]
    assert len(triples) == 7
    out = tmp_path / "interp"
    assert cli.main(["interpret", "--checkpoint", str(ckpt), "--cube", workspace["cube"],
                     "--labels", workspace["labels"], "--out", str(out)]) == 0
    _, names, feats = _read_features(out)
    assert [n for n in names if n.startswith("tri_")] == [
        f"tri_{i + 1}_{j + 1}_{h + 1}" for i, j, h in triples]
    assert feats.shape[1] == 21 + math.comb(21, 2) + 7


@pytest.mark.parametrize("content", [
    '{"seed": 1, "train_fraction": 0.5, "train": [[0, 0]], "te',
    '{"seed": 1}',
    '[[0, 0]]',
    '{"seed": 1, "train_fraction": 0.5, "train": [[0, 0]], "test": [[1, 2, 3]]}',
    '{"seed": 1, "train_fraction": 0.5, "train": [[0, 0]], "test": ["12"]}',
    '{"seed": 1, "train_fraction": 0.5, "train": [[0, 0]], "test": [[1.5, 2]]}',
    '{"seed": 1, "train_fraction": 0.5, "train": [[0, 0]], "test": {"a": 1}}',
], ids=["truncated", "missing-keys", "not-an-object", "triple", "string-entry",
        "float-entry", "not-a-list"])
def test_evaluate_rejects_malformed_split(workspace, tmp_path, capsys, content):
    split_path = tmp_path / "bad_split.json"
    split_path.write_text(content)
    rc = cli.main([
        "evaluate", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--split", str(split_path), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert f"malformed split file {split_path}" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "split file not found"),
    ('{"seed": 1, "train_fraction": 0.5, "train": [[0, 0], [1, 1]], "test": [[1, 1]]}',
     "train/test overlap on 1 pixels"),
], ids=["missing", "overlap"])
def test_evaluate_rejects_a_split_it_cannot_use(workspace, tmp_path, capsys, content, message):
    split_path = tmp_path / "split.json"
    if content is not None:
        split_path.write_text(content)
    rc = _run_on_labels(workspace, tmp_path, "evaluate", workspace["labels"],
                        "--split", str(split_path))
    assert rc == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "evaluate").exists()


def test_evaluate_reports_null_sensitivity_for_a_class_absent_from_the_test_list(workspace,
                                                                                 tmp_path):
    doc = json.loads((workspace["run"] / "split.json").read_text())
    labels = data.load_labels(workspace["labels"]).labels
    doc["test"] = [rc for rc in doc["test"] if labels[rc[0], rc[1]] != 3]
    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps(doc))
    rc = _run_on_labels(workspace, tmp_path, "evaluate", workspace["labels"],
                        "--split", str(split_path))
    assert rc == 0
    per_class = json.loads((tmp_path / "evaluate" / "metrics.json").read_text())["per_class"]
    assert per_class[2]["class"] == 3 and per_class[2]["sensitivity"] is None
    assert all(isinstance(row["sensitivity"], float) for row in per_class[:2])


@pytest.mark.parametrize("key", ["train", "test"])
def test_evaluate_rejects_pixel_repeated_within_a_list(workspace, tmp_path, capsys, key):
    doc = json.loads((workspace["run"] / "split.json").read_text())
    repeated = doc[key][1]
    doc[key] = doc[key] + [repeated] + doc[key][:2]
    split_path = tmp_path / "split.json"
    split_path.write_text(json.dumps(doc))
    rc = cli.main([
        "evaluate", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--split", str(split_path), "--out", str(tmp_path / "out"), "--on", key,
    ])
    assert rc == 2
    assert f"pixel {tuple(repeated)} is listed twice in the {key} list" in \
        capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.json").exists()


def test_reports_hold_only_python_scalars(workspace, tmp_path, monkeypatch):
    """metrics.json and interpretability.json are built from Python
    scalars, lists and dicts, with NaN the only value written as null."""
    docs = {}
    write_json = cli._write_json

    def capture(path, doc):
        docs[os.path.basename(path)] = doc
        write_json(path, doc)

    monkeypatch.setattr(cli, "_write_json", capture)
    common = ["--checkpoint", workspace["checkpoint"], "--cube", workspace["cube"],
              "--labels", workspace["labels"]]
    pred_dir = tmp_path / "pred"
    assert cli.main(["predict", "--checkpoint", workspace["checkpoint"],
                     "--cube", workspace["cube"], "--out", str(pred_dir)]) == 0
    other = data.read_grid_csv(str(pred_dir / "map.csv"), "class map") % 3 + 1
    data.write_grid_csv(other, str(tmp_path / "other.csv"))
    assert cli.main(["evaluate", *common, "--compare", str(tmp_path / "other.csv"),
                     "--out", str(tmp_path / "eval")]) == 0
    assert cli.main(["interpret", *common, "--out", str(tmp_path / "interp")]) == 0
    assert sorted(docs) == ["interpretability.json", "metrics.json"]
    assert "chi2" in docs["metrics.json"]["mcnemar"]

    def leaves(doc):
        if isinstance(doc, dict):
            assert {type(k) for k in doc} <= {str, int}
            for v in doc.values():
                yield from leaves(v)
        elif type(doc) is list:
            for v in doc:
                yield from leaves(v)
        else:
            yield doc

    for name, doc in docs.items():
        kinds = {type(v) for v in leaves(doc)}
        assert kinds <= {str, int, float, type(None)}, (name, kinds)


def test_interpret_rejects_malformed_references(workspace, tmp_path, capsys):
    coords = np.argwhere(data.load_labels(workspace["labels"]).labels > 0)
    refs = tmp_path / "refs.csv"
    lines = ["row,col,ref"] + [f"{r},{c},{0.5 * i}" for i, (r, c) in enumerate(coords)]
    lines[2] = lines[2].rsplit(",", 1)[0] + ",abc"
    refs.write_text("\n".join(lines) + "\n")
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--references", str(refs), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert f"malformed reference CSV {refs} at line 3" in capsys.readouterr().err
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--references", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2


def test_interpret_rejects_duplicate_reference_rows(workspace, tmp_path, capsys):
    coords = np.argwhere(data.load_labels(workspace["labels"]).labels > 0)
    refs = tmp_path / "refs.csv"
    lines = ["row,col,ref"] + [f"{r},{c},0.1" for r, c in coords]
    lines.insert(3, lines[1].replace("0.1", "0.9"))
    refs.write_text("\n".join(lines) + "\n")
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--references", str(refs), "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    r, c = coords[0]
    assert (f"duplicate pixel ({r}, {c}) in reference CSV {refs} at line 4"
            in capsys.readouterr().err)


def test_interpret_rejects_repeated_reference_columns(workspace, tmp_path, capsys):
    coords = np.argwhere(data.load_labels(workspace["labels"]).labels > 0)
    refs = tmp_path / "refs.csv"
    refs.write_text("row,col,chl,chl\n" + "".join(f"{r},{c},0.1,0.2\n" for r, c in coords))
    out = tmp_path / "out"
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--references", str(refs), "--out", str(out),
    ])
    assert rc == 2
    assert f"repeated column 'chl' in reference CSV {refs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda lines: ["pixel,col,ref"] + lines[1:], "reference CSV must start with row,col columns"),
    (lambda lines: lines[:2] + [lines[2] + ",0.5"] + lines[3:],
     "ragged reference CSV {refs} at line 3"),
    (lambda lines: lines[:-1], "reference CSV missing pixel ({r}, {c})"),
], ids=["header", "ragged-row", "missing-pixel"])
def test_interpret_rejects_a_reference_csv_that_does_not_fit(workspace, tmp_path, capsys, edit,
                                                            message):
    coords = np.argwhere(data.load_labels(workspace["labels"]).labels > 0)
    refs = tmp_path / "refs.csv"
    lines = ["row,col,ref"] + [f"{r},{c},0.1" for r, c in coords]
    refs.write_text("\n".join(edit(lines)) + "\n")
    out = tmp_path / "out"
    rc = cli.main([
        "interpret", "--checkpoint", workspace["checkpoint"],
        "--cube", workspace["cube"], "--labels", workspace["labels"],
        "--references", str(refs), "--out", str(out),
    ])
    assert rc == 2
    r, c = coords[-1]
    assert message.format(refs=refs, r=r, c=c) in capsys.readouterr().err
    assert not out.exists()


def test_interpret_skips_blank_lines_in_references(workspace, tmp_path):
    coords = np.argwhere(data.load_labels(workspace["labels"]).labels > 0)
    text = "row,col,ref\n" + "".join(f"{r},{c},{0.1 * i}\n" for i, (r, c) in enumerate(coords))
    outs = []
    for name, body in (("plain", text), ("trailing", text + "\n\n")):
        refs, out = tmp_path / f"{name}.csv", tmp_path / name
        refs.write_text(body)
        _interpret(workspace, out, "--references", str(refs))  # asserts exit 0
        outs.append((out / "r_squared.csv").read_bytes())
    assert outs[0] == outs[1]


def test_interpret_feature_names_match_features_and_r_squared(workspace, tmp_path):
    coords = np.argwhere(data.load_labels(workspace["labels"]).labels > 0)
    named, unnamed = tmp_path / "named.csv", tmp_path / "unnamed.csv"
    named.write_text("row,col,first,second\n" + "".join(
        f"{r},{c},{0.5 * i},{(-1.0) ** i}\n" for i, (r, c) in enumerate(coords)))
    unnamed.write_text("row,col\n" + "".join(f"{r},{c}\n" for r, c in coords))
    _interpret(workspace, tmp_path / "a", "--references", str(named))
    _interpret(workspace, tmp_path / "b", "--references", str(unnamed))
    _, names, _ = _read_features(tmp_path / "a")  # one name per column
    cells = [line.split(",") for line in
             (tmp_path / "a" / "r_squared.csv").read_text().splitlines()[1:]]
    for ref in ("first", "second"):
        assert [f for f, r, _ in cells if r == ref] == names
    assert (tmp_path / "b" / "r_squared.csv").read_text() == "feature,reference,r2\n"
    assert _read_features(tmp_path / "b")[1] == names


def test_interpret_r_squared_csv_matches_oracle(workspace, tmp_path):
    # r2 of every feature against references with a NaN cell, a constant
    # column and a column with only 2 finite values, from features.npy
    _interpret(workspace, tmp_path / "base")
    coords, names, feats = _read_features(tmp_path / "base")
    n = len(coords)
    rng = np.random.default_rng(5)
    ref_names = ["noisy", "flat", "sparse", "tracks_b1_2"]
    refs = np.column_stack([rng.normal(size=n), np.full(n, 0.5), np.full(n, np.nan),
                            feats[:, 1] + 0.1 * rng.normal(size=n)])
    refs[3, 0] = np.nan
    refs[[1, 6], 2] = [0.2, 0.9]
    path = tmp_path / "refs.csv"
    with open(path, "w") as fh:
        fh.write("row,col," + ",".join(ref_names) + "\n")
        for (r, c), vals in zip(coords, refs):
            fh.write(f"{r},{c}," + ",".join(map(repr, vals.tolist())) + "\n")
    _interpret(workspace, tmp_path / "out", "--references", str(path))

    want = np.full((len(names), len(ref_names)), np.nan)
    for j in range(len(ref_names)):
        valid = np.isfinite(refs[:, j])
        y = refs[valid, j]
        if valid.sum() < 3 or (y == y[0]).all():
            continue
        for i in range(len(names)):
            x = feats[valid, i]
            if not (x == x[0]).all():
                want[i, j] = np.corrcoef(x, y)[0, 1] ** 2
    assert np.isnan(want[:, 1:3]).all() and not np.isnan(want[:, [0, 3]]).all()

    got_lines = (tmp_path / "out" / "r_squared.csv").read_text().splitlines()
    assert got_lines[0] == "feature,reference,r2"
    cells = [line.split(",") for line in got_lines[1:]]
    assert [(f, r) for f, r, _ in cells] == [(f, r) for r in ref_names for f in names]
    got = np.array([float(v) if v else np.nan for _, _, v in cells])
    got = got.reshape(len(ref_names), len(names)).T
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got[~np.isnan(want)], want[~np.isnan(want)], rtol=0, atol=1e-13)

    best = json.loads((tmp_path / "out" / "interpretability.json").read_text())["r_squared_best"]
    assert set(best) == {"noisy", "tracks_b1_2"}
    for j in (0, 3):
        assert best[ref_names[j]]["feature"] == names[int(np.nanargmax(want[:, j]))]
        assert abs(best[ref_names[j]]["r2"] - np.nanmax(want[:, j])) <= 1e-13


def test_interpret_twice_is_byte_identical(workspace, tmp_path):
    for run in ("a", "b"):
        _interpret(workspace, tmp_path / run)
    for name in INTERPRET_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

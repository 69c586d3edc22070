"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hsicaps import capsule, data, model as model_mod, synthetic, training  # noqa: E402
from hsicaps.config import RunConfig  # noqa: E402


# spans ------------------------------------------------------------------------


def test_self_times_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, None],
        ["d", 6.0, 8.0, 3, None],
        ["e", 7.0, 8.5, 3, None],  # overlaps d: the union counts once
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_summarize_pools_calls_and_attrs():
    tree = [
        ["f", 0.0, 2.0, -1, 10],
        ["g", 0.5, 1.0, 0, None],
        ["f", 3.0, 4.0, -1, 30],
    ]
    table = spans.summarize(tree)
    assert table["f"]["calls"] == 2
    assert table["f"]["total_s"] == pytest.approx(3.0)
    assert table["f"]["self_s"] == pytest.approx(2.5)
    assert (table["f"]["attr_sum"], table["f"]["attr_max"]) == (40, 30)


def test_recorder_is_transparent_and_restores():
    cube, labels = synthetic.make_separable_cube(height=6, width=6, seed=3)
    split = data.split_samples(labels, 0.5, 3)
    cfg = RunConfig()
    cfg.training.patch_size = 5
    cfg.validate()
    mdl = training.build_model(data.normalize_cube(cube), labels, split, cfg)
    patches = data.extract_patch_batch(data.normalize_cube(cube), [(1, 1), (4, 2)], 5)
    plain = model_mod.predict_lengths(mdl, patches)
    original = capsule.conv2d_batch
    rec = spans.Recorder().install()
    try:
        traced = model_mod.predict_lengths(mdl, patches)
    finally:
        rec.uninstall()
    assert capsule.conv2d_batch is original
    np.testing.assert_array_equal(plain, traced)
    names = [s[0] for s in rec.spans]
    assert names[0] == "model.predict_lengths"
    forward = names.index("model.forward")
    assert rec.spans[forward][4] == 2  # patch count taken from the call
    conv = names.index("capsule.conv2d_batch")
    assert rec.spans[conv][3] == forward  # the stage-2 conv runs inside forward


# generator --------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generator_is_byte_identical_per_seed(tmp_path, name):
    a = workloads.write_workload(name, 5, str(tmp_path / "a"))
    b = workloads.write_workload(name, 5, str(tmp_path / "b"))
    c = workloads.write_workload(name, 6, str(tmp_path / "c"))
    assert workloads.digest(a.directory) == workloads.digest(b.directory)
    assert workloads.digest(a.directory) != workloads.digest(c.directory)


def test_field_scene_is_sparse_blocky_and_balanced():
    cube, labels = workloads.make_field_scene(11)
    lab = labels.labels
    assert cube.data.shape == (40, 40, 200)
    assert np.count_nonzero(lab) == 294
    assert [int(np.sum(lab == k)) for k in (1, 2, 3)] == [98, 98, 98]


# correctness checks fail on corrupted outputs ---------------------------------


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A one-epoch model on a tiny scene, with its files and CLI outputs."""
    tmp = tmp_path_factory.mktemp("run")
    cube, labels = synthetic.make_separable_cube(height=8, width=8, seed=2)
    cfg = RunConfig()
    cfg.training.patch_size = 5
    cfg.training.epochs = 1
    cfg.training.batch_size = 16
    cfg.validate()
    split = data.split_samples(labels, cfg.train_fraction, cfg.training.seed)
    result = training.train(cube, labels, split, cfg)
    ckpt, hist = str(tmp / "model.ckpt"), str(tmp / "history.csv")
    training.save_checkpoint(ckpt, result.model, cfg, cube.wavelengths)
    training.save_history(result.history, hist)
    cube_path, label_path = synthetic.write_dataset(str(tmp / "ds"), cube, labels)
    from hsicaps import cli

    out = str(tmp / "out")
    base = ["--checkpoint", ckpt, "--cube", cube_path, "--out", out]
    assert cli.main(["predict"] + base) == 0
    assert cli.main(["evaluate", "--labels", label_path] + base) == 0
    assert cli.main(["interpret", "--labels", label_path] + base) == 0
    coords = [(0, 0), (3, 5), (7, 7)]
    return {"result": result, "ckpt": ckpt, "hist": hist, "out": out, "cube": cube,
            "labels": labels, "coords": coords, "test": split.test_indices,
            "patches": data.extract_patch_batch(data.normalize_cube(cube), coords, 5),
            "lengths": checks.single_patch_lengths(result.model, cube, coords)}


def test_nan_loss_fails(small_run):
    history = list(small_run["result"].history)
    assert checks.losses_finite(history) == []
    history[0] = (1, float("nan"), 0.5, 0.5)
    assert checks.losses_finite(history)


def test_changed_checkpoint_byte_fails(small_run, tmp_path):
    mdl, patches = small_run["result"].model, small_run["patches"]
    assert checks.checkpoint_roundtrip(mdl, small_run["ckpt"], patches) == []
    raw = bytearray(open(small_run["ckpt"], "rb").read())
    sign = raw.index(b"\n") + 1 + 7  # sign byte of the first stored weight
    raw[sign] ^= 0x80
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
    assert checks.checkpoint_roundtrip(mdl, str(bad), patches)
    good = checks.file_digest(small_run["ckpt"], small_run["hist"])
    assert checks.digests_equal([good, good]) == []
    assert checks.digests_equal([good, checks.file_digest(str(bad), small_run["hist"])])


def test_flipped_map_pixel_fails(small_run):
    class_map = checks.read_map(os.path.join(small_run["out"], "map.csv"))
    coords, lengths = small_run["coords"], small_run["lengths"]
    assert checks.map_ids(class_map, 3) == []
    assert checks.map_matches_forward(class_map, lengths, coords) == []
    flipped = class_map.copy()
    r, c = coords[1]
    flipped[r, c] = flipped[r, c] % 3 + 1
    assert checks.map_matches_forward(flipped, lengths, coords)
    flipped[r, c] = 4
    assert checks.map_ids(flipped, 3)


def test_perturbed_lengths_fail(small_run):
    exported = checks.read_lengths_csv(os.path.join(small_run["out"], "lengths.csv"))
    coords, lengths = small_run["coords"], small_run["lengths"]
    assert checks.lengths_match(exported, lengths, coords) == []
    exported[coords[0]] = exported[coords[0]] * (1 + 1e-9)
    assert checks.lengths_match(exported, lengths, coords)


def test_wrong_reported_oa_fails(small_run, tmp_path):
    class_map = checks.read_map(os.path.join(small_run["out"], "map.csv"))
    path = os.path.join(small_run["out"], "metrics.json")
    args = (class_map, small_run["labels"], small_run["test"])
    assert checks.metrics_oa_matches_map(path, *args) == []
    doc = json.load(open(path))
    doc["oa"] += 1.0 / len(small_run["test"])
    bad = tmp_path / "metrics.json"
    bad.write_text(json.dumps(doc))
    assert checks.metrics_oa_matches_map(str(bad), *args)


def test_scalar_checks_fail_past_their_limits():
    assert checks.oa_floor(0.9) == [] and checks.oa_floor(0.8)
    assert checks.exit_ok("predict", 0) == [] and checks.exit_ok("predict", 2)
    ok = training.GradcheckReport(1e-6, 200, "w[0]", 1e-4, 0.5)
    bad = training.GradcheckReport(2e-4, 200, "w[0]", 1e-4, 0.5)
    assert checks.gradcheck_ok(ok) == [] and checks.gradcheck_ok(bad)

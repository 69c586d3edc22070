"""Losses, decoder, Adam, gradients, the loop and checkpoints."""

import importlib.util
import json
import os
import tracemalloc

import numpy as np
import pytest
from test_autodiff import parameter

from hsicaps import autodiff as ad
from hsicaps import data, model as model_mod, spectral, synthetic, training
from hsicaps.config import MarginLossConfig, RunConfig
from hsicaps.errors import DataError, NumericError


# margin loss -----------------------------------------------------------


def margin(lengths, cfg=None):
    """Batched margin loss of one sample of class 1 (N = 1)."""
    n = len(lengths)
    onehot = np.eye(n)[:1]
    return float(training.margin_loss(np.array([lengths]), onehot,
                                      cfg or MarginLossConfig())[0])


def test_margin_loss_inactive_hinges():
    assert margin([0.9, 0.1]) == pytest.approx(0.0)


def test_margin_loss_single_class():
    assert margin([0.0]) == pytest.approx(0.81)


def test_margin_loss_hand_value():
    assert margin([0.5, 0.5]) == pytest.approx(0.24)


def test_margin_loss_as_printed_differs():
    printed = MarginLossConfig(variant="as-printed")
    lengths = [0.5, 0.5]
    canonical = margin(lengths)
    literal = margin(lengths, printed)
    # literal form: max(0, 0.9 - 0.25) + 0.5*max(0, 0.4)^2
    assert literal == pytest.approx(0.65 + 0.08)
    assert abs(literal - canonical) > 0.1
    # second fixture locks both readings
    lengths2 = [0.9, 0.1]
    assert margin(lengths2) == pytest.approx(0.0)
    assert margin(lengths2, printed) == pytest.approx(0.9 - 0.81)


# decoder ---------------------------------------------------------------


def make_decoder(n_class, d, hidden=6, seed=0):
    """Seeded decoder registry entries, drawn as the model draws them."""
    rng = np.random.default_rng(seed)
    flat = n_class * d
    return {
        "decoder.fc1.w": ad.glorot_uniform(rng, (hidden, flat), flat, hidden),
        "decoder.fc1.b": np.zeros(hidden),
        "decoder.fc2.w": ad.glorot_uniform(rng, (n_class, hidden), hidden, n_class),
        "decoder.fc2.b": np.zeros(n_class),
    }


def decode(v, selected, dec):
    """Batched reconstruction of one activity set (N = 1); ``selected`` is 1-based."""
    onehot = np.eye(len(v))[selected - 1 : selected]
    return np.asarray(training.reconstruct(np.asarray(v)[None], onehot, dec))[0]


def test_decoder_zero_weights_zero_output():
    dec = make_decoder(3, 4)
    for arr in dec.values():
        arr[...] = 0.0
    out = decode(np.ones((3, 4)), 2, dec)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_decoder_masks_non_selected_capsules(rng):
    dec = make_decoder(3, 4)
    v = rng.normal(size=(3, 4))
    base = decode(v, 2, dec)
    perturbed = v.copy()
    perturbed[0] += 10.0
    perturbed[2] -= 5.0
    np.testing.assert_array_equal(base, decode(perturbed, 2, dec))


def test_decoder_matches_dense_oracle(rng):
    dec = make_decoder(2, 3, hidden=5, seed=4)
    v = rng.normal(size=(2, 3))
    out = decode(v, 1, dec)
    masked = v.copy()
    masked[1] = 0.0
    w1, b1 = dec["decoder.fc1.w"], dec["decoder.fc1.b"]
    w2, b2 = dec["decoder.fc2.w"], dec["decoder.fc2.b"]
    hidden = np.maximum(w1 @ masked.reshape(-1) + b1, 0.0)
    np.testing.assert_allclose(out, w2 @ hidden + b2, rtol=1e-12)


# reconstruction / total loss --------------------------------------------


def test_reconstruction_loss_values():
    assert training.reconstruction_loss([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert training.reconstruction_loss([0.0, 0.0], [1.0, 0.0]) == pytest.approx(0.5)
    with pytest.raises(DataError):
        training.reconstruction_loss([0.0], [1.0, 0.0])


def test_reconstruction_loss_random_oracle(rng):
    a, b = rng.normal(size=7), rng.normal(size=7)
    assert training.reconstruction_loss(a, b) == pytest.approx(float(np.mean((a - b) ** 2)))


def test_total_loss():
    assert float(ad.value(training.total_loss(1.0, 2.0, 0.0005))) == pytest.approx(1.001)
    assert float(ad.value(training.total_loss(0.7, 123.0, 0.0))) == pytest.approx(0.7)
    base = float(ad.value(training.total_loss(0.5, 1.0, 0.1)))
    doubled = float(ad.value(training.total_loss(0.5, 2.0, 0.1)))
    assert doubled - base == pytest.approx(0.1)


# compute_gradients -------------------------------------------------------


def test_gradients_quadratic_bowl():
    theta = np.array([1.0, -2.0, 3.0, 0.5])
    p, unused = (ad.Tensor(v)
                 for v in model_mod.views(theta, [(3,), (1,)]))
    loss_val, grad = training.compute_gradients(lambda: ad.sum(ad.mul(p, p)), [p, unused])
    assert loss_val == pytest.approx(14.0)
    # flat, in theta's layout; the leaf the loss never reads gets zeros
    np.testing.assert_allclose(grad, [2.0, -4.0, 6.0, 0.0])


def test_gradients_zero_plateau():
    lengths = parameter(np.array([0.95, 0.05]))
    cfg = MarginLossConfig()

    def loss_fn():
        return ad.sum(training.margin_loss(lengths, np.array([1.0, 0.0]), cfg))

    loss_val, grad = training.compute_gradients(loss_fn, [lengths])
    assert loss_val == 0.0
    assert grad.shape == (2,)
    np.testing.assert_array_equal(grad, 0.0)


def test_gradients_nonfinite_loss_raises():
    p = parameter(np.array([0.0]))
    with np.errstate(divide="ignore"), pytest.raises(NumericError):
        training.compute_gradients(lambda: ad.sum(ad.div(1.0, p)), [p])


def test_full_model_gradcheck_passes():
    report = training.gradcheck()
    assert report.passed, f"max rel err {report.max_rel_error}"
    assert report.n_checked >= 200
    assert report.elapsed_seconds < 120


def corrupt_gradients(monkeypatch):
    """Make every analytic gradient wrong, so gradcheck must fail."""
    real = training.compute_gradients

    def corrupted(loss_fn, params):
        lv, grad = real(loss_fn, params)
        return lv, grad * 1.5 + 0.05

    monkeypatch.setattr(training, "compute_gradients", corrupted)


def test_gradcheck_fault_injection_fails(monkeypatch):
    corrupt_gradients(monkeypatch)
    report = training.gradcheck()
    assert not report.passed


# Adam ---------------------------------------------------------------------


class AdamCfg:
    learning_rate = 0.1
    beta1 = 0.9
    beta2 = 0.999
    adam_epsilon = 1e-8


def test_adam_zero_gradient_keeps_params():
    theta = np.array([1.0, 2.0])
    state = training.AdamState.for_theta(theta)
    training.adam_step(theta, np.zeros(2), state, AdamCfg)
    np.testing.assert_array_equal(theta, [1.0, 2.0])
    assert state.t == 1


def test_adam_first_step_hand_value():
    g = np.array([0.3, -0.7])
    theta = np.zeros(2)
    state = training.AdamState.for_theta(theta)
    training.adam_step(theta, g.copy(), state, AdamCfg)
    # bias correction makes m_hat = g, v_hat = g^2 on step 1
    expected = -AdamCfg.learning_rate * g / (np.abs(g) + AdamCfg.adam_epsilon)
    np.testing.assert_allclose(theta, expected, rtol=1e-9)


def test_adam_deterministic():
    def run():
        theta = np.array([0.5, 1.0, 2.0])
        state = training.AdamState.for_theta(theta)
        rng = np.random.default_rng(0)
        for _ in range(5):
            training.adam_step(theta, rng.normal(size=theta.shape), state, AdamCfg)
        return theta

    np.testing.assert_array_equal(run(), run())


def test_adam_in_place_equals_reference_update_bit_for_bit():
    rng = np.random.default_rng(3)
    theta = rng.normal(size=23)
    ref_p, ref_m, ref_v = theta.copy(), np.zeros(23), np.zeros(23)
    state = training.AdamState.for_theta(theta)
    c = AdamCfg
    for t in range(1, 6):
        grad = rng.normal(size=theta.shape)
        kept = grad.copy()
        training.adam_step(theta, grad, state, c)
        ref_m = c.beta1 * ref_m + (1 - c.beta1) * kept
        ref_v = c.beta2 * ref_v + (1 - c.beta2) * kept * kept
        m_hat = ref_m / (1 - c.beta1**t)
        v_hat = ref_v / (1 - c.beta2**t)
        ref_p -= c.learning_rate * m_hat / (np.sqrt(v_hat) + c.adam_epsilon)
        np.testing.assert_array_equal(grad, kept)  # the gradient is not consumed
        for got, want in ((theta, ref_p), (state.m, ref_m), (state.v, ref_v)):
            np.testing.assert_array_equal(got, want)


def test_blocked_adam_equals_reference_update_bit_for_bit():
    """Five steps over 2.5 blocks of ``ADAM_BLOCK``, so the last block is a
    partial one."""
    rng = np.random.default_rng(4)
    n = 5 * training.ADAM_BLOCK // 2
    theta = rng.normal(size=n)
    ref_p, ref_m, ref_v = theta.copy(), np.zeros(n), np.zeros(n)
    state = training.AdamState.for_theta(theta)
    c = AdamCfg
    for t in range(1, 6):
        grad = rng.normal(size=n)
        training.adam_step(theta, grad, state, c)
        ref_m = c.beta1 * ref_m + (1 - c.beta1) * grad
        ref_v = c.beta2 * ref_v + (1 - c.beta2) * grad * grad
        ref_p -= (c.learning_rate * (ref_m / (1 - c.beta1**t))
                  / (np.sqrt(ref_v / (1 - c.beta2**t)) + c.adam_epsilon))
    for got, want in ((theta, ref_p), (state.m, ref_m), (state.v, ref_v)):
        assert got.tobytes() == want.tobytes()


def test_adam_shape_mismatch():
    theta = np.zeros(2)
    state = training.AdamState.for_theta(theta)
    with pytest.raises(DataError):
        training.adam_step(theta, np.zeros(3), state, AdamCfg)


# training loop -------------------------------------------------------------


def small_run_config(epochs=2, enhancement=True):
    cfg = RunConfig()
    cfg.training.patch_size = 5
    cfg.training.epochs = epochs
    cfg.training.batch_size = 8
    cfg.stage1.conv1_filters = 4
    cfg.stage1.conv2_filters = 4
    cfg.stage1.fc1_width = 6
    cfg.stage1.small_slice_width = 4
    cfg.stage2.conv_filters = 4
    cfg.stage2.capsules = 2
    cfg.stage2.capsule_dim = 3
    cfg.training.enhancement_on = enhancement
    cfg.validate()
    return cfg


@pytest.fixture(scope="module")
def tiny_dataset():
    cube, labels = synthetic.make_separable_cube(height=8, width=8, bands=12, seed=5)
    split = data.split_samples(labels, 0.5, 5)
    return cube, labels, split


def test_train_history_and_shapes(tiny_dataset):
    cube, labels, split = tiny_dataset
    result = training.train(cube, labels, split, small_run_config(epochs=3))
    assert len(result.history) == 3
    assert len(result.epoch_seconds) == 3
    for i, row in enumerate(result.history, start=1):
        assert row[0] == i
        assert np.isfinite(row[1])
        assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0


def test_train_enhancement_flag_controls_f_n(tiny_dataset):
    cube, labels, split = tiny_dataset
    on = training.train(cube, labels, split, small_run_config())
    off = training.train(cube, labels, split, small_run_config(enhancement=False))
    m = len(on.model.slices.slices)
    n_class = labels.n_class
    assert on.model.f_n == spectral.feature_count(m, n_class)
    assert off.model.f_n == m * n_class


def test_build_model_fits_cap_on_its_own_initial_heads(tiny_dataset):
    cube, labels, split = tiny_dataset
    cfg = small_run_config()
    cfg.stage1.triangular_cap = 7
    norm = data.normalize_cube(cube)
    mdl = training.build_model(norm, labels, split, cfg)
    spectra = data.pixels_at(norm.data, split.train_indices).astype(np.float64)
    x1 = np.asarray(spectral.base_features(spectra, mdl.detached()))
    assert mdl.tri_combos.shape == (7, 3)
    np.testing.assert_array_equal(mdl.tri_combos, spectral.fit_triangular_cap(x1, 7))
    assert mdl.f_n == spectral.feature_count(len(mdl.slices.slices), labels.n_class, 7)


def test_cap_at_or_above_every_triple_keeps_all_of_them(tmp_path, tiny_dataset):
    """5,000 >= C(21, 3) = 1,330 triples, so the model is the uncapped one:
    no fitted subset, a null manifest entry and the "auto" run's draws."""
    cube, labels, split = tiny_dataset
    norm, cfg, auto = data.normalize_cube(cube), small_run_config(), small_run_config()
    cfg.stage1.triangular_cap = 5000
    mdl = training.build_model(norm, labels, split, cfg)
    assert len(mdl.slices.slices) * labels.n_class == 21
    assert mdl.tri_combos is None
    np.testing.assert_array_equal(mdl.theta, training.build_model(norm, labels, split, auto).theta)
    path = str(tmp_path / "model.ckpt")
    training.save_checkpoint(path, mdl, cfg, cube.wavelengths)
    loaded, _, manifest = training.load_checkpoint(path)
    assert manifest["tri_combos"] is None and loaded.tri_combos is None


def test_capped_checkpoint_round_trips_its_triples(tmp_path, tiny_dataset):
    cube, labels, split = tiny_dataset
    cfg = small_run_config(epochs=1)
    cfg.stage1.triangular_cap = 7
    result = training.train(cube, labels, split, cfg)
    path = str(tmp_path / "model.ckpt")
    training.save_checkpoint(path, result.model, cfg, cube.wavelengths)
    loaded, _, manifest = training.load_checkpoint(path)
    assert manifest["tri_combos"] == result.model.tri_combos.tolist()
    assert len(manifest["tri_combos"]) == 7
    np.testing.assert_array_equal(loaded.tri_combos, result.model.tri_combos)
    np.testing.assert_array_equal(loaded.theta, result.model.theta)
    np.testing.assert_array_equal(training.predict_map(loaded, cube),
                                  training.predict_map(result.model, cube))


def test_train_empty_split_errors(tiny_dataset):
    cube, labels, _ = tiny_dataset
    empty = data.SampleSplit((), ((0, 0),), 0, 0.5)
    with pytest.raises(DataError, match="empty train"):
        training.train(cube, labels, empty, small_run_config())


def test_train_divergence_aborts_with_epoch(tiny_dataset, monkeypatch):
    cube, labels, split = tiny_dataset

    real = training.batch_loss

    def poisoned(mdl, patches, targets, cfg):
        return ad.mul(real(mdl, patches, targets, cfg), np.nan)

    monkeypatch.setattr(training, "batch_loss", poisoned)
    with pytest.raises(NumericError, match="epoch 1, batch 1"):
        training.train(cube, labels, split, small_run_config())


def test_train_deterministic(tiny_dataset):
    cube, labels, split = tiny_dataset
    a = training.train(cube, labels, split, small_run_config())
    b = training.train(cube, labels, split, small_run_config())
    assert a.history == b.history
    assert list(a.model.params) == list(b.model.params)
    for ta, tb in zip(a.model.params.values(), b.model.params.values()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_loss_moving_average_nonincreasing():
    cube, labels = synthetic.make_separable_cube(height=8, width=8, bands=12, seed=9)
    split = data.split_samples(labels, 2.0 / 3.0, 9)
    cfg = small_run_config(epochs=20)
    cfg.training.learning_rate = 0.002
    result = training.train(cube, labels, split, cfg)
    losses = np.array([row[1] for row in result.history])
    window = 10
    averages = np.convolve(losses, np.ones(window) / window, mode="valid")
    assert np.all(np.diff(averages) <= 1e-6)


# predict_map ------------------------------------------------------------


def test_predict_map_constant_cube(tiny_dataset):
    cube, labels, split = tiny_dataset
    result = training.train(cube, labels, split, small_run_config())
    const = data.HsiCube(6, 7, cube.bands, cube.wavelengths,
                         np.full((6, 7, cube.bands), 0.5, dtype=np.float32))
    out = training.predict_map(result.model, const)
    assert out.shape == (6, 7)
    assert len(np.unique(out)) == 1


def test_predict_map_matches_patch_forward(tiny_dataset):
    cube, labels, split = tiny_dataset
    mdl = training.train(cube, labels, split, small_run_config(epochs=1)).model
    coords = [(r, c) for r in range(cube.height) for c in range(cube.width)]
    patches = data.extract_patch_batch(data.normalize_cube(cube), coords, mdl.patch_size)
    want = np.argmax(model_mod.predict_lengths(mdl, patches), axis=1) + 1
    np.testing.assert_array_equal(training.predict_map(mdl, cube).reshape(-1), want)


def test_train_accuracy_pass_matches_patch_forward(tiny_dataset):
    cube, labels, _ = tiny_dataset
    split = data.split_samples(labels, 0.6, 5)
    cfg = small_run_config(epochs=2)
    cfg.training.learning_rate = 0.01  # leaves train and test OA apart, off one class
    result = training.train(cube, labels, split, cfg)
    norm = data.normalize_cube(cube)
    _, _, train_oa, test_oa = result.history[-1]
    for coords, oa in ((split.train_indices, train_oa), (split.test_indices, test_oa)):
        patches = data.extract_patch_batch(norm, coords, 5)
        pred = np.argmax(model_mod.predict_lengths(result.model, patches), axis=1) + 1
        truth = np.array([labels.labels[r, c] for r, c in coords])
        assert oa == float(np.mean(pred == truth))
    assert train_oa != test_oa


def test_classes_at_labelled_pixels_equals_predict_map_there(tiny_dataset):
    cube, labels, split = tiny_dataset
    result = training.train(cube, labels, split, small_run_config())
    coords = np.argwhere(labels.labels > 0)
    got = training.classes_at(result.model, data.normalize_cube(cube), coords)
    np.testing.assert_array_equal(got, data.pixels_at(training.predict_map(result.model, cube),
                                                      coords))
    assert got.min() >= 1 and got.max() <= labels.n_class


# checkpoints ------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, tiny_dataset):
    cube, labels, split = tiny_dataset
    cfg = small_run_config()
    result = training.train(cube, labels, split, cfg)
    path = str(tmp_path / "model.ckpt")
    training.save_checkpoint(path, result.model, cfg, cube.wavelengths)
    loaded, loaded_cfg, manifest = training.load_checkpoint(path)
    assert loaded.f_n == result.model.f_n
    assert loaded_cfg.training.patch_size == cfg.training.patch_size
    assert len(loaded.params) == len(result.model.params)
    for (na, ta), (nb, tb) in zip(result.model.params.items(), loaded.params.items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    training.check_cube_compatible(manifest, cube)
    other = data.HsiCube(2, 2, 3, (1.0, 2.0, 3.0),
                         np.zeros((2, 2, 3), dtype=np.float32))
    with pytest.raises(DataError):
        training.check_cube_compatible(manifest, other)


def test_check_cube_compatible_applies_the_absolute_tolerance_alone():
    manifest = {"wavelengths_nm": [400.0, 1000.0, 2500.0]}

    def cube(wavelengths):
        return data.HsiCube(1, 1, 3, wavelengths, np.zeros((1, 1, 3), dtype=np.float32))

    training.check_cube_compatible(manifest, cube((400.0, 1000.0, 2500.0)))
    training.check_cube_compatible(manifest, cube((400.0, 1000.0, 2500.0 + 5e-7)))
    # 0.02 nm at 2,500 nm is inside numpy's default rtol=1e-5, not inside 1e-6 nm
    with pytest.raises(DataError, match="wavelengths differ"):
        training.check_cube_compatible(manifest, cube((400.0, 1000.0, 2500.02)))


def test_checkpoint_predictions_survive_round_trip(tmp_path, tiny_dataset):
    cube, labels, split = tiny_dataset
    cfg = small_run_config()
    result = training.train(cube, labels, split, cfg)
    path = str(tmp_path / "model.ckpt")
    training.save_checkpoint(path, result.model, cfg, cube.wavelengths)
    loaded, _, _ = training.load_checkpoint(path)
    before = training.predict_map(result.model, cube)
    after = training.predict_map(loaded, cube)
    np.testing.assert_array_equal(before, after)


def test_checkpoint_listing_empty_slices_loads_and_predicts_the_same(tmp_path):
    """Older checkpoints list every slice of the specification, with []
    indices for the slices that hold no band. gradcheck's cube fills 4 of
    the 7 default slices, so its manifest lists only those 4; re-inserting
    the 3 empty ones must not change the model."""
    cube, labels = training._gradcheck_dataset(0)
    cfg = training.gradcheck_config()
    split = data.split_samples(labels, 0.5, 0)
    result = training.train(cube, labels, split, cfg)
    path, old = tmp_path / "model.ckpt", tmp_path / "old.ckpt"
    training.save_checkpoint(str(path), result.model, cfg, cube.wavelengths)
    old.write_bytes(path.read_bytes())

    def list_empty_slices(manifest, arrays):
        manifest["slices"] = [list(s) for s in data.DEFAULT_SLICES]
        manifest["slice_band_indices"] += [[], [], []]

    _rewrite_checkpoint(str(old), list_empty_slices)
    new_model, _, new_manifest = training.load_checkpoint(str(path))
    old_model, _, old_manifest = training.load_checkpoint(str(old))
    assert new_manifest["slices"] == [list(s) for s in data.DEFAULT_SLICES[:4]]
    assert len(old_manifest["slices"]) == 7
    assert old_model.slices == new_model.slices
    np.testing.assert_array_equal(old_model.theta, new_model.theta)
    np.testing.assert_array_equal(training.predict_map(old_model, cube),
                                  training.predict_map(new_model, cube))


def _rewrite_checkpoint(path, edit):
    """Apply ``edit(manifest, {name: array})`` to a saved checkpoint in place."""
    with open(path, "rb") as fh:
        manifest = json.loads(fh.readline())
        blob = fh.read()
    arrays, offset = {}, 0
    for entry in manifest["params"]:
        count = int(np.prod(entry["shape"]))
        arrays[entry["name"]] = np.frombuffer(blob, "<f8", count, offset).reshape(
            entry["shape"]).copy()
        offset += count * 8
    edit(manifest, arrays)
    with open(path, "wb") as fh:
        fh.write((json.dumps(manifest, sort_keys=True) + "\n").encode("utf-8"))
        for entry in manifest["params"]:
            fh.write(arrays[entry["name"]].astype("<f8").tobytes())


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory, tiny_dataset):
    cube, labels, split = tiny_dataset
    cfg = small_run_config(epochs=1)
    result = training.train(cube, labels, split, cfg)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.ckpt")
    training.save_checkpoint(path, result.model, cfg, cube.wavelengths)
    with open(path, "rb") as fh:
        return fh.read()


def test_checkpoint_missing_parameter_fails_loudly(tmp_path, saved_checkpoint):
    path = tmp_path / "model.ckpt"
    path.write_bytes(saved_checkpoint)

    def drop(manifest, arrays):
        manifest["params"] = [e for e in manifest["params"] if e["name"] != "decoder.fc2.b"]

    _rewrite_checkpoint(str(path), drop)
    with pytest.raises(DataError, match="decoder.fc2.b"):
        training.load_checkpoint(str(path))


def test_checkpoint_wrong_shape_fails_loudly(tmp_path, saved_checkpoint):
    path = tmp_path / "model.ckpt"
    path.write_bytes(saved_checkpoint)

    def reshape(manifest, arrays):
        entry = next(e for e in manifest["params"] if e["name"] == "caps.class.b")
        entry["shape"] = entry["shape"][::-1]
        arrays["caps.class.b"] = arrays["caps.class.b"].T

    _rewrite_checkpoint(str(path), reshape)
    with pytest.raises(DataError, match="caps.class.b"):
        training.load_checkpoint(str(path))


def test_checkpoint_non_finite_parameter_fails_loudly(tmp_path, saved_checkpoint):
    path = tmp_path / "model.ckpt"
    path.write_bytes(saved_checkpoint)

    def poison(manifest, arrays):
        arrays["caps.primary.w"].reshape(-1)[3] = np.nan

    _rewrite_checkpoint(str(path), poison)
    with pytest.raises(NumericError, match="caps.primary.w"):
        training.load_checkpoint(str(path))


def test_non_finite_parameter_stops_prediction(tiny_dataset):
    cube, labels, split = tiny_dataset
    mdl = training.build_model(data.normalize_cube(cube), labels, split, small_run_config())
    patches = data.extract_patch_batch(data.normalize_cube(cube), [(1, 1)], 5)
    mdl.params["caps.primary.w"].data[0, 0, 0, 0] = np.nan
    with pytest.raises(NumericError, match="caps.primary.w"):
        model_mod.predict_lengths(mdl, patches)


@pytest.mark.parametrize("blob_edit", [
    lambda blob: blob[:-8],         # one value short
    lambda blob: blob + bytes(8),   # one trailing value
    lambda blob: blob + b"\x00",    # one stray byte: not a whole float64
], ids=["short", "trailing-value", "stray-byte"])
def test_checkpoint_blob_size_mismatch_fails_loudly(tmp_path, saved_checkpoint, blob_edit):
    header, blob = saved_checkpoint.split(b"\n", 1)
    path = tmp_path / "model.ckpt"
    path.write_bytes(header + b"\n" + blob_edit(blob))
    with pytest.raises(DataError, match="blob size mismatch"):
        training.load_checkpoint(str(path))


# the flat registry ----------------------------------------------------------


def test_init_params_equals_per_block_glorot_reference(tiny_dataset):
    cube, _, _ = tiny_dataset
    slices = data.segment_bands(cube.wavelengths, data.DEFAULT_SLICES)
    spec = model_mod.param_spec(slices, 3, small_run_config())
    theta = model_mod.init_params(spec, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    blocks = [np.zeros(shape) if fan_in is None
              else ad.glorot_uniform(rng, shape, fan_in, fan_out)
              for _, shape, fan_in, fan_out in spec]
    assert theta.dtype == np.float64 and theta.ndim == 1
    assert theta.tobytes() == np.concatenate([b.reshape(-1) for b in blocks]).tobytes()


def test_params_are_views_of_theta(tmp_path, tiny_dataset):
    cube, labels, split = tiny_dataset
    cfg = small_run_config()
    mdl = training.build_model(data.normalize_cube(cube), labels, split, cfg)
    path = str(tmp_path / "model.ckpt")
    training.save_checkpoint(path, mdl, cfg, cube.wavelengths)
    loaded = training.load_checkpoint(path)[0]
    for m in (mdl, mdl.detached(), loaded):
        vals = [ad.value(t) for t in m.params.values()]
        assert all(np.shares_memory(v, m.theta) for v in vals)
        # the views tile theta in spec order, with no gap and no overlap
        np.testing.assert_array_equal(np.concatenate([v.reshape(-1) for v in vals]), m.theta)
    assert all(isinstance(t, ad.Tensor) and t._inputs == ()
               for m in (mdl, loaded) for t in m.params.values())
    np.testing.assert_array_equal(loaded.theta, mdl.theta)

    offset = 0
    for name, t in mdl.params.items():
        assert mdl.name_of(offset) == f"{name}[0]"
        offset += t.data.size
        assert mdl.name_of(offset - 1) == f"{name}[{t.data.size - 1}]"
    assert offset == mdl.theta.size

    with open(path, "rb") as fh:
        fh.readline()
        assert fh.read() == mdl.theta.astype("<f8").tobytes()

    before = {name: t.data.copy() for name, t in mdl.params.items()}
    grad = np.random.default_rng(2).normal(size=mdl.theta.shape)
    training.adam_step(mdl.theta, grad, training.AdamState.for_theta(mdl.theta), cfg.training)
    detached = mdl.detached()
    for name, t in mdl.params.items():
        assert not np.array_equal(t.data, before[name]), name
        assert not np.array_equal(detached.params[name], before[name]), name


def test_checkpoint_round_trip_ablation_variants(tmp_path, tiny_dataset):
    cube, labels, split = tiny_dataset
    for variant, seg, enh in (("model1", False, False), ("model2", True, False)):
        cfg = small_run_config(epochs=1)
        cfg.apply_variant(variant)
        result = training.train(cube, labels, split, cfg)
        path = str(tmp_path / f"{variant}.ckpt")
        training.save_checkpoint(path, result.model, cfg, cube.wavelengths)
        loaded, loaded_cfg, _ = training.load_checkpoint(path)
        assert loaded_cfg.training.segmentation_on is seg
        assert loaded_cfg.training.enhancement_on is enh
        np.testing.assert_array_equal(training.predict_map(result.model, cube),
                                      training.predict_map(loaded, cube))


def test_train_memory_does_not_grow_with_the_training_set():
    """One epoch on a fully labelled 24 x 24, 60-band scene at train
    fractions 0.1 (57 pixels) and 0.8 (462). Both runs score the same 576
    pixels after the epoch, so only the training set differs. A stack of
    every training patch, (n_train, 7, 7, 60) doubles, would make the
    second peak 405 * 49 * 60 * 8 bytes = 9.1 MiB higher; one 32-patch
    batch is 0.7 MiB. The margin of 4 MiB leaves room for the split's
    own per-pixel bookkeeping."""
    cube, labels = synthetic.make_separable_cube(24, 24, 60, 3)
    cfg = training.gradcheck_config()
    cfg.training.patch_size = 7
    cfg.validate()
    peaks = []
    for fraction in (0.1, 0.8):
        split = data.split_samples(labels, fraction, 0)
        tracemalloc.start()
        try:
            training.train(cube, labels, split, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    gap = (peaks[1] - peaks[0]) / 2**20
    assert gap < 4, f"peak grew by {gap:.1f} MiB with the training set"


def test_a_training_step_holds_one_array_per_layer_and_one_live_gradient():
    """One epoch on a seeded 16 x 16, 200-band, three-class scene over
    400-2500 nm (its NIR slice holds 163 bands) under the default config.
    Each slice-head and decoder layer is two nodes over one array (the
    affine node and its relu), ``compute_gradients`` drops each parameter's
    ``.grad`` once copied, and ``train`` holds no step's gradient past its
    update. The tracemalloc peak read 47.2 MiB; 52.1 MiB when one node held
    the layer and cached its masked gradient for every VJP, and 68.0 MiB
    with three arrays per layer (product, plus bias, relu) and every
    ``.grad`` kept to the next step."""
    cube, labels = synthetic.make_separable_cube(16, 16, 200, 3, seed=0)
    cube = data.HsiCube(16, 16, 200, tuple(np.linspace(400.0, 2500.0, 200)), cube.data)
    cfg = RunConfig()
    cfg.training.epochs = 1
    split = data.split_samples(labels, 0.5, 0)
    tracemalloc.start()
    try:
        mdl = training.train(cube, labels, split, cfg).model
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mdl.slices.band_indices[-1]) == 163
    assert peak < 51 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"

    coords = split.train_indices[:4]
    patches = data.extract_patch_batch(data.normalize_cube(cube), coords, mdl.patch_size)
    targets = data.pixels_at(labels.labels, coords)
    _, grad = training.compute_gradients(
        lambda: training.batch_loss(mdl, patches, targets, cfg.training), mdl.params.values())
    assert np.any(grad != 0.0)
    assert all(t.grad is None for t in mdl.params.values())


# crop consistency -------------------------------------------------------------


def ablation_scene(seed):
    """(cube, labels, config) of the benchmark's ablation workload, loaded
    from bench/workloads.py by path."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_scene("ablation", seed)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: predict_map normalizes the inference cube with its own "
    "per-band min and max, so a crop moves every pixel's inputs"))
@pytest.mark.parametrize("seed", [1, 3])
def test_crop_keeps_the_class_of_pixels_away_from_the_cut(seed):
    """A pixel's class depends only on the checkpoint and its patch.

    Reflect padding legitimately changes the patch of a pixel closer than
    ``patch_size // 2`` to a cut edge, so only the pixels at least that far
    from every cut edge must keep their full-scene class. A scene edge that
    the crop keeps is not a cut edge: it pads the same way in both.
    """
    cube, labels, cfg = ablation_scene(seed)
    cfg.apply_variant("model3")
    cfg.training.epochs = 5
    split = data.split_samples(labels, cfg.train_fraction, seed)
    mdl = training.train(cube, labels, split, cfg).model
    full = training.predict_map(mdl, cube)
    half = cfg.training.patch_size // 2
    agree = {}
    for lo, hi in ((0, 4), (0, 6), (6, 12)):
        crop = data.HsiCube(cube.height, hi - lo, cube.bands, cube.wavelengths,
                            np.ascontiguousarray(cube.data[:, lo:hi]))
        kept = [c for c in range(lo, hi)
                if (lo == 0 or c - lo >= half) and (hi == cube.width or hi - 1 - c >= half)]
        got = training.predict_map(mdl, crop)[:, [c - lo for c in kept]]
        agree[f"{lo}-{hi}"] = float(np.mean(got == full[:, kept]))
    assert all(v == 1.0 for v in agree.values()), agree

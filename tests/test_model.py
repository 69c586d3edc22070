"""Composed network forward vs an independent straight-line oracle."""

import itertools
import math

import numpy as np

from hsicaps import autodiff as ad
from hsicaps import capsule, data, model as model_mod, spectral, training
from hsicaps.config import RunConfig


def tiny_setup(n_class=2, seed=3, tri_cap="auto"):
    rng = np.random.default_rng(seed)
    wavelengths = tuple(np.concatenate([
        np.linspace(440.0, 510.0, 8),
        [530.0, 560.0],
        [610.0, 640.0, 670.0],
        [690.0],
    ]))
    arr = rng.uniform(0.05, 0.95, size=(8, 8, len(wavelengths))).astype(np.float32)
    cube = data.HsiCube(8, 8, len(wavelengths), wavelengths, arr)
    labels = data.labelmap_from_array(rng.integers(1, n_class + 1, size=(8, 8)))
    cfg = RunConfig()
    cfg.training.patch_size = 5
    cfg.stage1.conv1_filters = 3
    cfg.stage1.conv2_filters = 4
    cfg.stage1.fc1_width = 6
    cfg.stage1.small_slice_width = 4
    cfg.stage2.conv_filters = 5
    cfg.stage2.capsules = 2
    cfg.stage2.capsule_dim = 3
    cfg.stage1.triangular_cap = tri_cap
    cfg.validate()
    cube = data.normalize_cube(cube)
    split = data.split_samples(labels, 0.5, seed)
    mdl = training.build_model(cube, labels, split, cfg)
    return cube, labels, cfg, mdl


# straight-line oracle pieces (loops only) ---------------------------------


def oracle_slice_features(spectrum, band_indices, reg, prefix):
    """Slice head ``prefix`` of registry ``reg`` on one spectrum."""
    sliced = spectrum[list(band_indices)]
    if f"{prefix}.dense.w" in reg:
        w, b = reg[f"{prefix}.dense.w"], reg[f"{prefix}.dense.b"]
        h = np.maximum(w @ sliced + b, 0.0)
    else:
        w1, b1 = reg[f"{prefix}.conv1.w"], reg[f"{prefix}.conv1.b"]
        l1 = len(sliced) - w1.shape[2] + 1
        c1 = np.zeros((l1, w1.shape[0]))
        for p in range(l1):
            for j in range(w1.shape[0]):
                c1[p, j] = np.dot(w1[j, 0], sliced[p : p + w1.shape[2]]) + b1[j]
        c1 = np.maximum(c1, 0.0)
        w2, b2 = reg[f"{prefix}.conv2.w"], reg[f"{prefix}.conv2.b"]
        l2 = l1 - w2.shape[2] + 1
        c2 = np.zeros((l2, w2.shape[0]))
        for p in range(l2):
            for j in range(w2.shape[0]):
                acc = 0.0
                for t in range(w2.shape[2]):
                    for ch in range(w2.shape[1]):
                        acc += w2[j, ch, t] * c1[p + t, ch]
                c2[p, j] = acc + b2[j]
        h = np.maximum(c2, 0.0).reshape(-1)
    w, b = reg[f"{prefix}.fc1.w"], reg[f"{prefix}.fc1.b"]
    h = np.maximum(w @ h + b, 0.0)
    w, b = reg[f"{prefix}.fc2.w"], reg[f"{prefix}.fc2.b"]
    return w @ h + b


def oracle_enhance(x1, epsilon):
    n = len(x1)
    x2 = []
    for i, j in itertools.combinations(range(n), 2):
        den = x1[i] + x1[j]
        den = den + epsilon if den >= 0 else den - epsilon
        x2.append(min(max((x1[i] - x1[j]) / den, -1.0), 1.0))
    x3 = []
    for i, j, h in itertools.combinations(range(n), 3):
        pi, pj, ph = i + 1, j + 1, h + 1
        x3.append((abs(pj - ph) * (x1[i] - x1[h])
                   - abs(pi - ph) * (x1[j] - x1[h])) / 2.0)
    return np.concatenate([x1, x2, x3])


def oracle_conv2d(fmap, weights, bias):
    J, k, _, C = weights.shape
    H1 = fmap.shape[0] - k + 1
    out = np.zeros((H1, H1, J))
    for y in range(H1):
        for x in range(H1):
            for j in range(J):
                acc = 0.0
                for i in range(k):
                    for jj in range(k):
                        for c in range(C):
                            acc += weights[j, i, jj, c] * fmap[y + i, x + jj, c]
                out[y, x, j] = acc + (bias[j] if bias is not None else 0.0)
    return out


def oracle_squash(u):
    n2 = float(np.dot(u, u))
    if n2 == 0.0:
        return np.zeros_like(u)
    return u * np.sqrt(n2) / (1.0 + n2)


def oracle_forward(mdl, patch):
    s = patch.shape[0]
    p = {name: ad.value(t) for name, t in mdl.params.items()}
    cfg = mdl.config
    fmap = np.zeros((s, s, mdl.f_n))
    for r in range(s):
        for c in range(s):
            x1 = np.concatenate([
                oracle_slice_features(patch[r, c].astype(np.float64), bands, p,
                                      f"spectral.{i}")
                for i, (_, bands) in enumerate(mdl.slices.non_empty())
            ])
            fmap[r, c] = (oracle_enhance(x1, cfg.stage1.epsilon)
                          if cfg.training.enhancement_on else x1)
    o = np.maximum(oracle_conv2d(fmap, p["caps.conv.w"], p["caps.conv.b"]), 0.0)
    raw = oracle_conv2d(o, p["caps.primary.w"], None)
    h2 = raw.shape[0]
    z, kd = cfg.stage2.capsules, cfg.stage2.capsule_dim
    poses = raw.reshape(h2, h2, z, kd).transpose(2, 0, 1, 3).reshape(-1, kd)
    poses = np.stack([oracle_squash(u) for u in poses])
    w, bias = p["caps.class.w"], p["caps.class.b"]
    M, n_class, D = w.shape[0], w.shape[1], w.shape[2]
    u_hat = np.zeros((M, n_class, D))
    for m in range(M):
        for n in range(n_class):
            u_hat[m, n] = w[m, n] @ poses[m] + bias[n]
    b = np.zeros((M, n_class))
    for _ in range(cfg.stage2.routing_iterations):
        e = np.exp(b - b.max(axis=1, keepdims=True))
        cc = e / e.sum(axis=1, keepdims=True)
        sums = np.zeros((n_class, D))
        for n in range(n_class):
            for m in range(M):
                sums[n] += cc[m, n] * u_hat[m, n]
        v = np.stack([oracle_squash(sums[n]) for n in range(n_class)])
        for m in range(M):
            for n in range(n_class):
                b[m, n] += float(np.dot(u_hat[m, n], v[n]))
    return np.linalg.norm(v, axis=-1)


def test_forward_matches_straight_line_oracle():
    cube, labels, cfg, mdl = tiny_setup()
    patches = data.extract_patch_batch(cube, [(2, 2), (5, 4), (0, 7)], 5)
    out = model_mod.forward(mdl.detached(), patches)
    lengths = np.asarray(out["lengths"])
    for i in range(patches.shape[0]):
        expected = oracle_forward(mdl, patches[i])
        np.testing.assert_allclose(lengths[i], expected, rtol=1e-10, atol=1e-12)


def test_forward_matches_with_enhancement_off():
    cube, labels, cfg, mdl = tiny_setup()
    cfg.training.enhancement_on = False
    split = data.split_samples(labels, 0.5, 3)
    mdl2 = training.build_model(cube, labels, split, cfg)
    assert mdl2.f_n == len(mdl2.slices.non_empty()) * labels.n_class
    patches = data.extract_patch_batch(cube, [(3, 3)], 5)
    out = model_mod.forward(mdl2.detached(), patches)
    expected = oracle_forward(mdl2, patches[0])
    np.testing.assert_allclose(np.asarray(out["lengths"])[0], expected, rtol=1e-10)


def test_forward_rejects_wrong_patch_size():
    cube, labels, cfg, mdl = tiny_setup()
    patches = data.extract_patch_batch(cube, [(2, 2)], 7)
    try:
        model_mod.forward(mdl.detached(), patches)
    except Exception as exc:
        assert "patch" in str(exc)
    else:
        raise AssertionError("expected a patch-size error")


def test_tracked_and_detached_forward_agree():
    cube, labels, cfg, mdl = tiny_setup()
    patches = data.extract_patch_batch(cube, [(1, 1), (4, 4)], 5)
    tracked = model_mod.forward(mdl, patches)
    detached = model_mod.forward(mdl.detached(), patches)
    assert isinstance(tracked["lengths"], ad.Tensor)
    assert isinstance(detached["lengths"], np.ndarray)
    np.testing.assert_array_equal(ad.value(tracked["lengths"]), detached["lengths"])


# triangular index folded into the stage-2 kernel ----------------------------


def unfolded_forward(mdl, patches):
    """``forward`` as it ran before the fold: the stage-2 conv over the full
    [x1, x2, x3] enhanced features with the unsplit ``caps.conv.w``."""
    N, s, _, B = patches.shape
    p, cfg = mdl.params, mdl.config
    x1 = spectral.base_features(patches.reshape(N * s * s, B).astype(np.float64), mdl)
    feats = spectral.enhanced_features(x1, cfg.stage1.epsilon, mdl.tri_combos,
                                       cfg.training.enhancement_on)
    fmap = ad.reshape(feats, (N, s, s, mdl.f_n))
    o = capsule.conv2d_batch(fmap, p["caps.conv.w"], p["caps.conv.b"],
                             cfg.stage2.conv_stride, "relu")
    return model_mod._capsules(mdl, o)


def fold_setups():
    """3 classes with every triple, and 3 classes under a 25-triple cap."""
    full = tiny_setup(n_class=3)
    capped = tiny_setup(n_class=3, tri_cap=25)
    base = len(full[3].slices.non_empty()) * 3
    assert full[3].tri_combos is None and capped[3].tri_combos.shape == (25, 3)
    assert full[3].f_n == spectral.feature_count(len(full[3].slices.non_empty()), 3)
    assert capped[3].f_n == base + math.comb(base, 2) + 25
    return full, capped


def rel_gap(got, want):
    got, want = np.asarray(ad.value(got)), np.asarray(ad.value(want))
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_folded_forward_equals_unfolded_conv():
    for cube, labels, cfg, mdl in fold_setups():
        patches = data.extract_patch_batch(cube, [(0, 0), (3, 4), (7, 2)], 5)
        for m in (mdl, mdl.detached()):
            got, want = model_mod.forward(m, patches), unfolded_forward(m, patches)
            for key in ("poses", "v", "lengths"):
                np.testing.assert_allclose(ad.value(got[key]), ad.value(want[key]),
                                           rtol=1e-10, atol=1e-14)


def test_folded_gradients_equal_unfolded_graph(monkeypatch):
    for cube, labels, cfg, mdl in fold_setups():
        coords = [(1, 1), (4, 6), (6, 3), (2, 5)]
        patches = data.extract_patch_batch(cube, coords, 5)
        targets = data.pixels_at(labels.labels, coords)
        shapes = [t.data.shape for t in mdl.params.values()]

        def loss_fn():
            return training.batch_loss(mdl, patches, targets, cfg.training)

        _, folded = training.compute_gradients(loss_fn, mdl.params.values())
        with monkeypatch.context() as mp:
            mp.setattr(model_mod, "forward", unfolded_forward)
            _, unfolded = training.compute_gradients(loss_fn, mdl.params.values())
        for name, got, want in zip(mdl.params, model_mod.views(folded, shapes),
                                   model_mod.views(unfolded, shapes)):
            assert np.any(want != 0.0), name
            assert rel_gap(got, want) < 1e-10, name


def test_forward_paths_never_build_the_triangular_index(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup(n_class=3, tri_cap=25)

    def forbidden(*_a, **_k):
        raise AssertionError("triangular_index called on a forward path")

    monkeypatch.setattr(spectral, "triangular_index", forbidden)
    base = len(mdl.slices.non_empty()) * 3
    feats = spectral.pixel_features(cube.data[0, :2], mdl)
    assert ad.shape_of(feats) == (2, base + math.comb(base, 2))
    patches = data.extract_patch_batch(cube, [(2, 2)], 5)
    model_mod.forward(mdl, patches)
    model_mod.scene_forward(mdl, cube, [(2, 2)])


def test_conv_kernel_is_the_registry_kernel_with_enhancement_off():
    cube, labels, cfg, _ = tiny_setup()
    cfg.training.enhancement_on = False
    mdl = training.build_model(cube, labels, data.split_samples(labels, 0.5, 3), cfg)
    assert spectral.conv_kernel(mdl) is mdl.params["caps.conv.w"]


# fully convolutional scene path ------------------------------------------


def patch_path(mdl, cube, coords):
    """Detached per-patch forward at ``coords``: the reference for the scene path."""
    patches = data.extract_patch_batch(cube, coords, mdl.patch_size)
    out = model_mod.forward(mdl.detached(), patches)
    return {k: np.asarray(out[k]) for k in ("poses", "v", "lengths")}


def assert_same_outputs(got, want):
    np.testing.assert_array_equal(np.argmax(got["lengths"], axis=1),
                                  np.argmax(want["lengths"], axis=1))
    for key in ("poses", "v", "lengths"):
        assert got[key].shape == want[key].shape
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-15)


def all_pixels(cube):
    return [(r, c) for r in range(cube.height) for c in range(cube.width)]


def strided_setup(patch_size=11):
    """tiny_setup's scene under stride-2 stage-2 convs (h1 = 5, h2 = 2)."""
    cube, labels, cfg, _ = tiny_setup()
    cfg.training.patch_size = patch_size
    cfg.stage2.conv_stride = cfg.stage2.capsule_stride = 2
    cfg.validate()
    split = data.split_samples(labels, 0.5, 3)
    return cube, training.build_model(cube, labels, split, cfg)


def test_scene_forward_equals_patch_forward_everywhere():
    cube, labels, cfg, mdl = tiny_setup()
    coords = all_pixels(cube)  # corners and edges included
    assert_same_outputs(model_mod.scene_forward(mdl, cube, coords, tile_rows=3),
                        patch_path(mdl, cube, coords))


def test_scene_forward_independent_of_tile_size():
    cube, labels, cfg, mdl = tiny_setup()
    coords = all_pixels(cube)
    whole = model_mod.scene_forward(mdl, cube, coords, tile_rows=cube.height)
    for tile_rows in (1, 2, 3):
        assert_same_outputs(model_mod.scene_forward(mdl, cube, coords, tile_rows), whole)


def test_scene_forward_sparse_coords_keep_their_order():
    cube, labels, cfg, mdl = tiny_setup()
    coords = [(7, 7), (0, 0), (3, 5), (0, 0), (7, 0), (3, 5), (1, 6)]
    got = model_mod.scene_forward(mdl, cube, coords, tile_rows=2)
    assert_same_outputs(got, patch_path(mdl, cube, coords))
    np.testing.assert_array_equal(got["lengths"][1], got["lengths"][3])


def test_scene_forward_on_scene_narrower_than_patch():
    cube, labels, cfg, mdl = tiny_setup()
    # a 3x2 crop under a 5-wide patch: the pad of 2 reflects more than once
    narrow = data.HsiCube(3, 2, cube.bands, cube.wavelengths, cube.data[2:5, 4:6].copy())
    coords = all_pixels(narrow)
    for tile_rows in (1, 3):
        assert_same_outputs(model_mod.scene_forward(mdl, narrow, coords, tile_rows),
                            patch_path(mdl, narrow, coords))


def test_scene_forward_with_stride_two_stages():
    cube, mdl = strided_setup()
    coords = all_pixels(cube)
    want = patch_path(mdl, cube, coords)
    assert want["poses"].shape[1] == mdl.config.stage2.capsules * 2 * 2
    for tile_rows in (1, 3, cube.height):
        assert_same_outputs(model_mod.scene_forward(mdl, cube, coords, tile_rows), want)


def test_scene_forward_with_enhancement_off():
    cube, labels, cfg, mdl = tiny_setup()
    cfg.training.enhancement_on = False
    mdl2 = training.build_model(cube, labels, data.split_samples(labels, 0.5, 3), cfg)
    coords = all_pixels(cube)
    assert_same_outputs(model_mod.scene_forward(mdl2, cube, coords, tile_rows=2),
                        patch_path(mdl2, cube, coords))


def test_scene_forward_empty_and_out_of_image_coords():
    cube, labels, cfg, mdl = tiny_setup()
    empty = model_mod.scene_forward(mdl, cube, [], tile_rows=2)
    want = patch_path(mdl, cube, [(0, 0)])
    for key in ("poses", "v", "lengths"):
        assert empty[key].shape == (0,) + want[key].shape[1:]
    try:
        model_mod.scene_forward(mdl, cube, [(0, 0), (8, 0)], tile_rows=2)
    except Exception as exc:
        assert "outside" in str(exc)
    else:
        raise AssertionError("expected an out-of-image error")

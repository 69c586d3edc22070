"""Composed network forward vs an independent straight-line oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from test_data import mirrored

from hsicaps import autodiff as ad
from hsicaps import data, model as model_mod, spectral, training
from hsicaps.config import RunConfig
from hsicaps.errors import DataError


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
                for i, bands in enumerate(mdl.slices.band_indices)
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
    assert mdl2.f_n == len(mdl2.slices.slices) * labels.n_class
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


def test_param_spec_rejects_a_patch_too_small_for_the_stage2_kernels():
    # a 3x3 patch leaves one position of the 3x3 conv, too few for the 3x3 capsule kernel
    _, labels, cfg, mdl = tiny_setup()
    cfg.training.patch_size = 3
    with pytest.raises(DataError, match="patch size 3 too small for kernels 3 then 3"):
        model_mod.param_spec(mdl.slices, labels.n_class, cfg)


def test_enhancement_on_fewer_than_3_base_features_says_to_disable_it():
    # segmentation off gives one slice, so 2 classes give 2 base features
    cube, labels, cfg, _ = tiny_setup(n_class=2)
    cfg.training.segmentation_on = False
    split = data.split_samples(labels, 0.5, 3)
    with pytest.raises(DataError, match=r"too few base features \(2\).*disable enhancement"):
        training.build_model(cube, labels, split, cfg)
    cfg.training.enhancement_on = False
    assert training.build_model(cube, labels, split, cfg).f_n == 2


def test_tracked_and_detached_forward_agree():
    cube, labels, cfg, mdl = tiny_setup()
    patches = data.extract_patch_batch(cube, [(1, 1), (4, 4)], 5)
    tracked = model_mod.forward(mdl, patches)
    detached = model_mod.forward(mdl.detached(), patches)
    assert isinstance(tracked["lengths"], ad.Tensor)
    assert isinstance(detached["lengths"], np.ndarray)
    np.testing.assert_array_equal(ad.value(tracked["lengths"]), detached["lengths"])


# stage 1 once per distinct pixel of a batch -------------------------------

# Overlapping neighbours, a centre three times, and corner and edge centres
# whose reflect padding repeats pixels within one window.
OVERLAPPING = [(3, 3), (3, 4), (4, 3), (3, 3), (0, 0), (0, 1), (7, 7), (3, 3)]


def per_row_forward(mdl, patches):
    """``forward`` without the dedup: ``pixel_features`` on every window pixel."""
    N, s, _, B = patches.shape
    feats = spectral.pixel_features(patches.reshape(N * s * s, B), mdl)
    fmap = ad.reshape(feats, (N, s, s, ad.shape_of(feats)[-1]))
    o = ad.relu(ad.add(ad.conv(fmap, spectral.conv_kernel(mdl), mdl.config.stage2.conv_stride),
                       mdl.params["caps.conv.b"]))
    return model_mod._capsules(mdl, o)


def count_pixel_rows(monkeypatch):
    """Row counts of every ``spectral.pixel_features`` call from here on."""
    rows, real = [], spectral.pixel_features
    monkeypatch.setattr(spectral, "pixel_features",
                        lambda pixels, mdl: rows.append(len(pixels)) or real(pixels, mdl))
    return rows


def test_forward_batch_equals_each_patch_alone(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    patches = data.extract_patch_batch(cube, OVERLAPPING, 5)
    plain = mdl.detached()
    rows = count_pixel_rows(monkeypatch)
    got = model_mod.forward(plain, patches)
    assert rows == [len(np.unique(patches.reshape(-1, patches.shape[-1]), axis=0))]
    assert rows[0] < len(OVERLAPPING) * 25 // 2
    for i in range(len(patches)):
        alone = model_mod.forward(plain, patches[i : i + 1])
        np.testing.assert_allclose(got["lengths"][i], alone["lengths"][0], rtol=1e-12, atol=0)
        for key in ("poses", "v"):
            assert rel_gap(got[key][i], alone[key][0]) < 1e-12, key


def test_forward_gradient_equals_per_row_reference(monkeypatch):
    strided_cube, strided = strided_setup()  # tiny_setup's scene and labels, stride-2 convs
    for cube, labels, cfg, mdl in (tiny_setup(), tiny_setup(n_class=3, tri_cap=25),
                                   (strided_cube, tiny_setup()[1], strided.config, strided)):
        patches = data.extract_patch_batch(cube, OVERLAPPING, mdl.patch_size)
        targets = data.pixels_at(labels.labels, OVERLAPPING)
        shapes = [t.data.shape for t in mdl.params.values()]

        def loss_fn():
            return training.batch_loss(mdl, patches, targets, cfg.training)

        _, deduped = training.compute_gradients(loss_fn, mdl.params.values())
        with monkeypatch.context() as mp:
            mp.setattr(model_mod, "forward", per_row_forward)
            _, per_row = training.compute_gradients(loss_fn, mdl.params.values())
        for name, got, want in zip(mdl.params, model_mod.views(deduped, shapes),
                                   model_mod.views(per_row, shapes)):
            assert np.any(want != 0.0), name
            assert rel_gap(got, want) < 1e-12, name


def test_stage2_conv_multiplies_distinct_rows_and_copies_no_window(monkeypatch):
    for cube, labels, cfg, mdl in (tiny_setup(), tiny_setup(n_class=3, tri_cap=25)):
        patches = data.extract_patch_batch(cube, OVERLAPPING, 5)
        width = spectral.conv_kernel(mdl.detached()).shape[-1]  # stage-2 input, b + C(b,2)
        distinct = len(np.unique(patches.reshape(-1, patches.shape[-1]), axis=0))
        unfolded, left_rows = [], []
        real_unfold, real_matmul = ad.unfold, ad.matmul

        def unfold(x, size, stride):
            unfolded.append(ad.shape_of(x)[-1])
            return real_unfold(x, size, stride)

        def matmul(a, b, *epilogue):
            if ad.shape_of(a)[-1] == width:
                left_rows.append(math.prod(ad.shape_of(a)[:-1]))
            return real_matmul(a, b, *epilogue)

        with monkeypatch.context() as mp:
            mp.setattr(ad, "unfold", unfold)
            mp.setattr(ad, "matmul", matmul)
            for m in (mdl, mdl.detached()):
                model_mod.forward(m, patches)
        assert unfolded and width not in unfolded
        assert left_rows == [distinct, distinct]  # one tap matmul per forward


def test_rows_differing_in_one_band_are_not_merged(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    patch = data.extract_patch_batch(cube, [(3, 3)], 5)[0]  # 25 distinct pixels
    patches = np.stack([patch, patch, patch])
    patches[1, 2, 2, 4] = np.nextafter(patches[1, 2, 2, 4], 1.0)  # one ulp in one band
    patches[2, 2, 2, 4] += 0.5
    plain = mdl.detached()
    rows = count_pixel_rows(monkeypatch)
    got = model_mod.forward(plain, patches)
    assert rows[0] == 27
    alone = model_mod.forward(plain, patches[2:])
    np.testing.assert_allclose(got["lengths"][2], alone["lengths"][0], rtol=1e-12, atol=0)
    assert np.all(got["lengths"][2] != got["lengths"][0])


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
    o = ad.relu(ad.add(ad.conv(fmap, p["caps.conv.w"], cfg.stage2.conv_stride), p["caps.conv.b"]))
    return model_mod._capsules(mdl, o)


def fold_setups():
    """3 classes with every triple, and 3 classes under a 25-triple cap."""
    full = tiny_setup(n_class=3)
    capped = tiny_setup(n_class=3, tri_cap=25)
    base = len(full[3].slices.slices) * 3
    assert full[3].tri_combos is None and capped[3].tri_combos.shape == (25, 3)
    assert full[3].f_n == spectral.feature_count(len(full[3].slices.slices), 3)
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
    base = len(mdl.slices.slices) * 3
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


def test_capsule_block_peak_memory_is_below_the_prediction_product(small_cube):
    """One ``_capsules`` call on 64 nine-class centres. The (N, M, n, D, K)
    product of poses and class weights alone is 64 * 72 * 9 * 8 * 8 doubles,
    21 MiB, at this shape; the batched matmuls never form it."""
    cfg = RunConfig()  # default stage 2: 32 filters, 8 capsules of 8, D = 8
    cfg.training.enhancement_on = False
    rng = np.random.default_rng(5)
    slices = data.segment_bands(small_cube.wavelengths, data.DEFAULT_SLICES)
    spec = model_mod.param_spec(slices, 9, cfg)
    mdl = model_mod.Model.tracked(model_mod.init_params(spec, rng), spec, cfg, slices,
                                  9).detached()
    assert mdl.params["caps.class.w"].shape == (72, 9, 8, 8)
    o = rng.uniform(size=(64, 5, 5, 32))
    tracemalloc.start()
    try:
        model_mod._capsules(mdl, o)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


def tiled(monkeypatch, tile_rows):
    """``scene_forward`` under tiles of ``tile_rows`` centre rows."""
    monkeypatch.setattr(model_mod, "SCENE_TILE_ROWS", tile_rows)
    return model_mod.scene_forward


def test_scene_forward_equals_patch_forward_everywhere(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    coords = all_pixels(cube)  # corners and edges included
    assert_same_outputs(tiled(monkeypatch, 3)(mdl, cube, coords),
                        patch_path(mdl, cube, coords))


def test_scene_forward_independent_of_tile_size(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    coords = all_pixels(cube)
    whole = tiled(monkeypatch, cube.height)(mdl, cube, coords)
    for tile_rows in (1, 2, 3):
        assert_same_outputs(tiled(monkeypatch, tile_rows)(mdl, cube, coords), whole)


def test_scene_forward_sparse_coords_keep_their_order(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    coords = [(7, 7), (0, 0), (3, 5), (0, 0), (7, 0), (3, 5), (1, 6)]
    got = tiled(monkeypatch, 2)(mdl, cube, coords)
    assert_same_outputs(got, patch_path(mdl, cube, coords))
    np.testing.assert_array_equal(got["lengths"][1], got["lengths"][3])


def test_scene_forward_on_scene_narrower_than_patch(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    # a 3x2 crop under a 5-wide patch: the pad of 2 reflects more than once
    narrow = data.HsiCube(3, 2, cube.bands, cube.wavelengths, cube.data[2:5, 4:6].copy())
    coords = all_pixels(narrow)
    for tile_rows in (1, 3):
        assert_same_outputs(tiled(monkeypatch, tile_rows)(mdl, narrow, coords),
                            patch_path(mdl, narrow, coords))


def test_scene_forward_with_stride_two_stages(monkeypatch):
    cube, mdl = strided_setup()
    coords = all_pixels(cube)
    want = patch_path(mdl, cube, coords)
    assert want["poses"].shape[1] == mdl.config.stage2.capsules * 2 * 2
    for tile_rows in (1, 3, cube.height):
        assert_same_outputs(tiled(monkeypatch, tile_rows)(mdl, cube, coords), want)


def test_scene_forward_independent_of_tail_batch(monkeypatch):
    """Each ``TAIL_BATCH`` chunk picks its centres' conv maps from the tile's
    positions; chunks that split a tile, and centres requested twice, give
    the outputs of one chunk per tile."""
    cube, labels, cfg, mdl = tiny_setup()
    coords = all_pixels(cube) + [(3, 3), (0, 0), (7, 7), (3, 3)]
    want = tiled(monkeypatch, cube.height)(mdl, cube, coords)
    assert_same_outputs(want, patch_path(mdl, cube, coords))
    for tail, tile_rows in itertools.product((1, 3, 7), (1, 3)):
        monkeypatch.setattr(model_mod, "TAIL_BATCH", tail)
        assert_same_outputs(tiled(monkeypatch, tile_rows)(mdl, cube, coords), want)


def test_scene_forward_with_enhancement_off(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    cfg.training.enhancement_on = False
    mdl2 = training.build_model(cube, labels, data.split_samples(labels, 0.5, 3), cfg)
    coords = all_pixels(cube)
    assert_same_outputs(tiled(monkeypatch, 2)(mdl2, cube, coords),
                        patch_path(mdl2, cube, coords))


def test_scene_forward_empty_and_out_of_image_coords(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    empty = tiled(monkeypatch, 2)(mdl, cube, [])
    want = patch_path(mdl, cube, [(0, 0)])
    for key in ("poses", "v", "lengths"):
        assert empty[key].shape == (0,) + want[key].shape[1:]
    try:
        tiled(monkeypatch, 2)(mdl, cube, [(0, 0), (8, 0)])
    except Exception as exc:
        assert "outside" in str(exc)
    else:
        raise AssertionError("expected an out-of-image error")


# scene tiles compute only the pixels and positions that a requested patch reads

# Four corners, an interior centre and an edge centre, spread over the rows.
SPARSE = [(0, 0), (7, 7), (3, 4), (0, 7), (7, 0), (5, 2)]


def tiles_of(coords, tile_rows):
    """Centres grouped per tile of ``tile_rows`` rows, in tile order."""
    tiles = {}
    for r, c in coords:
        tiles.setdefault(r // tile_rows, []).append((r, c))
    return [centres for _, centres in sorted(tiles.items())]


def covered_spectra(cube, coords, size, tile_rows):
    """Per tile with a centre, in tile order: the spectra of the distinct
    source pixels that some centre's patch covers, in pixel-id order. A
    mirrored position is the pixel it mirrors, so it counts once."""
    pad, out = size // 2, []
    for centres in tiles_of(coords, tile_rows):
        cells = {(mirrored(r + i, cube.height), mirrored(c + j, cube.width))
                 for r, c in centres for i in range(-pad, pad + 1) for j in range(-pad, pad + 1)}
        out.append(cube.data[tuple(np.array(sorted(cells)).T)])
    return out


def test_scene_forward_runs_the_spectral_head_on_covered_pixels_only(monkeypatch):
    cube, labels, cfg, mdl = tiny_setup()
    seen, real = [], spectral.pixel_features
    monkeypatch.setattr(spectral, "pixel_features",
                        lambda pixels, m: seen.append(np.array(pixels)) or real(pixels, m))
    for tile_rows in (1, 2, 3, cube.height):
        seen.clear()
        got = tiled(monkeypatch, tile_rows)(mdl, cube, SPARSE)
        want = covered_spectra(cube, SPARSE, mdl.patch_size, tile_rows)
        assert [len(rows) for rows in seen] == [len(rows) for rows in want]
        for rows, spectra in zip(seen, want):
            np.testing.assert_array_equal(rows, spectra)
        assert_same_outputs(got, patch_path(mdl, cube, SPARSE))


def test_scene_forward_runs_the_conv_once_per_read_position(monkeypatch):
    """Per tile, the stage-2 conv's ``window_sum`` (the call that sums k * k
    taps) has one row per distinct position that some centre's h1 x h1
    window reads, in padded coordinates, where the patch centred on (r, c)
    starts at (r, c)."""
    cube, labels, cfg, mdl = tiny_setup()
    k = cfg.stage2.conv_kernel
    h1 = mdl.patch_size - k + 1
    rows, real = [], ad.window_sum

    def counted(y, windows):
        out = real(y, windows)
        if windows.shape[-1] == k * k:
            rows.append(ad.shape_of(out)[0])
        return out

    monkeypatch.setattr(ad, "window_sum", counted)
    for tile_rows in (1, 2, 3, cube.height):
        rows.clear()
        tiled(monkeypatch, tile_rows)(mdl, cube, SPARSE)
        assert rows == [len({(r + a, c + b) for r, c in centres
                             for a in range(h1) for b in range(h1)})
                        for centres in tiles_of(SPARSE, tile_rows)]


def test_scene_forward_memory_follows_the_covered_pixels_not_the_width():
    """Four centres of a 16 x 144, 103-band, nine-class scene, over two
    tiles. A tile spans the padded width, 150 pixels, and each pixel's
    stage-2 input is 63 + C(63, 2) = 2,016 doubles, so a whole 14-row tile's
    features alone are 32.3 MiB. The four patches cover 196 pixels, whose
    features are 3.0 MiB."""
    rng = np.random.default_rng(11)
    wavelengths = tuple(np.linspace(430.0, 860.0, 103))
    cube = data.HsiCube(16, 144, 103, wavelengths,
                        rng.uniform(0.0, 1.0, size=(16, 144, 103)).astype(np.float32))
    cfg = RunConfig()
    slices = data.segment_bands(cube.wavelengths, data.DEFAULT_SLICES)
    spec = model_mod.param_spec(slices, 9, cfg, tri_cap=2000)
    mdl = model_mod.Model.tracked(model_mod.init_params(spec, rng), spec, cfg, slices, 9)
    mdl.tri_combos = spectral.triple_indices(63)[:2000]
    assert mdl.f_n == 4016
    coords = [(0, 0), (5, 70), (9, 143), (15, 100)]
    tracemalloc.start()
    try:
        model_mod.scene_forward(mdl, cube, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


def test_predict_map_memory_picks_conv_maps_per_chunk():
    """A whole 16 x 288, 60-band, three-class scene under an untrained
    default-config model. Each 8-row tile's 2,304 centres read 12 x 292
    conv positions; their own 5 x 5 maps over 32 channels would be 14.1
    MiB per tile if held at once, so ``scene_forward`` picks them per
    ``TAIL_BATCH`` chunk. Holding them per tile peaked at 68.4 MiB."""
    rng = np.random.default_rng(13)
    wavelengths = tuple(np.linspace(430.0, 860.0, 60))
    cube = data.HsiCube(16, 288, 60, wavelengths,
                        rng.uniform(0.0, 1.0, size=(16, 288, 60)).astype(np.float32))
    labels = data.LabelMap(16, 288, rng.integers(1, 4, size=(16, 288)), 3)
    cfg = RunConfig()
    mdl = training.build_model(cube, labels, data.split_samples(labels, 0.5, 3), cfg)
    tracemalloc.start()
    try:
        training.predict_map(mdl, cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


def test_empty_requests_give_empty_outputs():
    cube, labels, cfg, mdl = tiny_setup()
    patches = data.extract_patch_batch(cube, [], 5)
    assert patches.shape == (0, 5, 5, cube.bands) and patches.dtype == np.float64
    want = patch_path(mdl, cube, [(0, 0)])
    for out in (model_mod.forward(mdl, patches), model_mod.forward(mdl.detached(), patches),
                model_mod.scene_forward(mdl, cube, [])):
        for key in ("poses", "v", "lengths"):
            assert ad.shape_of(out[key]) == (0,) + want[key].shape[1:]
    assert model_mod.predict_lengths(mdl, patches).shape == (0, mdl.n_class)

"""Composed network forward vs an independent straight-line oracle."""

import itertools

import numpy as np

from hsicaps import autodiff as ad
from hsicaps import data, model as model_mod, training
from hsicaps.config import RunConfig


def tiny_setup(n_class=2, seed=3):
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

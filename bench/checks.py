"""Correctness checks on the outputs the benchmark times.

Every check returns a list of failure messages (empty when it holds) and
runs outside the timed spans. Each takes outputs as a user would see
them (files, histories, reports) so the tests can corrupt one and see
the check fail.
"""

import hashlib
import json
import math

import numpy as np

from hsicaps import data, model as model_mod, training

OA_FLOOR = 0.85  # acceptance criterion 5's test-OA bar for the ablation protocol
GRADCHECK_TOLERANCE = 1e-4
LENGTHS_RTOL = 1e-12


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def losses_finite(history) -> list:
    return [f"non-finite loss {row[1]!r} at epoch {row[0]}"
            for row in history if not math.isfinite(row[1])]


def checkpoint_roundtrip(mdl, ckpt_path, patches) -> list:
    """The saved checkpoint must give the in-memory model's lengths."""
    try:
        loaded, _cfg, _manifest = training.load_checkpoint(ckpt_path)
        want = model_mod.predict_lengths(mdl, patches)
        got = model_mod.predict_lengths(loaded, patches)
    except Exception as exc:  # any load or shape failure fails the check
        return [f"checkpoint reload failed: {exc!r}"]
    if not np.array_equal(want, got):
        return [f"reloaded lengths differ by up to {np.max(np.abs(want - got)):.3e}"]
    return []


def digests_equal(digests) -> list:
    """Same-seed trainings must write byte-identical outputs."""
    if len(set(digests)) > 1:
        return [f"same-seed outputs differ: {sorted(set(digests))}"]
    return []


def oa_floor(test_oa, floor=OA_FLOOR) -> list:
    return [] if test_oa >= floor else [f"test OA {test_oa:.4f} below floor {floor}"]


def gradcheck_ok(report) -> list:
    if report.max_rel_error < GRADCHECK_TOLERANCE:
        return []
    return [f"gradcheck max rel error {report.max_rel_error:.3e} at {report.worst_param}"]


def exit_ok(command, code) -> list:
    return [] if code == 0 else [f"{command} exited with {code}"]


def read_map(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([[int(v) for v in line.split(",")] for line in fh if line.strip()])


def map_ids(class_map, n_class) -> list:
    bad = (class_map < 1) | (class_map > n_class)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        return [f"class id {class_map[r, c]} at ({r}, {c}) outside 1..{n_class}"]
    return []


def single_patch_lengths(mdl, cube, coords) -> np.ndarray:
    """Lengths of ``model.forward`` on each pixel's own one-patch batch."""
    norm = data.normalize_cube(cube)
    detached = mdl.detached()
    rows = [np.asarray(model_mod.forward(
        detached, data.extract_patch_batch(norm, [rc], mdl.patch_size))["lengths"])[0]
        for rc in coords]
    return np.array(rows)


def map_matches_forward(class_map, lengths, coords) -> list:
    """The map's class at each pixel is the argmax of its own forward."""
    out = []
    for (r, c), vec in zip(coords, lengths):
        want = int(np.argmax(vec)) + 1
        if class_map[r, c] != want:
            out.append(f"map class {class_map[r, c]} at ({r}, {c}), forward says {want}")
    return out


def read_lengths_csv(path) -> dict:
    """(row, col) -> length vector from interpret's lengths.csv."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            parts = line.strip().split(",")
            out[(int(parts[0]), int(parts[1]))] = np.array([float(v) for v in parts[3:]])
    return out


def lengths_match(exported, lengths, coords, rtol=LENGTHS_RTOL) -> list:
    out = []
    for rc, vec in zip(coords, lengths):
        got = exported.get(tuple(rc))
        if got is None:
            out.append(f"lengths.csv has no row for {rc}")
        elif got.shape != vec.shape or not np.allclose(got, vec, rtol=rtol, atol=0.0):
            out.append(f"lengths.csv row {rc} differs from forward: {got} vs {vec}")
    return out


def metrics_oa_matches_map(metrics_path, class_map, labels, test_coords) -> list:
    """evaluate's OA must equal the OA recomputed from predict's map."""
    with open(metrics_path, encoding="utf-8") as fh:
        reported = json.load(fh)["oa"]
    truth = np.array([labels.labels[r, c] for r, c in test_coords])
    pred = np.array([class_map[r, c] for r, c in test_coords])
    recomputed = float(np.mean(truth == pred))
    if abs(reported - recomputed) > 1e-12:
        return [f"metrics.json OA {reported} but map.csv gives {recomputed}"]
    return []

"""Command-line interface.

Subcommands: train, evaluate, predict, interpret, gradcheck.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import data, evaluation, model as model_mod, spectral, training
from .config import load_config, save_config
from .errors import ConfigError, DataError, HsiCapsError, NumericError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _jsonable(obj):
    """Recursively convert numpy scalars and NaN for JSON output."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return None if math.isnan(f) else f
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_map_csv(path, arr):
    with open(path, "w", encoding="utf-8") as fh:
        for row in arr:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def _load_map_csv(path):
    """Plain integer grid; unlike labels, any ids are allowed."""
    if not os.path.exists(path):
        raise DataError(f"class map not found: {path}")
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    rows.append([int(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise DataError(f"malformed class map {path}: {exc}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise DataError(f"malformed class map {path}")
    return np.array(rows, dtype=np.int64)


def write_pgm(path, class_map, n_class: int):
    """8-bit binary PGM; gray level = class_id * (255 // n_class)."""
    scale = 255 // max(1, n_class)
    gray = (np.asarray(class_map, dtype=np.int64) * scale).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def _load_dataset(cube_path, labels_path):
    cube = data.load_cube(cube_path)
    labels = data.load_labels(labels_path)
    if (labels.height, labels.width) != (cube.height, cube.width):
        raise DataError(
            f"label map {labels.height}x{labels.width} does not match cube "
            f"{cube.height}x{cube.width}"
        )
    return cube, labels


# subcommands ------------------------------------------------------------


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.variant:
        cfg.apply_variant(args.variant)
    if args.seed_override is not None:
        cfg.training.seed = args.seed_override
    if args.out:
        cfg.output_dir = args.out
    if not cfg.cube or not cfg.labels:
        raise ConfigError("config must set 'cube' and 'labels' paths")
    if not cfg.output_dir:
        raise ConfigError("no output directory (set 'output_dir' or pass --out)")
    cube, labels = _load_dataset(cfg.cube, cfg.labels)
    split = data.split_samples(labels, cfg.train_fraction, cfg.training.seed)

    result = training.train(cube, labels, split, cfg)

    os.makedirs(cfg.output_dir, exist_ok=True)
    save_config(cfg, os.path.join(cfg.output_dir, "config.json"))
    data.save_split(split, os.path.join(cfg.output_dir, "split.json"))
    training.save_history(result.history, os.path.join(cfg.output_dir, "history.csv"))
    training.save_checkpoint(os.path.join(cfg.output_dir, "model.ckpt"),
                             result.model, cfg, cube.wavelengths)
    last = result.history[-1]
    print(f"trained {cfg.training.epochs} epochs: "
          f"train OA {last[2]:.4f}, test OA {last[3]:.4f}")
    print(f"outputs written to {cfg.output_dir}")
    return EXIT_OK


def _predictions_at(mdl, cube, coords, batch_size=64):
    patches = data.extract_patch_batch(data.normalize_cube(cube), coords, mdl.patch_size)
    lengths = model_mod.predict_lengths(mdl, patches, batch_size)
    return np.argmax(lengths, axis=1) + 1


def _cmd_evaluate(args) -> int:
    mdl, cfg, manifest = training.load_checkpoint(args.checkpoint)
    cube, labels = _load_dataset(args.cube, args.labels)
    training.check_cube_compatible(manifest, cube)
    if labels.n_class != mdl.n_class:
        raise DataError(
            f"label map has {labels.n_class} classes, checkpoint {mdl.n_class}"
        )
    if args.split:
        split = data.load_split(args.split)
    else:
        split = data.split_samples(labels, cfg.train_fraction, cfg.training.seed)
    coords = split.train_indices if args.on == "train" else split.test_indices
    for r, c in coords:
        if not (0 <= r < labels.height and 0 <= c < labels.width):
            raise DataError(f"split pixel ({r}, {c}) outside the label map")
    truth = np.array([labels.labels[r, c] for r, c in coords])
    pred = _predictions_at(mdl, cube, coords)
    cm = evaluation.confusion(truth, pred, n_class=mdl.n_class)
    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)
    mcnemar_result = None
    if args.compare:
        other_map = _load_map_csv(args.compare)
        if other_map.shape != (cube.height, cube.width):
            raise DataError("comparison map shape does not match cube")
        other = np.array([other_map[r, c] for r, c in coords])
        try:
            chi2, band = evaluation.mcnemar(truth, pred, other)
            f12 = int(np.sum((pred == truth) & (other != truth)))
            f21 = int(np.sum((pred != truth) & (other == truth)))
            mcnemar_result = {"chi2": chi2, "band": band, "f12": f12, "f21": f21}
            with open(os.path.join(out_dir, "mcnemar.csv"), "w", encoding="utf-8") as fh:
                fh.write("classifier_a,classifier_b,f12,f21,chi2,band\n")
                fh.write(f"checkpoint,{args.compare},{f12},{f21},{chi2!r},{band}\n")
        except DataError:
            mcnemar_result = {"note": "no discordant pairs"}
    report = evaluation.metrics_report(cm, args.on, mcnemar_result)
    _write_json(os.path.join(out_dir, "metrics.json"), report.to_dict())
    print(f"OA {report.oa:.4f}  AA {report.aa:.4f}  kappa {report.kappa:.4f} "
          f"({cm.total} pixels, {args.on} split)")
    return EXIT_OK


def _cmd_predict(args) -> int:
    mdl, _cfg, manifest = training.load_checkpoint(args.checkpoint)
    cube = data.load_cube(args.cube)
    training.check_cube_compatible(manifest, cube)
    class_map = training.predict_map(mdl, cube)
    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)
    _write_map_csv(os.path.join(out_dir, "map.csv"), class_map)
    write_pgm(os.path.join(out_dir, "map.pgm"), class_map, mdl.n_class)
    print(f"classified {class_map.size} pixels into {mdl.n_class} classes")
    return EXIT_OK


def _read_references(path, coords):
    """Reference CSV: header 'row,col,<name>...'; one line per pixel."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["row", "col"]:
            raise DataError("reference CSV must start with row,col columns")
        names = header[2:]
        table = {}
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise DataError("ragged reference CSV")
            table[(int(parts[0]), int(parts[1]))] = [float(v) for v in parts[2:]]
    missing = [rc for rc in coords if rc not in table]
    if missing:
        raise DataError(f"reference CSV missing pixel {missing[0]}")
    values = np.array([table[rc] for rc in coords])
    return names, values


def _cmd_interpret(args) -> int:
    mdl, cfg, manifest = training.load_checkpoint(args.checkpoint)
    cube, labels = _load_dataset(args.cube, args.labels)
    training.check_cube_compatible(manifest, cube)
    coords = [tuple(int(v) for v in rc) for rc in np.argwhere(labels.labels > 0)]
    if not coords:
        raise DataError("no labeled pixels to interpret")
    detached = mdl.detached()
    norm_cube = data.normalize_cube(cube)
    labs = np.array([labels.labels[r, c] for r, c in coords])

    # Pixel-level enhanced features (no spatial context needed).
    spectra = np.array([norm_cube.data[r, c, :] for r, c in coords], dtype=np.float64)
    x1 = np.asarray(spectral.base_features(spectra, detached))
    feats = np.asarray(spectral.enhanced_features(x1, cfg.stage1.epsilon, mdl.tri_combos,
                                                  cfg.training.enhancement_on))
    names = spectral.feature_names(x1.shape[1], mdl.tri_combos, cfg.training.enhancement_on)

    entropy_per_class = {
        int(cls): evaluation.shannon_entropy(feats[labs == cls])
        for cls in np.unique(labs)
    }
    try:
        dunn = evaluation.dunn_index(feats, labs)
    except DataError:
        dunn = None

    # References: supplied CSV or the built-in indices the sensor covers,
    # computed from the raw reflectance cube.
    if args.references:
        ref_names, ref_values = _read_references(args.references, coords)
    else:
        defs = evaluation.available_indices(cube.wavelengths)
        ref_names = [d.name for d in defs]
        ref_values = np.array([
            [evaluation.vegetation_index(cube.data[r, c, :], cube.wavelengths, d)
             for d in defs]
            for r, c in coords
        ]) if defs else np.zeros((len(coords), 0))

    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)

    best = {}
    with open(os.path.join(out_dir, "r_squared.csv"), "w", encoding="utf-8") as fh:
        fh.write("feature,reference,r2\n")
        for j, ref in enumerate(ref_names):
            valid = np.isfinite(ref_values[:, j])
            top = (None, -1.0)
            for i, feat_name in enumerate(names):
                try:
                    if valid.sum() < 3:
                        raise DataError("too few finite reference values")
                    r2 = evaluation.r_squared(feats[valid, i], ref_values[valid, j])
                except DataError:
                    fh.write(f"{feat_name},{ref},\n")
                    continue
                fh.write(f"{feat_name},{ref},{r2!r}\n")
                if r2 > top[1]:
                    top = (feat_name, r2)
            if top[0] is not None:
                best[ref] = {"feature": top[0], "r2": top[1]}

    with open(os.path.join(out_dir, "features.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,col,label," + ",".join(names) + "\n")
        for (r, c), lab, vec in zip(coords, labs, feats):
            fh.write(f"{r},{c},{lab}," + ",".join(repr(float(v)) for v in vec) + "\n")

    # Capsule-level exports need full patch forwards.
    patches = data.extract_patch_batch(norm_cube, coords, mdl.patch_size)
    poses_rows, length_rows, act_rows = [], [], []
    for lo in range(0, len(coords), 64):
        out = model_mod.forward(detached, patches[lo : lo + 64])
        v = np.asarray(out["v"])
        poses_rows.append(np.asarray(out["poses"]))
        length_rows.append(np.asarray(out["lengths"]))
        act_rows.append(v.reshape(v.shape[0], -1))
    poses = np.concatenate(poses_rows)
    lengths = np.concatenate(length_rows)
    activities = np.concatenate(act_rows)

    with open(os.path.join(out_dir, "lengths.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,col,label," + ",".join(
            f"len_{i + 1}" for i in range(mdl.n_class)) + "\n")
        for (r, c), lab, vec in zip(coords, labs, lengths):
            fh.write(f"{r},{c},{lab}," + ",".join(repr(float(v)) for v in vec) + "\n")

    m_count, k_dim = poses.shape[1], poses.shape[2]
    with open(os.path.join(out_dir, "poses.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,col,label," + ",".join(
            f"pose_{m + 1}_{k + 1}" for m in range(m_count) for k in range(k_dim)) + "\n")
        for (r, c), lab, mat in zip(coords, labs, poses):
            flat = mat.reshape(-1)
            fh.write(f"{r},{c},{lab}," + ",".join(repr(float(v)) for v in flat) + "\n")

    kernels = detached.params["caps.conv.w"]
    with open(os.path.join(out_dir, "conv_kernels.csv"), "w", encoding="utf-8") as fh:
        fh.write("filter,ki,kj,channel,value\n")
        J, k, _, C = kernels.shape
        for j in range(J):
            for a in range(k):
                for b in range(k):
                    for ch in range(C):
                        fh.write(f"{j},{a},{b},{ch},{kernels[j, a, b, ch]!r}\n")

    capsule_entropy = {
        int(cls): evaluation.shannon_entropy(np.abs(activities[labs == cls]))
        for cls in np.unique(labs)
    }
    report = evaluation.InterpretabilityReport(
        entropy_per_class=entropy_per_class,
        capsule_entropy_per_class=capsule_entropy,
        dunn=dunn,
        r_squared_best=best,
        references=tuple(ref_names),
        n_pixels=len(coords),
        n_features=feats.shape[1],
    )
    doc = report.to_dict()
    _write_json(os.path.join(out_dir, "interpretability.json"), doc)
    print(f"entropy mean {doc['entropy_mean']:.4f}  "
          f"dunn {dunn if dunn is not None else 'n/a'}  "
          f"references: {', '.join(ref_names) or 'none'}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = load_config(args.config) if args.config else None
    report = training.gradcheck(cfg, _fault=args.self_test_fault)
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck: max relative error {report.max_rel_error:.3e} over "
          f"{report.n_checked} coordinates (tolerance {report.tolerance:.0e}, "
          f"{report.elapsed_seconds:.1f}s)")
    print(f"gradcheck: {status}" + (f" (worst at {report.worst_param})"
                                    if report.worst_param else ""))
    return EXIT_OK if report.passed else EXIT_NUMERIC


def build_parser() -> _Parser:
    parser = _Parser(prog="hsicaps",
                     description="Two-stage capsule classifier for hyperspectral cubes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="override the config's output_dir")
    p.add_argument("--seed-override", type=int, default=None)
    p.add_argument("--variant", choices=["model1", "model2", "model3"])
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="metrics report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", help="split JSON (default: recompute from config)")
    p.add_argument("--on", choices=["train", "test"], default="test")
    p.add_argument("--compare", help="class-map CSV for a McNemar comparison")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("predict", help="classify a whole scene")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("interpret", help="interpretability report and dumps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--references", help="CSV of per-pixel reference values")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_interpret)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--config")
    p.add_argument("--self-test-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HsiCapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

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
from .config import VARIANTS, load_config, save_config
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
    """Recursively replace NaN with None (JSON null) in a report of
    Python scalars, lists and dicts."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(doc), fh, sort_keys=True, indent=2)
        fh.write("\n")


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
    cfg.validate()
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


def _cmd_evaluate(args) -> int:
    mdl, cfg, manifest = training.load_checkpoint(args.checkpoint)
    cube, labels = _load_dataset(args.cube, args.labels)
    training.check_cube_compatible(manifest, cube)
    if labels.n_class != mdl.n_class:
        raise DataError(
            f"label map has {labels.n_class} classes, checkpoint {mdl.n_class}"
        )
    other_map = None
    if args.compare:
        other_map = data.read_grid_csv(args.compare, "class map")  # any ids allowed
        if other_map.shape != (cube.height, cube.width):
            raise DataError("comparison map shape does not match cube")
    if args.split:
        split = data.load_split(args.split)
    else:
        split = data.split_samples(labels, cfg.train_fraction, cfg.training.seed)
    coords = split.train_indices if args.on == "train" else split.test_indices
    pred = training.classes_at(mdl, data.normalize_cube(cube), coords)
    truth = data.pixels_at(labels.labels, coords)
    cm = evaluation.confusion(truth, pred, n_class=mdl.n_class)
    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)
    mcnemar_result = None
    if other_map is not None:
        other = data.pixels_at(other_map, coords)
        try:
            chi2, band, f12, f21 = evaluation.mcnemar(truth, pred, other)
            mcnemar_result = {"chi2": chi2, "band": band, "f12": f12, "f21": f21}
            with open(os.path.join(out_dir, "mcnemar.csv"), "w", encoding="utf-8") as fh:
                fh.write("classifier_a,classifier_b,f12,f21,chi2,band\n")
                fh.write(f"checkpoint,{args.compare},{f12},{f21},{chi2!r},{band}\n")
        except DataError:
            mcnemar_result = {"note": "no discordant pairs"}
    report = evaluation.metrics_report(cm, args.on, mcnemar_result)
    _write_json(os.path.join(out_dir, "metrics.json"), report)
    print(f"OA {report['oa']:.4f}  AA {report['aa']:.4f}  kappa {report['kappa']:.4f} "
          f"({cm.total} pixels, {args.on} split)")
    return EXIT_OK


def _cmd_predict(args) -> int:
    mdl, _cfg, manifest = training.load_checkpoint(args.checkpoint)
    cube = data.load_cube(args.cube)
    training.check_cube_compatible(manifest, cube)
    class_map = training.predict_map(mdl, cube)
    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)
    data.write_grid_csv(class_map, os.path.join(out_dir, "map.csv"))
    write_pgm(os.path.join(out_dir, "map.pgm"), class_map, mdl.n_class)
    print(f"classified {class_map.size} pixels into {mdl.n_class} classes")
    return EXIT_OK


def _read_references(path, coords):
    """Reference CSV: header 'row,col,<name>...'; one line per pixel,
    blank lines skipped."""
    if not os.path.exists(path):
        raise DataError(f"reference CSV not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["row", "col"]:
            raise DataError("reference CSV must start with row,col columns")
        repeated = [name for i, name in enumerate(header) if name in header[:i]]
        if repeated:
            raise DataError(f"repeated column {repeated[0]!r} in reference CSV {path}")
        names = header[2:]
        table = {}
        for line_no, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise DataError(f"ragged reference CSV {path} at line {line_no}")
            try:
                rc = (int(parts[0]), int(parts[1]))
                row = [float(v) for v in parts[2:]]
            except ValueError as exc:
                raise DataError(f"malformed reference CSV {path} at line {line_no}: "
                                f"{exc}") from exc
            if rc in table:
                raise DataError(f"duplicate pixel {rc} in reference CSV {path} "
                                f"at line {line_no}")
            table[rc] = row
    missing = [rc for rc in coords if rc not in table]
    if missing:
        raise DataError(f"reference CSV missing pixel {missing[0]}")
    values = np.array([table[rc] for rc in coords])
    return names, values


def _cmd_interpret(args) -> int:
    mdl, cfg, manifest = training.load_checkpoint(args.checkpoint)
    cube, labels = _load_dataset(args.cube, args.labels)
    training.check_cube_compatible(manifest, cube)
    labelled = np.argwhere(labels.labels > 0)
    if not len(labelled):
        raise DataError("no labeled pixels to interpret")
    coords = [tuple(rc) for rc in labelled.tolist()]
    rows, cols = labelled.T
    detached = mdl.detached()
    norm_cube = data.normalize_cube(cube)
    labs = labels.labels[rows, cols]

    # Pixel-level enhanced features (no spatial context needed): the full
    # [x1, x2, x3] vector that caps.conv.w and the feature names lay out.
    enhance = cfg.training.enhancement_on
    x1 = spectral.base_features(norm_cube.data[rows, cols], detached)
    feats = spectral.enhanced_features(x1, cfg.stage1.epsilon, mdl.tri_combos, enhance)
    names = spectral.feature_names(x1.shape[1], mdl.tri_combos, enhance)

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
        ref_values = np.column_stack([
            evaluation.vegetation_index(cube.data[rows, cols], cube.wavelengths, d)
            for d in defs
        ]) if defs else np.zeros((len(coords), 0))

    out_dir = args.out or os.path.dirname(args.checkpoint) or "."
    os.makedirs(out_dir, exist_ok=True)

    # (F, R) r2 over each reference's finite rows; NaN (a blank cell) where
    # it is undefined: fewer than 3 finite values, or zero variance.
    r2 = np.full((len(names), len(ref_names)), np.nan)
    for j in range(len(ref_names)):
        valid = np.isfinite(ref_values[:, j])
        if valid.sum() >= 3:
            r2[:, j] = evaluation.r_squared(feats[valid], ref_values[valid, j])
    with open(os.path.join(out_dir, "r_squared.csv"), "w", encoding="utf-8") as fh:
        fh.write("feature,reference,r2\n")
        for ref, column in zip(ref_names, r2.T):
            fh.writelines(f"{feat},{ref},{'' if math.isnan(v) else repr(v)}\n"
                          for feat, v in zip(names, column.tolist()))

    np.save(os.path.join(out_dir, "features.npy"), feats)
    with open(os.path.join(out_dir, "features_index.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,col,label\n")
        fh.writelines(f"{r},{c},{lab}\n" for (r, c), lab in zip(coords, labs.tolist()))
    with open(os.path.join(out_dir, "feature_names.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}\n" for name in names)

    # Capsule-level exports need each pixel's patch neighbourhood.
    scene = model_mod.scene_forward(mdl, norm_cube, labelled)
    activities = scene["v"].reshape(len(coords), -1)

    with open(os.path.join(out_dir, "lengths.csv"), "w", encoding="utf-8") as fh:
        fh.write("row,col,label," + ",".join(f"len_{i + 1}" for i in range(mdl.n_class)) + "\n")
        fh.writelines(f"{r},{c},{lab}," + ",".join(map(repr, vec.tolist())) + "\n"
                      for (r, c), lab, vec in zip(coords, labs.tolist(), scene["lengths"]))
    np.save(os.path.join(out_dir, "poses.npy"), scene["poses"])

    np.save(os.path.join(out_dir, "conv_kernels.npy"), detached.params["caps.conv.w"])

    doc = evaluation.interpretability_report(
        entropy_per_class=evaluation.entropy_per_class(feats, labs),
        capsule_entropy_per_class=evaluation.entropy_per_class(activities, labs),
        dunn=dunn,
        r2=r2,
        features=names,
        references=ref_names,
        n_pixels=len(coords),
    )
    _write_json(os.path.join(out_dir, "interpretability.json"), doc)
    print(f"entropy mean {doc['entropy_mean']:.4f}  "
          f"dunn {dunn if dunn is not None else 'n/a'}  "
          f"references: {', '.join(ref_names) or 'none'}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = load_config(args.config) if args.config else None
    report = training.gradcheck(cfg)
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
    p.add_argument("--variant", choices=VARIANTS)
    p.set_defaults(fn=_cmd_train)

    # the flags of the commands that run a checkpoint over a cube
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--checkpoint", required=True)
    scene.add_argument("--cube", required=True)
    scene.add_argument("--out")

    p = sub.add_parser("evaluate", parents=[scene], help="metrics report for a checkpoint")
    p.add_argument("--labels", required=True)
    p.add_argument("--split", help="split JSON (default: recompute from config)")
    p.add_argument("--on", choices=["train", "test"], default="test")
    p.add_argument("--compare", help="class-map CSV for a McNemar comparison")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("predict", parents=[scene], help="classify a whole scene")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("interpret", parents=[scene], help="interpretability report and dumps")
    p.add_argument("--labels", required=True)
    p.add_argument("--references", help="CSV of per-pixel reference values")
    p.set_defaults(fn=_cmd_interpret)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--config")
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

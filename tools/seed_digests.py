"""Print the seed-1 digests that show a change leaves every output alone.

For each benchmark workload, built through ``bench/workloads.py`` at seed 1
in a temporary directory, this trains every variant as the benchmark does
and prints the 12-hex sha256 prefixes of its ``model.ckpt`` and
``history.csv``, then the digest of each trained model3's whole-scene
class map (``training.predict_map``) and, on scene-3class, that of its
untrained ``init.ckpt``. On each of those checkpoints it then runs the
CLI's ``predict``, ``evaluate --on test``, ``evaluate --on train`` and
``interpret``, the evaluations with ``--compare`` against a constant
class-1 map so that ``mcnemar.csv`` is written, and prints a digest of
each output directory. It ends with ``training.gradcheck()``'s worst
relative error and where it was found. Two trees give equal outputs when
they print equal lines. It only reports, and it writes nothing outside
its temporary directory.

Run from the repository root:

    python3 tools/seed_digests.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

# Checkpoint bytes depend on the BLAS thread count, so pin one thread
# before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from hsicaps import cli, data, training  # noqa: E402

SEED = 1


def short(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:12]


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return short(fh.read())


def directory_digest(directory) -> str:
    """Digest of each file's name and bytes under ``directory``, in name order."""
    return short("".join(f"{entry} {file_digest(os.path.join(directory, entry))}\n"
                         for entry in sorted(os.listdir(directory))).encode("utf-8"))


def cli_digests(label, checkpoint, wl):
    """Run each scene command of the CLI on ``checkpoint`` and print the
    digest of its output directory."""
    scene = ["--checkpoint", checkpoint, "--cube", wl.cube]
    evaluate = ["evaluate", "--labels", wl.labels, "--compare", "class1.csv", "--on"]
    commands = {"predict": ["predict"], "evaluate-test": evaluate + ["test"],
                "evaluate-train": evaluate + ["train"],
                "interpret": ["interpret", "--labels", wl.labels]}
    # mcnemar.csv names the comparison map as given, so it is given relative
    # to the workload's directory, the same path on every tree
    os.chdir(wl.directory)
    try:
        for command, argv in commands.items():
            out = os.path.join(wl.directory, f"{label}-{command}")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv + scene + ["--out", out])
            if rc != 0:
                raise SystemExit(f"{wl.name} {label} {command} exited {rc}")
            print(f"{wl.name} {label} {command} {directory_digest(out)}")
    finally:
        os.chdir(ROOT)


def workload_digests(name, directory):
    wl = workloads.write_workload(name, SEED, directory)
    cube, labels = data.load_cube(wl.cube), data.load_labels(wl.labels)
    for variant in wl.variants:
        cfg = wl.run_config(variant)
        split = data.split_samples(labels, cfg.train_fraction, cfg.training.seed)
        result = training.train(cube, labels, split, cfg)
        ckpt, hist = (os.path.join(directory, f"{variant}.{ext}") for ext in ("ckpt", "csv"))
        training.save_checkpoint(ckpt, result.model, cfg, cube.wavelengths)
        training.save_history(result.history, hist)
        print(f"{name} {variant} model.ckpt {file_digest(ckpt)} history.csv {file_digest(hist)}")
    print(f"{name} model3 class map {short(training.predict_map(result.model, cube).tobytes())}")
    if wl.checkpoint is not None:
        mdl, _cfg, _manifest = training.load_checkpoint(wl.checkpoint)
        print(f"{name} init.ckpt class map {short(training.predict_map(mdl, cube).tobytes())}")
    data.write_grid_csv(np.ones((cube.height, cube.width), dtype=np.int64),
                        os.path.join(directory, "class1.csv"))
    cli_digests("model3", ckpt, wl)
    if wl.checkpoint is not None:
        cli_digests("init.ckpt", wl.checkpoint, wl)


def main():
    for name in workloads.NAMES:
        with tempfile.TemporaryDirectory() as directory:
            workload_digests(name, directory)
    report = training.gradcheck()
    print(f"gradcheck {report.max_rel_error!r} at {report.worst_param}")


if __name__ == "__main__":
    main()

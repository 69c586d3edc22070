"""Print the seed-1 digests that show a change leaves every output alone.

For each benchmark workload, built through ``bench/workloads.py`` at seed 1
in a temporary directory, this trains every variant as the benchmark does
and prints the 12-hex sha256 prefixes of its ``model.ckpt`` and
``history.csv``, then the digest of each trained model3's whole-scene
class map (``training.predict_map``) and, on scene-3class, that of its
untrained ``init.ckpt``. It ends with ``training.gradcheck()``'s worst
relative error and where it was found. Two trees give equal outputs when
they print equal lines. It only reports, and it writes nothing outside
its temporary directory.

Run from the repository root:

    python3 tools/seed_digests.py
"""

import hashlib
import os
import sys
import tempfile

# Checkpoint bytes depend on the BLAS thread count, so pin one thread
# before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from hsicaps import data, training  # noqa: E402

SEED = 1


def short(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:12]


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return short(fh.read())


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


def main():
    for name in workloads.NAMES:
        with tempfile.TemporaryDirectory() as directory:
            workload_digests(name, directory)
    report = training.gradcheck()
    print(f"gradcheck {report.max_rel_error!r} at {report.worst_param}")


if __name__ == "__main__":
    main()

"""hsicaps benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 bench/run.py --workload ablation --seed 1 --seconds 20 --trace 0

Every workload runs the whole user pipeline on its own scene: set-up
(imports, the generated dataset and, on scene-3class, an untrained
checkpoint), ``training.train``, ``training.gradcheck`` and the
``predict``, ``evaluate`` and ``interpret`` CLI commands, each command
in its own process. Outputs are checked outside the timed spans; an
operation that raises, exits non-zero or fails a check counts as failed.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` the run repeats the pipeline with the layer functions
wrapped (see spans.py) and the last line holds the per-layer metrics and
the tracing overhead. The line before it is the environment record, and
``bench/out/results/`` keeps the full record of each run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("bench", "out")  # relative to ROOT, the working directory
SETUPS = 5  # set-up repetitions per untraced run; setup_s is their median
REPEATED = 4  # operations that repeat within --seconds: gradcheck and 3 commands
MAX_REPEATS = 5
SAMPLE = 8  # seeded pixels per output check
MIB = 1024.0 * 1024.0

END_TO_END = {
    "setup_s": "s", "train_s": "s", "test_oa": "fraction", "gradcheck_s": "s",
    "predict_px_per_s": "px/s", "evaluate_px_per_s": "px/s", "interpret_s": "s",
    "peak_rss_mb": "MB", "predict_peak_rss_mb": "MB", "interpret_peak_rss_mb": "MB",
}
# End-to-end metrics that a traced pass measures again for the overhead.
OVERHEAD = ("train_s", "gradcheck_s", "predict_px_per_s", "evaluate_px_per_s",
            "interpret_s", "predict_peak_rss_mb", "interpret_peak_rss_mb")


def _pin_blas_threads():
    """One BLAS thread, inherited by the children: the ROADMAP scope is one
    process on one CPU, and on a 2-vCPU machine a second thread gave no
    speed-up. Checkpoint bytes depend on the thread count."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


# set-up ------------------------------------------------------------------


def _setup_child(name, seed, directory) -> int:
    """Body of one set-up process: imports and the generated workload."""
    import workloads

    workloads.write_workload(name, seed, directory)
    print("ready", flush=True)
    return 0


def _timed_setup(name, seed, directory) -> float:
    """Process start to ready: a fresh interpreter imports hsicaps and
    writes the workload. Raises RuntimeError when set-up fails."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--setup-only", directory,
           "--workload", name, "--seed", str(seed)]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait()
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up of {name} failed with exit code {code}")
    return elapsed


# one pass over the pipeline ------------------------------------------------


class Pass:
    """Measurements, failures and spans of one pass over a workload."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.values = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.child_peaks = []
        self.digests = {}  # variant -> sha256 of model.ckpt + history.csv
        self.spans = {}  # operation -> span list
        self.walls = {}  # operation -> measured seconds

    def op(self, name, problems):
        """Count one operation; it failed if any check found a problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{name}: {p}" for p in problems)

    @contextmanager
    def timed(self, name):
        """Time a block, recording its spans when tracing."""
        rec = self.recorder
        if rec is not None:
            rec.spans.clear()
            rec.install()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.walls[name] = time.perf_counter() - started
            if rec is not None:
                rec.uninstall()
                self.spans[name] = list(rec.spans)


def _run_cli(ps, name, args, workdir, k):
    """Run one CLI command in its own process; returns (seconds, peak MB, exit code)."""
    report_path = os.path.join(workdir, f"{name}.{k}.report.json")
    trace = "1" if ps.recorder is not None else "0"
    cmd = [sys.executable, os.path.join("bench", "cli_child.py"), report_path, trace,
           name] + args
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
        code = proc.wait()
    elapsed = time.perf_counter() - started
    ps.walls[f"{name}.{k}"] = elapsed
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = {"peak_rss_mb": 0.0, "spans": []}
    ps.spans[f"{name}.{k}"] = report["spans"]
    ps.child_peaks.append(report["peak_rss_mb"])
    return elapsed, report["peak_rss_mb"], code


def _round_robin(budget, ops, order):
    """Run operations in rounds that follow ``order`` (names may repeat).

    ``ops[name](k)`` returns (seconds, peak MB, outcome) for its k-th run.
    A slot runs its operation until the operation's seconds add up to
    ``budget`` or it has run MAX_REPEATS times, and every operation runs
    at least once. Spreading each operation's samples over the whole
    pass keeps its median from resting on one stretch of a machine whose
    speed drifts."""
    runs = {name: [] for name in ops}
    ran = True
    while ran:
        ran = False
        for name in order:
            done = runs[name]
            if not done or (sum(r[0] for r in done) < budget and len(done) < MAX_REPEATS):
                done.append(ops[name](len(done)))
                ran = True
    return runs


def run_pass(wl, cube, labels, seed, workdir, budget, recorder=None):
    """One pass: train once, then repeat gradcheck, predict, evaluate and
    interpret each for ``budget`` seconds (see _round_robin), reporting
    medians and checking the outputs of the last round."""
    import numpy as np

    import checks
    from hsicaps import data, training
    from hsicaps.errors import HsiCapsError

    ps = Pass(recorder)
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    labelled = [tuple(int(v) for v in rc) for rc in np.argwhere(labels.labels > 0)]
    sample = [labelled[i] for i in sorted(rng.choice(len(labelled), SAMPLE, replace=False))]
    sample_patches = data.extract_patch_batch(data.normalize_cube(cube), sample,
                                              wl.run_config().training.patch_size)

    train_s, test_oa, inference_ckpt = 0.0, 1.0, wl.checkpoint
    for variant in wl.variants:
        cfg = wl.run_config(variant)
        split = data.split_samples(labels, cfg.train_fraction, cfg.training.seed)
        try:
            with ps.timed(f"train.{variant}"):
                result = training.train(cube, labels, split, cfg)
        except HsiCapsError as exc:
            ps.op(f"train.{variant}", [repr(exc)])
            continue
        train_s += ps.walls[f"train.{variant}"]
        test_oa = min(test_oa, result.history[-1][3])
        out = os.path.join(workdir, variant)
        os.makedirs(out, exist_ok=True)
        ckpt, hist = os.path.join(out, "model.ckpt"), os.path.join(out, "history.csv")
        with ps.timed(f"save.{variant}"):
            training.save_checkpoint(ckpt, result.model, cfg, cube.wavelengths)
            training.save_history(result.history, hist)
        ps.digests[variant] = checks.file_digest(ckpt, hist)
        ps.op(f"train.{variant}", checks.losses_finite(result.history)
              + checks.checkpoint_roundtrip(result.model, ckpt, sample_patches))
        if inference_ckpt is None and variant == "model3":
            inference_ckpt = ckpt
    if inference_ckpt is None:
        raise RuntimeError(f"{wl.name}: no model3 checkpoint to run the commands on; "
                           + "; ".join(ps.failures))
    if wl.name == "ablation":
        ps.op("test_oa", checks.oa_floor(test_oa))
    ps.values["train_s"], ps.values["test_oa"] = train_s, test_oa

    mdl, cfg, _manifest = training.load_checkpoint(inference_ckpt)
    out = os.path.join(workdir, "cli")
    common = ["--checkpoint", inference_ckpt, "--cube", wl.cube, "--out", out]
    with_labels = common + ["--labels", wl.labels]
    forward_lengths = checks.single_patch_lengths(mdl, cube, sample)

    def gradcheck(k):
        with ps.timed(f"gradcheck.{k}"):
            report = training.gradcheck()
        return ps.walls[f"gradcheck.{k}"], 0.0, report

    def command(name, args):
        return lambda k: _run_cli(ps, name, args, workdir, k)

    ops = {"gradcheck": gradcheck, "predict": command("predict", common),
           "evaluate": command("evaluate", with_labels),
           "interpret": command("interpret", with_labels)}
    # gradcheck is short, so it gets a slot after each command.
    runs = _round_robin(budget, ops, ["predict", "gradcheck", "evaluate", "gradcheck",
                                      "interpret", "gradcheck"])
    seconds = {name: statistics.median(r[0] for r in rs) for name, rs in runs.items()}
    peak = {name: statistics.median(r[1] for r in rs) for name, rs in runs.items()}
    problems = {name: [p for r in rs for p in checks.exit_ok(name, r[2])]
                for name, rs in runs.items() if name != "gradcheck"}
    problems["gradcheck"] = [p for r in runs["gradcheck"] for p in checks.gradcheck_ok(r[2])]
    test = data.split_samples(labels, cfg.train_fraction, cfg.training.seed).test_indices
    ps.values |= {
        "gradcheck_s": seconds["gradcheck"],
        "predict_px_per_s": cube.height * cube.width / seconds["predict"],
        "predict_peak_rss_mb": peak["predict"],
        "evaluate_px_per_s": len(test) / seconds["evaluate"],
        "interpret_s": seconds["interpret"],
        "interpret_peak_rss_mb": peak["interpret"],
    }

    class_map = None
    if not problems["predict"]:
        class_map = checks.read_map(os.path.join(out, "map.csv"))
        problems["predict"] = (checks.map_ids(class_map, mdl.n_class)
                               + checks.map_matches_forward(class_map, forward_lengths, sample))
    if not problems["evaluate"] and class_map is not None:
        problems["evaluate"] = checks.metrics_oa_matches_map(
            os.path.join(out, "metrics.json"), class_map, labels, test)
    if not problems["interpret"]:
        exported = checks.read_lengths_csv(os.path.join(out, "lengths.csv"))
        problems["interpret"] = checks.lengths_match(exported, forward_lengths, sample)
    for name, found in problems.items():
        ps.op(name, found)
    return ps


# per-layer metrics -------------------------------------------------------------

SELF_S = (
    "data.extract_patch_batch", "data.normalize_cube", "data.load_cube",
    "spectral.base_features", "spectral.enhanced_features", "spectral.binary_index",
    "spectral.triangular_index", "spectral.fit_triangular_cap",
    "capsule.conv2d_batch", "capsule.primary_capsules_batch",
    "capsule.predict_vectors", "capsule.dynamic_routing",
    "model.forward", "model.predict_lengths", "autodiff.backward",
    "training.train", "training.build_model", "training.batch_loss",
    "training.adam_step", "training.predict_map", "training.gradcheck",
    "evaluation.confusion", "evaluation.dunn_index", "evaluation.r_squared",
    "evaluation.vegetation_index", "evaluation.shannon_entropy",
    "cli.predict", "cli.evaluate", "cli.interpret",
)
CALLS = ("model.forward", "autodiff.backward", "evaluation.r_squared",
         "evaluation.vegetation_index", "training.finite_difference_gradient")
TOTAL_S = ("training.save_checkpoint", "training.load_checkpoint",
           "training.finite_difference_gradient")
PER_LAYER = (
    {f"{n}.self_s": "s" for n in SELF_S}
    | {f"{n}.calls": "count" for n in CALLS}
    | {f"{n}.s": "s" for n in TOTAL_S}
    | {"data.extract_patch_batch.mb": "MB", "spectral.base_features.rows": "count",
       "spectral.rows_per_pixel": "ratio", "model.predict_lengths.in_train_s": "s",
       "model.predict_lengths.train_share": "fraction",
       "evaluation.dunn_index.peak_mb": "MB", "cli.startup_s": "s"}
    | {f"overhead.{m}": END_TO_END[m] for m in OVERHEAD}
)


def _pool(span_lists) -> dict:
    import spans as sp

    table = {}
    for spans in span_lists:
        for name, row in sp.summarize(spans).items():
            acc = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "attr_sum": 0, "attr_max": 0})
            for key in ("calls", "total_s", "self_s", "attr_sum"):
                acc[key] += row[key]
            acc["attr_max"] = max(acc["attr_max"], row["attr_max"])
    return table


def layer_metrics(ps) -> dict:
    """Per-layer numbers from a traced pass. Layers pool the training and
    the three commands; the gradcheck layers come from gradcheck alone,
    whose 400 finite-difference forwards would swamp the others."""
    pipeline = [s for op, s in ps.spans.items() if not op.startswith("gradcheck")]
    table = _pool(pipeline)
    table |= {n: row for n, row in _pool(
        s for op, s in ps.spans.items() if op.startswith("gradcheck")).items()
        if n in ("training.gradcheck", "training.finite_difference_gradient")}
    rows_in_forward, patches, in_train, train_total, startup = 0, 0, 0.0, 0.0, 0.0
    for op, spans in ps.spans.items():
        if op.startswith("gradcheck"):
            continue
        for name, start, end, parent, attr in spans:
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "spectral.base_features" and parent_name == "model.forward":
                rows_in_forward += attr
            elif name == "model.forward":
                patches += attr
            elif name == "model.predict_lengths" and parent_name == "training.train":
                in_train += end - start
            elif name == "training.train":
                train_total += end - start
            elif name.startswith("cli.") and parent < 0:
                startup += ps.walls[op] - (end - start)

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    out = {f"{n}.self_s": get(n, "self_s") for n in SELF_S}
    out |= {f"{n}.calls": get(n, "calls") for n in CALLS}
    out |= {f"{n}.s": get(n, "total_s") for n in TOTAL_S}
    out["data.extract_patch_batch.mb"] = get("data.extract_patch_batch", "attr_max") / MIB
    out["spectral.base_features.rows"] = get("spectral.base_features", "attr_sum")
    out["spectral.rows_per_pixel"] = rows_in_forward / patches if patches else 0.0
    out["model.predict_lengths.in_train_s"] = in_train
    out["model.predict_lengths.train_share"] = in_train / train_total if train_total else 0.0
    out["evaluation.dunn_index.peak_mb"] = get("evaluation.dunn_index", "attr_max") / MIB
    out["cli.startup_s"] = startup
    return out


# environment ----------------------------------------------------------------------


def environment() -> dict:
    """Machine and build facts recorded next to the results."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    src_lines = 0
    for path in _src_files():
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "src_lines": src_lines}


def _src_files() -> list:
    return sorted(os.path.join(d, f) for d, _dirs, files in os.walk(SRC)
                  for f in files if f.endswith(".py"))


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in _src_files():
        with open(path, "rb") as fh:
            h.update(os.path.relpath(path, SRC).encode() + fh.read())
    return h.hexdigest()


def _check_store(name, seed, digests) -> list:
    """Compare this run's training digests with earlier same-seed runs of
    the same source tree; record new ones."""
    import numpy as np

    path = os.path.join(OUT, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    src, problems = _src_digest(), []
    for variant, digest in digests.items():
        # BLAS threads are pinned to 1; outputs also depend on numpy's build.
        key = f"{name}:{variant}:{seed}:{src}:numpy-{np.__version__}"
        if store.setdefault(key, digest) != digest:
            problems.append(f"{variant} outputs differ from an earlier run of seed {seed}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return problems


# main --------------------------------------------------------------------------------


def run(args) -> dict:
    import checks
    import spans
    import workloads
    from cli_child import vm_hwm_mb
    from hsicaps import data, training

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    n_setups = SETUPS if not args.trace else 1
    setup_dirs = [os.path.join(workdir, f"setup{i}") for i in range(n_setups)]
    setup_times = [_timed_setup(args.workload, args.seed, d) for d in setup_dirs]
    generator = checks.digests_equal([workloads.digest(d) for d in setup_dirs])

    wl = workloads.open_workload(args.workload, setup_dirs[0])
    cube, labels = data.load_cube(wl.cube), data.load_labels(wl.labels)
    # In a fresh process the first training epoch runs about 1 s slower
    # (bench/BASELINE.md); one untimed gradcheck absorbs that, so the
    # untraced and traced passes compare.
    started = time.perf_counter()
    training.gradcheck()
    warmup_s = time.perf_counter() - started
    # The repeated operations share --seconds; a traced pass runs each once.
    passes = [run_pass(wl, cube, labels, args.seed, os.path.join(workdir, "pass"),
                       args.seconds / REPEATED)]
    if args.trace:
        passes.append(run_pass(wl, cube, labels, args.seed, os.path.join(workdir, "traced"),
                               0.0, recorder=spans.Recorder()))

    run_checks = {"generator": generator,
                  "digest store": _check_store(args.workload, args.seed, passes[0].digests)}
    if args.trace:  # the untraced and traced passes trained on the same seed
        run_checks["determinism"] = [
            f"{variant}: {p}" for variant in wl.variants
            for p in checks.digests_equal([ps.digests[variant] for ps in passes
                                           if variant in ps.digests])]
    failures = [f"{name}: {p}" for name, problems in run_checks.items() for p in problems]
    for ps in passes:
        failures += ps.failures
    attempted = len(run_checks) + sum(ps.attempted for ps in passes)
    failed = sum(map(bool, run_checks.values())) + sum(ps.failed for ps in passes)

    if args.trace:
        untraced, traced = passes
        metrics = layer_metrics(traced)
        for m in OVERHEAD:
            metrics[f"overhead.{m}"] = traced.values[m] - untraced.values[m]
        units = PER_LAYER
    else:
        metrics = dict(passes[0].values)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = max([vm_hwm_mb()] + [mb for ps in passes
                                                        for mb in ps.child_peaks])
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(), "setup_times": setup_times, "warmup_s": warmup_s,
        "passes": [{"values": ps.values, "walls": ps.walls} for ps in passes],
        "failures": failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-s{args.seed}-t{args.trace}")
    if args.trace:
        traced = passes[1]
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(traced.spans, fh)
        record["layers"] = {op: spans.summarize(s) for op, s in traced.spans.items()}
        # Each operation's wall time against the sum of its spans' self
        # times; for a CLI command the rest is interpreter start-up.
        record["accounting"] = {op: {"wall_s": traced.walls[op],
                                     "self_s_sum": sum(spans.self_times(s))}
                                for op, s in traced.spans.items()}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hsicaps", "__init__.py")):
        print(f"error: no hsicaps sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    _pin_blas_threads()
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")
    if args.setup_only:
        return _setup_child(args.workload, args.seed, args.setup_only)
    try:
        record = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in record["failures"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps({"correct": not record["failures"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

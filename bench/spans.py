"""Outside-in span recorder for the benchmark's traced runs.

The recorder replaces module attributes that the pipeline looks up at
call time (``spectral.triangular_index``, ``capsule.conv2d_batch``,
``autodiff.backward``, ...) with timing wrappers, so the program itself
is not edited. A span is ``[name, start, end, parent, attr]``: ``parent``
is the index of the enclosing span (-1 at the top) and ``attr`` an
optional number taken from the call (rows, patch bytes, tracemalloc
peak). Spans stay in memory until the run writes them out.
"""

import functools
import time
import tracemalloc
from collections import defaultdict


def _rows(pixels, *_a, **_k):
    return int(pixels.shape[0])


def _patches(_mdl, patches, *_a, **_k):
    return int(patches.shape[0])


def _patch_bytes(cube, coords, size, *_a, **_k):
    return len(coords) * size * size * cube.bands * 8


# (module, attribute, span name, attr taker or "tracemalloc")
TRACED = (
    ("data", "load_cube", "data.load_cube", None),
    ("data", "normalize_cube", "data.normalize_cube", None),
    ("data", "extract_patch_batch", "data.extract_patch_batch", _patch_bytes),
    ("spectral", "base_features", "spectral.base_features", _rows),
    ("spectral", "enhanced_features", "spectral.enhanced_features", None),
    ("spectral", "binary_index", "spectral.binary_index", None),
    ("spectral", "triangular_index", "spectral.triangular_index", None),
    ("spectral", "fit_triangular_cap", "spectral.fit_triangular_cap", None),
    ("capsule", "conv2d_batch", "capsule.conv2d_batch", None),
    ("capsule", "primary_capsules_batch", "capsule.primary_capsules_batch", None),
    ("capsule", "predict_vectors", "capsule.predict_vectors", None),
    ("capsule", "dynamic_routing", "capsule.dynamic_routing", None),
    ("model", "forward", "model.forward", _patches),
    ("model", "predict_lengths", "model.predict_lengths", None),
    ("autodiff", "backward", "autodiff.backward", None),
    ("training", "train", "training.train", None),
    ("training", "build_model", "training.build_model", None),
    ("training", "batch_loss", "training.batch_loss", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "save_checkpoint", "training.save_checkpoint", None),
    ("training", "load_checkpoint", "training.load_checkpoint", None),
    ("training", "predict_map", "training.predict_map", None),
    ("training", "gradcheck", "training.gradcheck", None),
    ("training", "finite_difference_gradient", "training.finite_difference_gradient", None),
    ("evaluation", "confusion", "evaluation.confusion", None),
    ("evaluation", "dunn_index", "evaluation.dunn_index", "tracemalloc"),
    ("evaluation", "r_squared", "evaluation.r_squared", None),
    ("evaluation", "vegetation_index", "evaluation.vegetation_index", None),
    ("evaluation", "shannon_entropy", "evaluation.shannon_entropy", None),
    ("cli", "_cmd_predict", "cli.predict", None),
    ("cli", "_cmd_evaluate", "cli.evaluate", None),
    ("cli", "_cmd_interpret", "cli.interpret", None),
)


class Recorder:
    """Collects spans from wrapped functions; single-threaded."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, module, attr, name, taker=None):
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            if taker == "tracemalloc":
                tracemalloc.start()
            elif taker is not None:
                span[4] = taker(*args, **kwargs)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if taker == "tracemalloc":
                    span[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, fn))

    def install(self):
        """Wrap every function in TRACED; returns self for chaining."""
        import importlib

        for mod_name, attr, name, taker in TRACED:
            module = importlib.import_module(f"hsicaps.{mod_name}")
            self.wrap(module, attr, name, taker)
        return self

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals clipped to the span."""
    children = defaultdict(list)
    for _n, start, end, parent, _a in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_n, start, end, _p, _a) in enumerate(spans):
        covered, cursor = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """name -> {calls, total_s, self_s, attr_sum, attr_max}."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "attr_sum": 0, "attr_max": 0})
    for (name, start, end, _p, attr), self_s in zip(spans, selfs):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
        if attr is not None:
            row["attr_sum"] += attr
            row["attr_max"] = max(row["attr_max"], attr)
    return dict(table)

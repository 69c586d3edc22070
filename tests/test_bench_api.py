"""The names and call forms that the benchmark (bench/) uses still exist.

The traced benchmark wraps ``hsicaps`` functions by module and attribute
name and calls a few of them positionally, so a rename or a changed
signature would otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

from hsicaps import data, model as model_mod, synthetic, training

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "spans.py")


def load_traced():
    """``TRACED`` of bench/spans.py, loaded by path without importing it
    as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for mod_name, attr, _span, _taker in traced:
        module = importlib.import_module(f"hsicaps.{mod_name}")
        assert callable(getattr(module, attr, None)), f"hsicaps.{mod_name}.{attr}"


# (function, positional arguments, keyword arguments) as bench/ calls them
CALL_FORMS = (
    (synthetic.make_separable_cube, (18, 18, 103, 9), {"seed": 1}),
    (training.gradcheck, (), {}),
    (model_mod.forward, ("model", "patches"), {}),
    (model_mod.predict_lengths, ("model", "patches"), {}),
    (data.extract_patch_batch, ("cube", "coords", "size"), {}),
    (training.build_model, ("cube", "labels", "split", "cfg"), {}),
)


@pytest.mark.parametrize("fn, args, kwargs", CALL_FORMS,
                         ids=[form[0].__name__ for form in CALL_FORMS])
def test_bench_call_forms_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)

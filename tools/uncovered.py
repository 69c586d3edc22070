"""List the statements of ``src/hsicaps`` that the test suite never runs.

This runs pytest in this process over ``tests/`` and ``bench/`` with a
line tracer on every frame whose code lies in ``src/hsicaps``, then prints
each statement whose first line never ran, as ``file:line: text``, and
their count. Docstrings, ``def`` and ``class`` lines and imports are not
listed. It only reports: it gates nothing, and CI does not run it. The
exit status is pytest's.

Run from the repository root:

    python3 tools/uncovered.py
"""

import ast
import os
import sys
import threading

# Checkpoint bytes depend on the BLAS thread count, so pin one thread
# before numpy loads, as CI does.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hsicaps")
sys.path.insert(0, os.path.join(ROOT, "src"))

NOT_LISTED = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(path) -> dict:
    """{line: text} of the first line of each listable statement of a module."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree, lines = ast.parse(source), source.splitlines()
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    return {node.lineno: lines[node.lineno - 1].strip() for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, NOT_LISTED)
            and node not in docstrings}


def main() -> int:
    ran = set()

    def on_line(frame, event, _arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, _event, _arg):
        return on_line if frame.f_code.co_filename.startswith(PACKAGE) else None

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            missed += [(os.path.relpath(path, ROOT), line, text)
                       for line, text in sorted(statements(path).items())
                       if (path, line) not in ran]
    for path, line, text in missed:
        print(f"{path}:{line}: {text}")
    print(f"{len(missed)} statements of src/hsicaps never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

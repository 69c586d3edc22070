"""Run one ``hsicaps`` CLI command in its own process for the benchmark.

Usage: python3 bench/cli_child.py REPORT_JSON TRACE(0|1) COMMAND [ARGS...]

Runs ``hsicaps.cli.main`` on the arguments, then writes REPORT_JSON with
the process's own peak RSS (VmHWM, which unlike
``ru_maxrss`` is not inherited from the parent across fork/exec) and,
with TRACE=1, the recorded spans. Exits with the command's code.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(argv) -> int:
    report_path, trace, args = argv[0], argv[1] == "1", argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hsicaps import cli

    recorder = None
    if trace:
        from spans import Recorder

        recorder = Recorder().install()
    code = cli.main(args)
    report = {"peak_rss_mb": vm_hwm_mb(),
              "spans": recorder.spans if recorder else []}
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

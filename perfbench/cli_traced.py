"""`python -m fstlearn.cli ARGS` with the benchmark's span tracer installed.

    python3 perfbench/cli_traced.py OUT.json ARGS...

cli-demo's traced run starts this in place of `python -m fstlearn.cli`.
It wraps each layer's public functions (workloads.trace_targets), runs
fstlearn.cli.main(ARGS) -- what `python -m fstlearn.cli` runs -- then
writes the spans and the counters derived from the wrapped calls to
OUT.json and exits with main's code. Its stdout is the CLI's alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import fstlearn.cli

import workloads
from spans import Tracer


def main(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install(workloads.trace_targets())
    try:
        code = fstlearn.cli.main(argv)
    finally:
        tracer.uninstall()
    record = {"spans": tracer.spans_as_dicts(), "counts": workloads.call_counts(tracer)}
    Path(out).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

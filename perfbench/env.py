"""Where the benchmark finds the program and its own description.

The benchmark runs from the root of a checkout and imports flowattest from
that checkout's ``src/``, never from an installed copy.
"""

from __future__ import annotations

import compileall
import importlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "flowattest")
OUT = os.path.join(ROOT, ".bench_out")

# Modules the workloads use; all of them are imported inside the timed import.
MODULES = ("flowattest", "flowattest.attacks", "flowattest.demos")


class MissingProgram(RuntimeError):
    pass


def build() -> None:
    """Byte-compile the package, so that every run times a warm import."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise MissingProgram(f"no flowattest package under {SRC}")
    compileall.compile_dir(PACKAGE, quiet=1)


def import_flowattest():
    """(the flowattest package, seconds of CPU time its import took)."""
    build()
    sys.path.insert(0, SRC)
    started = time.thread_time()
    for name in MODULES:
        importlib.import_module(name)
    elapsed = time.thread_time() - started
    fa = sys.modules["flowattest"]
    if os.path.dirname(os.path.abspath(fa.__file__)) != PACKAGE:
        raise MissingProgram(f"flowattest was imported from {fa.__file__}, not {PACKAGE}")
    return fa, elapsed


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)

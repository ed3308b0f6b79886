"""Spans around flowattest's public functions, installed from outside.

Modules import names directly (``from .cone import solve_cone``), so
wrapping a function in its defining module alone would miss most calls.
:meth:`Tracer.install` therefore replaces the function under every name
bound to it in every loaded ``flowattest`` module, which covers the
calls a module makes to its own functions as well.  Nothing under
``src/`` changes.

Spans (name, start, end, parent span) are kept in memory and written out
when the run ends; a span's self time is its duration minus the time its
child spans cover.  Span times are read from ``perf_counter_ns``, the
cheapest clock on the reference host (0.2 us a read, against 0.6 us for
the thread's CPU clock), because every span reads it twice.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns


def _count_nodes(counts, graph):
    counts["expand.nodes"] += len(graph)


def _count_candidates(counts, db):
    counts["database.candidates"] += sum(len(c) for c in db.entries.values())


def _count_lp(counts, solution):
    counts["cone.lp_solves"] += solution.lp_solves


def _count_verdict(counts, result):
    counts["verify.candidates_tried"] += result.candidates_tried
    counts["verify.solver_calls"] += result.solver_calls
    counts["verify.cache_hits"] += result.cache_hit


def _count_mutants(counts, mutants):
    counts["attacks.mutants"] += len(mutants)


# (defining module, function, span name, count hook on the return value)
LAYERS = (
    ("flowattest.cfg", "validate_trace", "cfg.validate_trace", None),
    ("flowattest.events", "delta_map", "events.delta_map", None),
    ("flowattest.events", "project", "events.project", None),
    ("flowattest.expand", "expand", "expand.expand", _count_nodes),
    ("flowattest.database", "enumerate_segments", "database.enumerate_segments", _count_candidates),
    ("flowattest.database", "dedup_key", "database.dedup_key", None),
    ("flowattest.vectors", "vsum", "vectors.vsum", None),
    ("flowattest.cone", "solve_cone", "cone.solve_cone", _count_lp),
    ("flowattest.lattice", "lattice_basis", "lattice.lattice_basis", None),
    ("flowattest.verify", "verify_segment", "verify.verify_segment", _count_verdict),
    ("flowattest.simulate", "measure", "simulate.measure", None),
    ("flowattest.simulate", "measure_segment", "simulate.measure_segment", None),
    ("flowattest.simulate", "random_valid_walk", "simulate.random_valid_walk", None),
    ("flowattest.attacks", "evaluate", "attacks.evaluate", None),
    ("flowattest.attacks", "mutate", "attacks.mutate", _count_mutants),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0)
        self.end.append(0)
        self._open.append(index)
        return index

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one operation."""
        index = self._begin(self._id(name))
        self.start[index] = perf_counter_ns()
        try:
            yield
        finally:
            self.end[index] = perf_counter_ns()
            self._open.pop()

    def _wrap(self, fn, name: str, hook):
        nid = self._id(name)
        begin, opened, start, end, counts = self._begin, self._open, self.start, self.end, self.counts

        @wraps(fn)
        def traced(*args, **kwargs):
            index = begin(nid)
            start[index] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                opened.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function under every name bound to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "flowattest"]
        for module_name, attr, span_name, hook in LAYERS:
            fn = getattr(sys.modules[module_name], attr)
            traced = self._wrap(fn, span_name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)
                        self._patched.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in self._patched:
            setattr(module, key, fn)
        self._patched.clear()

    def self_times(self) -> list[int]:
        """Per span: duration minus the time its child spans cover (ns)."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": [list(row) for row in zip(self.name, self.start, self.end, self.parent)],
                    "counts": dict(sorted(self.counts.items())),
                },
                out,
                separators=(",", ":"),
            )

"""Online segment verification against a precomputed database.

A session walks a measurement sequence in order, keeping the set of call
stacks the program could feasibly be in.  Each measurement is accepted when
some candidate path whose entry stack is feasible explains the counter
delta exactly (integer-cone membership); the feasible set then becomes the
union of the exit stacks of *all* accepting candidates, so the outcome
never depends on candidate iteration order.  The first rejection freezes
the session.

An accepted observation (same endpoints, same measured values, same
feasible entry stacks) is stored in the session's cache, keyed by content,
with its accepting candidates, witness and feasible-set update; a repeat
is answered from there with exactly what deciding it again would give.  A
rejection is never stored: nothing can follow it in its session.

:func:`verify_segment` and :func:`prober` read one candidate table per
register file and segment: built on the segment's first verification by
:func:`_table` and memoized on the database, in ``db._projected[config]
[key]`` (``config`` is ``None`` for the identity file), it holds one row
per candidate, in database order, with everything the per-delta work
needs resolved once: the candidate id, the entry and exit stacks, the
loop count, the projected base, the deduplicated nonzero projected loop
vectors (the generators) with the witness remap, the lone generator's
pivot, and one :class:`~flowattest.cone.Reach` map per candidate with two
or more generators.  A candidate is decided by its shape: generator-free,
it accepts exactly its base; with one generator, by one floor division
and a componentwise check (:func:`~flowattest.cone.single_generator_count`,
the count ``solve_cone``'s root propagation would force); with two or
more, a zero residual accepts with zero counts, one the row's map covers
is answered by bit reads (the map grows with the residuals its candidate
is asked about, and its answers are ``solve_cone``'s), and only the rest
reach ``solve_cone``.  The table lives as long as the database object, is
shared by every session and prober over it, and is invisible to the
database's equality and serialization.

A session walks the rows whose entry stack is feasible, one C-level
subtraction and sign test per row, and counts one solver call per
nonnegative residual whatever the shape decides, so its counts are the
ones every candidate going through ``solve_cone`` would give.

:func:`prober` is the verdict alone, for probes such as the attack
harness's mutants: built once for a segment's endpoints and the feasible
entry stacks it is checked against, it resolves the skip rule and the
feasible-stack filter up front and groups the table's rows by shape, so
each delta costs one set lookup for all generator-free candidates, one
division per single-generator candidate, and a subtraction, a sign test
and a map read (``Reach.reaches``, or ``solve_cone`` for a residual the
map cannot cover) per candidate with two or more generators, until the
first accepting one.  It keeps no session, result or cache.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import sub
from typing import NamedTuple

from .cfg import Measurement
from .cone import Reach, first_positive, single_generator_count, solve_cone
from .database import DedupKey, SegmentDatabase, dedup_key
from .errors import SchemaError
from .events import CounterConfig, project
from .expand import CallStack
from .vectors import Vec


@dataclass(slots=True)
class VerificationResult:
    """One decided segment.  A plain slotted record: one is built per
    measurement, and nothing hashes it."""

    verdict: str  # "accepted" | "rejected"
    reason: str | None = None
    accepting: tuple[str, ...] = ()
    witness: tuple[int, ...] | None = None
    cache_hit: bool = False
    candidates_tried: int = 0
    solver_calls: int = 0
    solver_nodes: int = 0
    elapsed: float = 0.0


@dataclass
class SessionState:
    """Mutable per-session verification state; single-writer by contract.

    ``cache`` maps each accepted observation's dedup key to its accepting
    candidate ids, witness and the feasible set after it."""

    db: SegmentDatabase
    config: CounterConfig | None = None
    feasible: frozenset[CallStack] | None = field(default_factory=lambda: frozenset({()}))
    rejected: bool = False
    cache: dict[DedupKey, tuple[tuple[str, ...], tuple[int, ...], frozenset[CallStack]]] = field(
        default_factory=dict
    )
    cache_hits: int = 0
    cache_lookups: int = 0

    def __post_init__(self):
        _check_config(self.db, self.config)


def _check_config(db: SegmentDatabase, config: CounterConfig | None) -> None:
    if config is not None and config.counter_names != db.counters:
        raise SchemaError(
            "counter config was built for a different counter list than the database"
        )


def _check_dimension(delta: Vec, expected: int) -> None:
    if len(delta) != expected:
        raise SchemaError(
            f"measurement delta has dimension {len(delta)}, session expects {expected}"
        )


class _Row(NamedTuple):
    """One candidate of a segment as the verifier reads it, under one
    register file.  ``generators`` are the distinct nonzero projected loop
    vectors and ``owner`` gives, for each, the first loop index carrying it;
    ``pivot`` is the lone generator's :func:`~flowattest.cone.first_positive`
    index (None for any other number of generators) and ``reach`` the map
    of two or more generators (None for fewer)."""

    cid: str
    entry_stack: CallStack
    exit_stack: CallStack
    loop_count: int
    base: Vec
    generators: tuple[Vec, ...]
    owner: tuple[int, ...]
    pivot: int | None
    reach: Reach | None


def _table(db: SegmentDatabase, config: CounterConfig | None, key) -> tuple[_Row, ...]:
    """The candidate table of segment ``key`` under ``config``: one row per
    candidate, in database order, built on the key's first verification and
    memoized on the database.  A segment the database never connected has
    no rows, and nothing is stored for it."""
    try:
        return db._projected[config][key]
    except KeyError:
        pass
    candidates = db.entries.get(key)
    if not candidates:
        return ()
    rows = []
    for index, cand in enumerate(candidates):
        base = project(config, cand.base) if config is not None else cand.base
        owner: dict[Vec, int] = {}
        for j, loop in enumerate(cand.loops):
            pv = project(config, loop) if config is not None else loop
            if any(pv):
                owner.setdefault(pv, j)
        generators = tuple(owner)
        rows.append(
            _Row(
                db.candidate_id(key, index),
                cand.start.stack,
                cand.end.stack,
                len(cand.loops),
                base,
                generators,
                tuple(owner.values()),
                first_positive(generators[0]) if len(generators) == 1 else None,
                Reach(generators) if len(generators) >= 2 else None,
            )
        )
    rows = db._projected.setdefault(config, {})[key] = tuple(rows)
    return rows


def verify_segment(state: SessionState, m: Measurement) -> VerificationResult:
    """Decide one measurement and fold its effect into the session."""
    if state.rejected:
        raise RuntimeError("session is already rejected; state is frozen")
    started = time.perf_counter()
    db, config = state.db, state.config
    key = (m.start, m.end)
    _check_dimension(m.delta, config.dimension if config is not None else db.dimension)

    if key in db.skip_segments:
        # Recursion workaround regions verify vacuously; the feasible set
        # becomes whatever the candidates say, or unconstrained if the
        # database never connected the pair.
        candidates = db.entries.get(key, ())
        state.feasible = frozenset(c.end.stack for c in candidates) or None
        return VerificationResult(
            verdict="accepted",
            reason="skip",
            accepting=tuple(db.candidate_id(key, i) for i in range(len(candidates))),
            elapsed=time.perf_counter() - started,
        )

    cache_key = dedup_key(m.start, m.end, m.delta, state.feasible)
    state.cache_lookups += 1
    hit = state.cache.get(cache_key)
    if hit is not None:
        state.cache_hits += 1
        accepting, witness, state.feasible = hit
        return VerificationResult(
            verdict="accepted",
            accepting=accepting,
            witness=witness,
            cache_hit=True,
            elapsed=time.perf_counter() - started,
        )

    tried = solver_calls = solver_nodes = 0
    feasible, delta = state.feasible, m.delta
    accepting = []
    exits: set[CallStack] = set()
    witness: tuple[int, ...] | None = None
    for cid, entry_stack, exit_stack, loop_count, base, generators, owner, pivot, reach in _table(
        db, config, key
    ):
        if feasible is not None and entry_stack not in feasible:
            continue
        tried += 1
        target = tuple(map(sub, delta, base))
        # An empty residual (a database of no counters) is nonnegative.
        if target and min(target) < 0:
            continue
        # One solver call per nonnegative residual, decided by the shape:
        # a generator-free candidate accepts exactly its base, a single
        # generator is one division, and two or more read the row's map
        # (a zero residual needs none) before the cone, as a probe does.
        solver_calls += 1
        if pivot is not None:
            count = single_generator_count(target, generators[0], pivot)
            if count is None:
                continue
            counts: tuple[int, ...] = (count,)
        elif not generators:
            if any(target):
                continue
            counts = ()
        else:
            if not any(target):
                counts = (0,) * len(generators)
            elif reach.covers(target):
                counts = reach.witness(target)
            else:
                solution = solve_cone(target, generators)
                solver_nodes += solution.lp_solves
                counts = solution.witness
            if counts is None:
                continue
        accepting.append(cid)
        exits.add(exit_stack)
        if witness is None:
            full = [0] * loop_count
            for value, j in zip(counts, owner):
                full[j] = value
            witness = tuple(full)

    accepting = tuple(accepting)
    if accepting:
        verdict, reason = "accepted", None
        state.feasible = frozenset(exits)
        state.cache[cache_key] = (accepting, witness, state.feasible)
    else:
        # A measurement between points the database never connected is
        # itself a control-flow violation, not a lookup error.
        verdict = "rejected"
        if tried:
            reason = "cone-infeasible"
        else:
            reason = "no-feasible-stack" if key in db.entries else "no-such-segment"
        state.rejected = True
    return VerificationResult(
        verdict=verdict,
        reason=reason,
        accepting=accepting,
        witness=witness,
        candidates_tried=tried,
        solver_calls=solver_calls,
        solver_nodes=solver_nodes,
        elapsed=time.perf_counter() - started,
    )


def prober(
    db: SegmentDatabase,
    start: str,
    end: str,
    feasible: frozenset[CallStack] | None,
    *,
    config: CounterConfig | None = None,
) -> Callable[[Vec], bool]:
    """The verdict alone, for many deltas of one segment: a function that
    tells whether a session whose feasible entry stacks are ``feasible``
    would accept the measurement ``start`` -> ``end`` with a given delta.

    Exactly ``verify_segment``'s verdict, from the same candidate table,
    but the config check, the skip test, the table lookup, the
    feasible-stack filter and the grouping of rows by shape are done once,
    here, and each call stops at the first
    accepting candidate and keeps no session, result or cache: a probe
    that only counts rejections needs neither the accepting set nor the
    feasible-set update.  A skipped segment accepts every delta, an unknown
    one rejects every delta, and a delta of the wrong dimension raises
    :class:`SchemaError`.
    """
    _check_config(db, config)
    expected = config.dimension if config is not None else db.dimension
    key = (start, end)
    skipped = key in db.skip_segments
    # Rows by shape: a generator-free one accepts exactly its base, a
    # single-generator one the base plus a multiple of its generator, and
    # only the rest need their map.  Any accepting candidate decides the
    # verdict, so the order of the groups cannot change it.
    bases: set[Vec] = set()
    singles: list[tuple[Vec, Vec, int]] = []
    cones: list[tuple[Vec, tuple[Vec, ...], Reach]] = []
    if not skipped:
        for row in _table(db, config, key):
            if feasible is not None and row.entry_stack not in feasible:
                continue
            if not row.generators:
                bases.add(row.base)
            elif row.pivot is not None:
                singles.append((row.base, row.generators[0], row.pivot))
            else:
                cones.append((row.base, row.generators, row.reach))

    def probe(delta: Vec) -> bool:
        if len(delta) != expected:
            _check_dimension(delta, expected)
        if skipped or delta in bases:
            return True
        for base, generator, pivot in singles:
            if single_generator_count(tuple(map(sub, delta, base)), generator, pivot) is not None:
                return True
        for base, generators, reach in cones:
            # The nonnegativity test spares the solver every residual that
            # no cone point can reach (an empty residual, of a database of
            # no counters, is nonnegative).  A residual the map covers is
            # one bit read; a zero one is accepted first, since a map whose
            # box admits no generator reaches nothing, not even the origin.
            target = tuple(map(sub, delta, base))
            if target and min(target) < 0:
                continue
            if not any(target):
                return True
            if reach.covers(target):
                if reach.reaches(target):
                    return True
            elif solve_cone(target, generators).witness is not None:
                return True
        return False

    return probe


@dataclass
class SessionReport:
    results: list[VerificationResult]
    measurements: list[Measurement]
    rejected_at: int | None
    state: SessionState

    @property
    def accepted(self) -> bool:
        return self.rejected_at is None

    @property
    def accepted_count(self) -> int:
        return sum(1 for r in self.results if r.verdict == "accepted")


def verify_trace_measurements(
    db: SegmentDatabase,
    measurements: list[Measurement],
    *,
    config: CounterConfig | None = None,
) -> SessionReport:
    """Fold a measurement sequence through a fresh session, stopping at the
    first rejection.

    The sequence must be contiguous (each segment starts where the previous
    one ended); a gap indicates a malformed file rather than an attack and
    raises instead of rejecting.
    """
    for a, b in zip(measurements, measurements[1:]):
        if a.end != b.start:
            raise SchemaError(
                f"measurement sequence is not contiguous: segment ending at "
                f"'{a.end}' is followed by one starting at '{b.start}'"
            )
    state = SessionState(db, config)
    results: list[VerificationResult] = []
    rejected_at: int | None = None
    for index, m in enumerate(measurements):
        result = verify_segment(state, m)
        results.append(result)
        if result.verdict == "rejected":
            rejected_at = index
            break
    return SessionReport(
        results=results,
        measurements=measurements,
        rejected_at=rejected_at,
        state=state,
    )


def report_document(report: SessionReport, *, include_timings: bool = False) -> dict:
    """Machine-readable session report.

    Timings are excluded by default so that identical inputs produce
    byte-identical output.
    """
    segments = []
    for index, (result, m) in enumerate(zip(report.results, report.measurements)):
        record: dict = {
            "index": index,
            "start": m.start,
            "end": m.end,
            "verdict": result.verdict,
            "candidates_tried": result.candidates_tried,
            "solver_calls": result.solver_calls,
            "solver_nodes": result.solver_nodes,
            "cache_hit": result.cache_hit,
        }
        if result.reason is not None:
            record["reason"] = result.reason
        if result.witness is not None:
            record["witness"] = list(result.witness)
        if include_timings:
            record["elapsed"] = result.elapsed
        segments.append(record)
    state = report.state
    lookups = state.cache_lookups
    summary = {
        "segments": len(report.measurements),
        "accepted": report.accepted_count,
        "rejected_at": report.rejected_at,
        "cache_hits": state.cache_hits,
        "cache_lookups": lookups,
        "cache_hit_ratio": (
            f"{state.cache_hits / lookups:.6f}" if lookups else "0.000000"
        ),
        "solver_calls": sum(r.solver_calls for r in report.results),
        "solver_nodes": sum(r.solver_nodes for r in report.results),
    }
    return {"segments": segments, "summary": summary}


def render_report(report: SessionReport) -> str:
    lines = []
    for index, (result, m) in enumerate(zip(report.results, report.measurements)):
        extra = f" ({result.reason})" if result.reason else ""
        cached = " [cached]" if result.cache_hit else ""
        lines.append(
            f"segment {index:4d}  {m.start} -> {m.end}  {result.verdict}{extra}{cached}  "
            f"tried={result.candidates_tried} solver_calls={result.solver_calls} "
            f"nodes={result.solver_nodes} elapsed={result.elapsed * 1000:.2f}ms"
        )
    state = report.state
    verdict = "ACCEPTED" if report.accepted else f"REJECTED at segment {report.rejected_at}"
    ratio = state.cache_hits / state.cache_lookups if state.cache_lookups else 0.0
    lines.append(
        f"session: {verdict}; {report.accepted_count}/{len(report.measurements)} segments "
        f"accepted; cache hit ratio {ratio:.4f}"
    )
    return "\n".join(lines)

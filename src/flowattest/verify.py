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

:func:`prober` is the verdict alone, for probes such as the attack
harness's mutants: built once for a segment's endpoints and the feasible
entry stacks it is checked against, it resolves the skip rule, the
projected candidates and the feasible-stack filter up front, so each delta
it is asked about costs one vector subtraction, a sign test and a cone
lookup per candidate until the first accepting one; it keeps no session,
result or cache.  :func:`accepts` is one probe of one measurement.  Both
the prober and :func:`verify_segment` take a segment's candidates from one
selection, :func:`_feasible_candidates`, after the same config and
dimension checks and skip rule.

Each candidate's base and loop vectors are projected through the register
file once per database and file: the database memoizes, per
``CounterConfig`` (``None`` for the identity file) and segment key, the
projected base, the deduplicated nonzero generators and the witness remap
of every candidate, plus one :class:`~flowattest.cone.Reach` map per
candidate with two or more generators (a single generator is always
decided by the cone solver's propagation).  Each map grows with the
residuals its candidate is asked about, so a repeated or smaller residual
is answered by bit reads; the answers are the ones ``solve_cone`` gives
without a map.  The memo fills on a segment key's first verification,
lives as long as the database object, is shared by every session over
it, and is invisible to the database's equality and serialization.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from .cfg import Measurement
from .cone import Reach, solve_cone
from .database import DedupKey, PathCandidate, SegmentDatabase, dedup_key
from .errors import SchemaError
from .events import CounterConfig, project
from .expand import CallStack
from .vectors import Vec, is_nonneg, vsub


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


def _project_candidate(config: CounterConfig | None, cand: PathCandidate):
    """(projected base, deduplicated nonzero projected loop vectors, witness
    remap, reachability map): the remap gives, for each generator, the first
    loop index carrying it; the map is None for fewer than two generators,
    which root propagation always decides by itself."""
    base = project(config, cand.base) if config is not None else cand.base
    owner: dict[Vec, int] = {}
    for j, loop in enumerate(cand.loops):
        pv = project(config, loop) if config is not None else loop
        if any(pv):
            owner.setdefault(pv, j)
    generators = tuple(owner)
    reach = Reach(generators) if len(generators) >= 2 else None
    return base, generators, tuple(owner.values()), reach


def _feasible_candidates(db: SegmentDatabase, config: CounterConfig | None, key, feasible):
    """The one candidate selection: each candidate of ``key`` whose entry
    stack is in ``feasible`` (None: any), in database order, as (index,
    candidate, its projection under ``config``), the projection being
    ``_project_candidate``'s, memoized on the database.  A segment the
    database never connected has no candidates."""
    candidates = db.entries.get(key)
    if not candidates:
        return
    per_key = db._projected.setdefault(config, {})
    projected = per_key.get(key)
    if projected is None:
        projected = per_key[key] = tuple(_project_candidate(config, c) for c in candidates)
    for index, (cand, proj) in enumerate(zip(candidates, projected)):
        if feasible is None or cand.start.stack in feasible:
            yield index, cand, proj


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
    accepting = []
    exits: set[CallStack] = set()
    witness: tuple[int, ...] | None = None
    for index, cand, (base, generators, owner, reach) in _feasible_candidates(
        db, config, key, state.feasible
    ):
        tried += 1
        target = vsub(m.delta, base)
        if not is_nonneg(target):
            continue
        solution = solve_cone(target, generators, reach)
        solver_calls += 1
        solver_nodes += solution.lp_solves
        if solution.witness is None:
            continue
        accepting.append(db.candidate_id(key, index))
        exits.add(cand.end.stack)
        if witness is None:
            full = [0] * len(cand.loops)
            for value, j in zip(solution.witness, owner):
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

    Exactly ``verify_segment``'s verdict, from the same candidate selection,
    but the config check, the skip test, the projection lookup and the
    feasible-stack filter are done once, here, and each call stops at the
    first accepting candidate and keeps no session, result or cache: a probe
    that only counts rejections needs neither the accepting set nor the
    feasible-set update.  A skipped segment accepts every delta, an unknown
    one rejects every delta, and a delta of the wrong dimension raises
    :class:`SchemaError`.
    """
    _check_config(db, config)
    expected = config.dimension if config is not None else db.dimension
    key = (start, end)
    skipped = key in db.skip_segments
    trials = [] if skipped else [
        (base, generators, reach)
        for _, _, (base, generators, _, reach) in _feasible_candidates(db, config, key, feasible)
    ]

    def probe(delta: Vec) -> bool:
        _check_dimension(delta, expected)
        if skipped:
            return True
        for base, generators, reach in trials:
            # The nonnegativity test spares the solver every residual that
            # no cone point can reach.
            target = vsub(delta, base)
            if is_nonneg(target) and solve_cone(target, generators, reach).witness is not None:
                return True
        return False

    return probe


def accepts(
    db: SegmentDatabase,
    m: Measurement,
    feasible: frozenset[CallStack] | None,
    *,
    config: CounterConfig | None = None,
) -> bool:
    """Whether a session whose feasible entry stacks are ``feasible`` would
    accept ``m``: :func:`prober`'s verdict on one measurement."""
    return prober(db, m.start, m.end, feasible, config=config)(m.delta)


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

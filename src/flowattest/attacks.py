"""Mutation experiments and reliability metrics.

Five mutation classes probe the verifier with traces whose control flow has
genuinely been violated: block-level edits (replace, replace-with-unique,
insert-unique, remove) change one interior block of a valid segment, while
``random_change`` perturbs the measured counter values directly, modeling
injected code.  Block-level mutants that would still be structurally valid
walks are discarded - those are not violations.  One edit can only break
a valid segment through the adjacent pairs it creates or a zero-length
inserted block, and it changes the segment's measurement by exactly the
removed and inserted blocks' deltas, so neither the check nor the
measurement revisits the rest of the segment.  Mutants are deduplicated
and seed-deterministic; when a segment admits fewer distinct mutants than
the requested repetitions, all of them are used.  The blocks an edit may
draw from are listed once per evaluation, and each edit site's blocks
that would still make a valid step are listed once per site.  A mutant
is a counter delta plus an edit: the delta it shows the verifier, the
segment's endpoints (one tuple shared by all of a segment's mutants)
and, for block-level kinds, the replaced span and the inserted block
over the segment's own step tuple.  :attr:`Mutant.measurement` and
:attr:`Mutant.steps` are built only when asked, and :func:`evaluate`
asks for neither.  :func:`mutate` takes each segment with its
measurement and validates nothing: :func:`evaluate` passes the
measurements of :func:`~flowattest.cfg.split_trace`'s segments, which
that split has already checked.

Each mutant is a probe that asks the verifier for its verdict alone, from
the feasible call stacks the segment starts from in the valid run.  A
verdict depends only on the segment's endpoints, those stacks and the
mutant's delta, so :func:`evaluate` builds one
:func:`flowattest.verify.prober` per segment class (endpoints and feasible
stacks), which resolves and sorts the candidates once (generator-free
bases in one set, single generators by one division, the rest through
the cone solver) and stops at the first accepting one, and keeps one
table of verdicts per prober, by delta.  Both live only for one call.
Only the valid run itself goes through a full session.  Block deltas come from :func:`flowattest.events.delta_map`,
projected through the register file once per program and file, and a
mutation seeds a random generator only where it draws.

Reliability is "fraction of mutants the verifier rejects", summarized two
ways: ``metric_uniform`` averages per-segment rates evenly and
``metric_weighted`` weighs each segment by its original instruction count,
which exposes a single long undefended segment that the uniform average
hides.  Segments that repeat (in-loop measurement points) are evaluated
once and weighted by their occurrence frequency.  Both metrics are exact
fractions built from integer sums.

``random_change`` perturbs each counter independently by a uniform integer
in [-floor(v/10), +floor(v/10)]; this per-counter policy is recorded in the
report header.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import gcd
from operator import add, sub

from .cfg import (
    AnnotatedCfg,
    BlockTrace,
    Measurement,
    segment_instruction_counts,
    split_trace,
)
from .database import SegmentDatabase
from .errors import FlowAttestError, SchemaError
from .events import CounterConfig, EventTable, delta_map
from .expand import CallStack
from .simulate import measure_segment
from .vectors import Vec
from .verify import SessionState, prober, verify_segment

MUTATION_KINDS = (
    "replace_block",
    "replace_unique",
    "insert_unique",
    "remove_block",
    "random_change",
)

RANDOM_CHANGE_POLICY = "independent-per-counter"

# Kinds that draw only blocks whose delta no other block shares.
_UNIQUE_KINDS = ("replace_unique", "insert_unique")

_DEFAULT_REPS = {
    "replace_block": 1000,
    "replace_unique": 1000,
    "insert_unique": 100,
    "remove_block": 100,
    "random_change": 100,
}


@dataclass(frozen=True)
class MutationSpec:
    kind: str
    repetitions: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MUTATION_KINDS:
            raise SchemaError(f"unknown mutation kind '{self.kind}'")
        if self.repetitions is not None and self.repetitions < 1:
            raise SchemaError("repetitions must be >= 1")

    @property
    def reps(self) -> int:
        return self.repetitions if self.repetitions is not None else _DEFAULT_REPS[self.kind]


@dataclass(slots=True, eq=False)
class Mutant:
    """The counter delta a mutant shows the verifier between the segment's
    endpoints ``ends`` (first and last block) and, for block-level kinds,
    the edit that produces it: ``segment``'s steps ``start:stop`` replaced
    by ``inserted`` (nothing, for ``None``).  ``ends`` and ``segment`` are
    the valid segment's own tuples, shared and never copied;
    :attr:`measurement` and :attr:`steps` are built only when asked.  A
    plain slotted record: many are built per evaluation, and nothing hashes
    one.  Two mutants are equal when their measurements and edited steps
    are."""

    delta: Vec
    ends: tuple[str, str]
    segment: tuple[str, ...] | None = None
    start: int = 0
    stop: int = 0
    inserted: str | None = None

    @property
    def measurement(self) -> Measurement:
        """The measurement the mutant shows the verifier."""
        first, last = self.ends
        return Measurement(first, last, self.delta)

    @property
    def steps(self) -> tuple[str, ...] | None:
        """The edited block sequence, or None for ``random_change``."""
        segment = self.segment
        if segment is None:
            return None
        middle = () if self.inserted is None else (self.inserted,)
        return segment[: self.start] + middle + segment[self.stop :]

    def __eq__(self, other):
        if not isinstance(other, Mutant):
            return NotImplemented
        return self.measurement == other.measurement and self.steps == other.steps


@dataclass
class SegmentOutcome:
    first_index: int
    frequency: int
    instruction_count: int
    attempted: int
    detected: int
    excluded: bool = False
    exclusion_reason: str | None = None

    @property
    def rate(self) -> Fraction:
        return Fraction(self.detected, self.attempted) if self.attempted else Fraction(0)


@dataclass
class ReliabilityReport:
    kind: str
    seed: int
    per_segment: dict[int, SegmentOutcome]
    metric_uniform: Fraction
    metric_weighted: Fraction


def combine_rates(outcomes: list[SegmentOutcome]) -> tuple[Fraction, Fraction]:
    """Both reliability metrics over the included segments, exactly.

    Frequencies multiply through both sums, so evaluating a repeated
    segment once is identical to scoring every occurrence.  Every rate is
    scaled to ``scale``, the ``lcm`` of the ``attempted`` counts seen so
    far, which grows during the one pass over the outcomes (the sums so
    far grow with it), so both sums are over integers and each metric is
    one ``Fraction``.
    """
    scale = 1
    included = total_freq = weight = uniform = weighted = 0
    for o in outcomes:
        if o.excluded:
            continue
        included += 1
        frequency = o.frequency
        size = frequency * o.instruction_count
        total_freq += frequency
        weight += size
        attempted = o.attempted
        if attempted:  # a segment with no attempts rates 0
            if scale % attempted:
                grow = attempted // gcd(scale, attempted)
                scale *= grow
                uniform *= grow
                weighted *= grow
            rate = o.detected * (scale // attempted)
            uniform += rate * frequency
            weighted += rate * size
    if not included:
        return Fraction(0), Fraction(0)
    if weight == 0:
        return Fraction(uniform, scale * total_freq), Fraction(0)
    return Fraction(uniform, scale * total_freq), Fraction(weighted, scale * weight)


def _unique_delta_blocks(cfg: AnnotatedCfg, deltas: Mapping[str, Vec]) -> list[str]:
    """Non-measurement blocks whose projected delta no other block shares."""
    tally: dict[Vec, int] = {}
    for v in deltas.values():
        tally[v] = tally.get(v, 0) + 1
    points = cfg.points
    return sorted(bid for bid, v in deltas.items() if tally[v] == 1 and bid not in points)


def _block_pool(cfg: AnnotatedCfg) -> list[str]:
    return sorted(cfg.blocks.keys() - cfg.points)


def _breaking_edits(cfg: AnnotatedCfg, steps: tuple[str, ...], kind: str, pool: list[str]):
    """Every distinct interior edit of a valid segment that breaks its
    validity, grouped by edit site, in a deterministic order.

    Yields (start, stop, removed block, inserted blocks): each inserted
    block (``None`` for a plain removal) makes the edited steps
    ``steps[:start] + (block,) + steps[stop:]``.  The endpoints and every
    untouched adjacent pair stay valid, so an edit breaks the segment only
    through a pair it creates that is not an edge, or an inserted block
    with no instructions.  Inserting a block just after a copy of itself
    gives the same steps as inserting it just before that copy, so only
    the first of such inserts is listed; removals and replacements at
    different sites or with different blocks always differ.
    """
    pairs = cfg.edge_pairs

    def fitting(before: str, after: str) -> set[str]:
        """The blocks that make a valid step between ``before`` and
        ``after``: successors of ``before`` with an edge to ``after`` and
        at least one instruction."""
        return {
            e.dst
            for e in cfg.succ[before]
            if (e.dst, after) in pairs and e.dst not in cfg.zero_blocks
        }

    interior = range(1, len(steps) - 1)
    if kind == "remove_block":
        for pos in interior:
            if (steps[pos - 1], steps[pos + 1]) not in pairs:
                yield pos, pos + 1, steps[pos], (None,)
    elif kind in ("replace_block", "replace_unique"):
        for pos in interior:
            before, replaced, after = steps[pos - 1 : pos + 2]
            fit = fitting(before, after)
            blocks = [bid for bid in pool if bid != replaced and bid not in fit]
            if blocks:
                yield pos, pos + 1, replaced, blocks
    elif kind == "insert_unique":
        for gap in range(1, len(steps)):
            before, after = steps[gap - 1], steps[gap]
            fit = fitting(before, after)
            blocks = [
                bid for bid in pool if bid not in fit and not (gap >= 2 and bid == before)
            ]
            if blocks:
                yield gap, gap, None, blocks
    else:  # pragma: no cover - guarded by MutationSpec
        raise SchemaError(f"'{kind}' has no sequence variants")


def mutate(
    cfg: AnnotatedCfg,
    deltas: Mapping[str, Vec],
    segment: BlockTrace,
    spec: MutationSpec,
    pool: list[str],
    *,
    measurement: Measurement,
) -> list[Mutant]:
    """Distinct, seed-deterministic mutants of one valid segment.

    ``deltas`` maps every block to its delta as the verifier measures it
    (projected through the register file in use), and ``measurement`` is
    the segment's own measurement, which vouches for the segment: it is
    taken as validated, as :func:`~flowattest.cfg.split_trace` leaves it.
    ``pool`` lists the blocks an edit may insert: every non-measurement
    block, or for the unique-delta kinds only those whose delta no other
    block shares (:func:`evaluate` lists both once per evaluation;
    ``random_change`` draws no blocks).  Block-level kinds edit interior
    positions only (endpoints identify the segment) and keep only edits
    that break structural validity.  ``random_change`` perturbs the
    measurement directly.  An empty result means the segment admits no
    applicable mutation.
    """
    reps = spec.reps
    ends, values = (measurement.start, measurement.end), measurement.delta
    if spec.kind == "random_change":
        bounds = [v // 10 for v in values]
        space = 1
        for b in bounds:
            space *= 2 * b + 1
        space -= 1  # the all-zero perturbation is not a change
        if space <= 0:
            return []
        if space <= reps:
            # Every nonzero perturbation, the last counter varying fastest.
            ranges = (range(-b, b + 1) for b in bounds)
            perturbations = [u for u in product(*ranges) if any(u)]
        else:
            # ``randrange(2b+1) - b`` draws what ``randint(-b, b)`` draws:
            # both consume one ``_randbelow(2b+1)``.
            randrange = random.Random(spec.seed).randrange
            widths = [(2 * b + 1, b) for b in bounds]
            seen: set[tuple[int, ...]] = set()
            perturbations = []
            while len(perturbations) < reps:
                u = tuple([randrange(w) - b for w, b in widths])
                if any(u) and u not in seen:
                    seen.add(u)
                    perturbations.append(u)
        return [Mutant(tuple(map(add, values, u)), ends) for u in perturbations]

    steps = segment.steps
    # Draw edit indices first (``random.sample`` reads only the population's
    # length); each drawn edit is kept as itself, over the segment's own
    # steps.  A generator is seeded only where a draw is made.
    sites = list(_breaking_edits(cfg, steps, spec.kind, pool))
    bounds = list(accumulate(len(site[3]) for site in sites))
    total = bounds[-1] if bounds else 0
    picks = random.Random(spec.seed).sample(range(total), reps) if total > reps else range(total)
    mutants = []
    for pick in picks:
        index = bisect_right(bounds, pick)
        start, stop, removed, blocks = sites[index]
        inserted = blocks[pick - bounds[index] + len(blocks)]
        delta = values if removed is None else tuple(map(sub, values, deltas[removed]))
        if inserted is not None:
            delta = tuple(map(add, delta, deltas[inserted]))
        mutants.append(Mutant(delta, ends, steps, start, stop, inserted))
    return mutants


@dataclass
class _SegmentClass:
    segment: BlockTrace
    measurement: Measurement
    feasible: frozenset[CallStack] | None
    first_index: int
    instruction_count: int
    frequency: int = 1


def _segment_classes(
    cfg: AnnotatedCfg,
    db: SegmentDatabase,
    table: EventTable,
    trace: BlockTrace,
    config: CounterConfig | None,
) -> list[_SegmentClass]:
    """Group the trace's segments by (steps, measurement, feasible state),
    replaying the valid run to capture the session state each segment sees."""
    segments = split_trace(cfg, trace)  # the trace's one validity check
    measurements = [measure_segment(cfg, table, config, s) for s in segments]
    counts = segment_instruction_counts(cfg, segments)
    state = SessionState(db, config)
    classes: dict[tuple, _SegmentClass] = {}
    ordered: list[_SegmentClass] = []
    for index, (segment, m) in enumerate(zip(segments, measurements)):
        key = (segment.steps, m.delta, state.feasible)
        existing = classes.get(key)
        if existing is not None:
            existing.frequency += 1
        else:
            cls = _SegmentClass(
                segment=segment,
                measurement=m,
                feasible=state.feasible,
                first_index=index,
                instruction_count=counts[index],
            )
            classes[key] = cls
            ordered.append(cls)
        result = verify_segment(state, m)
        if result.verdict != "accepted":
            raise FlowAttestError(
                f"the supposedly valid trace was rejected at segment {index}; "
                "the database does not match the trace"
            )
    return ordered


def evaluate(
    cfg: AnnotatedCfg,
    db: SegmentDatabase,
    table: EventTable,
    trace: BlockTrace,
    specs: list[MutationSpec],
    *,
    config: CounterConfig | None = None,
) -> dict[str, ReliabilityReport]:
    """Run every mutation experiment over every segment of a valid trace.

    Returns one report per spec, by kind; two specs of one kind raise
    :class:`SchemaError` before any work starts.
    """
    kinds: set[str] = set()
    for spec in specs:
        if spec.kind in kinds:
            raise SchemaError(f"mutation kind '{spec.kind}' is given twice")
        kinds.add(spec.kind)
    classes = _segment_classes(cfg, db, table, trace, config)
    deltas = delta_map(cfg, table, config)
    block_pool = _block_pool(cfg)
    unique_pool = _unique_delta_blocks(cfg, deltas)
    # A probe needs only the verdict.  The verdict of a delta depends only
    # on the segment's endpoints and feasible entry stacks, so segment
    # classes that share them share one prober, built once, and one table
    # of verdicts: distinct mutants frequently produce identical deltas
    # (removing any one of many equal-delta blocks, say).  Both live only
    # for this call.
    shared: dict[tuple, tuple[Callable[[Vec], bool], dict[Vec, bool]]] = {}
    probes = []
    for cls in classes:
        m = cls.measurement
        key = (m.start, m.end, cls.feasible)
        if key not in shared:
            shared[key] = (prober(db, m.start, m.end, cls.feasible, config=config), {})
        probes.append(shared[key])
    reports: dict[str, ReliabilityReport] = {}
    for spec in specs:
        pool = unique_pool if spec.kind in _UNIQUE_KINDS else block_pool
        outcomes: list[SegmentOutcome] = []
        for cls, (probe, verdicts) in zip(classes, probes):
            mutants = mutate(cfg, deltas, cls.segment, spec, pool, measurement=cls.measurement)
            detected = 0
            for mutant in mutants:
                delta = mutant.delta
                verdict = verdicts.get(delta)
                if verdict is None:
                    verdict = verdicts[delta] = probe(delta)
                if not verdict:
                    detected += 1
            outcomes.append(
                SegmentOutcome(
                    first_index=cls.first_index,
                    frequency=cls.frequency,
                    instruction_count=cls.instruction_count,
                    attempted=len(mutants),
                    detected=detected,
                    excluded=not mutants,
                    exclusion_reason=None if mutants else "no applicable mutation",
                )
            )
        uniform, weighted = combine_rates(outcomes)
        reports[spec.kind] = ReliabilityReport(
            kind=spec.kind,
            seed=spec.seed,
            per_segment={o.first_index: o for o in outcomes},
            metric_uniform=uniform,
            metric_weighted=weighted,
        )
    return reports


def default_specs(seed: int = 0, repetitions: int | None = None) -> list[MutationSpec]:
    return [
        MutationSpec(kind=kind, repetitions=repetitions, seed=seed)
        for kind in MUTATION_KINDS
    ]


def report_row(reports: dict[str, ReliabilityReport]) -> dict[str, str]:
    return {
        kind: f"{float(r.metric_uniform):.3f}, {float(r.metric_weighted):.3f}"
        for kind, r in reports.items()
    }


def reliability_document(label: str, reports: dict[str, ReliabilityReport]) -> dict:
    """Machine-readable form with exact rationals serialized as strings."""
    out: dict = {
        "label": label,
        "random_change_policy": RANDOM_CHANGE_POLICY,
        "experiments": {},
    }
    for kind, report in sorted(reports.items()):
        out["experiments"][kind] = {
            "seed": report.seed,
            "metric_uniform": str(report.metric_uniform),
            "metric_weighted": str(report.metric_weighted),
            "segments": [
                {
                    "first_index": o.first_index,
                    "frequency": o.frequency,
                    "instruction_count": o.instruction_count,
                    "attempted": o.attempted,
                    "detected": o.detected,
                    "rate": str(o.rate),
                    "excluded": o.excluded,
                }
                for o in sorted(report.per_segment.values(), key=lambda o: o.first_index)
            ],
        }
    return out


def render_table(rows: list[tuple[str, dict[str, ReliabilityReport]]]) -> str:
    """Aligned text table: one row per experiment, one column per mutation
    kind, each cell 'uniform, weighted'."""
    headers = ["experiment"] + list(MUTATION_KINDS)
    table_rows = []
    for label, reports in rows:
        cells = report_row(reports)
        table_rows.append([label] + [cells.get(kind, "-") for kind in MUTATION_KINDS])
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in table_rows)) if table_rows else len(headers[c])
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in table_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)))
    lines.append(f"cells: uniform, weighted; random change: {RANDOM_CHANGE_POLICY}")
    return "\n".join(lines)

"""Deterministic replay of block traces into measurement sequences.

The simulator never interprets instruction semantics: which blocks ran is
all that matters, so a trace is replayed by summing block deltas.  Branch
decisions exist only in the walk generator, which picks edges.

A snapshot is taken when a measurement-point block finishes, so a segment's
delta covers every step after the starting snapshot block up to and
including the ending one (the same convention the preprocessor uses for
candidate base vectors).  The optional per-snapshot ``offset`` models a
fixed monitor footprint added to every measurement; verification subtracts
the same constant.

:func:`measure` checks the trace once, finds its measurement points in one
pass, and sums each segment's block deltas straight from the trace's steps,
with no intermediate segment objects; :func:`measure_segment` measures one
block sequence through the same summing code.  Both sum block deltas
already projected through the register file (:func:`delta_map` projects
each block once per file); projection is linear, so this equals projecting
each segment's full-width sum.
"""

from __future__ import annotations

import random
from collections import Counter

from .cfg import AnnotatedCfg, BlockTrace, Measurement, point_indices, validate_trace
from .errors import WalkError
from .events import CounterConfig, EventTable, delta_map
from .expand import ExpandedNode, _successors
from .vectors import Vec, vadd, vsum

# Steps one walk attempt may take before it is retried, and attempts one
# walk may make before it gives up.
_STEP_BUDGET = 50_000
_ATTEMPTS = 200


def _measurement(deltas, dim: int, offset: Vec | None, start: str, end: str, body) -> Measurement:
    """The measurement of a segment from ``start`` to ``end`` whose steps
    after the starting snapshot are ``body``, summed from ``deltas``, the
    ``dim``-dimensional block deltas of the register file in use."""
    value = vsum(map(deltas.__getitem__, body), dim)
    if offset is not None:
        value = vadd(value, offset)
    return Measurement(start=start, end=end, delta=value)


def _deltas(cfg: AnnotatedCfg, table: EventTable, config: CounterConfig | None):
    """The block deltas measured through ``config`` and their dimension."""
    dim = config.dimension if config is not None else cfg.dimension
    return delta_map(cfg, table, config), dim


def measure_segment(
    cfg: AnnotatedCfg,
    table: EventTable,
    config: CounterConfig | None,
    segment: BlockTrace,
    *,
    offset: Vec | None = None,
) -> Measurement:
    """One measurement for a block sequence running between two snapshots.

    Block deltas come from :func:`delta_map`, which resolves each (CFG,
    table) pair and projects it through each register file once.  Unlike
    :func:`measure` this does not check that the sequence is a valid walk,
    so it also measures deliberately broken ones.
    """
    deltas, dim = _deltas(cfg, table, config)
    steps = segment.steps
    return _measurement(deltas, dim, offset, steps[0], steps[-1], steps[1:])


def measure(
    cfg: AnnotatedCfg,
    table: EventTable,
    config: CounterConfig | None,
    trace: BlockTrace,
    *,
    offset: Vec | None = None,
) -> list[Measurement]:
    """One measurement per segment of the trace; bit-for-bit deterministic.

    Raises :class:`SchemaError` when the trace is not a valid walk.
    """
    marks = point_indices(cfg, trace)
    # Checks the pair and the config even when the trace has no segment to
    # measure.
    deltas, dim = _deltas(cfg, table, config)
    steps = trace.steps
    return [
        _measurement(deltas, dim, offset, steps[a], steps[b], steps[a + 1 : b + 1])
        for a, b in zip(marks, marks[1:])
    ]


def random_valid_walk(
    cfg: AnnotatedCfg,
    seed: int,
    *,
    min_segments: int = 1,
    max_segments: int = 4,
    max_loop_iterations: int = 8,
) -> BlockTrace:
    """A random trace that validate_trace accepts, reproducible per seed.

    The walk starts at the program entry, follows edges with call/return
    matching, and visits no node more than ``max_loop_iterations + 1`` times
    within one segment.  Attempts that dead-end off a measurement point or
    exhaust their step budget are retried with fresh randomness (still
    derived from the seed); constraints that cannot be met within the
    attempt budget raise :class:`WalkError`.
    """
    if min_segments < 1 or max_segments < min_segments:
        raise WalkError("segment constraints are inconsistent")
    rng = random.Random(seed)
    points = cfg.points
    for _ in range(_ATTEMPTS):
        target = rng.randint(min_segments, max_segments)
        steps = [cfg.program_entry]
        stack: tuple[str, ...] = ()
        visits: Counter = Counter({(cfg.program_entry, stack): 1})
        done = 0
        budget = _STEP_BUDGET
        failed = False
        while done < target:
            options = [
                node
                for node in _successors(cfg, ExpandedNode(steps[-1], stack))
                if visits[node] <= max_loop_iterations
            ]
            if not options or budget <= 0:
                # Accept a short walk that already ended on a snapshot.
                failed = not (done >= min_segments and steps[-1] in points)
                break
            blk, stack = rng.choice(options)
            steps.append(blk)
            budget -= 1
            if blk in points:
                done += 1
                visits = Counter()
            visits[(blk, stack)] += 1
        if not failed and done >= min_segments:
            trace = BlockTrace(steps=tuple(steps))
            if validate_trace(cfg, trace):
                return trace
    raise WalkError(
        f"no valid walk satisfying {min_segments}..{max_segments} segments "
        f"within {_ATTEMPTS} attempts (seed {seed})"
    )

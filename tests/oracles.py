"""Independent reference implementations the real code is checked against.

Nothing here shares machinery with the package: the cone oracle is plain
bounded enumeration, delta tallies are per-instruction loops, simple
cycles come from trying every node sequence, segment candidates from
recursion over every simple path, and the trace check tests one step at
a time.  Two exceptions reuse package code.  The reference session is
the verifier's earlier per-candidate loop over the package's cone solver,
kept to pin every count and verdict of the candidate-table session.  The
reference evaluation is the attack evaluation as it was when each mutant
was a full measurement record and each mutated segment was validated
again (:func:`reference_evaluate`, with its ``mutate`` and
``combine_rates``), over the package's segment classes, edit sites and
probers, kept to pin every report field of the delta-carrying mutants.
"""

import random
from bisect import bisect_right
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import lcm

from flowattest.attacks import (
    _UNIQUE_KINDS,
    MutationSpec,
    ReliabilityReport,
    SegmentOutcome,
    _block_pool,
    _breaking_edits,
    _segment_classes,
    _unique_delta_blocks,
)
from flowattest.cfg import AnnotatedCfg, BlockTrace, Measurement, validate_trace
from flowattest.cone import solve_cone
from flowattest.database import SegmentDatabase
from flowattest.errors import SchemaError, UnknownBlockError
from flowattest.events import CounterConfig, EventTable, delta_map, project
from flowattest.vectors import Vec, is_nonneg, vadd, vsub, vsum
from flowattest.verify import VerificationResult, prober


def cone_member_bruteforce(target, generators):
    """Bounded enumeration: each scalar runs over 0..min_d residual[d]//v[d],
    largest-footprint generators first, with a divisibility check once a
    single generator remains."""
    if any(t < 0 for t in target):
        return None
    gens = list(generators)
    order = sorted(range(len(gens)), key=lambda i: (-sum(gens[i]), i))

    def last_check(i, residual):
        v = gens[i]
        quotient = None
        for r, vd in zip(residual, v):
            if vd == 0:
                if r != 0:
                    return None
            else:
                q, rem = divmod(r, vd)
                if rem or (quotient is not None and q != quotient):
                    return None
                quotient = q
        return {i: quotient if quotient is not None else 0}

    def rec(pos, residual):
        if all(r == 0 for r in residual):
            return {order[p]: 0 for p in range(pos, len(order))}
        if pos == len(order):
            return None
        if pos == len(order) - 1:
            found = last_check(order[pos], residual)
            return found
        i = order[pos]
        v = gens[i]
        bounds = [r // vd for r, vd in zip(residual, v) if vd > 0]
        bound = min(bounds) if bounds else 0
        for x in range(bound, -1, -1):
            nxt = [r - x * vd for r, vd in zip(residual, v)]
            sub = rec(pos + 1, nxt)
            if sub is not None:
                sub[i] = x
                return sub
        return None

    found = rec(0, list(target))
    if found is None:
        return None
    return tuple(found.get(i, 0) for i in range(len(gens)))


def simple_cycles_bruteforce(succ):
    """Every simple cycle of a small digraph, as the set of its rotations
    that start at the cycle's least node: each sequence of distinct nodes
    headed by its least node is a cycle when consecutive nodes, and the
    last and the first, are joined by edges."""
    nodes = sorted(succ)
    found = set()
    for k in range(1, len(nodes) + 1):
        for seq in permutations(nodes, k):
            if seq[0] != min(seq):
                continue
            if all(seq[(i + 1) % k] in succ[seq[i]] for i in range(k)):
                found.add(seq)
    return found


def tally_instructions(table, instructions):
    """Naive per-instruction accumulation, one counter at a time."""
    total = [0] * table.dimension
    for mnemonic in instructions:
        vec = table.attribution[mnemonic]
        for i in range(table.dimension):
            total[i] = total[i] + vec[i]
    return tuple(total)


def count_call_strings(call_sites, entry_fn):
    """Call-site strings per function, by DFS over the call graph.

    ``call_sites`` maps a function to its (site block, callee) pairs; a
    function's count is the number of distinct site paths reaching it from
    the entry function.  Finite because the call graph is acyclic.
    """
    counts = {}

    def walk(fn):
        counts[fn] = counts.get(fn, 0) + 1
        for _site, callee in call_sites.get(fn, ()):
            walk(callee)

    walk(entry_fn)
    return counts


def segment_candidates_bruteforce(cfg, table, graph):
    """Every segment's distinct candidates and simple-path count, one
    simple path at a time.

    ``graph`` is the call-string expansion of ``cfg``.  Paths come from
    plain recursion from every measurement point to the first measurement
    point reached, and each path is summed from scratch.  Its loops are
    the nonzero simple cycles of the measurement-point-free subgraph that
    share a node with the path or, transitively, with an attached cycle;
    cycles are listed from their least node.  Returns ({(start block, end
    block): {(start stack, end stack, base, loops, base instructions, loop
    instructions)}}, {(start block, end block): simple paths}) with loops
    sorted; a successor listed twice counts its paths twice.
    """
    delta = {b: tally_instructions(table, blk.instructions) for b, blk in cfg.blocks.items()}

    def point(node):
        return cfg.blocks[node.block].is_measurement_point

    def total(nodes):
        vec = [0] * table.dimension
        for node in nodes:
            for i, x in enumerate(delta[node.block]):
                vec[i] += x
        return tuple(vec)

    def instructions(nodes):
        return sum(cfg.blocks[node.block].instruction_count for node in nodes)

    inner = {
        node: set(n for n in nexts if not point(n))
        for node, nexts in graph.succ.items()
        if not point(node)
    }
    cycles = []

    def close(path):
        for nxt in inner[path[-1]]:
            if nxt == path[0]:
                if any(total(path)):
                    cycles.append((set(path), total(path), instructions(path)))
            elif nxt > path[0] and nxt not in path:
                close(path + [nxt])

    for node in sorted(inner):
        close([node])

    found = {}
    paths = {}

    def walk(path):
        for nxt in graph.succ[path[-1]]:
            if point(nxt):
                key = (path[0].block, nxt.block)
                paths[key] = paths.get(key, 0) + 1
                attached = []
                touched = set(path)
                grew = True
                while grew:
                    grew = False
                    for cycle in cycles:
                        if cycle not in attached and cycle[0] & touched:
                            attached.append(cycle)
                            touched |= cycle[0]
                            grew = True
                loops = dict((vec, count) for _, vec, count in attached)
                ordered = tuple(sorted(loops))
                found.setdefault(key, set()).add(
                    (
                        path[0].stack,
                        nxt.stack,
                        total(path[1:] + [nxt]),
                        ordered,
                        instructions(path[1:] + [nxt]),
                        tuple(loops[v] for v in ordered),
                    )
                )
            elif nxt not in path:
                walk(path + [nxt])

    for node in graph.succ:
        if point(node):
            walk([node])
    return found, paths


def validate_trace_per_step(cfg, trace):
    """The trace check one step at a time, from the block records and the
    edge list: an empty trace and the first unknown id raise, in the
    package's words; then the endpoints, every step's instruction count
    and every adjacent pair are tested."""
    steps = trace.steps
    if not steps:
        raise SchemaError("trace is empty")
    for step in steps:
        if step not in cfg.blocks:
            raise UnknownBlockError(f"trace references unknown block '{step}'")
    for end in (steps[0], steps[-1]):
        if not cfg.blocks[end].is_measurement_point:
            return False
    for step in steps:
        if cfg.blocks[step].instruction_count == 0:
            return False
    edges = {(edge.src, edge.dst) for edge in cfg.edges}
    for i in range(len(steps) - 1):
        if (steps[i], steps[i + 1]) not in edges:
            return False
    return True


@dataclass
class ReferenceSession:
    """The session fields :func:`reference_verify_segment` reads and writes,
    plus its own projection memo, which it shares with nothing."""

    db: object
    config: object = None
    feasible: frozenset | None = frozenset({()})
    rejected: bool = False
    cache: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_lookups: int = 0
    projected: dict = field(default_factory=dict)


def _reference_projection(config, cand):
    """(projected base, deduplicated nonzero projected loop vectors, each
    one's first loop index)."""
    base = project(config, cand.base) if config is not None else cand.base
    owner = {}
    for j, loop in enumerate(cand.loops):
        pv = project(config, loop) if config is not None else loop
        if any(pv):
            owner.setdefault(pv, j)
    generators = tuple(owner)
    return base, generators, tuple(owner.values())


def reference_verify_segment(session, m):
    """One measurement decided by the per-candidate loop: every candidate
    whose entry stack is feasible is tried in database order, and every
    nonnegative residual goes to ``solve_cone``.  The skip rule, the dedup
    cache, the feasible-set update and the rejection reasons are the
    verifier's; ``elapsed`` stays 0."""
    if session.rejected:
        raise RuntimeError("session is already rejected; state is frozen")
    db, config = session.db, session.config
    key = (m.start, m.end)
    expected = config.dimension if config is not None else db.dimension
    if len(m.delta) != expected:
        raise SchemaError(
            f"measurement delta has dimension {len(m.delta)}, session expects {expected}"
        )
    if key in db.skip_segments:
        candidates = db.entries.get(key, ())
        session.feasible = frozenset(c.end.stack for c in candidates) or None
        return VerificationResult(
            verdict="accepted",
            reason="skip",
            accepting=tuple(f"{key[0]}->{key[1]}#{i}" for i in range(len(candidates))),
        )
    cache_key = (m.start, m.end, m.delta, session.feasible)
    session.cache_lookups += 1
    hit = session.cache.get(cache_key)
    if hit is not None:
        session.cache_hits += 1
        accepting, witness, session.feasible = hit
        return VerificationResult(
            verdict="accepted", accepting=accepting, witness=witness, cache_hit=True
        )
    candidates = db.entries.get(key, ())
    if key not in session.projected:
        session.projected[key] = [_reference_projection(config, c) for c in candidates]
    tried = solver_calls = solver_nodes = 0
    accepting = []
    exits = set()
    witness = None
    for index, (cand, proj) in enumerate(zip(candidates, session.projected[key])):
        if session.feasible is not None and cand.start.stack not in session.feasible:
            continue
        base, generators, owner = proj
        tried += 1
        target = vsub(m.delta, base)
        if not is_nonneg(target):
            continue
        solution = solve_cone(target, generators)
        solver_calls += 1
        solver_nodes += solution.lp_solves
        if solution.witness is None:
            continue
        accepting.append(f"{key[0]}->{key[1]}#{index}")
        exits.add(cand.end.stack)
        if witness is None:
            full = [0] * len(cand.loops)
            for value, j in zip(solution.witness, owner):
                full[j] = value
            witness = tuple(full)
    accepting = tuple(accepting)
    if accepting:
        verdict, reason = "accepted", None
        session.feasible = frozenset(exits)
        session.cache[cache_key] = (accepting, witness, session.feasible)
    else:
        verdict = "rejected"
        if tried:
            reason = "cone-infeasible"
        else:
            reason = "no-feasible-stack" if key in db.entries else "no-such-segment"
        session.rejected = True
    return VerificationResult(
        verdict=verdict,
        reason=reason,
        accepting=accepting,
        witness=witness,
        candidates_tried=tried,
        solver_calls=solver_calls,
        solver_nodes=solver_nodes,
    )


# The attack evaluation as it was when a mutant was a full measurement
# record: ``evaluate``, ``mutate``, ``combine_rates`` and ``Mutant`` copied
# verbatim, only renamed.


@dataclass(slots=True, eq=False)
class _ReferenceMutant:
    """The measurement a mutant shows the verifier and, for block-level
    kinds, the edit that produces it: ``segment``'s steps ``start:stop``
    replaced by ``inserted`` (nothing, for ``None``).  ``segment`` is the
    valid segment's own step tuple, shared and never copied; :attr:`steps`
    builds the edited tuple only when asked.  A plain slotted record: many
    are built per evaluation, and nothing hashes one.  Two mutants are
    equal when their measurements and edited steps are."""

    measurement: Measurement
    segment: tuple[str, ...] | None = None
    start: int = 0
    stop: int = 0
    inserted: str | None = None

    @property
    def steps(self) -> tuple[str, ...] | None:
        """The edited block sequence, or None for ``random_change``."""
        segment = self.segment
        if segment is None:
            return None
        middle = () if self.inserted is None else (self.inserted,)
        return segment[: self.start] + middle + segment[self.stop :]

    def __eq__(self, other):
        if not isinstance(other, _ReferenceMutant):
            return NotImplemented
        return self.measurement == other.measurement and self.steps == other.steps


def _reference_combine_rates(outcomes: list[SegmentOutcome]) -> tuple[Fraction, Fraction]:
    """Both reliability metrics over the included segments, exactly.

    Frequencies multiply through both sums, so evaluating a repeated
    segment once is identical to scoring every occurrence.  Every rate is
    scaled to the common denominator ``lcm`` of the ``attempted`` counts,
    so both sums are over integers and each metric is one ``Fraction``.
    """
    included = [o for o in outcomes if not o.excluded]
    if not included:
        return Fraction(0), Fraction(0)
    scale = lcm(*(o.attempted for o in included if o.attempted))
    # Each segment's rate times ``scale``; a segment with no attempts rates 0.
    scaled = [
        (o.detected * (scale // o.attempted) if o.attempted else 0, o) for o in included
    ]
    total_freq = sum(o.frequency for o in included)
    uniform = Fraction(sum(r * o.frequency for r, o in scaled), scale * total_freq)
    weight = sum(o.frequency * o.instruction_count for o in included)
    if weight == 0:
        return uniform, Fraction(0)
    weighted = Fraction(
        sum(r * o.frequency * o.instruction_count for r, o in scaled), scale * weight
    )
    return uniform, weighted


def reference_mutate(
    cfg: AnnotatedCfg,
    deltas: Mapping[str, Vec],
    segment: BlockTrace,
    spec: MutationSpec,
    pool: list[str],
    *,
    measurement: Measurement | None = None,
) -> list[_ReferenceMutant]:
    """Distinct, seed-deterministic mutants of one valid segment.

    ``deltas`` maps every block to its delta as the verifier measures it
    (projected through the register file in use), and ``measurement`` is
    the segment's own measurement, summed from ``deltas`` when not given.
    ``pool`` lists the blocks an edit may insert: every non-measurement
    block, or for the unique-delta kinds only those whose delta no other
    block shares (:func:`evaluate` lists both once per evaluation;
    ``random_change`` draws no blocks).  Block-level kinds edit interior
    positions only (endpoints identify the segment) and keep only edits
    that break structural validity.  ``random_change`` needs the segment's
    measurement and perturbs it directly.  An empty result means the
    segment admits no applicable mutation.  Raises :class:`SchemaError`
    when a block-level kind is given an invalid segment.
    """
    reps = spec.reps
    if spec.kind == "random_change":
        if measurement is None:
            raise SchemaError("random_change mutation needs the segment's measurement")
        bounds = [v // 10 for v in measurement.delta]
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
            rng = random.Random(spec.seed)
            seen: set[tuple[int, ...]] = set()
            perturbations = []
            while len(perturbations) < reps:
                u = tuple(rng.randint(-b, b) for b in bounds)
                if any(u) and u not in seen:
                    seen.add(u)
                    perturbations.append(u)
        start, end, values = measurement.start, measurement.end, measurement.delta
        return [
            _ReferenceMutant(Measurement(start, end, tuple(v + du for v, du in zip(values, u))))
            for u in perturbations
        ]

    if not validate_trace(cfg, segment):
        raise SchemaError("cannot mutate an invalid segment")
    steps = segment.steps
    if measurement is None:
        delta = vsum((deltas[s] for s in steps[1:]), len(deltas[steps[0]]))
        measurement = Measurement(start=steps[0], end=steps[-1], delta=delta)
    # Draw edit indices first (``random.sample`` reads only the population's
    # length); each drawn edit is kept as itself, over the segment's own
    # steps.  A generator is seeded only where a draw is made.
    sites = list(_breaking_edits(cfg, steps, spec.kind, pool))
    ends = list(accumulate(len(site[3]) for site in sites))
    total = ends[-1] if ends else 0
    picks = random.Random(spec.seed).sample(range(total), reps) if total > reps else range(total)
    first, last, values = measurement.start, measurement.end, measurement.delta
    mutants = []
    for pick in picks:
        index = bisect_right(ends, pick)
        start, stop, removed, blocks = sites[index]
        inserted = blocks[pick - ends[index] + len(blocks)]
        delta = values if removed is None else vsub(values, deltas[removed])
        if inserted is not None:
            delta = vadd(delta, deltas[inserted])
        mutants.append(
            _ReferenceMutant(Measurement(first, last, delta), steps, start, stop, inserted)
        )
    return mutants


def reference_evaluate(
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
            mutants = reference_mutate(
                cfg, deltas, cls.segment, spec, pool, measurement=cls.measurement
            )
            detected = 0
            for mutant in mutants:
                delta = mutant.measurement.delta
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
        uniform, weighted = _reference_combine_rates(outcomes)
        reports[spec.kind] = ReliabilityReport(
            kind=spec.kind,
            seed=spec.seed,
            per_segment={o.first_index: o for o in outcomes},
            metric_uniform=uniform,
            metric_weighted=weighted,
        )
    return reports

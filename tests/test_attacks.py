import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowattest.attacks import (
    MutationSpec,
    SegmentOutcome,
    combine_rates,
    default_specs,
    evaluate,
    mutate,
    render_table,
)
from flowattest.cfg import BlockTrace, Measurement, load_cfg, split_trace, validate_trace
from flowattest.cone import Reach
from flowattest.database import enumerate_segments
from flowattest.demos import greeter_cfg, greeter_trace, signer_cfg, signer_trace
from flowattest.errors import SchemaError, WalkError
from flowattest.events import (
    default_event_table,
    delta_map,
    make_config,
    make_event_table,
    project,
    three_register_config,
)
from flowattest.simulate import measure, measure_segment, random_valid_walk
from flowattest import attacks, verify
from flowattest.verify import SessionState, prober, verify_segment

from . import oracles
from .conftest import (
    TINY_COUNTERS,
    block,
    edge,
    mutation_pool,
    tiny_table_doc,
    two_loop_chain_doc,
)
from .randcfg import random_cfg_and_table

BLOCK_KINDS = ("remove_block", "replace_block", "replace_unique", "insert_unique")


def _long_chain_doc(interior=8):
    """One segment with `interior` removable blocks, no bypass edges."""
    ids = ["h.0"] + [f"h.{i+1}" for i in range(interior)] + ["h.end"]
    blocks = [block("h.0", "main", ["addi"], mp=True)]
    # Distinct instruction mixes so removals are all distinguishable.
    mixes = [["add"], ["lw"], ["beq"], ["add", "lw"], ["add", "beq"],
             ["lw", "lw"], ["beq", "beq"], ["add", "add", "lw"]]
    for i in range(interior):
        blocks.append(block(f"h.{i+1}", "main", mixes[i % len(mixes)]))
    blocks.append(block("h.end", "main", ["jalr"], mp=True))
    edges = [edge(a, b) for a, b in zip(ids, ids[1:])]
    return {
        "counters": TINY_COUNTERS,
        "functions": [{"name": "main", "entry": "h.0", "blocks": ids}],
        "blocks": blocks,
        "edges": edges,
        "entry": "h.0",
    }


def test_remove_caps_at_available_blocks(tiny_table):
    cfg = load_cfg(_long_chain_doc(8))
    segment = BlockTrace(tuple(b["id"] for b in _long_chain_doc(8)["blocks"]))
    spec = MutationSpec(kind="remove_block", repetitions=100, seed=1)
    deltas = delta_map(cfg, tiny_table)
    pool = mutation_pool(cfg, deltas, spec.kind)
    m = measure_segment(cfg, tiny_table, None, segment)
    mutants = mutate(cfg, deltas, segment, spec, pool, measurement=m)
    assert len(mutants) == 8
    assert len({m.steps for m in mutants}) == 8


def test_inserting_a_block_beside_its_copy_is_one_mutant(tiny_table):
    """Inserting a block just before or just after a copy of itself gives
    the same steps; the mutant is drawn once, at the first gap."""
    doc = _long_chain_doc(8)
    cfg = load_cfg(doc)
    segment = BlockTrace(tuple(b["id"] for b in doc["blocks"]))
    spec = MutationSpec(kind="insert_unique", repetitions=1000, seed=1)
    deltas = delta_map(cfg, tiny_table)
    pool = mutation_pool(cfg, deltas, spec.kind)
    m = measure_segment(cfg, tiny_table, None, segment)
    edited = [mu.steps for mu in mutate(cfg, deltas, segment, spec, pool, measurement=m)]
    assert len(edited) == len(set(edited))
    beside = [steps for steps in edited if any(a == b for a, b in zip(steps, steps[1:]))]
    assert len(beside) >= 5


def test_block_mutants_are_structurally_invalid(tiny_table):
    cfg = load_cfg(_long_chain_doc(6))
    segment = BlockTrace(tuple(b["id"] for b in _long_chain_doc(6)["blocks"]))
    deltas = delta_map(cfg, tiny_table)
    m = measure_segment(cfg, tiny_table, None, segment)
    for kind in ("remove_block", "replace_block", "replace_unique", "insert_unique"):
        spec = MutationSpec(kind=kind, seed=3)
        pool = mutation_pool(cfg, deltas, kind)
        for mutant in mutate(cfg, deltas, segment, spec, pool, measurement=m):
            assert not validate_trace(cfg, BlockTrace(mutant.steps))
            assert mutant.steps[0] == segment.steps[0]
            assert mutant.steps[-1] == segment.steps[-1]


def test_mutants_are_seed_deterministic_and_distinct(tiny_table):
    cfg = load_cfg(_long_chain_doc(8))
    segment = BlockTrace(tuple(b["id"] for b in _long_chain_doc(8)["blocks"]))
    spec = MutationSpec(kind="replace_block", repetitions=20, seed=5)
    deltas = delta_map(cfg, tiny_table)
    pool = mutation_pool(cfg, deltas, spec.kind)
    m = measure_segment(cfg, tiny_table, None, segment)
    first = mutate(cfg, deltas, segment, spec, pool, measurement=m)
    second = mutate(cfg, deltas, segment, spec, pool, measurement=m)
    assert [m.steps for m in first] == [m.steps for m in second]
    assert len({m.steps for m in first}) == 20


def test_random_change_respects_componentwise_bounds():
    m = Measurement("a", "b", (100, 50, 7))
    spec = MutationSpec(kind="random_change", repetitions=50, seed=2)
    mutants = mutate(None, None, None, spec, [], measurement=m)
    assert len(mutants) == 50
    seen = set()
    for mutant in mutants:
        delta = mutant.measurement.delta
        assert delta not in seen
        seen.add(delta)
        diff = tuple(d - v for d, v in zip(delta, (100, 50, 7)))
        assert any(diff)
        assert abs(diff[0]) <= 10 and abs(diff[1]) <= 5 and diff[2] == 0
    assert mutants == mutate(None, None, None, spec, [], measurement=m)


def test_random_change_enumerates_small_spaces():
    m = Measurement("a", "b", (10, 3))
    spec = MutationSpec(kind="random_change", repetitions=1000, seed=0)
    mutants = mutate(None, None, None, spec, [], measurement=m)
    assert len(mutants) == 2  # perturbations (-1,0) and (+1,0)


def test_random_change_enumerates_in_counter_order():
    """A space no larger than the repetitions is listed whole, first counter
    slowest, the zero perturbation left out."""
    m = Measurement("a", "b", (10, 20))  # bounds 1 and 2: 3 * 5 - 1 perturbations
    expected = [
        (9, 18), (9, 19), (9, 20), (9, 21), (9, 22),
        (10, 18), (10, 19), (10, 21), (10, 22),
        (11, 18), (11, 19), (11, 20), (11, 21), (11, 22),
    ]
    for reps in (14, 1000):
        spec = MutationSpec(kind="random_change", repetitions=reps, seed=3)
        mutants = mutate(None, None, None, spec, [], measurement=m)
        assert [mutant.measurement.delta for mutant in mutants] == expected
        assert all((mu.measurement.start, mu.measurement.end) == ("a", "b") for mu in mutants)
    spec = MutationSpec(kind="random_change", repetitions=13, seed=3)
    drawn = [mu.measurement.delta for mu in mutate(None, None, None, spec, [], measurement=m)]
    assert len(drawn) == 13 and set(drawn) < set(expected)


def test_random_change_with_tiny_values_is_inapplicable():
    m = Measurement("a", "b", (5, 3))
    assert mutate(None, None, None, MutationSpec(kind="random_change"), [], measurement=m) == []


def test_two_block_segment_has_no_remove_mutants(tiny_table):
    doc = _long_chain_doc(0)
    cfg = load_cfg(doc)
    segment = BlockTrace(("h.0", "h.end"))
    spec = MutationSpec(kind="remove_block")
    deltas = delta_map(cfg, tiny_table)
    pool = mutation_pool(cfg, deltas, spec.kind)
    m = measure_segment(cfg, tiny_table, None, segment)
    assert mutate(cfg, deltas, segment, spec, pool, measurement=m) == []


def test_detection_flag_equals_verifier_rejection(tiny_table):
    cfg = load_cfg(_long_chain_doc(6))
    table = tiny_table
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(b["id"] for b in _long_chain_doc(6)["blocks"]))
    (segment,) = split_trace(cfg, trace)
    spec = MutationSpec(kind="insert_unique", repetitions=30, seed=4)
    deltas = delta_map(cfg, table)
    pool = mutation_pool(cfg, deltas, spec.kind)
    m = measure_segment(cfg, table, None, segment)
    mutants = mutate(cfg, deltas, segment, spec, pool, measurement=m)
    assert mutants
    for mutant in mutants:
        observed = measure_segment(cfg, table, None, BlockTrace(mutant.steps))
        probe = SessionState(db=db, feasible=frozenset({()}))
        result = verify_segment(probe, observed)
        # Insertion of a unique-delta block always changes a loop-free
        # segment's measurement.
        assert result.verdict == "rejected"


def test_all_detected_yields_unit_metrics(tiny_table):
    cfg = load_cfg(_long_chain_doc(6))
    db = enumerate_segments(cfg, tiny_table)
    trace = BlockTrace(tuple(b["id"] for b in _long_chain_doc(6)["blocks"]))
    reports = evaluate(
        cfg, db, tiny_table, trace, [MutationSpec(kind="remove_block", seed=1)]
    )
    report = reports["remove_block"]
    assert report.metric_uniform == Fraction(1)
    assert report.metric_weighted == Fraction(1)


def test_crafted_metrics_are_exact():
    outcomes = [
        SegmentOutcome(
            first_index=i,
            frequency=1,
            instruction_count=10,
            attempted=10,
            detected=10,
        )
        for i in range(10)
    ]
    outcomes.append(
        SegmentOutcome(
            first_index=10,
            frequency=1,
            instruction_count=10_000,
            attempted=10,
            detected=0,
        )
    )
    uniform, weighted = combine_rates(outcomes)
    assert uniform == Fraction(10, 11)
    assert weighted == Fraction(100, 10_100)


def test_metrics_lie_between_extreme_rates():
    outcomes = [
        SegmentOutcome(first_index=0, frequency=2, instruction_count=5, attempted=4, detected=1),
        SegmentOutcome(first_index=1, frequency=1, instruction_count=50, attempted=4, detected=3),
        SegmentOutcome(first_index=2, frequency=3, instruction_count=9, attempted=4, detected=2),
    ]
    uniform, weighted = combine_rates(outcomes)
    rates = [o.rate for o in outcomes]
    assert min(rates) <= uniform <= max(rates)
    assert min(rates) <= weighted <= max(rates)


def test_repeated_segments_weight_by_frequency():
    once = SegmentOutcome(first_index=0, frequency=1, instruction_count=10, attempted=2, detected=2)
    tripled = SegmentOutcome(first_index=1, frequency=3, instruction_count=10, attempted=2, detected=0)
    uniform, weighted = combine_rates([once, tripled])
    assert uniform == Fraction(1, 4)
    assert weighted == Fraction(1, 4)


def test_excluded_segments_leave_the_average():
    good = SegmentOutcome(first_index=0, frequency=1, instruction_count=10, attempted=5, detected=5)
    empty = SegmentOutcome(
        first_index=1, frequency=1, instruction_count=10, attempted=0, detected=0,
        excluded=True, exclusion_reason="no applicable mutation",
    )
    uniform, weighted = combine_rates([good, empty])
    assert uniform == Fraction(1)
    assert weighted == Fraction(1)


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        MutationSpec(kind="scramble")


def test_repeated_mutation_kind_is_a_schema_error(monkeypatch, tiny_table):
    """Each kind has one report, so two specs of one kind are refused before
    any segment is replayed or mutated."""
    cfg = load_cfg(_long_chain_doc(4))
    db = enumerate_segments(cfg, tiny_table)
    trace = BlockTrace(tuple(b["id"] for b in _long_chain_doc(4)["blocks"]))
    specs = [MutationSpec("remove_block", 3, 1), MutationSpec("random_change"),
             MutationSpec("remove_block", 5, 2)]

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(attacks, "mutate", no_work)
    monkeypatch.setattr(attacks, "_segment_classes", no_work)
    with pytest.raises(SchemaError, match="mutation kind 'remove_block' is given twice"):
        evaluate(cfg, db, tiny_table, trace, specs)


def test_probe_verdicts_are_call_local(monkeypatch):
    """A verdict lives for one ``evaluate`` call: a second identical call on
    the same database makes as many cone tests (map reads and solver calls)
    as the first, and within a call each (segment, feasible stacks, delta)
    is decided at most once."""
    table = default_event_table()
    cfg = load_cfg(signer_cfg(False))
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(signer_trace(8, 25, False)))
    specs = default_specs(seed=7, repetitions=30)
    solves = Counter()
    decided = Counter()
    solve_cone, covers, make_prober = verify.solve_cone, Reach.covers, attacks.prober

    def counting_solve(*args):
        solves["calls"] += 1
        return solve_cone(*args)

    def counting_covers(reach, target):
        solves["calls"] += 1
        return covers(reach, target)

    def recording_prober(db, start, end, feasible, **kwargs):
        probe = make_prober(db, start, end, feasible, **kwargs)

        def recorded(delta):
            decided[start, end, feasible, delta] += 1
            return probe(delta)

        return recorded

    monkeypatch.setattr(verify, "solve_cone", counting_solve)
    monkeypatch.setattr(Reach, "covers", counting_covers)
    monkeypatch.setattr(attacks, "prober", recording_prober)
    for config in (three_register_config(table), None):
        counts, reports = [], []
        for _ in range(2):
            solves.clear()
            decided.clear()
            reports.append(evaluate(cfg, db, table, trace, specs, config=config))
            counts.append(solves["calls"])
            assert decided and max(decided.values()) == 1
        assert counts[0] == counts[1] > 0
        assert reports[0] == reports[1]


def test_evaluate_counts_each_mutant_by_a_fresh_session():
    """``evaluate``'s detected count of every segment class and kind is the
    number of its mutants a fresh session, started from the class's
    feasible stacks, rejects; segment classes share probers and verdicts
    only where their endpoints and feasible stacks agree."""
    checked = 0
    for seed in range(1, 60):
        cfg, table = random_cfg_and_table(seed, max_blocks=30)
        try:
            trace = random_valid_walk(cfg, seed, max_segments=4)
        except WalkError:
            continue
        db = enumerate_segments(cfg, table)
        names = table.counter_names
        specs = default_specs(seed=seed, repetitions=12)
        for config in (None, make_config(table, [names[:1], names[1:]])):
            reports = evaluate(cfg, db, table, trace, specs, config=config)
            deltas = delta_map(cfg, table, config)
            for cls in attacks._segment_classes(cfg, db, table, trace, config):
                for spec in specs:
                    pool = mutation_pool(cfg, deltas, spec.kind)
                    m = cls.measurement
                    mutants = mutate(cfg, deltas, cls.segment, spec, pool, measurement=m)
                    rejected = sum(
                        not _probe_oracle(db, config, cls.feasible, mutant.measurement)
                        for mutant in mutants
                    )
                    outcome = reports[spec.kind].per_segment[cls.first_index]
                    assert (outcome.attempted, outcome.detected) == (len(mutants), rejected)
                    checked += len(mutants)
    assert checked > 4000, checked


def test_signer_evaluation_dedups_repeated_segments():
    table = default_event_table()
    cfg = load_cfg(signer_cfg(True))
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(signer_trace(40, 10, True)))
    reports = evaluate(
        cfg, db, table, trace, [MutationSpec(kind="remove_block", repetitions=5, seed=0)]
    )
    report = reports["remove_block"]
    occurrences = sum(o.frequency for o in report.per_segment.values())
    assert occurrences == len(split_trace(cfg, trace))
    assert len(report.per_segment) < occurrences


def test_render_table_mentions_policy(tiny_table):
    cfg = load_cfg(_long_chain_doc(4))
    db = enumerate_segments(cfg, tiny_table)
    trace = BlockTrace(tuple(b["id"] for b in _long_chain_doc(4)["blocks"]))
    reports = evaluate(cfg, db, tiny_table, trace, default_specs(repetitions=5))
    text = render_table([("chain", reports)])
    assert "independent-per-counter" in text
    assert "remove_block" in text


def _full_validation_mutants(cfg, deltas, segment, spec):
    """Every interior edit of the segment, kept when validating the whole
    edited sequence fails, deduplicated in order, then sampled."""
    steps = segment.steps
    points = {b for b, blk in cfg.blocks.items() if blk.is_measurement_point}
    if spec.kind in ("replace_unique", "insert_unique"):
        tally = Counter(deltas.values())
        pool = sorted(b for b, v in deltas.items() if tally[v] == 1 and b not in points)
    else:
        pool = sorted(set(cfg.blocks) - points)
    interior = range(1, len(steps) - 1)
    if spec.kind == "remove_block":
        edited = [steps[:p] + steps[p + 1 :] for p in interior]
    elif spec.kind == "insert_unique":
        edited = [steps[:g] + (b,) + steps[g:] for g in range(1, len(steps)) for b in pool]
    else:
        edited = [
            steps[:p] + (b,) + steps[p + 1 :] for p in interior for b in pool if b != steps[p]
        ]
    kept = list(dict.fromkeys(e for e in edited if not validate_trace(cfg, BlockTrace(e))))
    if len(kept) > spec.reps:
        kept = random.Random(spec.seed).sample(kept, spec.reps)
    return kept


def _zero_block_doc():
    """A chain whose only detour, z, has no instructions: putting z back
    between its neighbours follows edges but is still no valid walk."""
    doc = _long_chain_doc(3)
    doc["blocks"].append(block("z", "main", []))
    doc["functions"][0]["blocks"].append("z")
    doc["edges"] += [edge("h.1", "z"), edge("z", "h.2"), edge("h.2", "z"), edge("z", "h.3")]
    return doc


def _mutation_cases():
    """(cfg, table, valid segments, register configs): a chain with a
    zero-instruction block, short signer runs under the identity and
    three-register files, and random programs' walks under the identity and
    a composite two-register file."""
    counters, attribution = tiny_table_doc()
    table = make_event_table(counters, attribution)
    cfg = load_cfg(_zero_block_doc())
    segment = BlockTrace(("h.0", "h.1", "h.2", "h.3", "h.end"))
    yield cfg, table, [segment], (make_config(table), make_config(table, [TINY_COUNTERS]))
    table = default_event_table()
    for in_loop in (False, True):
        cfg = load_cfg(signer_cfg(in_loop))
        trace = BlockTrace(tuple(signer_trace(4, 2, in_loop)))
        configs = (make_config(table), three_register_config(table))
        yield cfg, table, split_trace(cfg, trace), configs
    for seed in range(40):
        cfg, table = random_cfg_and_table(seed, max_blocks=30)
        trace = random_valid_walk(cfg, seed, max_segments=3)
        names = table.counter_names
        configs = (make_config(table), make_config(table, [names[:1], names[1:]]))
        yield cfg, table, split_trace(cfg, trace), configs


def test_block_mutants_are_checked_and_measured_by_their_edit():
    """Checking only an edit's new pairs keeps exactly the mutants that
    full-trace validation keeps, and each mutant's measurement is what
    measuring its whole edited sequence gives."""
    checked = Counter()
    for cfg, table, segments, configs in _mutation_cases():
        for config in configs:
            deltas = {b: project(config, v) for b, v in delta_map(cfg, table).items()}
            for segment in segments:
                measured = measure_segment(cfg, table, config, segment)
                for kind in BLOCK_KINDS:
                    for reps in (7, None):
                        spec = MutationSpec(kind, reps, seed=len(segment.steps))
                        pool = mutation_pool(cfg, deltas, kind)
                        mutants = mutate(cfg, deltas, segment, spec, pool, measurement=measured)
                        expected = _full_validation_mutants(cfg, deltas, segment, spec)
                        assert [m.steps for m in mutants] == expected
                        for mutant in mutants:
                            steps = BlockTrace(mutant.steps)
                            assert not validate_trace(cfg, steps)
                            assert mutant.measurement == measure_segment(cfg, table, config, steps)
                        checked[kind] += len(mutants)
    assert min(checked.values()) >= 500, checked


def _combine_rates_per_term(outcomes):
    """The reference formula: one ``Fraction`` term per segment, summed."""
    included = [o for o in outcomes if not o.excluded]
    if not included:
        return Fraction(0), Fraction(0)
    total_freq = sum(o.frequency for o in included)
    uniform = sum((o.rate * o.frequency for o in included), Fraction(0)) / total_freq
    weight = sum(o.frequency * o.instruction_count for o in included)
    if weight == 0:
        return uniform, Fraction(0)
    weighted = (
        sum((o.rate * o.frequency * o.instruction_count for o in included), Fraction(0))
        / weight
    )
    return uniform, weighted


@st.composite
def _outcome(draw):
    attempted = draw(st.integers(min_value=0, max_value=1000))
    return SegmentOutcome(
        first_index=0,
        frequency=draw(st.integers(min_value=1, max_value=50)),
        instruction_count=draw(st.sampled_from((0, 0, 1, 7, 10_000)) | st.integers(0, 500)),
        attempted=attempted,
        detected=draw(st.integers(min_value=0, max_value=attempted)),
        excluded=draw(st.booleans()),
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(_outcome(), max_size=12))
def test_combine_rates_matches_per_term_fractions(outcomes):
    assert combine_rates(outcomes) == _combine_rates_per_term(outcomes)


def _probe_oracle(db, config, feasible, m):
    """The verdict a fresh full session gives: one state, one result."""
    state = SessionState(db, config, feasible=feasible)
    return verify_segment(state, m).verdict == "accepted"


def _check_probes(cfg, db, table, config, measurements, segments, specs, tally):
    """Every mutant of every segment: a prober of its own and the segment's
    one ``prober`` equal a fresh session's verdict, from the feasible stacks the
    valid run reaches the segment with.  Tallies verdicts and the mutants
    whose verdict the feasible-stack filter decides."""
    deltas = delta_map(cfg, table)
    if config is not None:
        deltas = {b: project(config, v) for b, v in deltas.items()}
    state = SessionState(db, config)
    seen = set()
    for segment, m in zip(segments, measurements):
        feasible = state.feasible
        assert verify_segment(state, m).verdict == "accepted"
        if (segment.steps, m.delta, feasible) in seen:
            continue
        seen.add((segment.steps, m.delta, feasible))
        decide = prober(db, m.start, m.end, feasible, config=config)
        for spec in specs:
            pool = mutation_pool(cfg, deltas, spec.kind)
            for mutant in mutate(cfg, deltas, segment, spec, pool, measurement=m):
                probe = mutant.measurement
                verdict = prober(db, m.start, m.end, feasible, config=config)(probe.delta)
                assert verdict == _probe_oracle(db, config, feasible, probe), (spec, probe)
                assert decide(probe.delta) == verdict, (spec, probe)
                tally[spec.kind, verdict] += 1
                if feasible is not None and verdict != prober(
                    db, m.start, m.end, None, config=config
                )(probe.delta):
                    tally["filtered"] += 1


def test_probe_verdicts_equal_a_full_session_on_the_signer_manifests():
    table = default_event_table()
    specs = default_specs(seed=7, repetitions=100)
    tally = Counter()
    for in_loop, config in (
        (False, three_register_config(table)),
        (False, None),
        (True, None),
    ):
        cfg = load_cfg(signer_cfg(in_loop))
        db = enumerate_segments(cfg, table)
        trace = BlockTrace(tuple(signer_trace(60, 25, in_loop)))
        measurements = measure(cfg, table, config, trace)
        _check_probes(cfg, db, table, config, measurements, split_trace(cfg, trace), specs, tally)
    for kind in BLOCK_KINDS + ("random_change",):
        assert tally[kind, True] + tally[kind, False] > 0, kind
    assert sum(n for (_, verdict), n in tally.items() if verdict) > 0, tally
    assert sum(n for (_, verdict), n in tally.items() if not verdict) > 0, tally


def test_probe_verdicts_equal_a_full_session_on_random_programs():
    tally = Counter()
    programs = 0
    seed = 0
    while programs < 200:
        seed += 1
        cfg, table = random_cfg_and_table(seed, max_blocks=30)
        try:
            trace = random_valid_walk(cfg, seed, max_segments=3)
        except WalkError:
            continue  # no walk to mutate; the next program stands in
        programs += 1
        db = enumerate_segments(cfg, table)
        segments = split_trace(cfg, trace)
        names = table.counter_names
        specs = default_specs(seed=seed, repetitions=10)
        for config in (None, make_config(table, [names[:1], names[1:]])):
            measurements = measure(cfg, table, config, trace)
            _check_probes(cfg, db, table, config, measurements, segments, specs, tally)
    for kind in BLOCK_KINDS + ("random_change",):
        assert tally[kind, True] > 0 and tally[kind, False] > 0, (kind, tally)


def _two_caller_doc():
    """main reaches f through g or through h; f holds a measurement point,
    so the segment out of f has one candidate per caller.  The first
    segment's branch (add or beq) pins which caller's stack is feasible."""
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "main", "entry": "m.0", "blocks": ["m.0", "m.a", "m.b", "m.c", "m.end"]},
            {"name": "g", "entry": "g.0", "blocks": ["g.0", "g.1"]},
            {"name": "h", "entry": "h.0", "blocks": ["h.0", "h.1"]},
            {"name": "f", "entry": "f.0", "blocks": ["f.0", "f.1"]},
        ],
        "blocks": [
            block("m.0", "main", ["addi"], mp=True),
            block("m.a", "main", ["add"]),
            block("m.b", "main", ["beq"]),
            block("m.c", "main", ["add"]),
            block("m.end", "main", ["jalr"], mp=True),
            block("g.0", "g", ["jal"]),
            block("g.1", "g", ["lw"]),
            block("h.0", "h", ["jal"]),
            block("h.1", "h", ["beq"]),
            block("f.0", "f", ["add"], mp=True),
            block("f.1", "f", ["jalr"]),
        ],
        "edges": [
            edge("m.0", "m.a", "branch"),
            edge("m.0", "m.b", "branch"),
            edge("m.a", "g.0", "call"),
            edge("m.b", "h.0", "call"),
            edge("g.0", "f.0", "call"),
            edge("h.0", "f.0", "call"),
            edge("f.0", "f.1"),
            edge("f.1", "g.1", "return"),
            edge("f.1", "h.1", "return"),
            edge("g.1", "m.c", "return"),
            edge("h.1", "m.c", "return"),
            edge("m.c", "m.end"),
        ],
        "entry": "m.0",
    }


def test_probe_verdicts_follow_the_feasible_stacks(tiny_table):
    """Replacing g.1 by the unconnected m.b gives exactly the measurement of
    the path back through h: only the feasible-stack filter rejects it."""
    cfg = load_cfg(_two_caller_doc())
    db = enumerate_segments(cfg, tiny_table)
    trace = BlockTrace(("m.0", "m.a", "g.0", "f.0", "f.1", "g.1", "m.c", "m.end"))
    tally = Counter()
    for config in (None, make_config(tiny_table, [TINY_COUNTERS[:2], TINY_COUNTERS[2:]])):
        measurements = measure(cfg, tiny_table, config, trace)
        segments = split_trace(cfg, trace)
        specs = default_specs(seed=1)
        _check_probes(cfg, db, tiny_table, config, measurements, segments, specs, tally)
    assert tally["filtered"] >= 2, tally


def _chain_with_skip(tiny_table, start, end):
    doc = two_loop_chain_doc()
    doc["skip_segments"] = [{"start": start, "end": end}]
    cfg = load_cfg(doc)
    return cfg, enumerate_segments(cfg, tiny_table)


def test_probe_verdicts_after_and_on_skip_segments(tiny_table):
    specs = default_specs(seed=3, repetitions=20)
    steps = BlockTrace(("A", "B", "D", "E", "B", "C"))
    tally = Counter()
    # C -> A is never connected but skipped: it accepts anything and leaves
    # the feasible set unconstrained (None) for the next segment.
    cfg, db = _chain_with_skip(tiny_table, "C", "A")
    skipped = Measurement("C", "A", (5, 5, 5))
    assert prober(db, "C", "A", frozenset({()}))(skipped.delta)
    state = SessionState(db)
    verify_segment(state, skipped)
    assert state.feasible is None
    m = measure_segment(cfg, tiny_table, None, steps)
    for spec in specs:
        pool = mutation_pool(cfg, delta_map(cfg, tiny_table), spec.kind)
        for mutant in mutate(cfg, delta_map(cfg, tiny_table), steps, spec, pool, measurement=m):
            verdict = prober(db, "A", "C", None)(mutant.delta)
            assert verdict == _probe_oracle(db, None, None, mutant.measurement)
            tally[verdict] += 1
    assert tally[False] > 0
    assert prober(db, "A", "C", None)(m.delta) and _probe_oracle(db, None, None, m)
    # A -> C itself skipped: every mutant of it is accepted, as a session does.
    cfg, db = _chain_with_skip(tiny_table, "A", "C")
    for spec in specs:
        pool = mutation_pool(cfg, delta_map(cfg, tiny_table), spec.kind)
        for mutant in mutate(cfg, delta_map(cfg, tiny_table), steps, spec, pool, measurement=m):
            for feasible in (frozenset({()}), None):
                assert prober(db, "A", "C", feasible)(mutant.delta)
                assert _probe_oracle(db, None, feasible, mutant.measurement)
    assert prober(db, "A", "C", frozenset({()}))((999, 0, 999))


def test_probe_of_an_unknown_segment_rejects(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    db = enumerate_segments(cfg, tiny_table)
    unknown = Measurement("C", "A", (1, 0, 0))
    for feasible in (frozenset({()}), None):
        assert not prober(db, "C", "A", feasible)(unknown.delta)
        assert not _probe_oracle(db, None, feasible, unknown)


def test_probe_with_a_wrong_dimension_is_a_schema_error(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    db = enumerate_segments(cfg, tiny_table)
    with pytest.raises(SchemaError, match="dimension"):
        prober(db, "A", "C", frozenset({()}))((3, 1))
    config = make_config(tiny_table, [("instret",), ("int_load_retired",)])
    with pytest.raises(SchemaError, match="dimension"):
        prober(db, "A", "C", frozenset({()}), config=config)((3, 1, 0))
    assert prober(db, "A", "C", frozenset({()}), config=config)((3, 0))


def test_evaluate_builds_no_edited_steps(monkeypatch):
    """Mutants carry their edit; ``evaluate`` reads only their deltas, so
    it never builds an edited step tuple."""
    table = default_event_table()
    cfg = load_cfg(signer_cfg(False))
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(signer_trace(8, 25, False)))
    specs = default_specs(seed=7, repetitions=30)
    configs = (three_register_config(table), None)
    expected = [evaluate(cfg, db, table, trace, specs, config=c) for c in configs]

    def refuse(self):
        raise AssertionError("an edited step tuple was built")

    monkeypatch.setattr(attacks.Mutant, "steps", property(refuse))
    assert [evaluate(cfg, db, table, trace, specs, config=c) for c in configs] == expected


def test_evaluate_builds_no_mutant_measurement(monkeypatch):
    """Mutants carry their delta and their segment's endpoints; ``evaluate``
    reads the delta, so it never builds a mutant's measurement record."""
    table = default_event_table()
    cfg = load_cfg(signer_cfg(True))
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(signer_trace(8, 25, True)))
    specs = default_specs(seed=7, repetitions=30)
    configs = (three_register_config(table), None)
    expected = [evaluate(cfg, db, table, trace, specs, config=c) for c in configs]

    def refuse(self):
        raise AssertionError("a mutant's measurement was built")

    monkeypatch.setattr(attacks.Mutant, "measurement", property(refuse))
    assert [evaluate(cfg, db, table, trace, specs, config=c) for c in configs] == expected


def test_mutants_compare_by_measurement_and_edited_steps():
    m = Measurement("a", "d", (1, 2))
    segment = ("a", "b", "c", "d")
    removed = attacks.Mutant(m.delta, (m.start, m.end), segment, 1, 2, None)
    assert removed.steps == ("a", "c", "d")
    # The same edited steps written as another edit of another tuple.
    assert removed == attacks.Mutant(m.delta, (m.start, m.end), ("a", "x", "d"), 1, 2, "c")
    assert removed != attacks.Mutant(m.delta, (m.start, m.end), segment, 2, 3, None)
    assert removed != attacks.Mutant((1, 3), ("a", "d"), segment, 1, 2, None)
    assert attacks.Mutant(m.delta, (m.start, m.end)).steps is None and attacks.Mutant(
        m.delta, (m.start, m.end)
    ) == attacks.Mutant(m.delta, (m.start, m.end))
    assert attacks.Mutant(m.delta, (m.start, m.end)) != removed
    with pytest.raises(TypeError):
        hash(removed)


def _evaluation_case(case):
    """(cfg, db, table, trace, register files) of an evaluation input: by
    name, the shipped signer runs, the greeter or a chain; as (density,
    seed), a random program with measurement points at that density.  The
    register files are the identity (as ``None`` and as a config) and three
    registers: the limited-hardware file on the default table, else the
    first counter, the second and a composite of the rest."""
    if isinstance(case, tuple):
        density, program = case
        while True:
            cfg, table = random_cfg_and_table(program, max_blocks=30, point_density=density)
            try:
                trace = random_valid_walk(cfg, program, max_segments=3)
                break
            except WalkError:
                program += 1_000
        db = enumerate_segments(cfg, table)
    else:
        table = default_event_table()
        if case.startswith("signer"):
            in_loop = case == "signer-in-loop"
            cfg = load_cfg(signer_cfg(in_loop))
            trace = BlockTrace(tuple(signer_trace(60, 25, in_loop)))
        elif case == "greeter":
            cfg = load_cfg(greeter_cfg())
            trace = BlockTrace(tuple(greeter_trace()))
        else:
            counters, attribution = tiny_table_doc()
            table = make_event_table(counters, attribution)
            if case == "two-loop-chain":
                cfg = load_cfg(two_loop_chain_doc())
                trace = BlockTrace(tuple("ABDEBDFGDFGDEBC"))
            elif case == "skipped-chain":
                cfg, _ = _chain_with_skip(table, "A", "C")
                trace = BlockTrace(tuple("ABDEBC"))
            elif case == "long-chain":
                cfg = load_cfg(_long_chain_doc(8))
                trace = BlockTrace(("h.0", *(f"h.{i}" for i in range(1, 9)), "h.end"))
            else:
                cfg = load_cfg(_zero_block_doc())
                trace = BlockTrace(("h.0", "h.1", "h.2", "h.3", "h.end"))
        db = enumerate_segments(cfg, table)
    names = table.counter_names
    if names == default_event_table().counter_names:
        three = three_register_config(table)
    else:
        three = make_config(table, [g for g in (names[:1], names[1:2], names[2:]) if g])
    return cfg, db, table, trace, (None, make_config(table), three)


def _report_fields(reports):
    """Every field of every report, in the reports' own order, each value
    with its type, so that equal but differently typed values differ."""

    def typed(value):
        return type(value).__name__, value

    return [
        (
            kind,
            [(f.name, typed(getattr(r, f.name))) for f in fields(r) if f.name != "per_segment"],
            [
                (index, [(f.name, typed(getattr(o, f.name))) for f in fields(o)])
                for index, o in r.per_segment.items()
            ],
        )
        for kind, r in reports.items()
    ]


_DEMO_CASES = (
    "signer", "signer-in-loop", "greeter", "two-loop-chain", "skipped-chain", "long-chain",
    "zero-block-chain",
)


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(_DEMO_CASES)
    | st.tuples(st.sampled_from((0.1, 0.25, 0.5)), st.integers(0, 80)),
    register=st.integers(0, 2),
    seed=st.integers(0, 10_000),
    reps=st.sampled_from((None, 1, 7)),
)
def test_evaluate_matches_the_full_record_reference(case, register, seed, reps):
    """Mutants that carry their delta give the reports, field for field and
    in order, of the evaluation that built a measurement per mutant and
    validated each mutated segment again; each segment's mutants are that
    evaluation's, in order, including every random draw."""
    cfg, db, table, trace, configs = _evaluation_case(case)
    config = configs[register]
    specs = default_specs(seed=seed, repetitions=reps)
    got = evaluate(cfg, db, table, trace, specs, config=config)
    expected = oracles.reference_evaluate(cfg, db, table, trace, specs, config=config)
    assert _report_fields(got) == _report_fields(expected)
    deltas = delta_map(cfg, table, config)
    for cls in attacks._segment_classes(cfg, db, table, trace, config):
        for spec in specs:
            args = (cfg, deltas, cls.segment, spec, mutation_pool(cfg, deltas, spec.kind))
            mutants = mutate(*args, measurement=cls.measurement)
            reference = oracles.reference_mutate(*args, measurement=cls.measurement)
            assert [(m.measurement, m.steps) for m in mutants] == [
                (m.measurement, m.steps) for m in reference
            ]


@st.composite
def _bounds_with_zero(draw):
    bounds = draw(st.lists(st.integers(0, 30) | st.integers(0, 2**70), max_size=7))
    bounds.insert(draw(st.integers(0, len(bounds))), 0)
    return bounds


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64), bounds=_bounds_with_zero(), rounds=st.integers(1, 5))
def test_randrange_draw_is_the_randint_stream(seed, bounds, rounds):
    """``randrange(2b+1) - b`` draws what ``randint(-b, b)`` draws, value for
    value and state for state, zero bounds included."""
    old, new = random.Random(seed), random.Random(seed)
    for _ in range(rounds):
        drawn = [new.randrange(2 * b + 1) - b for b in bounds]
        assert drawn == [old.randint(-b, b) for b in bounds]
    assert new.getstate() == old.getstate()

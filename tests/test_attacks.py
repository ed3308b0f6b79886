import random
from collections import Counter
from fractions import Fraction

import pytest

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
from flowattest.database import enumerate_segments
from flowattest.demos import signer_cfg, signer_trace
from flowattest.errors import SchemaError
from flowattest.events import (
    default_event_table,
    delta_map,
    identity_config,
    make_config,
    make_event_table,
    project,
    three_register_config,
)
from flowattest.simulate import measure_segment, random_valid_walk
from flowattest.verify import SessionState, verify_segment

from .conftest import TINY_COUNTERS, block, edge, tiny_table_doc
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
    mutants = mutate(cfg, delta_map(cfg, tiny_table), segment, spec)
    assert len(mutants) == 8
    assert len({m.steps for m in mutants}) == 8


def test_inserting_a_block_beside_its_copy_is_one_mutant(tiny_table):
    """Inserting a block just before or just after a copy of itself gives
    the same steps; the mutant is drawn once, at the first gap."""
    doc = _long_chain_doc(8)
    cfg = load_cfg(doc)
    segment = BlockTrace(tuple(b["id"] for b in doc["blocks"]))
    spec = MutationSpec(kind="insert_unique", repetitions=1000, seed=1)
    edited = [m.steps for m in mutate(cfg, delta_map(cfg, tiny_table), segment, spec)]
    assert len(edited) == len(set(edited))
    beside = [steps for steps in edited if any(a == b for a, b in zip(steps, steps[1:]))]
    assert len(beside) >= 5


def test_block_mutants_are_structurally_invalid(tiny_table):
    cfg = load_cfg(_long_chain_doc(6))
    segment = BlockTrace(tuple(b["id"] for b in _long_chain_doc(6)["blocks"]))
    for kind in ("remove_block", "replace_block", "replace_unique", "insert_unique"):
        spec = MutationSpec(kind=kind, seed=3)
        for mutant in mutate(cfg, delta_map(cfg, tiny_table), segment, spec):
            assert not validate_trace(cfg, BlockTrace(mutant.steps))
            assert mutant.steps[0] == segment.steps[0]
            assert mutant.steps[-1] == segment.steps[-1]


def test_mutants_are_seed_deterministic_and_distinct(tiny_table):
    cfg = load_cfg(_long_chain_doc(8))
    segment = BlockTrace(tuple(b["id"] for b in _long_chain_doc(8)["blocks"]))
    spec = MutationSpec(kind="replace_block", repetitions=20, seed=5)
    first = mutate(cfg, delta_map(cfg, tiny_table), segment, spec)
    second = mutate(cfg, delta_map(cfg, tiny_table), segment, spec)
    assert [m.steps for m in first] == [m.steps for m in second]
    assert len({m.steps for m in first}) == 20


def test_random_change_respects_componentwise_bounds():
    m = Measurement("a", "b", (100, 50, 7))
    spec = MutationSpec(kind="random_change", repetitions=50, seed=2)
    mutants = mutate(None, None, None, spec, measurement=m)
    assert len(mutants) == 50
    seen = set()
    for mutant in mutants:
        delta = mutant.measurement.delta
        assert delta not in seen
        seen.add(delta)
        diff = tuple(d - v for d, v in zip(delta, (100, 50, 7)))
        assert any(diff)
        assert abs(diff[0]) <= 10 and abs(diff[1]) <= 5 and diff[2] == 0
    assert mutants == mutate(None, None, None, spec, measurement=m)


def test_random_change_enumerates_small_spaces():
    m = Measurement("a", "b", (10, 3))
    spec = MutationSpec(kind="random_change", repetitions=1000, seed=0)
    mutants = mutate(None, None, None, spec, measurement=m)
    assert len(mutants) == 2  # perturbations (-1,0) and (+1,0)


def test_random_change_with_tiny_values_is_inapplicable():
    m = Measurement("a", "b", (5, 3))
    assert mutate(None, None, None, MutationSpec(kind="random_change"), measurement=m) == []


def test_two_block_segment_has_no_remove_mutants(tiny_table):
    doc = _long_chain_doc(0)
    cfg = load_cfg(doc)
    segment = BlockTrace(("h.0", "h.end"))
    spec = MutationSpec(kind="remove_block")
    assert mutate(cfg, delta_map(cfg, tiny_table), segment, spec) == []


def test_detection_flag_equals_verifier_rejection(tiny_table):
    cfg = load_cfg(_long_chain_doc(6))
    table = tiny_table
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(b["id"] for b in _long_chain_doc(6)["blocks"]))
    (segment,) = split_trace(cfg, trace)
    spec = MutationSpec(kind="insert_unique", repetitions=30, seed=4)
    mutants = mutate(cfg, delta_map(cfg, table), segment, spec)
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
    yield cfg, table, [segment], (identity_config(table), make_config(table, [TINY_COUNTERS]))
    table = default_event_table()
    for in_loop in (False, True):
        cfg = load_cfg(signer_cfg(in_loop))
        trace = BlockTrace(tuple(signer_trace(4, 2, in_loop)))
        configs = (identity_config(table), three_register_config(table))
        yield cfg, table, split_trace(cfg, trace), configs
    for seed in range(40):
        cfg, table = random_cfg_and_table(seed, max_blocks=30)
        trace = random_valid_walk(cfg, seed, max_segments=3)
        names = table.counter_names
        configs = (identity_config(table), make_config(table, [names[:1], names[1:]]))
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
                        mutants = mutate(cfg, deltas, segment, spec)
                        assert mutants == mutate(cfg, deltas, segment, spec, measurement=measured)
                        expected = _full_validation_mutants(cfg, deltas, segment, spec)
                        assert [m.steps for m in mutants] == expected
                        for mutant in mutants:
                            steps = BlockTrace(mutant.steps)
                            assert not validate_trace(cfg, steps)
                            assert mutant.measurement == measure_segment(cfg, table, config, steps)
                        checked[kind] += len(mutants)
    assert min(checked.values()) >= 500, checked


def test_mutating_an_invalid_segment_is_a_schema_error(tiny_table):
    cfg = load_cfg(_long_chain_doc(4))
    deltas = delta_map(cfg, tiny_table)
    broken = BlockTrace(("h.0", "h.2", "h.3", "h.end"))  # no edge h.0 -> h.2
    for kind in BLOCK_KINDS:
        with pytest.raises(SchemaError, match="invalid segment"):
            mutate(cfg, deltas, broken, MutationSpec(kind))

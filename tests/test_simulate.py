import random

import pytest

from flowattest import simulate
from flowattest.cfg import BlockTrace, load_cfg, serialize_cfg, split_trace, validate_trace
from flowattest.demos import signer_cfg, signer_trace
from flowattest.errors import FlowAttestError, UnknownBlockError, WalkError
from flowattest.events import (
    default_event_table,
    delta_map,
    make_config,
    project,
    three_register_config,
)
from flowattest.simulate import measure, measure_segment, random_valid_walk
from flowattest.vectors import vadd, vsub, vsum

from .conftest import LOOP1, straight_line_doc, two_loop_chain_doc
from .oracles import validate_trace_per_step
from .randcfg import random_cfg_and_table


def test_straight_line_delta_uses_exit_convention(tiny_table):
    cfg = load_cfg(straight_line_doc())
    (m,) = measure(cfg, tiny_table, None, BlockTrace(("s.0", "s.1", "s.2")))
    # delta(s.1) + delta(s.2); the start snapshot block is excluded.
    assert m.delta == (3, 0, 1)
    assert (m.start, m.end) == ("s.0", "s.2")


def test_loop_taken_twice_adds_two_loop_vectors(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    trace = BlockTrace(("A", "B", "D", "E", "B", "D", "E", "B", "C"))
    (m,) = measure(cfg, tiny_table, None, trace)
    assert m.delta == vadd((3, 1, 0), tuple(2 * x for x in LOOP1))


def test_long_trace_matches_naive_accumulator():
    from flowattest.demos import signer_cfg, signer_trace
    from flowattest.events import default_event_table

    cfg = load_cfg(signer_cfg(True))
    table = default_event_table()
    trace = BlockTrace(tuple(signer_trace(1700, 7, True)))
    assert len(trace.steps) > 10_000
    measurements = measure(cfg, table, None, trace)
    # Independent pass: accumulate per step, snapshotting at measurement
    # points exactly like the monitor would.
    deltas = delta_map(cfg, table)
    acc = [0] * table.dimension
    naive = []
    for step in trace.steps[1:]:
        acc = [a + d for a, d in zip(acc, deltas[step])]
        if cfg.blocks[step].is_measurement_point:
            naive.append(tuple(acc))
            acc = [0] * table.dimension
    assert [m.delta for m in measurements] == naive


def test_measure_is_deterministic(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    trace = BlockTrace(("A", "B", "D", "E", "B", "C"))
    assert measure(cfg, tiny_table, None, trace) == measure(cfg, tiny_table, None, trace)


def test_offset_is_added_per_snapshot(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    trace = BlockTrace(("A", "B", "C"))
    plain = measure(cfg, tiny_table, None, trace)
    shifted = measure(cfg, tiny_table, None, trace, offset=(3, 0, 1))
    assert [m.delta for m in shifted] == [vadd(m.delta, (3, 0, 1)) for m in plain]
    assert [vsub(m.delta, (3, 0, 1)) for m in shifted] == [m.delta for m in plain]


def test_segment_deltas_sum_to_whole_trace(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    trace = BlockTrace(("A", "B", "D", "F", "G", "D", "E", "B", "C"))
    measurements = measure(cfg, tiny_table, None, trace)
    deltas = delta_map(cfg, tiny_table)
    whole = vsum((deltas[s] for s in trace.steps), cfg.dimension)
    start_part = deltas[trace.steps[0]]
    assert vsum((m.delta for m in measurements), cfg.dimension) == vsub(whole, start_part)


def test_walks_are_seed_deterministic():
    cfg, _table = random_cfg_and_table(3)
    a = random_valid_walk(cfg, 42)
    b = random_valid_walk(cfg, 42)
    assert a == b


def test_zero_loop_iterations_never_enter_the_loop(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    for seed in range(10):
        trace = random_valid_walk(cfg, seed, max_loop_iterations=0)
        assert "D" not in trace.steps


def test_hundred_walks_all_validate():
    cfg, _table = random_cfg_and_table(77, max_blocks=30)
    for seed in range(100):
        trace = random_valid_walk(cfg, seed, min_segments=1, max_segments=5)
        assert validate_trace(cfg, trace)
        assert len(split_trace(cfg, trace)) >= 1


def test_unsatisfiable_constraints_raise(tiny_table, monkeypatch):
    cfg = load_cfg(straight_line_doc())
    monkeypatch.setattr(simulate, "_ATTEMPTS", 10)
    with pytest.raises(WalkError, match="within 10 attempts"):
        # The line has exactly one segment; five are impossible and even a
        # one-segment prefix cannot appear five times.
        random_valid_walk(cfg, 0, min_segments=5, max_segments=5)


def test_measure_segment_handles_invalid_sequences(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    broken = BlockTrace(("A", "D", "C"))  # no A->D edge
    assert not validate_trace(cfg, broken)
    m = measure_segment(cfg, tiny_table, None, broken)
    deltas = delta_map(cfg, tiny_table)
    assert m.delta == vadd(deltas["D"], deltas["C"])


def _with_zero_block(cfg, a, b):
    """``cfg`` plus a zero-instruction block ``zero`` on a detour from
    ``a`` to ``b``, two blocks of one function."""
    doc = serialize_cfg(cfg)
    function = cfg.blocks[a].function
    doc["blocks"].append(
        {"id": "zero", "function": function, "instruction_count": 0,
         "is_measurement_point": False, "instructions": []}
    )
    for info in doc["functions"]:
        if info["name"] == function:
            info["blocks"].append("zero")
    doc["edges"] += [
        {"from": a, "to": "zero", "kind": "fallthrough"},
        {"from": "zero", "to": b, "kind": "fallthrough"},
    ]
    return load_cfg(doc)


def _outcome(check, cfg, steps):
    try:
        return check(cfg, BlockTrace(tuple(steps)))
    except FlowAttestError as exc:
        return type(exc), str(exc)


def _assert_measure_is_per_segment(cfg, table, trace, configs):
    for config in configs:
        dim = table.dimension if config is None else config.dimension
        for offset in (None, tuple(range(1, dim + 1))):
            assert measure(cfg, table, config, trace, offset=offset) == [
                measure_segment(cfg, table, config, segment, offset=offset)
                for segment in split_trace(cfg, trace)
            ]


def test_trace_check_matches_per_step_oracle():
    """The set-based trace check agrees with a per-step one, in verdict,
    exception type and message, on random programs' walks and corrupted
    copies of them: an empty trace, unknown ids, a zero-instruction block,
    a pair that is no edge, and endpoints that are no measurement point.
    ``measure`` equals measuring ``split_trace``'s segments one by one,
    under the identity file, a composite file and an offset."""
    zero_cases = 0
    for seed in range(40):
        rng = random.Random(seed)
        cfg, table = random_cfg_and_table(seed, max_blocks=30)
        steps = random_valid_walk(cfg, seed, max_segments=3).steps
        n = len(steps)
        first, later = sorted(rng.randrange(n) for _ in range(2))
        unknown = list(steps)
        unknown[later] = "ghost.late"
        unknown[first] = "ghost.first"
        i = rng.randrange(n - 1)
        cases = [
            (cfg, ()),
            (cfg, steps),
            (cfg, unknown),
            (cfg, steps[: i + 1] + steps[i:]),
            (cfg, steps[:i] + (rng.choice(sorted(cfg.blocks)),) + steps[i + 1 :]),
            (cfg, steps[1:]),
            (cfg, steps[:-1]),
            *((cfg, steps + (edge.dst,)) for edge in cfg.succ[steps[-1]]),
        ]
        inner = [
            j for j in range(n - 1)
            if cfg.blocks[steps[j]].function == cfg.blocks[steps[j + 1]].function
        ]
        if inner:
            j = rng.choice(inner)
            zeroed = _with_zero_block(cfg, steps[j], steps[j + 1])
            detour = steps[: j + 1] + ("zero",) + steps[j + 1 :]
            assert validate_trace(zeroed, BlockTrace(steps))
            assert not validate_trace(zeroed, BlockTrace(detour))
            cases += [(zeroed, steps), (zeroed, detour)]
            zero_cases += 1
        for graph, trace in cases:
            expected = _outcome(validate_trace_per_step, graph, trace)
            assert _outcome(validate_trace, graph, trace) == expected, (seed, trace)
        assert _outcome(validate_trace, cfg, unknown) == (
            UnknownBlockError, "trace references unknown block 'ghost.first'"
        )
        names = table.counter_names
        configs = (None, make_config(table, [names[:1], names[1:]]))
        _assert_measure_is_per_segment(cfg, table, BlockTrace(steps), configs)
    assert zero_cases > 20
    table = default_event_table()
    cfg = load_cfg(signer_cfg(True))
    trace = BlockTrace(tuple(signer_trace(6, 25, True)))
    _assert_measure_is_per_segment(cfg, table, trace, (None, three_register_config(table)))


def _project_after_sum(cfg, table, config, steps, offset):
    """The reference measurement: sum the full-width block deltas after the
    starting snapshot, then project the sum, then add the offset."""
    full = delta_map(cfg, table)
    total = [0] * table.dimension
    for step in steps[1:]:
        for d, x in enumerate(full[step]):
            total[d] += x
    value = project(config, tuple(total)) if config is not None else tuple(total)
    if offset is not None:
        value = tuple(v + o for v, o in zip(value, offset))
    return value


def test_measuring_projected_deltas_equals_projecting_the_sum():
    """``measure`` and ``measure_segment`` sum block deltas projected once
    per register file; under composite files and offsets every value is
    the projection of the full-width sum, plus the offset."""
    cases = []
    for seed in range(30):
        cfg, table = random_cfg_and_table(seed, max_blocks=30)
        names = table.counter_names
        composite = make_config(table, [names[:1], names[1:]])
        cases.append((cfg, table, random_valid_walk(cfg, seed, max_segments=3), composite))
    table = default_event_table()
    cfg = load_cfg(signer_cfg(True))
    trace = BlockTrace(tuple(signer_trace(6, 25, True)))
    cases.append((cfg, table, trace, three_register_config(table)))
    segments_checked = 0
    for cfg, table, trace, composite in cases:
        for config in (None, composite):
            dim = table.dimension if config is None else config.dimension
            for offset in (None, tuple(range(3, dim + 3))):
                measured = measure(cfg, table, config, trace, offset=offset)
                segments = split_trace(cfg, trace)
                assert len(measured) == len(segments)
                for m, segment in zip(measured, segments):
                    expected = _project_after_sum(cfg, table, config, segment.steps, offset)
                    assert m.delta == expected
                    one = measure_segment(cfg, table, config, segment, offset=offset)
                    assert one.delta == expected
                    segments_checked += 1
    assert segments_checked > 100

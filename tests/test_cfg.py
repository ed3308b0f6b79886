import json
import random

import pytest

from flowattest.cfg import (
    BlockTrace,
    load_cfg,
    load_trace,
    segment_instruction_counts,
    serialize_cfg,
    serialize_trace,
    split_trace,
    validate_trace,
)
from flowattest.errors import (
    DigestMismatchError,
    RecursionDetectedError,
    SchemaError,
    UnknownBlockError,
)

from .conftest import TINY_COUNTERS, block, edge, straight_line_doc, two_loop_chain_doc
from .oracles import simple_cycles_bruteforce


def test_straight_line_loads():
    cfg = load_cfg(straight_line_doc())
    assert len(cfg.blocks) == 3
    assert len(cfg.edges) == 2
    assert all(e.kind == "fallthrough" for e in cfg.edges)


def test_call_cycle_rejected():
    doc = {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "f", "entry": "f.0", "blocks": ["f.0"]},
            {"name": "g", "entry": "g.0", "blocks": ["g.0"]},
        ],
        "blocks": [
            block("f.0", "f", ["jal"], mp=True),
            block("g.0", "g", ["jal"]),
        ],
        "edges": [
            edge("f.0", "g.0", "call"),
            edge("g.0", "f.0", "call"),
        ],
        "entry": "f.0",
    }
    with pytest.raises(RecursionDetectedError) as err:
        load_cfg(doc)
    assert str(err.value) == "recursion detected: f,g"


def _call_graph_doc(rng, n):
    """A program of ``n`` one-block functions ``f0``..., entered at ``f0``,
    whose blocks call each other at random: by call edges, or across
    functions also by indirect edges.  Returns the document and its call
    graph."""
    calls = {f"f{i}": [] for i in range(n)}
    edges = []
    density = rng.choice((0.1, 0.25, 0.5))
    for src in calls:
        for dst in calls:
            if rng.random() < density:
                calls[src].append(dst)
                kind = "call" if src == dst else rng.choice(("call", "indirect"))
                edges.append(edge(f"{src}.0", f"{dst}.0", kind))
    blocks = [block(f"{fn}.0", fn, ["jal"], mp=fn == "f0") for fn in calls]
    rng.shuffle(blocks)
    rng.shuffle(edges)
    functions = [{"name": fn, "entry": f"{fn}.0", "blocks": [f"{fn}.0"]} for fn in calls]
    doc = {
        "counters": TINY_COUNTERS,
        "functions": functions,
        "blocks": blocks,
        "edges": edges,
        "entry": "f0.0",
    }
    return doc, calls


def test_recursion_check_matches_bruteforce_cycles():
    """On random call graphs of 1-7 functions, load_cfg refuses exactly the
    graphs with a simple cycle, and the cycle it names is one of them."""
    rng = random.Random(20_261_020)
    outcomes = {True: 0, False: 0}
    for _ in range(2_400):
        doc, calls = _call_graph_doc(rng, rng.randint(1, 7))
        cycles = simple_cycles_bruteforce(calls)
        try:
            load_cfg(doc)
            named = None
        except RecursionDetectedError as err:
            named = err.cycle
        assert (named is not None) == bool(cycles), calls
        if named is not None:
            start = named.index(min(named))
            assert named[start:] + named[:start] in cycles, (calls, named)
        outcomes[bool(cycles)] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_two_loop_chain_shape():
    cfg = load_cfg(two_loop_chain_doc())
    assert len(cfg.blocks) == 7
    assert len(cfg.edges) == 8


def test_duplicate_block_id_rejected():
    doc = straight_line_doc()
    doc["blocks"].append(block("s.0", "main", ["add"]))
    with pytest.raises(SchemaError, match="duplicate block id"):
        load_cfg(doc)


def test_dangling_edge_rejected():
    doc = straight_line_doc()
    doc["edges"].append(edge("s.2", "nowhere"))
    with pytest.raises(SchemaError, match="dangling"):
        load_cfg(doc)


def test_unknown_keys_rejected():
    doc = straight_line_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="unknown key"):
        load_cfg(doc)
    doc = straight_line_doc()
    doc["blocks"][0]["surprise"] = True
    with pytest.raises(SchemaError, match="unknown key"):
        load_cfg(doc)


def test_entry_must_be_measurement_point():
    doc = straight_line_doc()
    doc["blocks"][0]["is_measurement_point"] = False
    with pytest.raises(SchemaError, match="measurement point"):
        load_cfg(doc)


def test_instruction_count_must_match_listing():
    doc = straight_line_doc()
    doc["blocks"][1]["instruction_count"] = 7
    with pytest.raises(SchemaError, match="does not match"):
        load_cfg(doc)


def test_intra_edge_may_not_cross_functions():
    doc = two_loop_chain_doc()
    doc["functions"].append({"name": "other", "entry": "o.0", "blocks": ["o.0"]})
    doc["blocks"].append(block("o.0", "other", ["add"]))
    doc["edges"].append(edge("C", "o.0", "branch"))
    with pytest.raises(SchemaError, match="crosses function boundary"):
        load_cfg(doc)


def test_round_trip_is_structural_identity():
    cfg = load_cfg(two_loop_chain_doc())
    again = load_cfg(serialize_cfg(cfg))
    assert cfg == again
    assert cfg.digest == again.digest


def test_digest_ignores_field_order():
    doc = two_loop_chain_doc()
    cfg = load_cfg(doc)
    shuffled = json.loads(json.dumps(doc))
    shuffled["edges"] = list(reversed(shuffled["edges"]))
    shuffled["blocks"] = list(reversed(shuffled["blocks"]))
    assert load_cfg(shuffled).digest == cfg.digest


def test_validate_trace_happy_and_sad():
    cfg = load_cfg(two_loop_chain_doc())
    assert validate_trace(cfg, BlockTrace(("A", "B", "C")))
    assert not validate_trace(cfg, BlockTrace(("A", "C")))  # no A->C edge
    assert not validate_trace(cfg, BlockTrace(("A", "B")))  # B is no snapshot
    with pytest.raises(SchemaError):
        validate_trace(cfg, BlockTrace(()))
    with pytest.raises(UnknownBlockError):
        validate_trace(cfg, BlockTrace(("A", "Z")))


def test_split_trace_counts():
    cfg = load_cfg(two_loop_chain_doc())
    # A ... C with an extra snapshot would give 2 segments; here A->C is one.
    trace = BlockTrace(("A", "B", "D", "E", "B", "C"))
    segments = split_trace(cfg, trace)
    assert len(segments) == 1
    single = split_trace(cfg, BlockTrace(("A",)))
    assert single == []


def _chain_doc(n_blocks, mp_positions):
    blocks = []
    edges = []
    for i in range(n_blocks):
        instructions = ["add"] * (1 + i % 3)
        blocks.append(block(f"c.{i}", "main", instructions, mp=i in mp_positions))
        if i:
            edges.append(edge(f"c.{i-1}", f"c.{i}"))
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "main", "entry": "c.0", "blocks": [b["id"] for b in blocks]}
        ],
        "blocks": blocks,
        "edges": edges,
        "entry": "c.0",
    }


def test_split_five_snapshot_chain_partitions_instructions():
    marks = {0, 25, 50, 75, 99}
    cfg = load_cfg(_chain_doc(100, marks))
    trace = BlockTrace(tuple(f"c.{i}" for i in range(100)))
    segments = split_trace(cfg, trace)
    assert len(segments) == 4
    for segment in segments:
        assert cfg.blocks[segment.steps[0]].is_measurement_point
        assert cfg.blocks[segment.steps[-1]].is_measurement_point
        assert not any(cfg.blocks[s].is_measurement_point for s in segment.steps[1:-1])
    # Independent recount by one linear scan over the raw steps.
    expected_total = sum(cfg.blocks[s].instruction_count for s in trace.steps)
    counts = segment_instruction_counts(cfg, segments)
    assert sum(counts) == expected_total
    # Segments reassemble the trace when shared endpoints are merged once.
    rebuilt = list(segments[0].steps)
    for segment in segments[1:]:
        assert rebuilt[-1] == segment.steps[0]
        rebuilt.extend(segment.steps[1:])
    assert tuple(rebuilt) == trace.steps


def test_zero_instruction_block_invalidates_trace():
    doc = straight_line_doc()
    doc["blocks"][1]["instructions"] = []
    doc["blocks"][1]["instruction_count"] = 0
    cfg = load_cfg(doc)
    assert not validate_trace(cfg, BlockTrace(("s.0", "s.1", "s.2")))


def test_skip_segments_parse_and_validate():
    doc = two_loop_chain_doc()
    doc["skip_segments"] = [{"start": "A", "end": "C"}]
    cfg = load_cfg(doc)
    assert ("A", "C") in cfg.skip_segments
    doc["skip_segments"] = [{"start": "A", "end": "B"}]
    with pytest.raises(SchemaError, match="not a measurement point"):
        load_cfg(doc)
    doc["skip_segments"] = [{"start": ["A"], "end": "C"}]
    with pytest.raises(SchemaError, match="block ids"):
        load_cfg(doc)
    doc["skip_segments"] = 1
    with pytest.raises(SchemaError, match="must be an array"):
        load_cfg(doc)


def test_trace_document_round_trip_and_digest_check():
    cfg = load_cfg(two_loop_chain_doc())
    trace = BlockTrace(("A", "B", "C"))
    doc = serialize_trace(cfg, trace)
    assert load_trace(doc, cfg.digest) == trace
    other = load_cfg(straight_line_doc())
    with pytest.raises(DigestMismatchError):
        load_trace(doc, other.digest)


def test_return_edge_requires_call_relationship():
    doc = {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "main", "entry": "m.0", "blocks": ["m.0", "m.1"]},
            {"name": "f", "entry": "f.0", "blocks": ["f.0"]},
        ],
        "blocks": [
            block("m.0", "main", ["add"], mp=True),
            block("m.1", "main", ["add"]),
            block("f.0", "f", ["jalr"]),
        ],
        "edges": [
            edge("m.0", "m.1"),
            edge("f.0", "m.1", "return"),
        ],
        "entry": "m.0",
    }
    with pytest.raises(SchemaError, match="never calls"):
        load_cfg(doc)

import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowattest
from flowattest import database
from flowattest.cfg import BlockTrace, _simple_cycles, _strong_components, load_cfg
from flowattest.database import (
    DEFAULT_PATH_BUDGET,
    dedup_key,
    enumerate_segments,
    load_database,
    serialize_database,
)
from flowattest.demos import greeter_cfg, pathburst_cfg, signer_cfg
from flowattest.errors import BudgetError, DigestMismatchError, SchemaError
from flowattest.events import CounterEvent, default_event_table, make_event_table
from flowattest.expand import expand
from flowattest.simulate import measure
from flowattest.vectors import vadd

from .conftest import (
    LOOP1,
    LOOP2,
    TINY_COUNTERS,
    block,
    edge,
    straight_line_doc,
    two_loop_chain_doc,
)
from .oracles import segment_candidates_bruteforce, simple_cycles_bruteforce
from .randcfg import random_cfg_and_table


def test_two_loop_chain_enumeration(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    db = enumerate_segments(cfg, tiny_table)
    assert set(db.entries) == {("A", "C")}
    (candidate,) = db.entries[("A", "C")]
    # Snapshot-on-exit: the start block's delta is excluded, the end's included.
    assert candidate.base == (3, 1, 0)  # delta(B) + delta(C)
    # Both loops attach: the second touches the path only through the first.
    assert set(candidate.loops) == {LOOP1, LOOP2}
    assert candidate.start.stack == () and candidate.end.stack == ()
    assert candidate.base[tiny_table.instret_index] == 3


def test_straight_line_single_loop_free_candidate(tiny_table):
    cfg = load_cfg(straight_line_doc())
    db = enumerate_segments(cfg, tiny_table)
    (candidate,) = db.entries[("s.0", "s.2")]
    assert candidate.loops == ()


def _diamond_doc():
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "main", "entry": "d.0", "blocks": ["d.0", "d.1", "d.2", "d.3"]}
        ],
        "blocks": [
            block("d.0", "main", ["addi"], mp=True),
            block("d.1", "main", ["add", "add"]),
            block("d.2", "main", ["lw"]),
            block("d.3", "main", ["jalr"], mp=True),
        ],
        "edges": [
            edge("d.0", "d.1", "branch"),
            edge("d.0", "d.2", "branch"),
            edge("d.1", "d.3"),
            edge("d.2", "d.3"),
        ],
        "entry": "d.0",
    }


def test_diamond_has_two_candidates(tiny_table):
    cfg = load_cfg(_diamond_doc())
    db = enumerate_segments(cfg, tiny_table)
    assert len(db.entries[("d.0", "d.3")]) == 2


def _in_loop_snapshot_doc():
    """A measurement point inside the only loop: segments run E -> E."""
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "main", "entry": "l.0", "blocks": ["l.0", "l.1", "l.2", "l.3"]}
        ],
        "blocks": [
            block("l.0", "main", ["addi"], mp=True),
            block("l.1", "main", ["add", "lw"], mp=True),
            block("l.2", "main", ["add", "beq"]),
            block("l.3", "main", ["jalr"], mp=True),
        ],
        "edges": [
            edge("l.0", "l.1"),
            edge("l.1", "l.2", "branch"),
            edge("l.2", "l.1", "branch"),
            edge("l.1", "l.3", "branch"),
        ],
        "entry": "l.0",
    }


def test_in_loop_snapshot_yields_self_segment(tiny_table):
    cfg = load_cfg(_in_loop_snapshot_doc())
    db = enumerate_segments(cfg, tiny_table)
    assert ("l.1", "l.1") in db.entries
    (candidate,) = db.entries[("l.1", "l.1")]
    # delta(l.2) + delta(l.1); the loop through the snapshot is the path, not
    # a loop generator.
    assert candidate.base == (4, 1, 1)
    assert candidate.loops == ()


def test_dedup_key_content_addressing():
    stacks = frozenset({("m.1",)})
    k1 = dedup_key("a", "b", (1, 2), stacks)
    assert k1 == dedup_key("a", "b", (1, 2), frozenset({("m.1",)}))
    assert len({k1, dedup_key("a", "b", (1, 2), frozenset({("m.1",)}))}) == 1
    assert k1 != dedup_key("a", "b", (1, 3), stacks)
    assert k1 != dedup_key("a", "c", (1, 2), stacks)
    assert k1 != dedup_key("a", "b", (1, 2), frozenset({("m.2",)}))
    assert k1 != dedup_key("a", "b", (1, 2), None)


def test_identical_loop_iterations_share_one_key(tiny_table):
    cfg = load_cfg(_in_loop_snapshot_doc())
    steps = ["l.0"] + ["l.1", "l.2"] * 1000 + ["l.1", "l.3"]
    measurements = measure(cfg, tiny_table, None, BlockTrace(tuple(steps)))
    feasible = frozenset({()})
    keys = {
        dedup_key(m.start, m.end, m.delta, feasible)
        for m in measurements
        if (m.start, m.end) == ("l.1", "l.1")
    }
    assert len(keys) == 1


def test_database_round_trip_and_digest_guard(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    db = enumerate_segments(cfg, tiny_table)
    doc = serialize_database(db)
    assert load_database(doc, expected_digest=cfg.digest) == db
    with pytest.raises(DigestMismatchError):
        load_database(doc, expected_digest="0" * 64)


def test_enumeration_is_deterministic(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    first = serialize_database(enumerate_segments(cfg, tiny_table))
    second = serialize_database(enumerate_segments(cfg, tiny_table))
    assert first == second


def test_path_budget_names_offending_segment(tiny_table):
    cfg = load_cfg(_diamond_doc())
    with pytest.raises(BudgetError, match=r"d\.0 -> d\.3") as err:
        enumerate_segments(cfg, tiny_table, path_budget=1)
    assert "measurement points" in str(err.value)


def test_cycle_budget_is_enforced(tiny_table):
    # Two simple cycles: a budget of two passes, one less fails.
    cfg = load_cfg(two_loop_chain_doc())
    enumerate_segments(cfg, tiny_table, cycle_budget=2)
    with pytest.raises(BudgetError, match="cycle budget"):
        enumerate_segments(cfg, tiny_table, cycle_budget=1)


def _rotated(cycle):
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


@st.composite
def _digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    return {v: sorted(w for u, w in edges if u == v) for v in range(n)}


@settings(max_examples=300, deadline=None)
@given(_digraphs())
def test_simple_cycles_match_bruteforce(succ):
    components = _strong_components(succ, list(succ))
    cycles = [_rotated(c) for c in _simple_cycles(succ, components)]
    assert len(cycles) == len(set(cycles))
    assert set(cycles) == simple_cycles_bruteforce(succ)


def test_simple_cycles_include_self_loops_and_two_cycles():
    succ = {0: [0, 1], 1: [0, 1, 2], 2: [2]}
    components = _strong_components(succ, list(succ))
    cycles = sorted(_rotated(c) for c in _simple_cycles(succ, components))
    assert cycles == [(0,), (0, 1), (1,), (2,)]


def _zero_link_doc():
    """Path p.0 -> y -> p.1 through a zero-instruction block y.  The cycle
    y -> z -> y has a zero delta; the nonzero loop z -> w -> z shares a node
    only with that zero cycle, though all three blocks form one strongly
    connected component."""
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "main", "entry": "p.0", "blocks": ["p.0", "y", "z", "w", "p.1"]}
        ],
        "blocks": [
            block("p.0", "main", ["addi"], mp=True),
            block("y", "main", []),
            block("z", "main", []),
            block("w", "main", ["lw", "beq"]),
            block("p.1", "main", ["jalr"], mp=True),
        ],
        "edges": [
            edge("p.0", "y"),
            edge("y", "p.1", "branch"),
            edge("y", "z", "branch"),
            edge("z", "y", "branch"),
            edge("z", "w", "branch"),
            edge("w", "z"),
        ],
        "entry": "p.0",
    }


def test_loop_linked_only_through_a_zero_cycle_is_not_attached(tiny_table):
    db = enumerate_segments(load_cfg(_zero_link_doc()), tiny_table)
    (candidate,) = db.entries[("p.0", "p.1")]
    assert candidate.base == (1, 0, 0)
    assert candidate.loops == ()


def test_zero_delta_cycles_count_against_the_cycle_budget(tiny_table):
    cfg = load_cfg(_zero_link_doc())
    enumerate_segments(cfg, tiny_table, cycle_budget=2)
    with pytest.raises(BudgetError, match="cycle budget"):
        enumerate_segments(cfg, tiny_table, cycle_budget=1)


def test_import_leaves_networkx_unloaded():
    src = Path(flowattest.__file__).resolve().parent.parent
    probe = "import sys, flowattest; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def _chain_document(tiny_table):
    return serialize_database(enumerate_segments(load_cfg(two_loop_chain_doc()), tiny_table))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("loops", None, "missing required key 'loops'"),
        ("extra", 1, "unknown key 'extra'"),
        ("loops", [[5, 1, -1], [6, 1, 3]], r"loops\[0\]\[2\] must be >= 0"),
        ("loops", [[5, 1, 1], [6, 1]], r"loops\[1\] must be an array of 3"),
        ("base", [3, "1", 0], r"base\[1\] must be an integer"),
        ("loops", {}, "array, got dict"),
        ("end_stack", "", "end_stack must be an array"),
    ],
)
def test_load_database_rejects_malformed_candidates(tiny_table, key, value, message):
    doc = _chain_document(tiny_table)
    candidate = doc["segments"][0]["candidates"][0]
    if value is None:
        del candidate[key]
    else:
        candidate[key] = value
    with pytest.raises(SchemaError, match=message):
        load_database(doc)


def test_load_database_rejects_malformed_segments(tiny_table):
    doc = _chain_document(tiny_table)
    doc["segments"][0]["start"] = ["A"]
    with pytest.raises(SchemaError, match="block ids"):
        load_database(doc)
    doc = _chain_document(tiny_table)
    del doc["segments"][0]["candidates"]
    with pytest.raises(SchemaError, match="missing required key 'candidates'"):
        load_database(doc)
    doc = _chain_document(tiny_table)
    doc["segments"] = {}
    with pytest.raises(SchemaError, match="segments must be an array"):
        load_database(doc)


@pytest.mark.parametrize(
    "key, value", [("dimension", 3), ("base_instructions", 3), ("loop_instructions", [2, 1])]
)
def test_load_database_refuses_instruction_counts(tiny_table, key, value):
    """Documents from before instruction counts were dropped fail as
    schema errors on the first key they still carry."""
    doc = _chain_document(tiny_table)
    (doc if key == "dimension" else doc["segments"][0]["candidates"][0])[key] = value
    with pytest.raises(SchemaError, match=f"unknown key '{key}'"):
        load_database(doc)


def test_skip_segments_survive_preprocessing(tiny_table):
    doc = two_loop_chain_doc()
    doc["skip_segments"] = [{"start": "A", "end": "C"}]
    cfg = load_cfg(doc)
    db = enumerate_segments(cfg, tiny_table)
    assert ("A", "C") in db.skip_segments
    assert ("A", "C") in load_database(serialize_database(db)).skip_segments


def _candidate_sets(db, table):
    """Each candidate with the instruction counts its vectors imply: the
    instructions-retired entries of its base and of each loop."""
    instret = table.instret_index
    return {
        key: {
            (
                c.start.stack,
                c.end.stack,
                c.base,
                c.loops,
                c.base[instret],
                tuple(v[instret] for v in c.loops),
            )
            for c in candidates
        }
        for key, candidates in db.entries.items()
    }


def _assert_matches_per_path_oracle(cfg, table):
    """The database holds the oracle's candidates, each once, and the path
    budget admits exactly the oracle's largest segment: a budget of that
    many simple paths builds, and a smaller one raises naming a segment
    that has more.  Returns the database and the oracle's path counts."""
    expected, paths = segment_candidates_bruteforce(cfg, table, expand(cfg))
    most = max(paths.values(), default=0)
    db = enumerate_segments(cfg, table, path_budget=most)
    assert _candidate_sets(db, table) == expected
    # Each distinct candidate once.
    assert all(len(cands) == len(expected[key]) for key, cands in db.entries.items())
    for budget in {most - 1, most // 2, 1} & set(range(most)):
        with pytest.raises(BudgetError) as err:
            enumerate_segments(cfg, table, path_budget=budget)
        named = re.match(r"segment (\S+) -> (\S+) exceeded", str(err.value)).groups()
        assert err.value.budget == budget
        assert budget < err.value.reached <= paths[named]
    return db, paths


def test_candidates_match_per_path_oracle():
    """The tail sets merged per component entry give what summing and
    closing every simple path from scratch gives, and the path budget
    counts every simple path."""
    table = default_event_table()
    for doc in (greeter_cfg(), signer_cfg(False), signer_cfg(True)):
        _assert_matches_per_path_oracle(load_cfg(doc), table)
    seen = Counter()
    for seed in range(300):
        cfg, table = random_cfg_and_table(seed)
        db, paths = _assert_matches_per_path_oracle(cfg, table)
        candidates = [c for cands in db.entries.values() for c in cands]
        seen["loops"] += any(c.loops for c in candidates)
        seen["calls"] += any(c.start.stack or c.end.stack for c in candidates)
        seen["in-loop points"] += any(
            c.start.block == c.end.block and c.start.stack == c.end.stack for c in candidates
        )
        seen["several paths"] += max(paths.values(), default=0) > 1
    assert min(seen.values()) >= 30, seen


def _random_digraph_doc(rng):
    """One function over 3-7 blocks with random branch and fallthrough
    edges (both kinds between one pair make parallel edges), random
    instruction mixes (some empty, so zero-delta cycles occur) and random
    measurement points besides the entry."""
    n = rng.randint(3, 7)
    ids = [f"g.{i}" for i in range(n)]
    mnemonics = ("add", "lw", "beq")
    blocks = [block(ids[0], "main", ["addi"], mp=True)]
    for bid in ids[1:]:
        instructions = rng.choices(mnemonics, k=rng.choice((0, 1, 1, 2)))
        blocks.append(block(bid, "main", instructions, mp=rng.random() < 0.3))
    density = rng.uniform(0.15, 0.45)
    edges = [
        edge(src, dst, kind)
        for src in ids
        for dst in ids
        for kind in ("branch", "fallthrough")
        if rng.random() < density / (2 if kind == "fallthrough" else 1)
    ]
    return {
        "counters": TINY_COUNTERS,
        "functions": [{"name": "main", "entry": "g.0", "blocks": ids}],
        "blocks": blocks,
        "edges": edges,
        "entry": "g.0",
    }


def test_tail_sets_match_per_path_oracle_on_random_digraphs(tiny_table):
    """Arbitrary strongly connected components, several entries per
    component, parallel edges and self-loops: the candidates and the path
    budget agree with walking every simple path."""
    rng = random.Random(20_261_019)
    seen = Counter()
    for _ in range(400):
        cfg = load_cfg(_random_digraph_doc(rng))
        db, paths = _assert_matches_per_path_oracle(cfg, tiny_table)
        seen["several paths"] += max(paths.values(), default=0) > 1
        seen["loops"] += any(c.loops for cands in db.entries.values() for c in cands)
    assert min(seen.values()) >= 50, seen


def test_pathburst_budget_error_counts_every_path():
    """The shipped cascade has 2**17 simple paths; the error reports all of
    them, counted without walking any."""
    cfg = load_cfg(pathburst_cfg())
    with pytest.raises(BudgetError, match=r"p\.s -> p\.t") as err:
        enumerate_segments(cfg, default_event_table())
    assert err.value.budget == DEFAULT_PATH_BUDGET
    assert err.value.reached == 2**17


def _chain_doc(inner: int) -> dict:
    """Two measurement points joined by a straight line of ``inner`` blocks."""
    ids = ["c.s"] + [f"c.{i}" for i in range(inner)] + ["c.t"]
    blocks = [block("c.s", "main", ["addi"], mp=True)]
    blocks += [block(bid, "main", ["add", "lw"][: 1 + i % 2]) for i, bid in enumerate(ids[1:-1])]
    blocks.append(block("c.t", "main", ["jalr"], mp=True))
    return {
        "counters": TINY_COUNTERS,
        "functions": [{"name": "main", "entry": "c.s", "blocks": ids}],
        "blocks": blocks,
        "edges": [edge(a, b) for a, b in zip(ids, ids[1:])],
        "entry": "c.s",
    }


def test_long_chain_builds_without_recursion(tiny_table):
    inner = 3000
    db = enumerate_segments(load_cfg(_chain_doc(inner)), tiny_table)
    (candidate,) = db.entries[("c.s", "c.t")]
    loads = inner // 2
    assert candidate.base == (inner + loads + 1, 0, loads)
    assert candidate.base[tiny_table.instret_index] == inner + loads + 1


def _distinct_cascade(layers: int):
    """A cascade of ``layers`` ranks of two blocks each, fully connected
    rank to rank, whose 2**layers simple paths all have distinct sums: the
    blocks of rank i retire one or two instructions counted only by
    counter i.  Returns the CFG and its event table."""
    counters = [CounterEvent("instret")] + [CounterEvent(f"rank{i}") for i in range(layers)]
    unit = [0] * (layers + 1)
    attribution = {"nop": tuple([1] + unit[1:])}
    for i in range(layers):
        vec = [1] + unit[1:]
        vec[i + 1] = 1
        attribution[f"r{i}"] = tuple(vec)
    table = make_event_table(counters, attribution)
    ids, blocks, edges, prev = ["x.s"], [block("x.s", "main", ["nop"], mp=True)], [], ["x.s"]
    for i in range(layers):
        rank = [f"x.a{i}", f"x.b{i}"]
        blocks += [block(rank[0], "main", [f"r{i}"]), block(rank[1], "main", [f"r{i}"] * 2)]
        edges += [edge(src, dst, "branch") for src in prev for dst in rank]
        ids += rank
        prev = rank
    ids.append("x.t")
    blocks.append(block("x.t", "main", ["nop"], mp=True))
    edges += [edge(src, "x.t", "branch") for src in prev]
    doc = {
        "counters": [c.name for c in counters],
        "functions": [{"name": "main", "entry": "x.s", "blocks": ids}],
        "blocks": blocks,
        "edges": edges,
        "entry": "x.s",
    }
    return load_cfg(doc), table


def test_distinct_cascade_keeps_every_path_value():
    cfg, table = _distinct_cascade(10)
    candidates = enumerate_segments(cfg, table).entries[("x.s", "x.t")]
    assert len(candidates) == 2**10
    assert len({c.base for c in candidates}) == 2**10


def test_distinct_cascade_over_budget_raises_before_building_values():
    """2**20 distinct path sums: the budget error comes from the counts
    alone, before any tail value is built."""
    cfg, table = _distinct_cascade(20)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"x\.s -> x\.t") as err:
            enumerate_segments(cfg, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.budget == DEFAULT_PATH_BUDGET < err.value.reached
    # One tail value alone is a 21-counter tuple of about 200 bytes.
    assert peak < 2_000_000, peak



def test_component_walk_stops_at_the_budget(tiny_table, monkeypatch):
    """Seven blocks, all linked both ways, each with an exit: 1,957 simple
    paths cross the component.  A budget of 100 stops the walk inside it
    at the 101st, not at the end."""
    ids = [f"k.{i}" for i in range(7)]
    doc = {
        "counters": TINY_COUNTERS,
        "functions": [{"name": "main", "entry": "k.s", "blocks": ["k.s", *ids, "k.t"]}],
        "blocks": [block("k.s", "main", ["addi"], mp=True)]
        + [block(bid, "main", ["add"]) for bid in ids]
        + [block("k.t", "main", ["jalr"], mp=True)],
        "edges": [edge("k.s", "k.0")]
        + [edge(a, b, "branch") for a in ids for b in ids if a != b]
        + [edge(a, "k.t", "fallthrough") for a in ids],
        "entry": "k.s",
    }
    cfg = load_cfg(doc)
    steps = Counter()

    def counted_vadd(a, b):
        steps["vadd"] += 1
        return vadd(a, b)

    monkeypatch.setattr(database, "vadd", counted_vadd)
    with pytest.raises(BudgetError, match=r"k\.s -> k\.t") as err:
        enumerate_segments(cfg, tiny_table, path_budget=100)
    assert err.value.reached == 101
    assert steps["vadd"] < 300, steps
    enumerate_segments(cfg, tiny_table, path_budget=1_957)
    with pytest.raises(BudgetError) as err:
        enumerate_segments(cfg, tiny_table, path_budget=1_956)
    assert err.value.reached == 1_957

    # A second point k.u enters the component at k.3: both entries stop
    # at the budget, and the segment check names a segment over it.  Each
    # segment into k.t enters the component at one block, so, as above, it
    # has 1,957 simple paths.
    doc["functions"][0]["blocks"].append("k.u")
    doc["blocks"].append(block("k.u", "main", ["addi"], mp=True))
    doc["edges"] += [edge("k.t", "k.u"), edge("k.u", "k.3", "branch")]
    cfg = load_cfg(doc)
    steps.clear()
    with pytest.raises(BudgetError) as err:
        enumerate_segments(cfg, tiny_table, path_budget=100)
    named = re.match(r"segment (\S+) -> (\S+) exceeded", str(err.value)).groups()
    assert named in {("k.s", "k.t"), ("k.u", "k.t")}
    assert 100 < err.value.reached <= 1_957
    assert steps["vadd"] < 300, steps
    enumerate_segments(cfg, tiny_table, path_budget=1_957)

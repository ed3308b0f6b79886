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
    DEFAULT_CANDIDATE_BUDGET,
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
    distinct_cascade_doc,
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


def test_candidate_budget_names_overflowing_block(tiny_table):
    # d.0's two paths have distinct sums: a budget of two builds, and one
    # refuses at d.0's second value.
    cfg = load_cfg(_diamond_doc())
    enumerate_segments(cfg, tiny_table, candidate_budget=2)
    with pytest.raises(BudgetError, match=r"from d\.0 exceeded the candidate budget") as err:
        enumerate_segments(cfg, tiny_table, candidate_budget=1)
    assert "measurement points" in str(err.value)
    assert (err.value.budget, err.value.reached) == (1, 2)


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
    """The database holds the oracle's candidates, each once, and the
    candidate budget admits exactly the most candidates of one start node:
    a budget of that many builds, and a smaller one raises at its first
    value past the budget, naming a block.  Returns the database and the
    oracle's path counts."""
    expected, paths = segment_candidates_bruteforce(cfg, table, expand(cfg))
    per_start = Counter((start, c[0]) for (start, _), cands in expected.items() for c in cands)
    most = max(per_start.values(), default=0)
    db = enumerate_segments(cfg, table, candidate_budget=most)
    assert _candidate_sets(db, table) == expected
    # Each distinct candidate once.
    assert all(len(cands) == len(expected[key]) for key, cands in db.entries.items())
    for budget in {most - 1, most // 2, 1} & set(range(most)):
        with pytest.raises(BudgetError) as err:
            enumerate_segments(cfg, table, candidate_budget=budget)
        assert re.match(r"the simple paths from (\S+) exceeded", str(err.value))[1] in cfg.blocks
        assert (err.value.budget, err.value.reached) == (budget, budget + 1)
    return db, paths


def test_candidates_match_per_path_oracle():
    """The tail sets merged per component entry give what summing and
    closing every simple path from scratch gives, and the candidate budget
    admits exactly the largest start node."""
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
    component, parallel edges and self-loops: the candidates and the
    candidate budget agree with walking every simple path."""
    rng = random.Random(20_261_019)
    seen = Counter()
    for _ in range(400):
        cfg = load_cfg(_random_digraph_doc(rng))
        db, paths = _assert_matches_per_path_oracle(cfg, tiny_table)
        seen["several paths"] += max(paths.values(), default=0) > 1
        seen["loops"] += any(c.loops for cands in db.entries.values() for c in cands)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("layers", [17, 24, 40, 64])
def test_pathburst_builds_one_candidate_per_load_count(layers):
    """2**layers simple paths but layers + 1 distinct values: the cascade
    builds under the default budgets."""
    db = enumerate_segments(load_cfg(pathburst_cfg(layers)), default_event_table())
    assert set(db.entries) == {("p.s", "p.t")}
    assert len(db.entries[("p.s", "p.t")]) == layers + 1


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
    doc, table = distinct_cascade_doc(layers)
    return load_cfg(doc), table


def test_distinct_cascade_keeps_every_path_value():
    cfg, table = _distinct_cascade(10)
    candidates = enumerate_segments(cfg, table).entries[("x.s", "x.t")]
    assert len(candidates) == 2**10
    assert len({c.base for c in candidates}) == 2**10


def test_distinct_cascade_over_budget_raises_with_bounded_memory():
    """2**20 distinct path sums: the tail sets double rank by rank, and the
    first one past the default budget, at rank 8 (2**11 values), is refused
    at its first value over it."""
    cfg, table = _distinct_cascade(20)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"from x\.[ab]8 exceeded") as err:
            enumerate_segments(cfg, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.budget == DEFAULT_CANDIDATE_BUDGET
    assert err.value.reached == DEFAULT_CANDIDATE_BUDGET + 1
    # One tail value alone is a 21-counter tuple of about 200 bytes.
    assert peak < 2_000_000, peak


def _clique_doc(size: int, entered=()) -> dict:
    """``size`` blocks k.0, k.1, ..., all linked both ways, each with an
    exit to the point k.t.  The point k.s enters the clique at k.0, and for
    each i in ``entered`` a point k.ui, after k.t, enters it at k.i."""
    ids = [f"k.{i}" for i in range(size)]
    others = [f"k.u{i}" for i in entered]
    return {
        "counters": TINY_COUNTERS,
        "functions": [{"name": "main", "entry": "k.s", "blocks": ["k.s", *ids, "k.t", *others]}],
        "blocks": [block("k.s", "main", ["addi"], mp=True)]
        + [block(bid, "main", ["add"]) for bid in ids]
        + [block("k.t", "main", ["jalr"], mp=True)]
        + [block(bid, "main", ["addi"], mp=True) for bid in others],
        "edges": [edge("k.s", "k.0")]
        + [edge(a, b, "branch") for a in ids for b in ids if a != b]
        + [edge(a, "k.t", "fallthrough") for a in ids]
        + [edge("k.t", bid) for bid in others]
        + [edge(f"k.u{i}", f"k.{i}", "branch") for i in entered],
        "entry": "k.s",
    }


def _count_vadds(monkeypatch) -> Counter:
    steps = Counter()

    def counted_vadd(a, b):
        steps["vadd"] += 1
        return vadd(a, b)

    monkeypatch.setattr(database, "vadd", counted_vadd)
    return steps


def test_component_walk_stops_at_the_budget(tiny_table, monkeypatch):
    """Seven blocks, all linked both ways, each with an exit: 1,957 simple
    stretches from k.0 inside the component, but only 7 distinct values.
    A stretch limit of 100 stops the walk inside it at the 101st, not at
    the end."""
    cfg = load_cfg(_clique_doc(7))
    steps = _count_vadds(monkeypatch)
    monkeypatch.setattr(database, "_STRETCH_LIMIT", 100)
    with pytest.raises(BudgetError, match=r"entered at k\.0 ") as err:
        enumerate_segments(cfg, tiny_table)
    assert err.value.reached == 101
    assert steps["vadd"] < 300, steps
    monkeypatch.setattr(database, "_STRETCH_LIMIT", 1_957)
    assert len(enumerate_segments(cfg, tiny_table).entries[("k.s", "k.t")]) == 7
    monkeypatch.setattr(database, "_STRETCH_LIMIT", 1_956)
    with pytest.raises(BudgetError) as err:
        enumerate_segments(cfg, tiny_table)
    assert err.value.reached == 1_957

    # A second point k.u3 enters the component at k.3: the first entry
    # walked stops at the limit, and each entry alone stays within 1,957.
    cfg = load_cfg(_clique_doc(7, [3]))
    monkeypatch.setattr(database, "_STRETCH_LIMIT", 100)
    steps.clear()
    with pytest.raises(BudgetError, match=r"entered at k\.[03] "):
        enumerate_segments(cfg, tiny_table)
    assert steps["vadd"] < 300, steps
    monkeypatch.setattr(database, "_STRETCH_LIMIT", 1_957)
    enumerate_segments(cfg, tiny_table)


def test_clique_entered_at_every_block_builds(tiny_table, monkeypatch):
    """Eight blocks, all linked both ways, each entered from its own point:
    13,700 simple stretches from each entry, but 8 path lengths from each
    of the 8 entering points to k.t, plus k.t's 7 steps to the points
    after it.  Its 16,064 simple cycles need the cycle budget raised; the
    other budgets are the defaults.  Refusal costs one entry's walk, not
    one per entry."""
    cfg = load_cfg(_clique_doc(8, range(1, 8)))
    db = enumerate_segments(cfg, tiny_table, cycle_budget=10**5)
    assert sum(map(len, db.entries.values())) == 71
    assert {len(db.entries[(f"k.u{i}", "k.t")]) for i in range(1, 8)} == {8}
    steps = _count_vadds(monkeypatch)
    monkeypatch.setattr(database, "_STRETCH_LIMIT", 100)
    with pytest.raises(BudgetError, match="simple stretches"):
        enumerate_segments(cfg, tiny_table, cycle_budget=10**5)
    assert steps["vadd"] < 300, steps

import itertools
import json
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowattest.cfg import BlockTrace, Measurement, load_cfg
from flowattest.database import (
    SegmentDatabase,
    enumerate_segments,
    load_database,
    serialize_database,
)
from flowattest.demos import dispatch_cfg, greeter_cfg, signer_cfg, signer_trace
from flowattest.errors import SchemaError
from flowattest.events import (
    default_event_table,
    make_config,
    make_event_table,
    project,
    three_register_config,
)
from flowattest.simulate import measure, random_valid_walk
from flowattest.vectors import vadd
from flowattest.verify import (
    SessionState,
    prober,
    report_document,
    verify_segment,
    verify_trace_measurements,
)

from . import oracles
from .conftest import (
    LOOP1,
    LOOP2,
    TINY_COUNTERS,
    block,
    edge,
    mutation_pool,
    tiny_table_doc,
    two_loop_chain_doc,
)
from .randcfg import random_cfg_and_table
from .test_expand import _two_site_doc


@pytest.fixture
def chain(tiny_table):
    cfg = load_cfg(two_loop_chain_doc())
    return cfg, enumerate_segments(cfg, tiny_table)


BASE = (3, 1, 0)  # delta(B) + delta(C)


def _m(delta):
    return Measurement(start="A", end="C", delta=delta)


def test_exact_base_match_accepts_with_empty_witness(chain):
    cfg, db = chain
    state = SessionState(db)
    result = verify_segment(state, _m(BASE))
    assert result.verdict == "accepted"
    assert result.witness == (0, 0)
    assert result.accepting == ("A->C#0",)


def test_loop_combination_accepts_with_expected_witness(chain):
    cfg, db = chain
    delta = vadd(vadd(BASE, tuple(2 * x for x in LOOP1)), tuple(3 * x for x in LOOP2))
    result = verify_segment(SessionState(db), _m(delta))
    assert result.verdict == "accepted"
    # Candidate loops are sorted ascending, so LOOP1 (5,1,1) comes first.
    assert result.witness == (2, 3)
    # The depended-on loop alone is also fine: reaching the second loop
    # through the first is not enforced, by design.
    outer_only = vadd(BASE, tuple(3 * x for x in LOOP2))
    assert verify_segment(SessionState(db), _m(outer_only)).verdict == "accepted"


def test_delta_below_base_rejects(chain):
    cfg, db = chain
    state = SessionState(db)
    result = verify_segment(state, _m((2, 0, 0)))
    assert result.verdict == "rejected"
    assert result.reason == "cone-infeasible"
    assert state.rejected
    with pytest.raises(RuntimeError):
        verify_segment(state, _m(BASE))


def test_unknown_segment_rejects_with_reason(chain):
    cfg, db = chain
    result = verify_segment(SessionState(db), Measurement("C", "A", (1, 0, 0)))
    assert result.verdict == "rejected"
    assert result.reason == "no-such-segment"


def test_full_sequence_accepts_valid_walk(chain, tiny_table):
    cfg, db = chain
    trace = BlockTrace(("A", "B", "D", "E", "B", "D", "F", "G", "D", "E", "B", "C"))
    measurements = measure(cfg, tiny_table, None, trace)
    report = verify_trace_measurements(db, measurements)
    assert report.accepted
    assert report.accepted_count == len(measurements)


def test_rejection_stops_the_fold(tiny_table):
    from .test_database import _in_loop_snapshot_doc

    cfg = load_cfg(_in_loop_snapshot_doc())
    db = enumerate_segments(cfg, tiny_table)
    trace = BlockTrace(("l.0", "l.1", "l.2", "l.1", "l.2", "l.1", "l.3"))
    measurements = measure(cfg, tiny_table, None, trace)
    assert len(measurements) == 4
    tampered = list(measurements)
    tampered[1] = Measurement(
        measurements[1].start,
        measurements[1].end,
        vadd(measurements[1].delta, (1, 0, 0)),
    )
    report = verify_trace_measurements(db, tampered)
    assert report.rejected_at == 1
    assert [r.verdict for r in report.results] == ["accepted", "rejected"]


def test_valid_prefix_then_mutated_segment_rejects_at_index(tiny_table):
    from flowattest.attacks import MutationSpec, mutate
    from flowattest.events import delta_map
    from flowattest.simulate import measure_segment

    cfg = load_cfg(two_loop_chain_doc())
    db = enumerate_segments(cfg, tiny_table)
    # Three identical segments; mutate the block sequence of the last one.
    steps = ("A", "B", "C")
    trace = BlockTrace(("A", "B", "C"))
    valid = measure(cfg, tiny_table, None, trace)[0]
    segment = BlockTrace(steps)
    deltas = delta_map(cfg, tiny_table)
    spec = MutationSpec(kind="remove_block", seed=0)
    pool = mutation_pool(cfg, deltas, spec.kind)
    mutants = mutate(cfg, deltas, segment, spec, pool, measurement=valid)
    assert mutants
    mutated = measure_segment(cfg, tiny_table, None, BlockTrace(mutants[0].steps))
    # The chain graph has no C->A edge, so replay the same segment by
    # stitching fresh sessions per segment index instead.
    state = SessionState(db)
    assert verify_segment(state, valid).verdict == "accepted"
    result = verify_segment(state, Measurement("A", "C", mutated.delta))
    assert result.verdict == "rejected"
    assert state.rejected


def test_contiguity_is_enforced(chain):
    cfg, db = chain
    with pytest.raises(SchemaError, match="contiguous"):
        verify_trace_measurements(db, [_m(BASE), _m(BASE)])


def test_dimension_mismatch_is_an_error(chain):
    cfg, db = chain
    with pytest.raises(SchemaError, match="dimension"):
        verify_segment(SessionState(db), _m((1, 2)))


def test_cache_replay_is_verdict_identical(chain, tiny_table):
    cfg, db = chain
    loop_once = vadd(BASE, LOOP1)
    measurements = []
    # The same segment observed repeatedly with identical values.
    for _ in range(10):
        measurements.append(_m(loop_once))
    cached = verify_segment_state(db, measurements)
    # A fresh session starts with an empty cache, so it decides afresh.
    fresh = [verify_segment(SessionState(db), m) for m in measurements]
    assert cached[0] == [(r.verdict, r.accepting, r.witness) for r in fresh]
    state_with = cached[1]
    assert state_with.cache_hits == 9
    assert state_with.cache_lookups == 10


def verify_segment_state(db, measurements):
    state = SessionState(db)
    verdicts = []
    for m in measurements:
        result = verify_segment(state, m)
        verdicts.append((result.verdict, result.accepting, result.witness))
        if state.rejected:
            break
    return verdicts, state


def _one_call_doc():
    """main calls f once; f's entry is a measurement point, so the segment
    into f ends, and the one out of f starts, with the stack of that call."""
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": "main", "entry": "m.0", "blocks": ["m.0", "m.1", "m.2"]},
            {"name": "f", "entry": "f.0", "blocks": ["f.0", "f.1"]},
        ],
        "blocks": [
            block("m.0", "main", ["addi"], mp=True),
            block("m.1", "main", ["jal"]),
            block("m.2", "main", ["add"], mp=True),
            block("f.0", "f", ["lw"], mp=True),
            block("f.1", "f", ["jalr"]),
        ],
        "edges": [
            edge("m.0", "m.1"),
            edge("m.1", "f.0", "call"),
            edge("f.0", "f.1"),
            edge("f.1", "m.2", "return"),
        ],
        "entry": "m.0",
    }


def test_candidates_outside_the_feasible_stacks_reject(tiny_table):
    """Replaying the segment into f from inside f: its only candidate starts
    from the empty stack, which the session is no longer in."""
    cfg = load_cfg(_one_call_doc())
    db = enumerate_segments(cfg, tiny_table)
    trace = BlockTrace(("m.0", "m.1", "f.0", "f.1", "m.2"))
    into_f, out_of_f = measure(cfg, tiny_table, None, trace)
    state = SessionState(db)
    assert verify_segment(state, into_f).verdict == "accepted"
    assert state.feasible == frozenset({("m.1",)})
    assert [c.start.stack for c in db.entries["m.0", "f.0"]] == [()]
    assert not prober(db, into_f.start, into_f.end, state.feasible)(into_f.delta)
    assert prober(db, into_f.start, into_f.end, frozenset({()}))(into_f.delta)
    cache = dict(state.cache)
    result = verify_segment(state, into_f)
    assert (result.verdict, result.reason) == ("rejected", "no-feasible-stack")
    assert (result.candidates_tried, result.solver_calls, result.accepting) == (0, 0, ())
    # The cache holds the accepted observation only, never the rejection.
    assert state.cache == cache and len(cache) == 1
    assert list(cache.values()) == [(("m.0->f.0#0",), (), frozenset({("m.1",)}))]
    with pytest.raises(RuntimeError, match="frozen"):
        verify_segment(state, out_of_f)


def test_feasible_set_constrains_candidates(tiny_table):
    cfg = load_cfg(_two_site_doc())
    db = enumerate_segments(cfg, tiny_table)
    # Segment (m.0, m.4) has candidates through both call sites with
    # different intermediate structure; all end with the empty stack.
    measurements = measure(
        cfg,
        tiny_table,
        None,
        BlockTrace(("m.0", "m.1", "f.0", "f.1", "m.2", "m.3", "f.0", "f.1", "m.4")),
    )
    report = verify_trace_measurements(db, measurements)
    assert report.accepted


def test_feasible_update_is_candidate_order_independent(chain):
    cfg, db = chain
    delta = vadd(BASE, LOOP1)
    baseline = SessionState(db)
    verify_segment(baseline, _m(delta))
    shuffled_db = SegmentDatabase(
        cfg_digest=db.cfg_digest,
        counters=db.counters,
        entries={k: tuple(reversed(v)) for k, v in db.entries.items()},
        skip_segments=db.skip_segments,
    )
    other = SessionState(shuffled_db)
    verify_segment(other, _m(delta))
    assert baseline.feasible == other.feasible


def test_skip_segment_accepts_vacuously(tiny_table):
    doc = two_loop_chain_doc()
    doc["skip_segments"] = [{"start": "A", "end": "C"}]
    cfg = load_cfg(doc)
    db = enumerate_segments(cfg, tiny_table)
    state = SessionState(db)
    # A wildly wrong delta is accepted because the segment is skipped.
    result = verify_segment(state, _m((999, 999, 999)))
    assert result.verdict == "accepted"
    assert result.reason == "skip"
    assert state.feasible == frozenset({()})


def test_skip_segment_without_candidates_unconstrains_the_stack(tiny_table):
    doc = two_loop_chain_doc()
    # C -> A is never connected by the graph but is annotated as skipped.
    doc["skip_segments"] = [{"start": "C", "end": "A"}]
    cfg = load_cfg(doc)
    db = enumerate_segments(cfg, tiny_table)
    state = SessionState(db)
    assert verify_segment(state, Measurement("C", "A", (5, 5, 5))).verdict == "accepted"
    assert state.feasible is None
    # The next, known segment still verifies: any entry stack matches.
    assert verify_segment(state, _m(BASE)).verdict == "accepted"
    assert state.feasible == frozenset({()})


def test_projection_applies_to_candidates(chain, tiny_table):
    cfg, db = chain
    config = make_config(tiny_table, [("instret",), ("int_load_retired",)])
    trace = BlockTrace(("A", "B", "D", "E", "B", "C"))
    measurements = measure(cfg, tiny_table, config, trace)
    assert len(measurements[0].delta) == 2
    report = verify_trace_measurements(db, measurements, config=config)
    assert report.accepted


def test_report_document_is_stable(chain, tiny_table):
    cfg, db = chain
    measurements = measure(cfg, tiny_table, None, BlockTrace(("A", "B", "C")))
    doc1 = report_document(verify_trace_measurements(db, measurements))
    doc2 = report_document(verify_trace_measurements(db, measurements))
    assert doc1 == doc2
    assert "elapsed" not in doc1["segments"][0]
    timed = report_document(
        verify_trace_measurements(db, measurements), include_timings=True
    )
    assert "elapsed" in timed["segments"][0]


def test_projection_memo_is_per_register_file():
    """One database verified under the identity file, the three-register
    file, then the identity file again reports exactly what a freshly
    loaded copy of it reports."""
    table = default_event_table()
    cfg = load_cfg(signer_cfg(True))
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(signer_trace(12, 5, True)))
    for config in (None, three_register_config(table), None):
        valid = measure(cfg, table, config, trace)
        bumped = [Measurement(m.start, m.end, (m.delta[0] + 1,) + m.delta[1:]) for m in valid]
        for measurements, rejected_at in ((valid, None), (valid[:3] + bumped[3:], 3)):
            report = verify_trace_measurements(db, measurements, config=config)
            assert report.rejected_at == rejected_at
            fresh = load_database(serialize_database(db))
            assert report_document(report) == report_document(
                verify_trace_measurements(fresh, measurements, config=config)
            )
    assert set(db._projected) == {None, three_register_config(table)}
    assert db == load_database(serialize_database(db))


_NEST_MNEMONICS = ("add", "addi", "lw", "sw", "beq", "jal", "jalr", "mul")


def _loop_nest_doc(rng):
    """One function whose only measurement points are its entry and exit,
    with three loop nests of depth two between them, some holding a
    diamond: one segment with many loop vectors."""
    blocks, edges = [], []

    def new(mp=False):
        bid = f"n{len(blocks)}"
        instructions = [rng.choice(_NEST_MNEMONICS) for _ in range(rng.randint(1, 3))]
        blocks.append(block(bid, "main", instructions, mp))
        return bid

    entry = cur = new(mp=True)
    for _ in range(3):
        head, body, inner, inner_body, tail, out = (new() for _ in range(6))
        edges += [edge(cur, head), edge(head, body, "branch"), edge(head, out, "branch")]
        edges += [edge(body, inner), edge(inner, inner_body, "branch")]
        if rng.random() < 0.5:
            left, right = new(), new()
            edges += [edge(inner_body, left, "branch"), edge(inner_body, right, "branch")]
            edges += [edge(left, inner, "branch"), edge(right, inner, "branch")]
        else:
            edges.append(edge(inner_body, inner, "branch"))
        edges += [edge(inner, tail, "branch"), edge(tail, head, "branch")]
        cur = out
    exit_block = new(mp=True)
    edges.append(edge(cur, exit_block))
    return {
        "counters": list(default_event_table().counter_names),
        "functions": [{"name": "main", "entry": entry, "blocks": [b["id"] for b in blocks]}],
        "blocks": blocks,
        "edges": edges,
        "entry": entry,
    }


@cache
def _nest_pool():
    """Loop-nest programs under the three-register file and one segment
    measurement each per walk; every second one perturbed by up to a tenth
    of each counter, as forged measurements are."""
    table = default_event_table()
    config = three_register_config(table)
    rng = random.Random(20_261_022)
    cfgs, pool = [], []
    for p in range(4):
        cfg = load_cfg(_loop_nest_doc(rng))
        cfgs.append(cfg)
        for j in range(10):
            trace = random_valid_walk(
                cfg, rng.randrange(1 << 30), max_segments=1,
                max_loop_iterations=rng.choice((2, 4, 8, 12)),
            )
            (m,) = measure(cfg, table, config, trace)
            if j % 2:
                delta = tuple(v + rng.randint(-(v // 10), v // 10) for v in m.delta)
                m = Measurement(m.start, m.end, delta)
            pool.append((p, m))
    return table, config, cfgs, pool


def _outcome(result):
    return (
        result.verdict,
        result.reason,
        result.witness,
        result.accepting,
        result.candidates_tried,
        result.solver_calls,
        result.solver_nodes,
    )


def _verify_alone(db, config, m):
    return _outcome(verify_trace_measurements(db, [m], config=config).results[0])


def _verify_in_order(dbs, config, pool, order):
    return {i: _verify_alone(dbs[pool[i][0]], config, pool[i][1]) for i in order}


def _canonical(db):
    return json.dumps(serialize_database(db), sort_keys=True)


def test_verdicts_do_not_depend_on_what_the_database_verified_before():
    """Each candidate's reachability map grows with the measurements it
    has seen; no result may depend on them.  The pool is verified in two
    orders on fresh databases, then again on databases the other order
    warmed, and each result must equal the one of a database that has
    seen nothing but that measurement."""
    table, config, cfgs, pool = _nest_pool()
    built = [enumerate_segments(cfg, table) for cfg in cfgs]
    canonical = [_canonical(db) for db in built]

    def fresh():
        return [load_database(serialize_database(db)) for db in built]

    alone = {
        i: _verify_alone(load_database(serialize_database(built[p])), config, m)
        for i, (p, m) in enumerate(pool)
    }
    orders = [list(range(len(pool))) for _ in range(2)]
    random.Random(7).shuffle(orders[0])
    random.Random(8).shuffle(orders[1])
    first, second = fresh(), fresh()
    assert _verify_in_order(first, config, pool, orders[0]) == alone
    assert _verify_in_order(second, config, pool, orders[1]) == alone
    assert _verify_in_order(first, config, pool, orders[1]) == alone
    assert _verify_in_order(second, config, pool, orders[0]) == alone

    verdicts = [outcome[0] for outcome in alone.values()]
    assert 0 < verdicts.count("accepted") < len(verdicts)
    # The maps were used, and some grew past every single residual (each
    # of which is at most its measured delta).
    merged = 0
    for p, db in enumerate(first):
        deltas = [m.delta for q, m in pool if q == p]
        for per_key in db._projected[config].values():
            for *_, reach in per_key:
                assert reach is not None and reach.box is not None
                merged += not any(all(b <= v for b, v in zip(reach.box, d)) for d in deltas)
    assert merged
    for db, original, cfg, text in zip(first + second, built * 2, cfgs * 2, canonical * 2):
        assert db == original == enumerate_segments(cfg, table)
        assert _canonical(db) == text


@cache
def _warmed_nest_databases():
    table, config, cfgs, pool = _nest_pool()
    dbs = [enumerate_segments(cfg, table) for cfg in cfgs]
    for p, m in pool:
        verify_trace_measurements(dbs[p], [m], config=config)
    return dbs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_accepts_matches_verify_segment_on_a_warmed_database(data):
    _, config, _, pool = _nest_pool()
    dbs = _warmed_nest_databases()
    p, m = data.draw(st.sampled_from(pool))
    change = data.draw(
        st.tuples(*[st.integers(-(v // 5) - 1, v // 5 + 1) for v in m.delta])
    )
    probe = Measurement(m.start, m.end, tuple(v + c for v, c in zip(m.delta, change)))
    feasible = data.draw(st.sampled_from((frozenset({()}), None)))
    state = SessionState(dbs[p], config)
    state.feasible = feasible
    verdict = verify_segment(state, probe).verdict
    accepted = prober(dbs[p], probe.start, probe.end, feasible, config=config)(probe.delta)
    assert accepted == (verdict == "accepted")


@cache
def _probe_programs():
    """(database, register files) of the demos, the two-loop chain with a
    skipped segment that is connected and one that is not, loop nests and
    random programs; each under the identity file and a three-register
    file."""
    table = default_event_table()
    programs = []
    for doc in (greeter_cfg(), signer_cfg(False), signer_cfg(True), dispatch_cfg()):
        db = enumerate_segments(load_cfg(doc), table)
        programs.append((db, (None, three_register_config(table))))
    tiny = make_event_table(*tiny_table_doc())
    three = make_config(tiny, [("instret",), ("cond_branch_retired", "int_load_retired")])
    for skip in (("C", "A"), ("A", "C")):
        doc = two_loop_chain_doc()
        doc["skip_segments"] = [{"start": skip[0], "end": skip[1]}]
        programs.append((enumerate_segments(load_cfg(doc), tiny), (None, three)))
    _, nest_config, nests, _ = _nest_pool()
    for cfg in nests:
        programs.append((enumerate_segments(cfg, table), (None, nest_config)))
    for seed in range(1, 13):
        cfg, table = random_cfg_and_table(seed, max_blocks=30)
        names = table.counter_names
        configs = (None,)
        if len(names) >= 3:
            configs += (make_config(table, [names[:1], names[1:2], names[2:]]),)
        programs.append((enumerate_segments(cfg, table), configs))
    return tuple(programs)


_AROUND = ("base", "multiple", "two", "unit", "negative", "off-support")


def _delta_around(data, config, candidate):
    """A delta near ``candidate``'s projected cone: its base, the base plus
    multiples of a generator, plus two generators, one generator step off
    by a unit vector, with a negative component, or with a nonzero
    component where the generator is zero."""
    base = project(config, candidate.base) if config is not None else candidate.base
    dim = len(base)
    generators = [
        g for g in (project(config, v) if config is not None else v for v in candidate.loops) if any(g)
    ] or [(0,) * dim]
    g = data.draw(st.sampled_from(generators), label="generator")
    shape = data.draw(st.sampled_from(_AROUND), label="shape")
    if shape == "base":
        return base
    if shape == "multiple":
        k = data.draw(st.integers(0, 3), label="k")
        return tuple(b + k * v for b, v in zip(base, g))
    if shape == "two":
        return vadd(vadd(base, g), data.draw(st.sampled_from(generators), label="second"))
    delta = list(vadd(base, g))
    if shape == "unit":
        delta[data.draw(st.integers(0, dim - 1))] += data.draw(st.sampled_from((-1, 1)))
    elif shape == "negative":
        delta[data.draw(st.integers(0, dim - 1))] = -data.draw(st.integers(1, 3))
    else:
        off = [d for d in range(dim) if g[d] == 0] or [0]
        delta[data.draw(st.sampled_from(off))] += data.draw(st.integers(1, 3))
    return tuple(delta)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prober_matches_a_fresh_session_around_each_candidate(data):
    """A prober's verdict, whichever shape decides it (generator-free base,
    one generator, or the cone solver), is a fresh session's, for deltas
    drawn around the candidates of known, skipped and unknown segments."""
    db, configs = data.draw(st.sampled_from(_probe_programs()), label="program")
    config = data.draw(st.sampled_from(configs), label="config")
    keys = sorted(db.entries) + sorted(db.skip_segments)
    unknown = data.draw(st.integers(0, 5), label="unknown") == 0
    start, end = ("nowhere", "nowhere") if unknown else data.draw(st.sampled_from(keys))
    candidates = db.entries.get((start, end), ())
    stacks = sorted({c.start.stack for c in candidates}, key=repr)
    feasible = data.draw(
        st.sampled_from([None, frozenset({()})] + [frozenset({s}) for s in stacks]),
        label="feasible",
    )
    if candidates:
        delta = _delta_around(data, config, data.draw(st.sampled_from(candidates)))
    else:
        dim = config.dimension if config is not None else db.dimension
        delta = data.draw(st.sampled_from(((0,) * dim, (1,) * dim, (-1,) + (1,) * (dim - 1))))
    state = SessionState(db, config, feasible=feasible)
    verdict = verify_segment(state, Measurement(start, end, delta)).verdict
    assert prober(db, start, end, feasible, config=config)(delta) == (verdict == "accepted")


def _step(data, db, config, previous):
    """One measurement of a session under test: around a candidate of a
    known segment, a skipped or unknown segment, or a repeat of an earlier
    measurement."""
    if previous and data.draw(st.integers(0, 4), label="repeat") == 0:
        return data.draw(st.sampled_from(previous), label="earlier")
    keys = sorted(db.entries) + sorted(db.skip_segments)
    if data.draw(st.integers(0, 5), label="unknown") == 0:
        start, end = "nowhere", "nowhere"
    else:
        start, end = data.draw(st.sampled_from(keys), label="segment")
    candidates = db.entries.get((start, end), ())
    if not candidates:
        dim = config.dimension if config is not None else db.dimension
        delta = data.draw(st.sampled_from(((0,) * dim, (1,) * dim)), label="delta")
    elif data.draw(st.integers(0, 3), label="far") == 0:
        # Far out in the cone, off it by at most one unit: under the
        # identity file such boxes are too large for the bitset sweep.
        candidate = data.draw(st.sampled_from(candidates))
        vectors = [project(config, v) if config is not None else v for v in candidate.loops]
        counts = data.draw(st.lists(st.integers(0, 40), min_size=len(vectors), max_size=len(vectors)))
        delta = project(config, candidate.base) if config is not None else candidate.base
        for count, vector in zip(counts, vectors):
            delta = tuple(d + count * v for d, v in zip(delta, vector))
        delta = (delta[0] + data.draw(st.integers(-1, 1), label="off"),) + delta[1:]
    else:
        delta = _delta_around(data, config, data.draw(st.sampled_from(candidates)))
    return Measurement(start, end, delta)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sessions_match_the_per_candidate_reference_loop(data):
    """Fresh and continuing sessions report, field for field (all but the
    timing), what the per-candidate loop of ``oracles`` reports: verdict,
    reason, accepting ids, witness, candidates tried, solver calls and
    nodes, and cache hits, and they leave the same feasible set and cache
    counts.  Programs, register files and entry stacks are the probe
    tests'; a stack no candidate enters with makes a no-feasible-stack
    segment, and a fresh copy of the database builds its tables anew."""
    db, configs = data.draw(st.sampled_from(_probe_programs()), label="program")
    if data.draw(st.booleans(), label="fresh database"):
        db = load_database(serialize_database(db))
    config = data.draw(st.sampled_from(configs), label="config")
    stacks = sorted({c.start.stack for cands in db.entries.values() for c in cands}, key=repr)
    feasible = data.draw(
        st.sampled_from(
            [None, frozenset({()}), frozenset({("nowhere",)})] + [frozenset({s}) for s in stacks]
        ),
        label="feasible",
    )
    state = SessionState(db, config, feasible=feasible)
    reference = oracles.ReferenceSession(db, config, feasible=feasible)
    seen: list[Measurement] = []
    for _ in range(data.draw(st.integers(1, 5), label="length")):
        m = _step(data, db, config, seen)
        seen.append(m)
        result = verify_segment(state, m)
        expected = oracles.reference_verify_segment(reference, m)
        assert _outcome(result) + (result.cache_hit,) == _outcome(expected) + (expected.cache_hit,)
        assert (state.feasible, state.rejected, state.cache_hits, state.cache_lookups) == (
            reference.feasible,
            reference.rejected,
            reference.cache_hits,
            reference.cache_lookups,
        )
        if state.rejected:
            break


def test_a_map_reaches_exactly_the_points_it_has_a_witness_for():
    """``Reach.reaches`` is one stage read; it must agree with the witness
    read-back on every nonzero point of every box the nest pool grew."""
    _, config, _, _ = _nest_pool()
    maps = [
        row.reach
        for db in _warmed_nest_databases()
        for rows in db._projected[config].values()
        for row in rows
    ]
    reached = 0
    for reach in maps:
        for target in itertools.product(*(range(b + 1) for b in reach.box)):
            if any(target):
                witness = reach.witness(target)
                assert reach.reaches(target) == (witness is not None), target
                reached += witness is not None
    assert maps and 0 < reached


def test_prober_accepts_the_base_after_its_map_grew_no_stage(tiny_table):
    """A residual inside no generator's reach sweeps a map with zero
    stages, which reports even the origin as unreached; the candidate's
    own base must still be accepted, as a session accepts it."""
    cfg = load_cfg(two_loop_chain_doc())
    db = enumerate_segments(cfg, tiny_table)
    probe = prober(db, "A", "C", frozenset({()}))
    assert not probe(vadd(BASE, (1, 0, 0)))
    (row,) = [r for r in db._projected[None][("A", "C")] if r.reach is not None]
    assert row.reach.box == (1, 0, 0) and not row.reach.reaches((0, 0, 0))
    assert probe(BASE)
    assert verify_segment(SessionState(db), _m(BASE)).verdict == "accepted"


def test_a_database_of_no_counters_matches_the_reference_loop():
    """Every residual of a database of no counters is the empty vector,
    which is nonnegative and zero."""
    doc = {"cfg_digest": "0" * 64, "counters": [], "skip_segments": [], "segments": [
        {"start": "a", "end": "b", "candidates": [
            {"start_stack": [], "end_stack": [], "base": [], "loops": []},
            {"start_stack": [], "end_stack": [], "base": [], "loops": [[]]},
        ]},
    ]}
    db = load_database(doc)
    m = Measurement("a", "b", ())
    result = verify_segment(SessionState(db), m)
    expected = oracles.reference_verify_segment(oracles.ReferenceSession(db), m)
    assert _outcome(result) == _outcome(expected)
    assert result.verdict == "accepted" and result.solver_calls == 2

import pytest

from flowattest.cfg import BlockTrace, Measurement, load_cfg
from flowattest.database import (
    SegmentDatabase,
    enumerate_segments,
    load_database,
    serialize_database,
)
from flowattest.demos import signer_cfg, signer_trace
from flowattest.errors import SchemaError
from flowattest.events import default_event_table, make_config, three_register_config
from flowattest.simulate import measure
from flowattest.vectors import vadd
from flowattest.verify import (
    SessionState,
    report_document,
    verify_segment,
    verify_trace_measurements,
)

from .conftest import LOOP1, LOOP2, two_loop_chain_doc
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
    mutants = mutate(
        cfg, delta_map(cfg, tiny_table), segment, MutationSpec(kind="remove_block", seed=0)
    )
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
    cached = [verify_segment_state(db, measurements, True)]
    uncached = [verify_segment_state(db, measurements, False)]
    assert cached[0][0] == uncached[0][0]
    state_with = cached[0][1]
    assert state_with.cache_hits == 9
    assert state_with.cache_lookups == 10


def verify_segment_state(db, measurements, use_cache):
    state = SessionState(db, use_cache=use_cache)
    verdicts = []
    for m in measurements:
        result = verify_segment(state, m)
        verdicts.append(result.verdict)
        if state.rejected:
            break
    return verdicts, state


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

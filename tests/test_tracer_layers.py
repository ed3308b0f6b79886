"""The benchmark's tracer wraps layer functions by name; each must exist."""

import dataclasses
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from flowattest import attacks, cli, demos, verify
from flowattest.cfg import BlockTrace, load_cfg
from flowattest.database import enumerate_segments
from flowattest.events import default_event_table, delta_map
from flowattest.simulate import measure
from flowattest.vectors import is_nonneg, vsub

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves():
    tracer = _load_tracer()
    assert tracer.LAYERS
    for module_name, attr, _span, _hook in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_evaluate_mutates_through_the_traced_name(monkeypatch, tmp_path):
    """``attacks.evaluate`` draws its mutants through ``attacks.mutate``, the
    name the tracer rebinds: once per mutation kind and segment class."""
    calls = Counter()
    mutate = attacks.mutate

    def counting(cfg, deltas, segment, spec, pool, **kwargs):
        calls[spec.kind] += 1
        return mutate(cfg, deltas, segment, spec, pool, **kwargs)

    monkeypatch.setattr(attacks, "mutate", counting)
    demos.write_demo("signer", tmp_path, iterations=4)
    label, reports = cli._run_manifest(str(tmp_path / "manifest_basic.json"), 3)
    assert label == "basic"
    assert set(reports) == set(attacks.MUTATION_KINDS)
    assert calls == {kind: len(report.per_segment) for kind, report in reports.items()}


def test_count_hooks_read_what_the_layers_return(tmp_path):
    """The tracer's count hooks read fields of ``verify_segment``'s result,
    ``solve_cone``'s solution and ``mutate``'s mutants; two sessions and one
    attack evaluation under the tracer fill every one of them."""
    table = default_event_table()
    cfg = load_cfg(demos.greeter_cfg())
    db = enumerate_segments(cfg, table)
    measurements = measure(cfg, table, None, BlockTrace(tuple(demos.greeter_trace())))
    # The signer run's one two-generator residual spans a box of 17
    # counters, past the bitset budget: its candidate's map cannot cover
    # it, so ``solve_cone`` decides it, with the simplex.
    signer = load_cfg(demos.signer_cfg(False))
    signer_db = enumerate_segments(signer, table)
    signed = measure(signer, table, None, BlockTrace(tuple(demos.signer_trace(12, 25, False))))
    demos.write_demo("signer", tmp_path, iterations=4)
    originals = (verify.verify_segment, attacks.mutate)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert verify.verify_trace_measurements(db, measurements).accepted
        assert verify.verify_trace_measurements(signer_db, signed).accepted
        cli._run_manifest(str(tmp_path / "manifest_basic.json"), 3)
    finally:
        tracer.uninstall()
    assert (verify.verify_segment, attacks.mutate) == originals
    names = ("verify.candidates_tried", "verify.solver_calls", "attacks.mutants", "cone.lp_solves")
    for name in names:
        assert tracer.counts[name] > 0, name


def test_measure_checks_once_and_sums_once_per_segment():
    """One ``measure`` of the in-loop signer demo trace is one trace check
    and one vector sum per segment, as the replay workload's per-layer
    counts read it; ``measure_segment`` is not called."""
    table = default_event_table()
    cfg = load_cfg(demos.signer_cfg(True))
    trace = BlockTrace(tuple(demos.signer_trace(12, 25, True)))
    delta_map(cfg, table)  # resolved before, as in a warm round
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        measurements = measure(cfg, table, None, trace)
    finally:
        tracer.uninstall()
    spans = Counter(tracer.names[n] for n in tracer.name)
    assert len(measurements) > 1
    assert spans["cfg.validate_trace"] == 1
    assert spans["vectors.vsum"] == len(measurements)
    assert spans["simulate.measure_segment"] == 0


@pytest.mark.parametrize(("in_loop", "solver_calls"), [(True, 5), (False, 3)])
def test_only_candidates_of_two_or_more_generators_reach_the_cone_solver(in_loop, solver_calls):
    """In a signer session the ``cone.solve_cone`` spans are the tried
    candidates with two or more distinct nonzero loop vectors and a
    nonnegative residual; generator-free and single-generator ones are
    decided without the solver.  ``verify.solver_calls`` still counts one
    call per nonnegative residual: 5 and 3, as before candidates were
    decided by shape."""
    table = default_event_table()
    cfg = load_cfg(demos.signer_cfg(in_loop))
    db = enumerate_segments(cfg, table)
    measurements = measure(cfg, table, None, BlockTrace(tuple(demos.signer_trace(12, 25, in_loop))))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert verify.verify_trace_measurements(db, measurements).accepted
    finally:
        tracer.uninstall()
    expected = 0
    state = verify.SessionState(enumerate_segments(cfg, table))
    for m in measurements:
        feasible = state.feasible
        if verify.verify_segment(state, m).cache_hit:
            continue
        for cand in db.entries[(m.start, m.end)]:
            if feasible is None or cand.start.stack in feasible:
                cone = len({v for v in cand.loops if any(v)}) >= 2
                expected += cone and is_nonneg(vsub(m.delta, cand.base))
    spans = Counter(tracer.names[n] for n in tracer.name)
    assert spans["cone.solve_cone"] == expected == (0 if in_loop else 1)
    assert tracer.counts["verify.solver_calls"] == solver_calls


def test_evaluate_validates_the_trace_once():
    """One ``evaluate`` of the in-loop signer manifest validates its trace
    once, through ``split_trace``; ``mutate`` is given each segment's
    measurement and validates nothing.  The mutants are the 686 that the
    evaluation drew when it also validated each segment per kind."""
    table = default_event_table()
    cfg = load_cfg(demos.signer_cfg(True))
    db = enumerate_segments(cfg, table)
    trace = BlockTrace(tuple(demos.signer_trace(60, 25, True)))
    specs = [attacks.MutationSpec(kind, 100, 7) for kind in attacks.MUTATION_KINDS]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        reports = attacks.evaluate(cfg, db, table, trace, specs)
    finally:
        tracer.uninstall()
    names = [tracer.names[n] for n in tracer.name]
    spans = Counter(names)
    assert spans["cfg.validate_trace"] == 1
    assert spans["attacks.mutate"] == 6 * len(specs)
    under_mutate = set()
    for index, parent in enumerate(tracer.parent):
        if parent >= 0 and (names[parent] == "attacks.mutate" or parent in under_mutate):
            under_mutate.add(index)
    assert "cfg.validate_trace" not in {names[i] for i in under_mutate}
    attempted = sum(o.attempted for r in reports.values() for o in r.per_segment.values())
    assert tracer.counts["attacks.mutants"] == attempted == 686


def test_verification_result_supports_replace():
    """The benchmark's self-test corrupts results with ``dataclasses.replace``."""
    result = verify.VerificationResult("accepted", accepting=("a",), witness=(1, 0))
    changed = dataclasses.replace(result, verdict="rejected", witness=None, accepting=())
    assert (changed.verdict, changed.witness, changed.accepting) == ("rejected", None, ())
    assert result.verdict == "accepted"

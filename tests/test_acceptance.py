"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

import flowattest as fa
from flowattest import attacks, protocol
from flowattest.attacks import MutationSpec, SegmentOutcome, combine_rates
from flowattest.cfg import BlockTrace
from flowattest.cli import main as cli_main
from flowattest.cone import solve_cone
from flowattest.demos import (
    happy_path_scenario,
    signer_cfg,
    signer_trace,
)

from .oracles import cone_member_bruteforce
from .randcfg import random_cfg_and_table


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_soundness_suite():
    started = time.perf_counter()
    accepted = 0
    total = 0
    first_failure = None
    for seed in range(500):
        cfg, table = random_cfg_and_table(seed, max_blocks=40, max_functions=4)
        db = fa.enumerate_segments(cfg, table)
        for walk_index in range(20):
            trace = fa.random_valid_walk(
                cfg,
                seed * 1000 + walk_index,
                min_segments=1,
                max_segments=4,
                max_loop_iterations=50,
            )
            measurements = fa.measure(cfg, table, None, trace)
            report = fa.verify_trace_measurements(db, measurements)
            total += 1
            if report.accepted:
                accepted += 1
            elif first_failure is None:
                first_failure = (seed, walk_index, report.rejected_at)
    elapsed = time.perf_counter() - started
    _report(
        1,
        accepted == total == 10_000 and elapsed < 300,
        f"{accepted}/{total} random valid walks accepted in {elapsed:.1f}s "
        f"(first failure: {first_failure})",
    )


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20_240_901)
    agreements = 0
    trials = 10_000
    first_mismatch = None
    # Witnesses and simplex counts are pinned by digest, so an engine
    # change that moves nodes between engines cannot alter them unseen.
    witness_digest = hashlib.sha256()
    lp_digest = hashlib.sha256()
    for trial in range(trials):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 5)
        generators = tuple(
            tuple(rng.randint(0, 20) for _ in range(dim)) for _ in range(count)
        )
        if trial % 3 == 0:
            scalars = [rng.randint(0, 10) for _ in range(count)]
            target = tuple(
                min(200, sum(x * g[d] for x, g in zip(scalars, generators)))
                for d in range(dim)
            )
        else:
            target = tuple(rng.randint(0, 200) for _ in range(dim))
        solution = solve_cone(target, generators)
        witness_digest.update(repr((target, generators, solution.witness)).encode())
        lp_digest.update(repr(solution.lp_solves).encode())
        reference = cone_member_bruteforce(target, generators)
        witness_ok = True
        if solution.witness is not None:
            witness_ok = (
                tuple(
                    sum(x * g[d] for x, g in zip(solution.witness, generators))
                    for d in range(dim)
                )
                == target
            )
        if (solution.witness is None) == (reference is None) and witness_ok:
            agreements += 1
        elif first_mismatch is None:
            first_mismatch = (target, generators)
    elapsed = time.perf_counter() - started
    _report(
        2,
        agreements == trials and elapsed < 120,
        f"{agreements}/{trials} cone verdicts agree with brute force in "
        f"{elapsed:.1f}s (first mismatch: {first_mismatch})",
    )
    assert witness_digest.hexdigest() == (
        "5d772f6ba6fef2c7457f5eef8f6d2a702496f003ff3f38463a2ebb2302528e86"
    )
    assert lp_digest.hexdigest() == (
        "d2bbb0a697978bee8027cc8f9d61a815b4800a1ce33455f24f2f27f40ac5bdec"
    )


def test_criterion_3_metric_arithmetic():
    outcomes = [
        SegmentOutcome(
            first_index=i, frequency=1, instruction_count=10, attempted=10, detected=10
        )
        for i in range(10)
    ]
    outcomes.append(
        SegmentOutcome(
            first_index=10, frequency=1, instruction_count=10_000, attempted=10, detected=0
        )
    )
    uniform, weighted = combine_rates(outcomes)
    _report(
        3,
        uniform == Fraction(10, 11) and weighted == Fraction(100, 10_100),
        f"uniform={uniform} weighted={weighted} (exact rational arithmetic)",
    )


def _signer_eval(in_loop, config_builder, kinds, reps=100):
    table = fa.default_event_table()
    cfg = fa.load_cfg(signer_cfg(in_loop))
    db = fa.enumerate_segments(cfg, table)
    trace = BlockTrace(steps=tuple(signer_trace(60, 25, in_loop)))
    specs = [MutationSpec(kind=k, repetitions=reps, seed=7) for k in kinds]
    config = config_builder(table) if config_builder else None
    return attacks.evaluate(cfg, db, table, trace, specs, config=config)


def test_criterion_4_measurement_point_density_trend():
    started = time.perf_counter()
    without = _signer_eval(False, None, ["remove_block"])["remove_block"]
    with_points = _signer_eval(True, None, ["remove_block"])["remove_block"]
    elapsed = time.perf_counter() - started
    ok = (
        without.metric_weighted < Fraction(1, 5)
        and with_points.metric_weighted > Fraction(95, 100)
        and elapsed < 600
    )
    _report(
        4,
        ok,
        f"remove_block weighted reliability {float(without.metric_weighted):.4f} "
        f"without in-loop measurement points, "
        f"{float(with_points.metric_weighted):.4f} with them ({elapsed:.1f}s)",
    )


def test_criterion_5_counter_count_trend():
    started = time.perf_counter()
    kinds = list(attacks.MUTATION_KINDS)
    narrow = _signer_eval(False, fa.three_register_config, kinds)
    wide = _signer_eval(False, None, kinds)
    worst = None
    ok = True
    for kind in kinds:
        if wide[kind].metric_weighted < narrow[kind].metric_weighted:
            ok = False
            worst = kind
    random_uniform = wide["random_change"].metric_uniform
    ok = ok and random_uniform >= Fraction(99, 100)
    elapsed = time.perf_counter() - started
    _report(
        5,
        ok,
        "17-counter weighted reliability >= 3-register config for every kind "
        f"(violated by: {worst}); random_change uniform at 17 counters = "
        f"{float(random_uniform):.4f} ({elapsed:.1f}s)",
    )


def test_criterion_6_dedup_caching():
    table = fa.default_event_table()
    cfg = fa.load_cfg(signer_cfg(True))
    db = fa.enumerate_segments(cfg, table)
    trace = BlockTrace(steps=tuple(signer_trace(1000, 0, True)))
    measurements = fa.measure(cfg, table, None, trace)
    in_loop_executions = sum(1 for s in trace.steps if s == "s.E")
    report = fa.verify_trace_measurements(db, measurements)
    state = report.state
    ratio = Fraction(state.cache_hits, state.cache_lookups)
    solver_calls = sum(r.solver_calls for r in report.results)
    ok = (
        report.accepted
        and in_loop_executions == 1000
        and ratio >= Fraction(99, 100)
        and solver_calls <= 5
    )
    _report(
        6,
        ok,
        f"{in_loop_executions} in-loop snapshots: cache hit ratio "
        f"{float(ratio):.4f}, {solver_calls} solver invocations",
    )


def test_criterion_7_protocol_safety():
    started = time.perf_counter()
    world = protocol.tandem_world()
    report = protocol.explore(world, protocol.standard_tandem_alphabet(), depth=10)
    elapsed = time.perf_counter() - started
    ok = (
        report.successful_reads_outside_verified == 0
        and not report.violations
        and elapsed < 60
    )
    _report(
        7,
        ok,
        f"{report.states} states at depth 10: "
        f"{report.successful_reads_outside_verified} reads outside VERIFIED, "
        f"{len(report.violations)} invariant violations ({elapsed:.2f}s)",
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    demo_dir = tmp_path / "demo"
    run("demo", "--name", "signer", "--out", str(demo_dir), "--iterations", "10")
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(happy_path_scenario()))
    manifest_path = demo_dir / "manifest_added_ecalls.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["reps"] = 3
    manifest["db"] = None
    manifest_path.write_text(json.dumps(manifest))

    cfg_path = str(demo_dir / "signer.json")
    table_path = str(demo_dir / "table.json")
    trace_path = str(demo_dir / "signer_trace.json")
    db_path = str(tmp_path / "db.json")
    measurements_path = str(tmp_path / "ms.json")

    commands = [
        ("preprocess", "--cfg", cfg_path, "--table", table_path, "--out", db_path,
         "--format", "json"),
        ("simulate", "--cfg", cfg_path, "--table", table_path, "--trace", trace_path,
         "--format", "json"),
        ("walk", "--cfg", cfg_path, "--seed", "11", "--format", "json"),
        ("attack-eval", str(manifest_path), "--format", "json"),
        ("protocol", "--scenario", str(scenario_path), "--format", "json"),
        ("protocol", "--explore", "--depth", "8", "--format", "json"),
    ]
    # Verify needs measurements on disk first.
    run("simulate", "--cfg", cfg_path, "--table", table_path, "--trace", trace_path,
        "--out", measurements_path)
    capsys.readouterr()
    commands.append(("verify", "--db", db_path, "--measurements", measurements_path,
                     "--format", "json"))

    unstable = []
    for argv in commands:
        first_code, first_out = run(*argv)
        second_code, second_out = run(*argv)
        if first_out != second_out or first_code != second_code:
            unstable.append(argv[0])
    _report(
        8,
        not unstable,
        f"{len(commands)} CLI commands byte-identical across runs "
        f"(unstable: {unstable or 'none'})",
    )

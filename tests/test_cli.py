import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowattest.cli
from flowattest.cli import (
    EXIT_BUDGET,
    EXIT_DIGEST,
    EXIT_ERROR,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REJECTED,
    main,
)
from flowattest.events import default_event_table, serialize_event_table

from .conftest import (
    TINY_COUNTERS,
    block,
    distinct_cascade_doc,
    tiny_table_doc,
    two_loop_chain_doc,
)


def _write(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


@pytest.fixture
def tiny_table_path(tmp_path):
    counters, attribution = tiny_table_doc()
    doc = {
        "counters": [{"name": c.name, "deterministic": c.deterministic} for c in counters],
        "attribution": {m: list(v) for m, v in attribution.items()},
    }
    return _write(tmp_path / "tiny_table.json", doc)


@pytest.fixture
def chain_paths(tmp_path, tiny_table_path):
    cfg_path = _write(tmp_path / "chain.json", two_loop_chain_doc())
    return cfg_path, tiny_table_path, tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_preprocess_reports_chain_stats(capsys, chain_paths):
    cfg_path, table_path, tmp = chain_paths
    db_path = tmp / "db.json"
    code, out, _ = run(
        capsys,
        "preprocess", "--cfg", cfg_path, "--table", table_path,
        "--out", str(db_path), "--format", "json",
    )
    assert code == EXIT_OK
    stats = json.loads(out)
    assert stats["segments"] == 1
    assert stats["candidates"] == 1
    assert stats["per_segment"][0]["loops"] == 2


def test_empty_graph_gives_empty_database(capsys, tmp_path, tiny_table_path):
    doc = {
        "counters": TINY_COUNTERS,
        "functions": [{"name": "main", "entry": "only", "blocks": ["only"]}],
        "blocks": [block("only", "main", ["addi"], mp=True)],
        "edges": [],
        "entry": "only",
    }
    cfg_path = _write(tmp_path / "empty.json", doc)
    db_path = tmp_path / "db.json"
    code, out, _ = run(
        capsys,
        "preprocess", "--cfg", cfg_path, "--table", tiny_table_path,
        "--out", str(db_path), "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["segments"] == 0
    assert json.loads(db_path.read_text())["segments"] == []


def test_shipped_pathburst_demo_builds_under_default_budgets(capsys, tmp_path):
    # 2**17 simple paths, 18 distinct candidates.
    code, out, _ = run(capsys, "demo", "--name", "pathburst", "--out", str(tmp_path))
    assert code == EXIT_OK
    code, out, _ = run(
        capsys,
        "preprocess", "--cfg", str(tmp_path / "pathburst.json"),
        "--table", str(tmp_path / "table.json"), "--out", str(tmp_path / "db.json"),
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["per_segment"] == [
        {"start": "p.s", "end": "p.t", "candidates": 18, "loops": 0}
    ]


def test_distinct_cascade_exceeds_default_candidate_budget(capsys, tmp_path):
    # 2**11 simple paths, all of distinct value: the first tail set past
    # the budget is refused, and the error names its block.
    doc, table = distinct_cascade_doc(11)
    code, _, err = run(
        capsys,
        "preprocess", "--cfg", _write(tmp_path / "cascade.json", doc),
        "--table", _write(tmp_path / "table.json", serialize_event_table(table)),
        "--out", str(tmp_path / "db.json"),
    )
    assert code == EXIT_BUDGET
    assert "from x.s exceeded the candidate budget (budget 1024 " in err
    assert "measurement points" in err
    assert not (tmp_path / "db.json").exists()


@pytest.mark.parametrize("flag", ["--budget-candidates", "--budget-cycles", "--budget-nodes"])
def test_preprocess_negative_budget_is_a_usage_error(capsys, chain_paths, flag):
    # The same rule, in the same words, as a manifest's ``budgets``; not
    # the budget-exceeded exit a budget of -1 used to end in.
    cfg_path, table_path, tmp = chain_paths
    db_path = tmp / "db.json"
    argv = ["preprocess", "--cfg", cfg_path, "--table", table_path, "--out", str(db_path)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "-1"])
    assert exc.value.code == EXIT_ERROR
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err
    assert not db_path.exists()
    # Zero is a budget, and this chain exceeds it.
    code, _, err = run(capsys, *argv, flag, "0")
    assert code == EXIT_BUDGET
    assert "(budget 0" in err


def test_protocol_negative_depth_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["protocol", "--explore", "--depth", "-1"])
    assert exc.value.code == EXIT_ERROR
    assert "argument --depth: must be >= 0, got -1" in capsys.readouterr().err
    code, out, _ = run(capsys, "protocol", "--explore", "--depth", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["depth"] == 0


@pytest.mark.parametrize(
    "command, flag", [("demo", "--iterations"), ("walk", "--max-loop-iterations")]
)
def test_negative_iteration_count_is_a_usage_error(capsys, chain_paths, command, flag):
    cfg_path, _, tmp = chain_paths
    out = tmp / "out"
    given = {"demo": ["--name", "signer"], "walk": ["--cfg", cfg_path]}[command]
    argv = [command, *given, "--out", str(out), flag]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-1"])
    assert exc.value.code == EXIT_ERROR
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    code, _, _ = run(capsys, *argv, "0")
    assert code == EXIT_OK


def test_malformed_protocol_scenario_is_a_usage_error(capsys, tmp_path):
    event = {"kind": "create", "actor": "tracee", "target": "TRACEE", "value": "h"}
    for scenario, message in [
        ([1], "protocol event must be an object"),
        ([{**event, "actor": ["a"]}], "protocol event actor must be a string"),
        ([{**event, "target": ["TRACEE"]}], "protocol event target must be a string"),
        ([{**event, "value": {"x": 1}}], "protocol event value must be a string"),
    ]:
        path = _write(tmp_path / "scenario.json", scenario)
        code, out, err = run(capsys, "protocol", "--scenario", path)
        assert (code, out) == (EXIT_ERROR, ""), scenario
        assert message in err


@pytest.mark.parametrize(
    "given, message",
    [
        (["--scenario", "{scenario}", "--db", "missing.json"], "go together"),
        (["--scenario", "{scenario}", "--measurements", "missing.json"], "go together"),
        (["--scenario", "missing.json", "--explore"], "not allowed with argument"),
        (["--explore", "--db", "missing.json", "--measurements", "missing.json"],
         "need --scenario"),
        ([], "one of the arguments --scenario --explore is required"),
        (["--scenario", "{scenario}", "--depth", "3"], "protocol --depth needs --explore"),
    ],
    ids=[
        "db-alone", "measurements-alone", "scenario-and-explore", "explore-with-db", "neither",
        "scenario-with-depth",
    ],
)
def test_protocol_flag_misuse_is_a_usage_error(capsys, tmp_path, given, message):
    # Each of these used to run with a flag silently ignored, or to exit 0.
    run(capsys, "demo", "--name", "protocol", "--out", str(tmp_path))
    scenario = str(tmp_path / "scenario_happy_path.json")
    with pytest.raises(SystemExit) as exc:
        main(["protocol", *(arg.format(scenario=scenario) for arg in given)])
    assert exc.value.code == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and message in captured.err


def test_protocol_explore_depth_defaults_to_ten(capsys):
    # ``--depth`` has no argparse default, so that a scenario run can refuse it.
    code, out, _ = run(capsys, "protocol", "--explore", "--format", "json")
    assert (code, json.loads(out)["depth"]) == (EXIT_OK, 10)


def test_verify_no_cache_is_a_usage_error(capsys, chain_paths):
    # The session cache answers only repeats of accepted observations with
    # what deciding them again gives, so there is no switch to turn it off.
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(capsys, tmp, cfg_path, table_path, ["A", "B", "C"])
    argv = ["verify", "--db", str(db_path), "--measurements", str(measurements_path)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-cache"])
    assert exc.value.code == EXIT_ERROR
    assert "unrecognized arguments: --no-cache" in capsys.readouterr().err
    assert run(capsys, *argv)[0] == EXIT_OK


def _pipeline(capsys, tmp, cfg_path, table_path, steps):
    db_path = tmp / "db.json"
    trace_doc = {"cfg_ref": _digest_of(cfg_path), "steps": steps}
    trace_path = _write(tmp / "trace.json", trace_doc)
    code, _, _ = run(
        capsys,
        "preprocess", "--cfg", cfg_path, "--table", table_path, "--out", str(db_path),
    )
    assert code == EXIT_OK
    measurements_path = tmp / "ms.json"
    code, _, _ = run(
        capsys,
        "simulate", "--cfg", cfg_path, "--table", table_path,
        "--trace", trace_path, "--out", str(measurements_path),
    )
    assert code == EXIT_OK
    return db_path, measurements_path


def _digest_of(cfg_path):
    from flowattest.cfg import load_cfg

    return load_cfg(json.loads(open(cfg_path).read())).digest


def test_verify_exit_codes(capsys, chain_paths):
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(
        capsys, tmp, cfg_path, table_path,
        ["A", "B", "D", "E", "B", "C"],
    )
    code, out, _ = run(
        capsys, "verify", "--db", str(db_path),
        "--measurements", str(measurements_path), "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["rejected_at"] is None

    # Tamper one integer: rejected, report names the segment index.
    doc = json.loads(measurements_path.read_text())
    doc["measurements"][0]["delta"][0] += 1
    tampered = _write(tmp / "tampered.json", doc)
    code, out, _ = run(
        capsys, "verify", "--db", str(db_path), "--measurements", tampered,
        "--format", "json",
    )
    assert code == EXIT_REJECTED
    assert json.loads(out)["summary"]["rejected_at"] == 0

    # Wrong cfg_ref: the distinct digest exit code.
    doc = json.loads(measurements_path.read_text())
    doc["cfg_ref"] = "f" * 64
    mismatched = _write(tmp / "mismatched.json", doc)
    code, _, err = run(
        capsys, "verify", "--db", str(db_path), "--measurements", mismatched,
    )
    assert code == EXIT_DIGEST
    assert "measurement document refers to CFG ffffffffffff..., expected" in err


@pytest.mark.parametrize(
    "loops", [None, [[5, 1, -1], [6, 1, 3]]], ids=["missing-loops", "negative-loop"]
)
def test_verify_malformed_database_is_a_usage_error(capsys, chain_paths, loops):
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(
        capsys, tmp, cfg_path, table_path, ["A", "B", "D", "E", "B", "C"]
    )
    doc = json.loads(db_path.read_text())
    candidate = doc["segments"][0]["candidates"][0]
    if loops is None:
        del candidate["loops"]
    else:
        candidate["loops"] = loops
    broken = _write(tmp / "broken_db.json", doc)
    code, _, err = run(
        capsys, "verify", "--db", broken, "--measurements", str(measurements_path),
    )
    assert code == EXIT_ERROR
    assert "error:" in err


def test_verify_database_with_a_repeated_segment_or_counter_is_a_usage_error(capsys, tmp_path):
    """A second entry for ``g.mid -> g.end`` with no candidates would replace
    the first and reject the valid run (exit 1); a repeated counter name
    is refused as ``load_cfg`` refuses it.  Both are usage errors."""
    run(capsys, "demo", "--name", "greeter", "--out", str(tmp_path))
    cfg, table = str(tmp_path / "greeter.json"), str(tmp_path / "table.json")
    db, ms = tmp_path / "db.json", str(tmp_path / "ms.json")
    assert run(capsys, "preprocess", "--cfg", cfg, "--table", table, "--out", str(db))[0] == EXIT_OK
    trace = str(tmp_path / "greeter_trace.json")
    code, _, _ = run(capsys, "simulate", "--cfg", cfg, "--table", table, "--trace", trace, "--out", ms)
    assert code == EXIT_OK
    assert run(capsys, "verify", "--db", str(db), "--measurements", ms)[0] == EXIT_OK
    doc = json.loads(db.read_text())
    repeated = json.loads(db.read_text())
    repeated["segments"].append({"start": "g.mid", "end": "g.end", "candidates": []})
    renamed = json.loads(db.read_text())
    renamed["counters"][1] = renamed["counters"][0]
    for broken, message in (
        (repeated, "segment g.mid -> g.end is given twice"),
        (renamed, "database counters contain duplicate names"),
    ):
        assert broken != doc
        path = _write(tmp_path / "broken_db.json", broken)
        code, out, err = run(capsys, "verify", "--db", path, "--measurements", ms)
        assert (code, out) == (EXIT_ERROR, "")
        assert message in err


def test_verify_database_with_instruction_counts_is_a_usage_error(capsys, chain_paths):
    """A database in the format that still stored instruction counts is
    refused, not read: rebuilding it with ``preprocess`` is the remedy."""
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(capsys, tmp, cfg_path, table_path, ["A", "B", "C"])
    doc = json.loads(db_path.read_text())
    doc["dimension"] = len(doc["counters"])
    for segment in doc["segments"]:
        for candidate in segment["candidates"]:
            candidate["base_instructions"] = candidate["base"][0]
            candidate["loop_instructions"] = [v[0] for v in candidate["loops"]]
    old = _write(tmp / "old_db.json", doc)
    code, out, err = run(capsys, "verify", "--db", old, "--measurements", str(measurements_path))
    assert code == EXIT_ERROR
    assert out == ""
    assert err == "error: database document has unknown key 'dimension'\n"


def test_verify_list_start_is_a_usage_error(capsys, chain_paths):
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(capsys, tmp, cfg_path, table_path, ["A", "B", "C"])
    doc = json.loads(measurements_path.read_text())
    doc["measurements"][0]["start"] = [doc["measurements"][0]["start"]]
    broken = _write(tmp / "broken_ms.json", doc)
    code, _, err = run(capsys, "verify", "--db", str(db_path), "--measurements", broken)
    assert code == EXIT_ERROR
    assert "start and end must be block ids" in err


def test_verify_counters_without_table_is_a_usage_error(capsys, chain_paths):
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(capsys, tmp, cfg_path, table_path, ["A", "B", "C"])
    argv = [
        "verify", "--db", str(db_path), "--measurements", str(measurements_path),
        "--counters", ",".join(TINY_COUNTERS),
    ]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "--counters needs --table" in capsys.readouterr().err
    code, _, _ = run(capsys, *argv, "--table", table_path)
    assert code == EXIT_OK


def test_verify_table_of_other_counters_is_a_usage_error(capsys, chain_paths):
    # The table used to be read and checked, then ignored unless
    # ``--counters`` came with it.
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(capsys, tmp, cfg_path, table_path, ["A", "B", "C"])
    doc = json.loads(Path(table_path).read_text())
    doc["counters"].pop()
    doc["attribution"] = {m: v[:-1] for m, v in doc["attribution"].items()}
    shorter = _write(tmp / "shorter_table.json", doc)
    argv = ["verify", "--db", str(db_path), "--measurements", str(measurements_path)]
    code, out, err = run(capsys, *argv, "--table", shorter)
    assert (code, out) == (EXIT_ERROR, "")
    assert "event table and database disagree on the counter list" in err
    assert run(capsys, *argv, "--table", table_path)[0] == EXIT_OK


@pytest.mark.parametrize("entry", ["1", True], ids=["string", "boolean"])
def test_preprocess_ill_typed_attribution_is_a_usage_error(capsys, chain_paths, entry):
    cfg_path, table_path, tmp = chain_paths
    doc = json.loads(Path(table_path).read_text())
    doc["attribution"]["beq"][1] = entry
    broken = _write(tmp / "broken_table.json", doc)
    code, _, err = run(
        capsys, "preprocess", "--cfg", cfg_path, "--table", broken,
        "--out", str(tmp / "db.json"),
    )
    assert code == EXIT_ERROR
    assert "attribution for 'beq'" in err


def test_verify_offset_subtraction(capsys, chain_paths):
    cfg_path, table_path, tmp = chain_paths
    db_path = tmp / "db.json"
    trace_path = _write(
        tmp / "trace.json", {"cfg_ref": _digest_of(cfg_path), "steps": ["A", "B", "C"]}
    )
    run(capsys, "preprocess", "--cfg", cfg_path, "--table", table_path, "--out", str(db_path))
    measurements_path = tmp / "ms.json"
    run(
        capsys, "simulate", "--cfg", cfg_path, "--table", table_path,
        "--trace", trace_path, "--offset", "2,0,1", "--out", str(measurements_path),
    )
    code, _, _ = run(
        capsys, "verify", "--db", str(db_path), "--measurements", str(measurements_path),
    )
    assert code == EXIT_REJECTED  # footprint not reverted
    code, _, _ = run(
        capsys, "verify", "--db", str(db_path), "--measurements", str(measurements_path),
        "--offset", "2,0,1",
    )
    assert code == EXIT_OK


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "offset, message",
    [("-100,0,1", "must be >= 0, got -100"), ("2,x,1", "must be an integer, got 'x'")],
    ids=["negative", "not-an-integer"],
)
def test_offset_entries_are_nonnegative_integers(capsys, chain_paths, command, offset, message):
    """``simulate --offset=-100,...`` used to write measurements that
    ``verify`` then refused; each entry is now checked before any file is
    read.  A wrong number of entries is still a clean input error."""
    cfg_path, table_path, tmp = chain_paths
    missing = {
        "simulate": ["--cfg", "missing.json", "--table", "missing.json", "--trace", "missing.json"],
        "verify": ["--db", "missing.json", "--measurements", "missing.json"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *missing, f"--offset={offset}"])
    assert exc.value.code == EXIT_ERROR
    assert f"argument --offset: {message}" in capsys.readouterr().err
    db_path, measurements_path = _pipeline(capsys, tmp, cfg_path, table_path, ["A", "B", "C"])
    argv = {
        "simulate": ["simulate", "--cfg", cfg_path, "--table", table_path,
                     "--trace", str(tmp / "trace.json"), "--out", str(tmp / "offset_ms.json")],
        "verify": ["verify", "--db", str(db_path), "--measurements", str(measurements_path)],
    }[command]
    code, out, err = run(capsys, *argv, "--offset", "2,0")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "error: vectors of dimension 3 and 2\n"
    assert not (tmp / "offset_ms.json").exists()


@pytest.mark.parametrize("command", ["walk", "simulate"])
def test_text_output_without_a_renderer_is_json(capsys, chain_paths, command):
    # A document that a tool can read, not a Python dict repr.
    cfg_path, table_path, tmp = chain_paths
    trace = _write(tmp / "trace.json", {"cfg_ref": _digest_of(cfg_path), "steps": ["A", "B", "C"]})
    argv = {
        "walk": ["walk", "--cfg", cfg_path, "--seed", "3"],
        "simulate": ["simulate", "--cfg", cfg_path, "--table", table_path, "--trace", trace],
    }[command]
    code, text, _ = run(capsys, *argv)
    code2, as_json, _ = run(capsys, *argv, "--format", "json")
    assert code == code2 == EXIT_OK
    assert text == as_json
    assert json.loads(text)["cfg_ref"] == _digest_of(cfg_path)


@pytest.mark.parametrize("command", ["walk", "simulate"])
def test_written_document_is_reported_in_the_requested_format(capsys, tmp_path, command):
    """With ``--out``, the greeter's walk and measurements are reported by
    one text line, or under ``--format json`` by the path and the count."""
    run(capsys, "demo", "--name", "greeter", "--out", str(tmp_path))
    out = str(tmp_path / "written.json")
    argv, field, line = {
        "walk": (
            ["walk", "--cfg", str(tmp_path / "greeter.json"), "--seed", "3"],
            "steps",
            "walk with {} steps written to {}",
        ),
        "simulate": (
            ["simulate", "--cfg", str(tmp_path / "greeter.json"),
             "--table", str(tmp_path / "table.json"),
             "--trace", str(tmp_path / "greeter_trace.json")],
            "measurements",
            "{} measurements written to {}",
        ),
    }[command]
    code, text, _ = run(capsys, *argv, "--out", out)
    written = Path(out).read_text()
    count = len(json.loads(written)[field])
    assert count > 1
    assert (code, text) == (EXIT_OK, line.format(count, out) + "\n")
    code, as_json, _ = run(capsys, *argv, "--out", out, "--format", "json")
    assert (code, json.loads(as_json)) == (EXIT_OK, {"out": out, field: count})
    assert Path(out).read_text() == written


def test_walk_command_is_deterministic(capsys, chain_paths):
    cfg_path, _table, _tmp = chain_paths
    code, out1, _ = run(capsys, "walk", "--cfg", cfg_path, "--seed", "3", "--format", "json")
    code2, out2, _ = run(capsys, "walk", "--cfg", cfg_path, "--seed", "3", "--format", "json")
    assert code == code2 == EXIT_OK
    assert out1 == out2


def test_protocol_commands(capsys, tmp_path):
    run(capsys, "demo", "--name", "protocol", "--out", str(tmp_path))
    scenario = str(tmp_path / "scenario_happy_path.json")
    code, out, _ = run(capsys, "protocol", "--scenario", scenario, "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["context_switches"] == 8
    code, out, _ = run(capsys, "protocol", "--explore", "--depth", "6", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == []


# A scenario whose one verdict the verifier supplies (``protocol --db``).
AUTO_SCENARIO = [
    {"kind": "create", "actor": "tracee", "target": "TRACEE", "value": "h"},
    {"kind": "create", "actor": "tracer", "target": "TRACER"},
    {"kind": "attach_as_tracer", "actor": "tracer", "target": "tracee", "value": "h"},
    {"kind": "start", "actor": "tracee"},
    {"kind": "ecall", "actor": "tracee"},
    {"kind": "set_cfa_verification_state", "actor": "tracer", "target": "tracee",
     "value": "auto"},
    {"kind": "host_read_shm", "actor": "host", "target": "tracee"},
]


def test_protocol_integration_mode(capsys, chain_paths, tmp_path):
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(
        capsys, tmp, cfg_path, table_path, ["A", "B", "C"]
    )
    scenario_path = _write(tmp_path / "scenario.json", AUTO_SCENARIO)
    code, out, _ = run(
        capsys, "protocol", "--scenario", scenario_path,
        "--db", str(db_path), "--measurements", str(measurements_path),
        "--format", "json",
    )
    assert code == EXIT_OK
    effects = json.loads(out)["effects"]
    assert ["verified", "tracee"] in effects[5]["effects"]
    assert ["read", "tracee"] in effects[6]["effects"]

    # A tampered measurement flows through as a rejection: halted, denied.
    doc = json.loads(measurements_path.read_text())
    doc["measurements"][0]["delta"][0] += 1
    tampered = _write(tmp_path / "tampered.json", doc)
    code, out, _ = run(
        capsys, "protocol", "--scenario", scenario_path,
        "--db", str(db_path), "--measurements", tampered, "--format", "json",
    )
    effects = json.loads(out)["effects"]
    assert ["halted", "tracee"] in effects[5]["effects"]
    assert ["denied", "tracee"] in effects[6]["effects"]


def test_attack_eval_runs_a_small_manifest(capsys, tmp_path):
    run(capsys, "demo", "--name", "signer", "--out", str(tmp_path), "--iterations", "12")
    manifest_path = tmp_path / "manifest_added_ecalls.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["reps"] = 4
    manifest_path.write_text(json.dumps(manifest))
    code, out, _ = run(capsys, "attack-eval", str(manifest_path), "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc[0]["label"] == "added-ecalls"
    assert "remove_block" in doc[0]["experiments"]
    code, out, _ = run(capsys, "attack-eval", str(manifest_path))
    assert "added-ecalls" in out


@pytest.mark.parametrize("reps", ["0", "-1", "x"])
def test_attack_eval_bad_reps_is_refused_before_any_database_is_written(capsys, tmp_path, reps):
    run(capsys, "demo", "--name", "signer", "--out", str(tmp_path), "--iterations", "4")
    manifest_path = tmp_path / "manifest_basic.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["db"] = "signer_db.json"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exc:
        main(["attack-eval", str(manifest_path), "--reps", reps])
    assert exc.value.code == EXIT_ERROR
    expected = "must be an integer" if reps == "x" else f"must be >= 1, got {reps}"
    assert f"argument --reps: {expected}" in capsys.readouterr().err
    assert not (tmp_path / "signer_db.json").exists()
    code, _, _ = run(capsys, "attack-eval", str(manifest_path), "--reps", "1")
    assert code == EXIT_OK
    assert (tmp_path / "signer_db.json").exists()


@pytest.mark.parametrize(
    "change",
    [
        {"budgets": [1]},
        {"budgets": {"candidates": "x"}},
        {"budgets": {"depth": 3}},
        {"budgets": {"paths": 3}},
        {"reps": "2"},
        {"reps": 0},
        {"seed": 1.5},
        {"cfg": 1},
        {"counters": 5},
        {"label": [1]},
        {"db": True},
        {"offset": None},
        None,
    ],
    ids=[
        "budgets-array", "budget-string", "budget-unknown", "budget-paths-stale",
        "reps-string", "reps-zero",
        "seed-float", "cfg-number", "counters-number", "label-array", "db-boolean",
        "unknown-key", "top-level-array",
    ],
)
def test_attack_eval_malformed_manifest_is_a_usage_error(capsys, tmp_path, change):
    run(capsys, "demo", "--name", "signer", "--out", str(tmp_path), "--iterations", "4")
    manifest_path = tmp_path / "manifest_basic.json"
    manifest = json.loads(manifest_path.read_text())
    if change is None:
        manifest = [manifest]
    else:
        manifest.update(change)
    manifest_path.write_text(json.dumps(manifest))
    code, _, err = run(capsys, "attack-eval", str(manifest_path))
    assert code == EXIT_ERROR
    assert "error:" in err and "manifest" in err


# Strings from an alphabet without path separators, so that a string put in
# a file field (``db`` is written when missing) names a file beside the
# manifest or the directory itself.
_FUZZ_TEXT = st.text(alphabet="ab0._- ", max_size=5)
_FUZZ_KEYS = st.sampled_from(("candidates", "cycles", "nodes")) | _FUZZ_TEXT
_FUZZ_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | _FUZZ_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_FUZZ_KEYS, inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture
def fuzz_manifests(capsys, tmp_path):
    """A greeter manifest and two signer demo manifests, three repetitions
    each, beside the documents they name."""
    for name in ("greeter", "signer"):
        run(capsys, "demo", "--name", name, "--out", str(tmp_path), "--iterations", "2")
    manifests = {
        "greeter": {"cfg": "greeter.json", "table": "table.json", "trace": "greeter_trace.json"}
    }
    for name in ("basic", "added_ecalls"):
        manifests[name] = json.loads((tmp_path / f"manifest_{name}.json").read_text())
    for manifest in manifests.values():
        manifest["reps"] = 3
    return tmp_path, manifests


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_attack_eval_fuzzed_manifest_fails_cleanly(capsys, fuzz_manifests, data):
    """One field of a demo manifest replaced by any JSON value: the run
    succeeds or fails with a usage, digest or budget error (2, 3, 4), never
    as a rejection (1) or an internal error (5), and prints no traceback."""
    tmp_path, manifests = fuzz_manifests
    manifest = dict(manifests[data.draw(st.sampled_from(sorted(manifests)), label="manifest")])
    field = data.draw(st.sampled_from(sorted(manifest)), label="field")
    manifest[field] = data.draw(_FUZZ_JSON, label="value")
    path = _write(tmp_path / "fuzzed_manifest.json", manifest)
    code, _, err = run(capsys, "attack-eval", path, "--format", "json")
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_DIGEST, EXIT_BUDGET), (code, err)
    assert "Traceback" not in err


@pytest.fixture
def fuzz_pipelines(capsys, chain_paths):
    """The two-loop chain and the greeter demo, each with its CFG, event
    table, database, one valid run's trace and measurements, and a
    scenario with one verdict event, as documents."""
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(
        capsys, tmp, cfg_path, table_path, ["A", "B", "D", "E", "B", "C"]
    )
    paths = {"chain": (cfg_path, table_path, db_path, measurements_path, tmp / "trace.json")}
    greeter = tmp / "greeter"
    run(capsys, "demo", "--name", "greeter", "--out", str(greeter))
    names = ("greeter.json", "table.json", "greeter_db.json", "greeter_ms.json")
    cfg_path, table_path, db_path, measurements_path = (str(greeter / n) for n in names)
    for argv in (
        ("preprocess", "--cfg", cfg_path, "--table", table_path, "--out", db_path),
        (
            "simulate", "--cfg", cfg_path, "--table", table_path,
            "--trace", str(greeter / "greeter_trace.json"), "--out", measurements_path,
        ),
    ):
        assert run(capsys, *argv)[0] == EXIT_OK
    paths["greeter"] = (
        cfg_path, table_path, db_path, measurements_path, greeter / "greeter_trace.json"
    )
    names = ("cfg", "table", "db", "measurements", "trace")
    documents = {
        name: dict(zip(names, map(_read, group)), scenario=AUTO_SCENARIO)
        for name, group in paths.items()
    }
    return tmp, documents


def _read(path):
    return json.loads(Path(path).read_text())


def _strings(node):
    if isinstance(node, str):
        yield node
    elif isinstance(node, (dict, list)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _strings(child)


def _fuzz_somewhere(data, doc):
    """``doc`` with one value at any depth replaced, or one dictionary
    entry or list item removed.  A replacement is any JSON value or one
    like the old: a nearby integer, or another string of the document."""
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, 7), label="depth")):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys), label="key")
        parent, node = node, node[key]
    if parent is None:
        return data.draw(_FUZZ_JSON, label="document")
    if data.draw(st.booleans(), label="remove"):
        del parent[key]
        return doc
    like = _FUZZ_JSON
    if isinstance(node, int) and not isinstance(node, bool):
        like = st.integers(-2, node + 3)
    elif isinstance(node, str):
        like = st.sampled_from(sorted(set(_strings(doc))))
    parent[key] = data.draw(like | _FUZZ_JSON, label="value")
    return doc


def _argv(command, paths, out):
    """The command line of ``command`` on the documents at ``paths``."""
    session = ("--db", paths["db"], "--measurements", paths["measurements"])
    return {
        "verify": ("verify", *session),
        "preprocess": ("preprocess", "--cfg", paths["cfg"], "--table", paths["table"], "--out", out),
        "simulate": (
            "simulate", "--cfg", paths["cfg"], "--table", paths["table"], "--trace", paths["trace"]
        ),
        "walk": ("walk", "--cfg", paths["cfg"], "--seed", "1"),
        "protocol": ("protocol", "--scenario", paths["scenario"], *session),
        "protocol-scenario": ("protocol", "--scenario", paths["scenario"]),
    }[command]


def _fuzz_run(capsys, data, tmp_path, documents, command, fuzzed):
    """Run ``command`` on one pipeline's documents with the ``fuzzed`` one
    changed somewhere; returns the exit code and stderr."""
    pipeline = data.draw(st.sampled_from(sorted(documents)), label="pipeline")
    docs = dict(documents[pipeline])
    docs[fuzzed] = _fuzz_somewhere(data, docs[fuzzed])
    paths = {name: _write(tmp_path / f"fuzzed_{name}.json", doc) for name, doc in docs.items()}
    argv = _argv(command, paths, str(tmp_path / "fuzzed_out.json"))
    code, _, err = run(capsys, *argv, "--format", "json")
    return code, err


@pytest.mark.parametrize("fuzzed", ["db", "measurements"])
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_verify_fuzzed_document_fails_cleanly(capsys, fuzz_pipelines, fuzzed, data):
    """A database or measurements document changed anywhere: ``verify``
    accepts, rejects (1), or fails with a usage, digest or budget error,
    never with an internal error (5), and prints no traceback."""
    tmp_path, documents = fuzz_pipelines
    code, err = _fuzz_run(capsys, data, tmp_path, documents, "verify", fuzzed)
    assert code in (EXIT_OK, EXIT_REJECTED, EXIT_ERROR, EXIT_DIGEST, EXIT_BUDGET), (code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("fuzzed", ["cfg", "table"])
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_preprocess_fuzzed_document_fails_cleanly(capsys, fuzz_pipelines, fuzzed, data):
    """A CFG or event table changed anywhere: ``preprocess`` succeeds or
    fails with a usage, digest or budget error; it never rejects (1),
    raises an internal error (5) or prints a traceback."""
    tmp_path, documents = fuzz_pipelines
    code, err = _fuzz_run(capsys, data, tmp_path, documents, "preprocess", fuzzed)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_DIGEST, EXIT_BUDGET), (code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, fuzzed",
    [
        ("simulate", "cfg"), ("simulate", "table"), ("simulate", "trace"), ("walk", "cfg"),
        ("protocol-scenario", "scenario"), ("protocol", "scenario"), ("protocol", "db"),
        ("protocol", "measurements"),
    ],
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_fuzzed_document_never_rejects_or_fails_internally(
    capsys, fuzz_pipelines, command, fuzzed, data
):
    """A document of ``simulate``, ``walk`` or ``protocol --scenario``
    (alone or with ``--db`` and ``--measurements``) changed anywhere: the
    command succeeds or fails with a usage, digest or budget error; it
    never rejects (1), raises an internal error (5) or prints a traceback."""
    tmp_path, documents = fuzz_pipelines
    code, err = _fuzz_run(capsys, data, tmp_path, documents, command, fuzzed)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_DIGEST, EXIT_BUDGET), (code, err)
    assert "Traceback" not in err


_BOUND_AS = {
    "trace": "trace document", "measurements": "measurement document", "db": "database document"
}


@pytest.mark.parametrize("own, other", [("chain", "greeter"), ("greeter", "chain")])
@pytest.mark.parametrize(
    "command, swapped",
    [
        ("simulate", "trace"), ("verify", "measurements"), ("protocol", "measurements"),
        ("attack-eval", "trace"), ("attack-eval", "db"),
    ],
)
def test_document_for_another_cfg_is_a_digest_mismatch(
    capsys, fuzz_pipelines, command, swapped, own, other
):
    """Every command that reads a document bound to a CFG refuses one built
    for another CFG with exit 3 and one message naming both digests; the
    same command on its own pipeline's documents succeeds."""
    tmp_path, documents = fuzz_pipelines
    digest = {name: docs["db"]["cfg_digest"] for name, docs in documents.items()}
    expected = (
        f"error: {_BOUND_AS[swapped]} refers to CFG {digest[other][:12]}..., "
        f"expected {digest[own][:12]}...\n"
    )

    def run_on(docs, where):
        where.mkdir()
        paths = {name: _write(where / f"{name}.json", doc) for name, doc in docs.items()}
        if command == "attack-eval":
            manifest = {name: f"{name}.json" for name in ("cfg", "table", "trace", "db")}
            argv = ("attack-eval", _write(where / "manifest.json", {**manifest, "reps": 1}))
        else:
            argv = _argv(command, paths, None)
        return run(capsys, *argv, "--format", "json")

    assert run_on(documents[own], tmp_path / "own")[0] == EXIT_OK
    swapped_docs = {**documents[own], swapped: documents[other][swapped]}
    assert run_on(swapped_docs, tmp_path / "swapped") == (EXIT_DIGEST, "", expected)


def test_attack_eval_manifest_database_with_instruction_counts_is_a_usage_error(
    capsys, tmp_path
):
    run(capsys, "demo", "--name", "signer", "--out", str(tmp_path), "--iterations", "2")
    manifest_path = tmp_path / "manifest_basic.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(db="signer_db.json", reps=1)
    manifest_path.write_text(json.dumps(manifest))
    code, _, _ = run(capsys, "attack-eval", str(manifest_path))
    assert code == EXIT_OK
    db_path = tmp_path / "signer_db.json"
    doc = json.loads(db_path.read_text())
    doc["segments"][0]["candidates"][0]["base_instructions"] = 1
    db_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "attack-eval", str(manifest_path))
    assert code == EXIT_ERROR
    assert out == ""
    assert "unknown key 'base_instructions'" in err and "Traceback" not in err


def test_machine_output_is_byte_identical(capsys, chain_paths, tmp_path):
    cfg_path, table_path, tmp = chain_paths
    db_path, measurements_path = _pipeline(
        capsys, tmp, cfg_path, table_path, ["A", "B", "C"]
    )
    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "verify", "--db", str(db_path),
            "--measurements", str(measurements_path), "--format", "json",
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]
    db_bytes = []
    for i in range(2):
        target = tmp_path / f"db{i}.json"
        run(capsys, "preprocess", "--cfg", cfg_path, "--table", table_path, "--out", str(target))
        db_bytes.append(target.read_bytes())
    assert db_bytes[0] == db_bytes[1]


def test_bad_input_is_a_usage_error(capsys, tmp_path):
    broken = _write(tmp_path / "broken.json", {"not": "a cfg"})
    code, _, err = run(
        capsys, "preprocess", "--cfg", broken, "--table", broken,
        "--out", str(tmp_path / "db.json"),
    )
    assert code == EXIT_ERROR
    assert "error:" in err


def test_internal_error_is_not_a_rejection(capsys, monkeypatch, chain_paths):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(flowattest.cli, "cmd_walk", broken)
    cfg_path, _, _ = chain_paths
    code, out, err = run(capsys, "walk", "--cfg", cfg_path, "--seed", "1")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: KeyError('lost')\n"


THREE_REGISTERS = "instret,cond_branch_retired+jal_retired+jalr_retired,int_load_retired"

# sha256 of "<exit code>\n<stdout>".  Verify runs per demo program, register
# file (measured and verified with the same ``--counters``) and measurement
# file: the simulated one, and a copy whose last measurement has its first
# counter raised by one.  A change to the verifier that moves a reason, a
# count, a witness or an accepting set moves a digest.
GOLDEN_VERIFY = {
    ("greeter", "identity", "valid"):
        "72eda855a3a6a354f2154504e5ed3ecefa8e3e41e2ede1246a70fe513d5917dc",
    ("greeter", "identity", "tampered"):
        "d79b0082817f655c1d9f32e23e7865318d2e4985530aa2a508345b47c21dcd60",
    ("greeter", "three", "valid"):
        "72eda855a3a6a354f2154504e5ed3ecefa8e3e41e2ede1246a70fe513d5917dc",
    ("greeter", "three", "tampered"):
        "d79b0082817f655c1d9f32e23e7865318d2e4985530aa2a508345b47c21dcd60",
    ("signer", "identity", "valid"):
        "c94e13b38395abb004837c0799b7437fe47f962820208965edf891eaef4d6456",
    ("signer", "identity", "tampered"):
        "642e567625764bea9965ceb4476b844bb9eea966222e20492fe04cfc47a4e009",
    ("signer", "three", "valid"):
        "f26fe0f3b0c233b3add5142a5cb89fd7de2c95514ccaab835307c95551304be2",
    ("signer", "three", "tampered"):
        "c231ecd1b1628be0ea71c6b84ebf4983e2086b00b44cbb395fbf565436636bcd",
    ("signer_ecalls", "identity", "valid"):
        "89b7e409616eb3858abe801f2bd314db4364fe093a919afabd4101208fbfdb7b",
    ("signer_ecalls", "identity", "tampered"):
        "fb43526a3d5402ad4fc5e89eb422a1df197ca481cc3d8b17aa9115e025a15e21",
    ("signer_ecalls", "three", "valid"):
        "89b7e409616eb3858abe801f2bd314db4364fe093a919afabd4101208fbfdb7b",
    ("signer_ecalls", "three", "tampered"):
        "fb43526a3d5402ad4fc5e89eb422a1df197ca481cc3d8b17aa9115e025a15e21",
    ("dispatch", "identity", "valid"):
        "2f0ad755008141f8b21882392a242be4e101d4bc3848ede7f146f2563988a8a7",
    ("dispatch", "identity", "tampered"):
        "ca94a79f62f40fd289b6d5e725e83720f22903615231bd1fcac896e3c76f0680",
    ("dispatch", "three", "valid"):
        "57ed875af4195b54576bb0b12fd23cc4e1aa0089238d71d0fbdbf67709120d34",
    ("dispatch", "three", "tampered"):
        "9b46a29c7cc306050535e453a0d4ed8e19c8788329dfba4009a9879bf41acb84",
}
GOLDEN_ATTACK_EVAL = "3805d3445a54455ac88ba65205a8318e74fa8ded371193e1dd29918ca4c369b0"

# sha256 of "<exit code>\n<stdout>" of ``simulate --format json`` per demo
# program and register file, plus one run with a per-snapshot offset.  A
# change to the replay that moves a segment boundary or a counter value
# moves a digest.
GOLDEN_SIMULATE = {
    ("greeter", "identity"):
        "7365449fa1770f12cea288c93ef9abe7269126ac78041d58b388dbc7e9f05f8b",
    ("greeter", "three"):
        "16c89a13d317e6bac03bd25d0149bc0c662f54bf84f68ec6fc721c3c91667650",
    ("signer", "identity"):
        "97b8d1c5a49fb26eaecf6c3489e74f398c7f2dcc7a5f32d017c466093658f126",
    ("signer", "three"):
        "ebbb7ad0a31c53c31ac4d325d3af3cfcf8ba6a298dab7b9cd7dd263f6498a9ec",
    ("signer", "three+offset"):
        "12fc4f925104b7db869fe439dd64bce064abe1ecb215fda54cb31952b278cda4",
    ("signer_ecalls", "identity"):
        "1de451d0307b8741055d8ecc94e5b8bf814b936b28a898ae2046329662228d41",
    ("signer_ecalls", "three"):
        "7cf3817ab98142b3981b677884e5e80db62d8edabaa4e3a8416f1caeb1217b24",
    ("dispatch", "identity"):
        "71effd93969dc7013edac0a93704e6f6a27a4fe8d3d64ad5b0c27ca211fad96e",
    ("dispatch", "three"):
        "8453e5a0cf2b2b8477cd84812ac20388319c1744b0f9c8a8bc5f272ca6b332c2",
}


def _sha(code, out):
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def _golden_demos(capsys, tmp_path):
    for name in ("greeter", "signer", "dispatch"):
        run(capsys, "demo", "--name", name, "--out", str(tmp_path), "--iterations", "12")
    return ("greeter", "signer", "signer_ecalls", "dispatch")


def test_verify_output_is_golden(capsys, tmp_path):
    table = str(tmp_path / "table.json")
    digests = {}
    for stem in _golden_demos(capsys, tmp_path):
        cfg = str(tmp_path / f"{stem}.json")
        db = str(tmp_path / f"{stem}_db.json")
        assert run(capsys, "preprocess", "--cfg", cfg, "--table", table, "--out", db)[0] == EXIT_OK
        for registers, counters in (("identity", []), ("three", ["--counters", THREE_REGISTERS])):
            valid = tmp_path / f"{stem}_{registers}_ms.json"
            code, _, _ = run(
                capsys, "simulate", "--cfg", cfg, "--table", table,
                "--trace", str(tmp_path / f"{stem}_trace.json"), *counters, "--out", str(valid),
            )
            assert code == EXIT_OK
            doc = json.loads(valid.read_text())
            doc["measurements"][-1]["delta"][0] += 1
            tampered = _write(tmp_path / f"{stem}_{registers}_tampered.json", doc)
            for variant, path in (("valid", str(valid)), ("tampered", tampered)):
                code, out, _ = run(
                    capsys, "verify", "--db", db, "--measurements", path,
                    "--table", table, *counters, "--format", "json",
                )
                digests[stem, registers, variant] = _sha(code, out)
    assert digests == GOLDEN_VERIFY


def test_attack_eval_output_is_golden(capsys, tmp_path):
    run(capsys, "demo", "--name", "signer", "--out", str(tmp_path), "--iterations", "12")
    manifests = [
        str(tmp_path / f"manifest_{name}.json")
        for name in ("basic", "added_counters", "added_ecalls")
    ]
    code, out, _ = run(capsys, "attack-eval", *manifests, "--format", "json", "--reps", "3")
    assert _sha(code, out) == GOLDEN_ATTACK_EVAL


def test_simulate_output_is_golden(capsys, tmp_path):
    table = str(tmp_path / "table.json")
    digests = {}
    for stem in _golden_demos(capsys, tmp_path):
        argv = [
            "simulate", "--cfg", str(tmp_path / f"{stem}.json"), "--table", table,
            "--trace", str(tmp_path / f"{stem}_trace.json"), "--format", "json",
        ]
        for registers, counters in (("identity", []), ("three", ["--counters", THREE_REGISTERS])):
            code, out, _ = run(capsys, *argv, *counters)
            digests[stem, registers] = _sha(code, out)
        if stem == "signer":
            code, out, _ = run(capsys, *argv, "--counters", THREE_REGISTERS, "--offset", "3,0,1")
            digests[stem, "three+offset"] = _sha(code, out)
    assert digests == GOLDEN_SIMULATE

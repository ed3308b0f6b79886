"""Batch command-line front end.

Every command is deterministic given its inputs (seeds are explicit flags
or manifest fields), and machine-readable output is byte-identical across
runs: JSON is emitted with sorted keys and no timestamps.  The process exit
status encodes the verifier verdict so pipelines can gate on it:

* 0: success / full acceptance
* 1: a measurement was rejected
* 2: usage, schema, or input errors
* 3: digest mismatch between artifacts
* 4: an enumeration budget was exceeded
* 5: an internal error, a defect in flowattest rather than in the inputs,
  reported as one ``internal error:`` line on stderr
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import attacks, demos, protocol
from .cfg import (
    _check_int,
    _check_str,
    _require_keys,
    load_cfg,
    load_measurements,
    load_trace,
    serialize_measurements,
    serialize_trace,
)
from .database import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_CYCLE_BUDGET,
    enumerate_segments,
    load_database,
    serialize_database,
)
from .errors import BudgetError, DigestMismatchError, FlowAttestError, SchemaError
from .events import load_event_table, parse_register_spec
from .expand import DEFAULT_NODE_BUDGET
from .simulate import measure, random_valid_walk
from .vectors import vsub
from .verify import render_report, report_document, verify_trace_measurements

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2
EXIT_DIGEST = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5

DEFAULT_EXPLORE_DEPTH = 10


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type of the budget, depth and iteration flags: the
    manifest's rule."""
    return _int_at_least(text, 0)


def _positive_int(text: str) -> int:
    """argparse type of ``--reps``: the manifest's rule, so a bad count is
    refused before any manifest is read or any database written."""
    return _int_at_least(text, 1)


def _offset(text: str) -> tuple[int, ...]:
    """argparse type of ``--offset``: comma-separated counts, each >= 0."""
    return tuple(_nonnegative_int(entry) for entry in text.split(","))


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _emit(doc, fmt: str, text_renderer=None) -> None:
    """Write ``doc`` as JSON, or as text when the command has a renderer."""
    if fmt == "text" and text_renderer is not None:
        sys.stdout.write(text_renderer() + "\n")
    else:
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_json(path: str, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_config(table, spec: str | None):
    return None if spec is None else parse_register_spec(table, spec)


def cmd_preprocess(args) -> int:
    cfg = load_cfg(_read_json(args.cfg))
    table = load_event_table(_read_json(args.table))
    db = enumerate_segments(
        cfg,
        table,
        candidate_budget=args.budget_candidates,
        cycle_budget=args.budget_cycles,
        node_budget=args.budget_nodes,
    )
    _write_json(args.out, serialize_database(db))
    stats = {
        "cfg_digest": db.cfg_digest,
        "segments": len(db.entries),
        "candidates": sum(len(c) for c in db.entries.values()),
        "per_segment": [
            {
                "start": start,
                "end": end,
                "candidates": len(cands),
                "loops": max((len(c.loops) for c in cands), default=0),
            }
            for (start, end), cands in sorted(db.entries.items())
        ],
    }
    _emit(
        stats,
        args.format,
        lambda: "\n".join(
            [f"database written to {args.out}"]
            + [
                f"  {s['start']} -> {s['end']}: {s['candidates']} candidates, <= {s['loops']} loops"
                for s in stats["per_segment"]
            ]
            + [f"{stats['segments']} segments, {stats['candidates']} candidates"]
        ),
    )
    return EXIT_OK


def _load_session(args):
    """The ``--db`` database and the ``--measurements`` bound to its CFG."""
    db = load_database(_read_json(args.db))
    return db, load_measurements(_read_json(args.measurements), db.cfg_digest)


def cmd_verify(args) -> int:
    db, measurements = _load_session(args)
    table = load_event_table(_read_json(args.table)) if args.table is not None else None
    if table is not None and table.counter_names != db.counters:
        raise SchemaError(
            "event table and database disagree on the counter list: "
            f"{table.counter_names} vs {db.counters}"
        )
    config = _load_config(table, args.counters)
    if args.offset is not None:
        measurements = [
            m.__class__(start=m.start, end=m.end, delta=vsub(m.delta, args.offset))
            for m in measurements
        ]
    report = verify_trace_measurements(db, measurements, config=config)
    _emit(
        report_document(report, include_timings=args.timings),
        args.format,
        lambda: render_report(report),
    )
    return EXIT_OK if report.accepted else EXIT_REJECTED


def cmd_simulate(args) -> int:
    cfg = load_cfg(_read_json(args.cfg))
    table = load_event_table(_read_json(args.table))
    config = _load_config(table, args.counters)
    trace = load_trace(_read_json(args.trace), cfg.digest)
    measurements = measure(cfg, table, config, trace, offset=args.offset)
    doc = serialize_measurements(cfg.digest, measurements)
    if args.out:
        _write_json(args.out, doc)
        written = {"out": args.out, "measurements": len(measurements)}
        _emit(
            written,
            args.format,
            lambda: f"{written['measurements']} measurements written to {args.out}",
        )
    else:
        _emit(doc, args.format)
    return EXIT_OK


def cmd_walk(args) -> int:
    cfg = load_cfg(_read_json(args.cfg))
    trace = random_valid_walk(
        cfg,
        args.seed,
        min_segments=args.min_segments,
        max_segments=args.max_segments,
        max_loop_iterations=args.max_loop_iterations,
    )
    doc = serialize_trace(cfg, trace)
    if args.out:
        _write_json(args.out, doc)
        written = {"out": args.out, "steps": len(trace.steps)}
        _emit(
            written, args.format, lambda: f"walk with {written['steps']} steps written to {args.out}"
        )
    else:
        _emit(doc, args.format)
    return EXIT_OK


def _run_manifest(path: str, reps_override: int | None = None):
    """Run one attack-eval manifest: ``cfg``, ``table`` and ``trace`` name
    documents beside it; ``label``, ``counters`` (a register spec), ``db``
    (a database file, built and written when missing), ``seed``, ``reps``
    and ``budgets`` (``candidates``, ``cycles``, ``nodes``) are optional, and
    null means absent.  Every field is checked before any work starts."""
    manifest = _read_json(path)
    _require_keys(
        manifest,
        required=("cfg", "table", "trace"),
        optional=("label", "counters", "db", "seed", "reps", "budgets"),
        what="manifest",
    )

    def optional(key, check, default=None):
        value = manifest.get(key)
        return default if value is None else check(value, f"manifest {key}")

    def check_budgets(value, what):
        _require_keys(value, required=(), optional=("candidates", "cycles", "nodes"), what=what)
        return {key: _check_int(v, f"{what} {key}") for key, v in value.items()}

    base = Path(path).parent
    files = {
        key: base / _check_str(manifest[key], f"manifest {key}") for key in ("cfg", "table", "trace")
    }
    label = optional("label", _check_str, Path(path).stem)
    counters = optional("counters", _check_str)
    db_name = optional("db", _check_str)
    seed = optional("seed", _check_int, 0)
    reps = optional("reps", lambda v, what: _check_int(v, what, minimum=1))
    budgets = optional("budgets", check_budgets, {})
    if reps_override is not None:
        reps = reps_override
    specs = attacks.default_specs(seed=seed, repetitions=reps)

    cfg = load_cfg(_read_json(files["cfg"]))
    table = load_event_table(_read_json(files["table"]))
    trace = load_trace(_read_json(files["trace"]), cfg.digest)
    config = _load_config(table, counters)
    db_path = None if db_name is None else base / db_name
    if db_path is not None and db_path.exists():
        db = load_database(_read_json(db_path), expected_digest=cfg.digest)
    else:
        db = enumerate_segments(
            cfg,
            table,
            candidate_budget=budgets.get("candidates", DEFAULT_CANDIDATE_BUDGET),
            cycle_budget=budgets.get("cycles", DEFAULT_CYCLE_BUDGET),
            node_budget=budgets.get("nodes", DEFAULT_NODE_BUDGET),
        )
        if db_path is not None:
            _write_json(db_path, serialize_database(db))
    return label, attacks.evaluate(cfg, db, table, trace, specs, config=config)


def cmd_attack_eval(args) -> int:
    rows = [_run_manifest(path, args.reps) for path in args.manifest]
    doc = [attacks.reliability_document(label, reports) for label, reports in rows]
    _emit(doc, args.format, lambda: attacks.render_table(rows))
    return EXIT_OK


def cmd_protocol(args) -> int:
    if args.explore:
        world = protocol.tandem_world(sm_mediated=args.sm_mediated)
        depth = DEFAULT_EXPLORE_DEPTH if args.depth is None else args.depth
        report = protocol.explore(world, protocol.standard_tandem_alphabet(), depth=depth)
        doc = {
            "states": report.states,
            "depth": report.depth,
            "violations": [
                {
                    "description": v.description,
                    "trace": [
                        {"kind": e.kind, "actor": e.actor, "target": e.target, "value": e.value}
                        for e in v.trace
                    ],
                }
                for v in report.violations
            ],
            "successful_reads_outside_verified": report.successful_reads_outside_verified,
        }
        _emit(
            doc,
            args.format,
            lambda: (
                f"explored {report.states} states to depth {report.depth}: "
                f"{len(report.violations)} violations, "
                f"{report.successful_reads_outside_verified} reads outside VERIFIED"
            ),
        )
        return EXIT_OK if not report.violations else EXIT_REJECTED
    events = protocol.load_scenario(_read_json(args.scenario))
    if args.db is not None:
        # Integration mode: the verifier supplies the verdicts for events
        # scripted with value "auto".
        db, measurements = _load_session(args)
        report = verify_trace_measurements(db, measurements)
        events = protocol.bind_verdicts(
            events, [r.verdict == "accepted" for r in report.results]
        )
    world = protocol.World(sm_mediated=args.sm_mediated)
    world, log = protocol.run_scenario(world, events)
    doc = {
        "effects": [
            {
                "event": {"kind": e.kind, "actor": e.actor, "target": e.target, "value": e.value},
                "effects": [list(effect) for effect in effects],
            }
            for e, effects in log
        ],
        "context_switches": world.context_switches,
    }
    _emit(
        doc,
        args.format,
        lambda: "\n".join(
            f"{e.kind}({e.actor}) -> {'; '.join(','.join(eff) for eff in effects)}"
            for e, effects in log
        )
        + f"\ncontext switches: {world.context_switches}",
    )
    return EXIT_OK


def cmd_demo(args) -> int:
    written = demos.write_demo(args.name, args.out, iterations=args.iterations)
    for path in written:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowattest",
        description="Preprocess, verify, simulate, and attack control-flow "
        "attestation artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("preprocess", help="build the segment database for a CFG")
    p.add_argument("--cfg", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--budget-candidates", type=_nonnegative_int, default=DEFAULT_CANDIDATE_BUDGET
    )
    p.add_argument("--budget-cycles", type=_nonnegative_int, default=DEFAULT_CYCLE_BUDGET)
    p.add_argument("--budget-nodes", type=_nonnegative_int, default=DEFAULT_NODE_BUDGET)
    common_output(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("verify", help="verify a measurement sequence against a database")
    p.add_argument("--db", required=True)
    p.add_argument("--measurements", required=True)
    p.add_argument(
        "--table", help="needed with --counters; its counter list must be the database's"
    )
    p.add_argument("--counters", help="register spec, e.g. 'instret,a+b,c'")
    p.add_argument("--offset", type=_offset, help="per-snapshot footprint to subtract")
    p.add_argument(
        "--timings",
        action="store_true",
        help="include elapsed times in JSON output (breaks byte-stability)",
    )
    common_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="replay a trace into measurements")
    p.add_argument("--cfg", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--counters")
    p.add_argument("--offset", type=_offset, help="per-snapshot footprint to add")
    p.add_argument("--out")
    common_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("walk", help="generate a random valid trace")
    p.add_argument("--cfg", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-segments", type=int, default=1)
    p.add_argument("--max-segments", type=int, default=4)
    p.add_argument("--max-loop-iterations", type=_nonnegative_int, default=8)
    p.add_argument("--out")
    common_output(p)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("attack-eval", help="run the mutation experiments from manifests")
    p.add_argument("manifest", nargs="+")
    p.add_argument("--reps", type=_positive_int, help="override each manifest's repetition count")
    common_output(p)
    p.set_defaults(func=cmd_attack_eval)

    p = sub.add_parser("protocol", help="run a protocol scenario or explore the state space")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--scenario")
    mode.add_argument("--explore", action="store_true")
    p.add_argument(
        "--depth",
        type=_nonnegative_int,
        help=f"with --explore: search depth (default {DEFAULT_EXPLORE_DEPTH})",
    )
    p.add_argument("--sm-mediated", action="store_true")
    p.add_argument("--db", help="with --measurements: verdicts for 'auto' events")
    p.add_argument("--measurements", help="with --db")
    common_output(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("demo", help="write a shipped demo into a directory")
    p.add_argument("--name", choices=demos.DEMO_NAMES, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=_nonnegative_int, default=60)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "protocol" and (args.db is None) != (args.measurements is None):
        parser.error("protocol --db and --measurements go together")
    if args.command == "protocol" and args.explore and args.db is not None:
        parser.error("protocol --db and --measurements need --scenario")
    if args.command == "protocol" and args.scenario is not None and args.depth is not None:
        parser.error("protocol --depth needs --explore")
    if args.command == "verify" and args.counters is not None and args.table is None:
        parser.error("verify --counters needs --table")
    try:
        return args.func(args)
    except DigestMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIGEST
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FlowAttestError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # Never the traceback's exit status 1, which means "rejected".
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

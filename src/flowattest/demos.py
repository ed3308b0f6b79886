"""Shipped demo programs, traces, and run manifests.

Three programs cover the interesting shapes:

* ``greeter``: short segments, one small loop; everything verifies well.
* ``signer``: a signing-shaped loop nest whose inner blocks share one
  instruction profile.  Between its two snapshot points the loop vectors
  generate a lattice containing that profile, so single-block attacks are
  arithmetically invisible there; building it with ``in_loop_measurements``
  splits the nest and restores detection.  This is the pair the reliability
  trend experiments run on.
* ``dispatch``: an indirect call site with two enumerated targets.

Builders return plain document dicts; :func:`write_demo` materializes a
demo directory with the event table, traces, and attack-evaluation
manifests.
"""

from __future__ import annotations

import json
from pathlib import Path

from .cfg import load_cfg, serialize_trace
from .cfg import BlockTrace
from .events import default_event_table, serialize_event_table

# The shared "signing arithmetic" profile of the signer's loop blocks.
_D_PROFILE = ["add", "lw", "sw", "addi", "jal"]

_THREE_REGISTER_SPEC = "instret,cond_branch_retired+jal_retired+jalr_retired,int_load_retired"


def _block(bid, fn, instructions, mp=False):
    return {
        "id": bid,
        "function": fn,
        "instruction_count": len(instructions),
        "is_measurement_point": mp,
        "instructions": list(instructions),
    }


def _edge(src, dst, kind="fallthrough"):
    return {"from": src, "to": dst, "kind": kind}


def _counters():
    return [c.name for c in default_event_table().counters]


def greeter_cfg() -> dict:
    blocks = [
        _block("g.start", "main", ["addi", "addi"], mp=True),
        _block("g.call", "main", ["jal"]),
        _block("g.mid", "main", ["addi"], mp=True),
        _block("g.bye", "main", ["sw", "jal"]),
        _block("g.end", "main", ["jalr"], mp=True),
        _block("p.entry", "greet", ["addi"]),
        _block("p.loop", "greet", ["lw", "sw", "addi", "beq"]),
        _block("p.done", "greet", ["jalr"]),
    ]
    edges = [
        _edge("g.start", "g.call"),
        _edge("g.call", "p.entry", "call"),
        _edge("p.entry", "p.loop"),
        _edge("p.loop", "p.loop", "branch"),
        _edge("p.loop", "p.done", "branch"),
        _edge("p.done", "g.mid", "return"),
        _edge("g.mid", "g.bye"),
        _edge("g.bye", "g.end"),
    ]
    return {
        "counters": _counters(),
        "functions": [
            {"name": "main", "entry": "g.start", "blocks": ["g.start", "g.call", "g.mid", "g.bye", "g.end"]},
            {"name": "greet", "entry": "p.entry", "blocks": ["p.entry", "p.loop", "p.done"]},
        ],
        "blocks": blocks,
        "edges": edges,
        "entry": "g.start",
    }


def greeter_trace(loop_iterations: int = 5) -> list[str]:
    return (
        ["g.start", "g.call", "p.entry"]
        + ["p.loop"] * (loop_iterations + 1)
        + ["p.done", "g.mid", "g.bye", "g.end"]
    )


def signer_cfg(in_loop_measurements: bool = False) -> dict:
    blocks = [
        _block("m.start", "main", ["addi", "addi"], mp=True),
        _block("m.prep", "main", ["and", "or", "slli", "addi"]),
        _block("m.call", "main", ["beq", "jal"]),
        _block("m.ret", "main", ["lw", "beq", "addi"]),
        _block("m.end", "main", ["jalr"], mp=True),
        _block("s.enter", "sign", ["addi"], mp=True),
        _block("s.L", "sign", _D_PROFILE),
        _block("s.M1", "sign", _D_PROFILE),
        _block("s.M2", "sign", _D_PROFILE),
        _block("s.M3", "sign", _D_PROFILE),
        _block("s.M4", "sign", _D_PROFILE),
        _block("s.W", "sign", _D_PROFILE),
        _block("s.V", "sign", _D_PROFILE),
        _block("s.X", "sign", _D_PROFILE),
        _block("s.exit", "sign", ["addi", "jalr"], mp=True),
    ]
    sign_blocks = [
        "s.enter", "s.L", "s.M1", "s.M2", "s.M3", "s.M4", "s.W", "s.V", "s.X", "s.exit",
    ]
    edges = [
        _edge("m.start", "m.prep"),
        _edge("m.prep", "m.call"),
        _edge("m.call", "s.enter", "call"),
        _edge("s.exit", "m.ret", "return"),
        _edge("m.ret", "m.end"),
        _edge("s.enter", "s.L"),
        _edge("s.L", "s.M1"),
        _edge("s.M1", "s.M2"),
        _edge("s.M2", "s.M3", "branch"),
        _edge("s.M2", "s.W", "branch"),
        _edge("s.W", "s.V"),
        _edge("s.V", "s.M2", "branch"),
        _edge("s.M3", "s.M4"),
        _edge("s.X", "s.exit"),
    ]
    if in_loop_measurements:
        blocks.append(_block("s.E", "sign", ["addi"], mp=True))
        sign_blocks.append("s.E")
        edges += [
            _edge("s.M4", "s.E"),
            _edge("s.E", "s.L", "branch"),
            _edge("s.E", "s.X", "branch"),
        ]
    else:
        edges += [
            _edge("s.M4", "s.L", "branch"),
            _edge("s.M4", "s.X", "branch"),
        ]
    return {
        "counters": _counters(),
        "functions": [
            {
                "name": "main",
                "entry": "m.start",
                "blocks": ["m.start", "m.prep", "m.call", "m.ret", "m.end"],
            },
            {"name": "sign", "entry": "s.enter", "blocks": sorted(sign_blocks)},
        ],
        "blocks": blocks,
        "edges": edges,
        "entry": "m.start",
    }


def signer_trace(
    iterations: int = 60,
    detour_every: int = 25,
    in_loop_measurements: bool = False,
) -> list[str]:
    """The signing run: ``iterations`` passes over the loop nest, taking the
    inner detour on every ``detour_every``-th pass (0 disables detours)."""
    steps = ["m.start", "m.prep", "m.call", "s.enter"]
    for i in range(iterations):
        steps += ["s.L", "s.M1", "s.M2"]
        if detour_every and (i + 1) % detour_every == 0:
            steps += ["s.W", "s.V", "s.M2"]
        steps += ["s.M3", "s.M4"]
        if in_loop_measurements:
            steps.append("s.E")
    steps += ["s.X", "s.exit", "m.ret", "m.end"]
    return steps


def dispatch_cfg() -> dict:
    blocks = [
        _block("m.start", "main", ["addi"], mp=True),
        _block("m.sel", "main", ["lw", "beq"]),
        _block("m.dis", "main", ["jalr"]),
        _block("m.join", "main", ["addi", "lw"]),
        _block("m.end", "main", ["jalr"], mp=True),
        _block("a.body", "alpha", ["add", "add", "sub", "jalr"]),
        _block("b.body", "beta", ["mul", "mul", "addi", "jalr"]),
    ]
    edges = [
        _edge("m.start", "m.sel"),
        _edge("m.sel", "m.dis"),
        # The dispatch site: both enumerated targets are first-class edges.
        _edge("m.dis", "a.body", "indirect"),
        _edge("m.dis", "b.body", "indirect"),
        _edge("a.body", "m.join", "return"),
        _edge("b.body", "m.join", "return"),
        _edge("m.join", "m.end"),
    ]
    return {
        "counters": _counters(),
        "functions": [
            {
                "name": "main",
                "entry": "m.start",
                "blocks": ["m.start", "m.sel", "m.dis", "m.join", "m.end"],
            },
            {"name": "alpha", "entry": "a.body", "blocks": ["a.body"]},
            {"name": "beta", "entry": "b.body", "blocks": ["b.body"]},
        ],
        "blocks": blocks,
        "edges": edges,
        "entry": "m.start",
    }


def dispatch_trace(target: str = "alpha") -> list[str]:
    body = "a.body" if target == "alpha" else "b.body"
    return ["m.start", "m.sel", "m.dis", body, "m.join", "m.end"]


def pathburst_cfg(layers: int = 17) -> dict:
    """A branch cascade with 2**layers simple paths between its only two
    snapshot points, but only layers + 1 distinct candidates: a path's
    value is fixed by how many of its layers take the load.  Preprocessing
    budgets candidates, not paths, so it builds without another
    measurement point."""
    blocks = [_block("p.s", "main", ["addi"], mp=True)]
    edges = []
    prev = ["p.s"]
    for i in range(layers):
        pair = [(f"p.a{i}", "add"), (f"p.b{i}", "lw")]
        for bid, mnemonic in pair:
            blocks.append(_block(bid, "main", [mnemonic]))
            for src in prev:
                edges.append(_edge(src, bid, "branch"))
        prev = [bid for bid, _ in pair]
    blocks.append(_block("p.t", "main", ["jalr"], mp=True))
    for src in prev:
        edges.append(_edge(src, "p.t", "branch"))
    return {
        "counters": _counters(),
        "functions": [
            {"name": "main", "entry": "p.s", "blocks": [b["id"] for b in blocks]}
        ],
        "blocks": blocks,
        "edges": edges,
        "entry": "p.s",
    }


def happy_path_scenario() -> list[dict]:
    return [
        {"kind": "create", "actor": "tracee", "target": "TRACEE", "value": "h-tracer"},
        {"kind": "create", "actor": "tracer", "target": "TRACER"},
        {"kind": "attach_as_tracer", "actor": "tracer", "target": "tracee", "value": "h-tracer"},
        {"kind": "start", "actor": "tracee"},
        {"kind": "ecall", "actor": "tracee"},
        {"kind": "set_cfa_verification_state", "actor": "tracer", "target": "tracee", "value": "accept"},
        {"kind": "host_read_shm", "actor": "host", "target": "tracee"},
    ]


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_demo(name: str, out_dir: str | Path, *, iterations: int = 60) -> list[Path]:
    """Write a demo's CFG(s), table, trace(s), and manifests into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "table.json"
    _dump(table_path, serialize_event_table(default_event_table()))
    written = [table_path]

    def emit(stem: str, cfg_doc: dict, steps: list[str]) -> None:
        cfg = load_cfg(cfg_doc)
        cfg_path = out / f"{stem}.json"
        trace_path = out / f"{stem}_trace.json"
        _dump(cfg_path, cfg_doc)
        _dump(trace_path, serialize_trace(cfg, BlockTrace(steps=tuple(steps))))
        written.extend([cfg_path, trace_path])

    if name == "greeter":
        emit("greeter", greeter_cfg(), greeter_trace())
    elif name == "dispatch":
        emit("dispatch", dispatch_cfg(), dispatch_trace())
    elif name == "pathburst":
        path = out / "pathburst.json"
        _dump(path, pathburst_cfg())
        written.append(path)
    elif name == "signer":
        emit("signer", signer_cfg(False), signer_trace(iterations, 25, False))
        emit(
            "signer_ecalls",
            signer_cfg(True),
            signer_trace(iterations, 25, True),
        )
        manifests = {
            "manifest_basic.json": {
                "label": "basic",
                "cfg": "signer.json",
                "trace": "signer_trace.json",
                "counters": _THREE_REGISTER_SPEC,
            },
            "manifest_added_counters.json": {
                "label": "added-counters",
                "cfg": "signer.json",
                "trace": "signer_trace.json",
                "counters": None,
            },
            "manifest_added_ecalls.json": {
                "label": "added-ecalls",
                "cfg": "signer_ecalls.json",
                "trace": "signer_ecalls_trace.json",
                "counters": None,
            },
        }
        for fname, manifest in manifests.items():
            manifest.update(
                {
                    "table": "table.json",
                    "db": None,
                    "seed": 7,
                    "reps": 100,
                    "budgets": None,
                }
            )
            path = out / fname
            _dump(path, manifest)
            written.append(path)
    elif name == "protocol":
        path = out / "scenario_happy_path.json"
        _dump(path, happy_path_scenario())
        written.append(path)
    else:
        raise ValueError(f"unknown demo '{name}'")
    return written


DEMO_NAMES = ("greeter", "signer", "dispatch", "pathburst", "protocol")

"""Annotated control-flow graphs, block traces, and counter measurements.

Documents are JSON.  The CFG document looks like::

    {
      "counters": ["instret", "cond_branch_retired", ...],
      "functions": [{"name": "main", "entry": "main.0", "blocks": ["main.0", ...]}],
      "blocks": [
        {"id": "main.0", "function": "main", "instruction_count": 3,
         "is_measurement_point": true, "instructions": ["addi", "lw", "jal"]},
        {"id": "main.1", "function": "main", "instruction_count": 2,
         "is_measurement_point": false, "delta": [2, 0, ...]}
      ],
      "edges": [{"from": "main.0", "to": "main.1", "kind": "fallthrough"}],
      "entry": "main.0",
      "skip_segments": [{"start": "rt.pre", "end": "rt.post"}]   // optional
    }

Field order is insignificant; unknown keys are rejected.  A trace document is
``{"cfg_ref": <digest>, "steps": [...]}`` and a measurement-sequence document
is ``{"cfg_ref": <digest>, "measurements": [{"start", "end", "delta"}]}``.
Loaders take parsed JSON values, and a document naming its CFG is bound to
that CFG's digest by :func:`_bind_cfg_ref` alone.  Recursion is found by the
component and simple-cycle searches that preprocessing uses.

Loaded objects are immutable after construction and safe to share across
concurrent workers.  Besides the successor lists and edge pairs, the loader
derives the set of measurement points and the set of zero-instruction
blocks.  Checking a trace is then a few C-level set operations over its
steps (ids, endpoints, zero-instruction blocks, edges), and
:func:`point_indices` finds where a checked trace is cut into segments in
one more pass.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import compress

from .errors import DigestMismatchError, RecursionDetectedError, SchemaError, UnknownBlockError
from .vectors import Vec

EDGE_KINDS = ("fallthrough", "branch", "call", "return", "indirect")

Node = Hashable

# Edge kinds that never leave the current function.
_INTRA_KINDS = ("fallthrough", "branch")


@dataclass(frozen=True)
class BasicBlock:
    """One basic block: identity, ownership, and its counter footprint.

    Either ``instructions`` (a mnemonic list resolved through an event
    table) or ``delta`` (a precomputed counter vector) must be present;
    both are allowed when they agree under the table in use.
    ``instruction_count`` is stored independently so delta-only documents
    still support instruction-weighted metrics.
    """

    id: str
    function: str
    instruction_count: int
    is_measurement_point: bool
    instructions: tuple[str, ...] | None = None
    delta: Vec | None = None


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: str


@dataclass(frozen=True)
class FunctionInfo:
    name: str
    entry: str
    blocks: frozenset[str]


@dataclass(frozen=True)
class BlockTrace:
    """An ordered record of executed blocks, first and last at measurement points."""

    steps: tuple[str, ...]


@dataclass(frozen=True)
class Measurement:
    """One snapshot-to-snapshot observation: endpoint blocks plus the counter delta."""

    start: str
    end: str
    delta: Vec


@dataclass(frozen=True, eq=False)
class AnnotatedCfg:
    counters: tuple[str, ...]
    blocks: dict[str, BasicBlock]
    functions: dict[str, FunctionInfo]
    edges: tuple[Edge, ...]
    program_entry: str
    skip_segments: frozenset[tuple[str, str]]
    # Derived, filled by the loader.
    succ: dict[str, tuple[Edge, ...]] = field(default_factory=dict)
    edge_pairs: frozenset[tuple[str, str]] = frozenset()
    points: frozenset[str] = frozenset()  # the measurement points
    zero_blocks: frozenset[str] = frozenset()  # blocks of zero instructions
    digest: str = ""
    # Memo of events.delta_map: id(table) -> (table, read-only deltas, {config:
    # read-only projected deltas}).  The entry holds the table so that its id
    # cannot be reused by another one.
    _deltas: dict[int, tuple[object, Mapping[str, Vec], dict]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dimension(self) -> int:
        return len(self.counters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnnotatedCfg):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.blocks == other.blocks
            and self.functions == other.functions
            and set(self.edges) == set(other.edges)
            and self.program_entry == other.program_entry
            and self.skip_segments == other.skip_segments
        )


def _require_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{what} is missing required key '{key}'")
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{what} has unknown key '{key}'")


def _load_endpoints(obj, what: str, extra: tuple[str, ...] = ()) -> tuple[str, str]:
    _require_keys(obj, required=("start", "end") + extra, optional=(), what=what)
    if not isinstance(obj["start"], str) or not isinstance(obj["end"], str):
        raise SchemaError(f"{what}: start and end must be block ids")
    return obj["start"], obj["end"]


def _bind_cfg_ref(document: dict, key: str, cfg_digest: str | None, what: str) -> str:
    """The CFG digest ``document`` names under ``key``; one other than
    ``cfg_digest`` (None: any) is a :class:`DigestMismatchError`."""
    ref = _check_str(document[key], f"{what} {key}")
    if cfg_digest is not None and ref != cfg_digest:
        raise DigestMismatchError(
            f"{what} refers to CFG {ref[:12]}..., expected {cfg_digest[:12]}..."
        )
    return ref


def _check_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, got {value!r}")
    return value


def _check_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{what} must be an array, got {type(value).__name__}")
    return value


def _check_int(value, what: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise SchemaError(f"{what} must be >= {minimum}, got {value}")
    return value


def _check_vector(value, dim: int, what: str) -> Vec:
    if not isinstance(value, list) or len(value) != dim:
        raise SchemaError(f"{what} must be an array of {dim} integers")
    return tuple(_check_int(x, f"{what}[{i}]") for i, x in enumerate(value))


def _parse_block(obj: dict, dim: int) -> BasicBlock:
    _require_keys(
        obj,
        required=("id", "function", "instruction_count", "is_measurement_point"),
        optional=("instructions", "delta"),
        what="block",
    )
    block_id = obj["id"]
    if not isinstance(block_id, str) or not block_id:
        raise SchemaError(f"block id must be a non-empty string, got {block_id!r}")
    if not isinstance(obj["is_measurement_point"], bool):
        raise SchemaError(f"block '{block_id}': is_measurement_point must be a boolean")
    count = _check_int(obj["instruction_count"], f"block '{block_id}': instruction_count")
    instructions = None
    if "instructions" in obj:
        raw = obj["instructions"]
        if not isinstance(raw, list) or not all(isinstance(m, str) for m in raw):
            raise SchemaError(f"block '{block_id}': instructions must be an array of strings")
        instructions = tuple(raw)
        if len(instructions) != count:
            raise SchemaError(
                f"block '{block_id}': instruction_count {count} does not match "
                f"{len(instructions)} listed instructions"
            )
    delta = None
    if "delta" in obj:
        delta = _check_vector(obj["delta"], dim, f"block '{block_id}': delta")
    if instructions is None and delta is None:
        raise SchemaError(f"block '{block_id}': needs 'instructions' or 'delta'")
    return BasicBlock(
        id=block_id,
        function=obj["function"],
        instruction_count=count,
        is_measurement_point=obj["is_measurement_point"],
        instructions=instructions,
        delta=delta,
    )


def _call_graph(
    blocks: dict[str, BasicBlock], functions: dict[str, FunctionInfo], edges: list[Edge]
) -> dict[str, list[str]]:
    """Each function's callees, without repeats."""
    graph: dict[str, list[str]] = {name: [] for name in functions}
    for edge in edges:
        src_fn = blocks[edge.src].function
        dst_fn = blocks[edge.dst].function
        if edge.kind == "call" or (edge.kind == "indirect" and src_fn != dst_fn):
            if dst_fn not in graph[src_fn]:
                graph[src_fn].append(dst_fn)
    return graph


def _strong_components(succ: dict[Node, list[Node]], nodes: list[Node]) -> list[list[Node]]:
    """Strongly connected components of the subgraph induced by ``nodes``
    (Tarjan 1972, with an explicit stack in place of recursion)."""
    members = set(nodes)
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    stack: list[Node] = []
    on_stack: set[Node] = set()
    components: list[list[Node]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, nexts = work[-1]
            for nxt in nexts:
                if nxt not in members:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _simple_cycles(
    succ: dict[Node, list[Node]], components: list[list[Node]]
) -> Iterator[list[Node]]:
    """Every simple cycle of a directed graph, each exactly once.

    ``succ`` maps every node to its successors, without repeats, and
    ``components`` are its strongly connected components.  Self-loops come
    first; the rest is Johnson's blocked circuit search (Johnson 1975):
    take a node ``s`` of a nontrivial strongly connected component, list
    the circuits through ``s`` inside that component, then drop ``s`` and
    repeat on the components that remain.  A node stays blocked while no
    circuit can be completed through it, which bounds the work per circuit
    found.
    """
    for node, nexts in succ.items():
        if node in nexts:
            yield [node]
    pending = [c for c in components if len(c) > 1]
    while pending:
        component = pending.pop()
        start = component[-1]
        members = set(component)
        blocked = {start}
        blockers: dict[Node, set[Node]] = {n: set() for n in component}
        path = [start]
        # One frame per path node: [node, unexplored successors, closed a circuit]
        frames = [[start, iter(succ[start]), False]]
        while frames:
            frame = frames[-1]
            for nxt in frame[1]:
                if nxt not in members or nxt == frame[0]:
                    continue
                if nxt == start:
                    yield list(path)
                    frame[2] = True
                elif nxt not in blocked:
                    blocked.add(nxt)
                    path.append(nxt)
                    frames.append([nxt, iter(succ[nxt]), False])
                    break
            else:
                frames.pop()
                node = path.pop()
                if frame[2]:
                    # Unblock the node and, transitively, everything that
                    # was waiting on it.
                    release = [node]
                    while release:
                        n = release.pop()
                        if n in blocked:
                            blocked.discard(n)
                            release.extend(blockers[n])
                            blockers[n].clear()
                    if frames:
                        frames[-1][2] = True
                else:
                    for nxt in succ[node]:
                        if nxt in members:
                            blockers[nxt].add(node)
        rest = component[:-1]
        pending.extend(c for c in _strong_components(succ, rest) if len(c) > 1)


def load_cfg(document: dict) -> AnnotatedCfg:
    """Parse and validate a parsed CFG document.

    Raises :class:`SchemaError` for structural violations (duplicate ids,
    dangling edges, ill-typed fields) and :class:`RecursionDetectedError`
    naming the first simple cycle of the function-level call graph, when
    it has one.
    """
    _require_keys(
        document,
        required=("counters", "functions", "blocks", "edges", "entry"),
        optional=("skip_segments",),
        what="CFG document",
    )
    counters_raw = document["counters"]
    if not isinstance(counters_raw, list) or not counters_raw or not all(
        isinstance(c, str) for c in counters_raw
    ):
        raise SchemaError("'counters' must be a non-empty array of strings")
    if len(set(counters_raw)) != len(counters_raw):
        raise SchemaError("'counters' contains duplicate names")
    counters = tuple(counters_raw)
    dim = len(counters)

    blocks: dict[str, BasicBlock] = {}
    for obj in _check_list(document["blocks"], "'blocks'"):
        block = _parse_block(obj, dim)
        if block.id in blocks:
            raise SchemaError(f"duplicate block id '{block.id}'")
        blocks[block.id] = block

    functions: dict[str, FunctionInfo] = {}
    claimed: dict[str, str] = {}
    for obj in _check_list(document["functions"], "'functions'"):
        _require_keys(obj, required=("name", "entry", "blocks"), optional=(), what="function")
        name = _check_str(obj["name"], "function name")
        if name in functions:
            raise SchemaError(f"duplicate function '{name}'")
        members = obj["blocks"]
        if not isinstance(members, list) or not members:
            raise SchemaError(f"function '{name}': blocks must be a non-empty array")
        for bid in members:
            if _check_str(bid, f"function '{name}': block id") not in blocks:
                raise SchemaError(f"function '{name}' lists unknown block '{bid}'")
            if bid in claimed:
                raise SchemaError(f"block '{bid}' claimed by both '{claimed[bid]}' and '{name}'")
            claimed[bid] = name
            if blocks[bid].function != name:
                raise SchemaError(
                    f"block '{bid}' declares function '{blocks[bid].function}' "
                    f"but is listed under '{name}'"
                )
        if obj["entry"] not in members:
            raise SchemaError(f"function '{name}': entry '{obj['entry']}' not among its blocks")
        functions[name] = FunctionInfo(name=name, entry=obj["entry"], blocks=frozenset(members))
    for bid in blocks:
        if bid not in claimed:
            raise SchemaError(f"block '{bid}' belongs to no function")

    edges: list[Edge] = []
    seen_edges: set[tuple[str, str, str]] = set()
    for obj in _check_list(document["edges"], "'edges'"):
        _require_keys(obj, required=("from", "to", "kind"), optional=(), what="edge")
        src = _check_str(obj["from"], "edge 'from'")
        dst = _check_str(obj["to"], "edge 'to'")
        kind = obj["kind"]
        if kind not in EDGE_KINDS:
            raise SchemaError(f"edge {src}->{dst}: unknown kind '{kind}'")
        for endpoint in (src, dst):
            if endpoint not in blocks:
                raise SchemaError(f"edge {src}->{dst}: dangling endpoint '{endpoint}'")
        src_fn, dst_fn = blocks[src].function, blocks[dst].function
        if kind in _INTRA_KINDS and src_fn != dst_fn:
            raise SchemaError(f"edge {src}->{dst}: '{kind}' edge crosses function boundary")
        if kind == "call":
            if dst != functions[dst_fn].entry:
                raise SchemaError(f"call edge {src}->{dst}: target is not a function entry")
        if kind == "indirect" and src_fn != dst_fn and dst != functions[dst_fn].entry:
            raise SchemaError(
                f"indirect edge {src}->{dst}: cross-function target is not a function entry"
            )
        if kind == "return" and src_fn == dst_fn:
            raise SchemaError(f"return edge {src}->{dst}: does not leave its function")
        key = (src, dst, kind)
        if key in seen_edges:
            raise SchemaError(f"duplicate edge {src}->{dst} ({kind})")
        seen_edges.add(key)
        edges.append(Edge(src=src, dst=dst, kind=kind))

    # Return edges must answer an actual call relationship.
    call_graph = _call_graph(blocks, functions, edges)
    for edge in edges:
        if edge.kind != "return":
            continue
        caller = blocks[edge.dst].function
        callee = blocks[edge.src].function
        if callee not in call_graph[caller]:
            raise SchemaError(
                f"return edge {edge.src}->{edge.dst}: '{caller}' never calls '{callee}'"
            )

    entry = _check_str(document["entry"], "'entry'")
    if entry not in blocks:
        raise SchemaError(f"entry block '{entry}' does not exist")
    if not blocks[entry].is_measurement_point:
        raise SchemaError(f"entry block '{entry}' must be a measurement point")

    skip: set[tuple[str, str]] = set()
    for obj in _check_list(document.get("skip_segments", []), "'skip_segments'"):
        endpoints = _load_endpoints(obj, "skip segment")
        for endpoint in endpoints:
            if endpoint not in blocks:
                raise SchemaError(f"skip segment references unknown block '{endpoint}'")
            if not blocks[endpoint].is_measurement_point:
                raise SchemaError(
                    f"skip segment endpoint '{endpoint}' is not a measurement point"
                )
        skip.add(endpoints)

    components = _strong_components(call_graph, list(call_graph))
    cycle = next(_simple_cycles(call_graph, components), None)
    if cycle is not None:
        raise RecursionDetectedError(cycle)

    succ: dict[str, list[Edge]] = {bid: [] for bid in blocks}
    for edge in edges:
        succ[edge.src].append(edge)

    cfg = AnnotatedCfg(
        counters=counters,
        blocks=blocks,
        functions=functions,
        edges=tuple(edges),
        program_entry=entry,
        skip_segments=frozenset(skip),
        succ={bid: tuple(out) for bid, out in succ.items()},
        edge_pairs=frozenset((e.src, e.dst) for e in edges),
        points=frozenset(bid for bid, b in blocks.items() if b.is_measurement_point),
        zero_blocks=frozenset(bid for bid, b in blocks.items() if b.instruction_count == 0),
    )
    object.__setattr__(cfg, "digest", cfg_digest(cfg))
    return cfg


def serialize_cfg(cfg: AnnotatedCfg) -> dict:
    """Canonical document form; load(serialize(x)) equals x structurally."""
    blocks = []
    for bid in sorted(cfg.blocks):
        block = cfg.blocks[bid]
        obj: dict = {
            "id": block.id,
            "function": block.function,
            "instruction_count": block.instruction_count,
            "is_measurement_point": block.is_measurement_point,
        }
        if block.instructions is not None:
            obj["instructions"] = list(block.instructions)
        if block.delta is not None:
            obj["delta"] = list(block.delta)
        blocks.append(obj)
    doc = {
        "counters": list(cfg.counters),
        "functions": [
            {
                "name": name,
                "entry": cfg.functions[name].entry,
                "blocks": sorted(cfg.functions[name].blocks),
            }
            for name in sorted(cfg.functions)
        ],
        "blocks": blocks,
        "edges": [
            {"from": e.src, "to": e.dst, "kind": e.kind}
            for e in sorted(cfg.edges, key=lambda e: (e.src, e.dst, e.kind))
        ],
        "entry": cfg.program_entry,
    }
    if cfg.skip_segments:
        doc["skip_segments"] = [
            {"start": s, "end": e} for s, e in sorted(cfg.skip_segments)
        ]
    return doc


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cfg_digest(cfg: AnnotatedCfg) -> str:
    """Content hash of the graph, independent of document field order."""
    return hashlib.sha256(canonical_json(serialize_cfg(cfg)).encode()).hexdigest()


def validate_trace(cfg: AnnotatedCfg, trace: BlockTrace) -> bool:
    """True iff the trace starts/ends at measurement points and follows edges.

    Blocks with a zero instruction count may not appear in a trace.
    Raises on degenerate input (empty trace, unknown block ids) rather
    than reporting it as mere invalidity.
    """
    steps = trace.steps
    if not steps:
        raise SchemaError("trace is empty")
    if not cfg.blocks.keys() >= set(steps):
        unknown = next(s for s in steps if s not in cfg.blocks)
        raise UnknownBlockError(f"trace references unknown block '{unknown}'")
    return (
        steps[0] in cfg.points
        and steps[-1] in cfg.points
        and cfg.zero_blocks.isdisjoint(steps)
        and cfg.edge_pairs.issuperset(zip(steps, steps[1:]))
    )


def point_indices(cfg: AnnotatedCfg, trace: BlockTrace) -> list[int]:
    """The indices of a valid trace's measurement points, in order.

    Raises :class:`SchemaError` when the trace is not a valid walk.
    """
    if not validate_trace(cfg, trace):
        raise SchemaError("cannot split an invalid trace")
    steps = trace.steps
    return list(compress(range(len(steps)), map(cfg.points.__contains__, steps)))


def split_trace(cfg: AnnotatedCfg, trace: BlockTrace) -> list[BlockTrace]:
    """Cut a valid trace at measurement points.

    Each segment runs from one measurement point to the next, sharing its
    endpoints with its neighbours; interiors contain no measurement point.
    A single-point trace yields no segments.
    """
    marks = point_indices(cfg, trace)
    steps = trace.steps
    return [BlockTrace(steps=steps[a : b + 1]) for a, b in zip(marks, marks[1:])]


def segment_instruction_counts(cfg: AnnotatedCfg, segments: list[BlockTrace]) -> list[int]:
    """Per-segment instruction totals under the shared-endpoint convention.

    A measurement point's instructions belong to the segment it terminates;
    the first segment additionally absorbs the trace's start block, so the
    per-segment counts sum to the whole-trace total.
    """
    counts = []
    for index, segment in enumerate(segments):
        total = sum(cfg.blocks[s].instruction_count for s in segment.steps[1:])
        if index == 0:
            total += cfg.blocks[segment.steps[0]].instruction_count
        counts.append(total)
    return counts


def serialize_trace(cfg: AnnotatedCfg, trace: BlockTrace) -> dict:
    return {"cfg_ref": cfg.digest, "steps": list(trace.steps)}


def load_trace(document: dict, cfg_digest: str) -> BlockTrace:
    """Parse a trace document bound to the CFG of digest ``cfg_digest``."""
    _require_keys(document, required=("cfg_ref", "steps"), optional=(), what="trace document")
    _bind_cfg_ref(document, "cfg_ref", cfg_digest, "trace document")
    steps = document["steps"]
    if not isinstance(steps, list) or not all(isinstance(s, str) for s in steps):
        raise SchemaError("'steps' must be an array of block ids")
    return BlockTrace(steps=tuple(steps))


def serialize_measurements(cfg_ref: str, measurements: list[Measurement]) -> dict:
    return {
        "cfg_ref": cfg_ref,
        "measurements": [
            {"start": m.start, "end": m.end, "delta": list(m.delta)} for m in measurements
        ],
    }


def load_measurements(document: dict, cfg_digest: str) -> list[Measurement]:
    """Parse a measurement document bound to the CFG of digest ``cfg_digest``."""
    _require_keys(
        document, required=("cfg_ref", "measurements"), optional=(), what="measurement document"
    )
    _bind_cfg_ref(document, "cfg_ref", cfg_digest, "measurement document")
    out = []
    for obj in _check_list(document["measurements"], "'measurements'"):
        start, end = _load_endpoints(obj, "measurement", extra=("delta",))
        delta = _check_list(obj["delta"], "measurement delta")
        out.append(
            Measurement(
                start=start,
                end=end,
                delta=tuple(_check_int(x, "measurement delta entry") for x in delta),
            )
        )
    return out

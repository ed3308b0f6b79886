"""One-time segment preprocessing: paths and loop closures between
measurement points.

For every ordered pair of measurement-point expanded nodes that execution
can connect without crossing another measurement point, the database holds
one candidate per simple path.  Each candidate carries the path's counter
delta (excluding the start snapshot block, including the end one), plus the
loop vectors of the cycles attached to it: every cycle sharing a node with
the path, or with an already-attached cycle, transitively.  Cycles never
contain a measurement point - a walk looping through one would have been
split into two segments.

The simple cycles of the measurement-point-free subgraph are enumerated
once per build with Johnson's circuit search over Tarjan's strongly
connected components, and cycles with a zero counter delta are dropped.
The remaining cycles are grouped once by shared nodes (union-find); a
path's loops are the union of the groups its nodes belong to.  Groups are
not strongly connected components: a component can hold nonzero cycles
linked only through a dropped zero-delta cycle, and those stay apart.

Any walk between consecutive measurement points therefore decomposes into
one of these simple paths plus a multiset of its attached cycles, which is
what makes online verification sound.
"""

from __future__ import annotations

import json
from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass, field

from .cfg import (
    AnnotatedCfg,
    _check_int,
    _check_list,
    _check_vector,
    _load_endpoints,
    _require_keys,
)
from .errors import BudgetError, DigestMismatchError, SchemaError
from .events import CounterConfig, EventTable, delta_map
from .expand import (
    DEFAULT_NODE_BUDGET,
    CallStack,
    ExpandedGraph,
    ExpandedNode,
    expand,
)
from .vectors import Vec, is_zero, vadd, vsum

DEFAULT_PATH_BUDGET = 100_000
DEFAULT_CYCLE_BUDGET = 10_000

Node = Hashable


@dataclass(frozen=True)
class PathCandidate:
    """One simple path between measurement points plus its loop closure."""

    start: ExpandedNode
    end: ExpandedNode
    base: Vec
    loops: tuple[Vec, ...]
    base_instruction_count: int
    loop_instruction_counts: tuple[int, ...]

    def sort_key(self):
        return (len(self.loops), self.base, self.start.stack, self.end.stack, self.loops)


@dataclass(frozen=True, eq=False)
class SegmentDatabase:
    cfg_digest: str
    counters: tuple[str, ...]
    entries: dict[tuple[str, str], tuple[PathCandidate, ...]]
    skip_segments: frozenset[tuple[str, str]]
    # Memo of verify's candidate projections: register file (None for the
    # identity file) -> segment key -> one (base, generators, owner) per
    # candidate.  Filled lazily during verification.
    _projected: dict[CounterConfig | None, dict[tuple[str, str], tuple]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dimension(self) -> int:
        return len(self.counters)

    def candidate_id(self, key: tuple[str, str], index: int) -> str:
        return f"{key[0]}->{key[1]}#{index}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegmentDatabase):
            return NotImplemented
        return (
            self.cfg_digest == other.cfg_digest
            and self.counters == other.counters
            and self.entries == other.entries
            and self.skip_segments == other.skip_segments
        )


@dataclass(frozen=True)
class _Cycle:
    nodes: frozenset[ExpandedNode]
    delta: Vec
    instruction_count: int


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


def _simple_cycles(succ: dict[Node, list[Node]]) -> Iterator[list[Node]]:
    """Every simple cycle of a directed graph, each exactly once.

    ``succ`` maps every node to its successors, without repeats.  Self-loops
    come first; the rest is Johnson's blocked circuit search (Johnson 1975):
    take a node ``s`` of a nontrivial strongly connected component, list the
    circuits through ``s`` inside that component, then drop ``s`` and repeat
    on the components that remain.  A node stays blocked while no circuit
    can be completed through it, which bounds the work per circuit found.
    """
    for node, nexts in succ.items():
        if node in nexts:
            yield [node]
    pending = [c for c in _strong_components(succ, list(succ)) if len(c) > 1]
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


def _cycle_universe(
    graph: ExpandedGraph,
    cfg: AnnotatedCfg,
    deltas: Mapping[str, Vec],
    cycle_budget: int,
) -> list[_Cycle]:
    """All simple cycles of the expanded graph that avoid measurement points.

    Every simple cycle counts against the budget.  Cycles whose counter
    delta is zero are then dropped: they cannot change any measurement and
    would only pad the generator sets.
    """
    succ = {
        node: list(dict.fromkeys(n for n in nexts if not cfg.is_measurement_point(n.block)))
        for node, nexts in graph.succ.items()
        if not cfg.is_measurement_point(node.block)
    }
    cycles: list[_Cycle] = []
    count = 0
    for nodes in _simple_cycles(succ):
        count += 1
        if count > cycle_budget:
            raise BudgetError(
                f"loop enumeration exceeded the cycle budget (budget {cycle_budget}); "
                "add measurement points inside loop-heavy regions or raise "
                "--budget-cycles",
                budget=cycle_budget,
                reached=count,
            )
        delta = vsum((deltas[n.block] for n in nodes), cfg.dimension)
        if is_zero(delta):
            continue
        cycles.append(
            _Cycle(
                nodes=frozenset(nodes),
                delta=delta,
                instruction_count=sum(cfg.blocks[n.block].instruction_count for n in nodes),
            )
        )
    return cycles


def _loop_groups(cycles: list[_Cycle]) -> tuple[dict[ExpandedNode, int], list[dict[Vec, int]]]:
    """Group cycles that share nodes, transitively (union-find).

    Returns each cycle node's group index and, per group, its loop vectors
    with their instruction counts.  A loop's instruction count is its
    vector's instructions-retired component, so which cycle of the group
    supplies it does not matter.
    """
    parent: dict[ExpandedNode, ExpandedNode] = {}

    def find(node: ExpandedNode) -> ExpandedNode:
        root = parent.setdefault(node, node)
        while root != parent[root]:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for cycle in cycles:
        first, *rest = cycle.nodes
        for node in rest:
            parent[find(node)] = find(first)
    group_of: dict[ExpandedNode, int] = {}
    groups: list[dict[Vec, int]] = []
    for cycle in cycles:
        root = find(next(iter(cycle.nodes)))
        if root not in group_of:
            group_of[root] = len(groups)
            groups.append({})
        groups[group_of[root]][cycle.delta] = cycle.instruction_count
    return {node: group_of[find(node)] for node in parent}, groups


def enumerate_segments(
    cfg: AnnotatedCfg,
    table: EventTable,
    *,
    path_budget: int = DEFAULT_PATH_BUDGET,
    cycle_budget: int = DEFAULT_CYCLE_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SegmentDatabase:
    """Build the segment database for a validated CFG.

    One depth-first search per measurement-point expanded node enumerates
    every simple path that ends at the first measurement point it reaches
    (revisiting the source is allowed only as that terminal, which covers
    in-loop measurement points).  Path counts are capped per segment; the
    error names the offending segment because the practical remedy is
    adding measurement points there.
    """
    deltas = delta_map(cfg, table)
    graph = expand(cfg, node_budget)
    group_of, groups = _loop_groups(_cycle_universe(graph, cfg, deltas, cycle_budget))
    counts = {bid: block.instruction_count for bid, block in cfg.blocks.items()}
    points = {bid for bid, block in cfg.blocks.items() if block.is_measurement_point}
    merged_loops: dict[frozenset[int], tuple[tuple[Vec, ...], tuple[int, ...]]] = {}

    def loops_of(touched: frozenset[int]) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
        """Sorted loop vectors of a set of loop groups, and their instruction counts."""
        if touched not in merged_loops:
            loop_vecs: dict[Vec, int] = {}
            for index in touched:
                loop_vecs.update(groups[index])
            ordered = sorted(loop_vecs)
            merged_loops[touched] = (tuple(ordered), tuple(loop_vecs[v] for v in ordered))
        return merged_loops[touched]

    found: dict[tuple[str, str], dict[tuple, PathCandidate]] = {}
    per_key_count: dict[tuple[str, str], int] = {}
    zero = (0,) * cfg.dimension
    for source in graph.succ:
        if source.block not in points:
            continue
        # Iterative DFS.  A frame is a path node, its unexplored successors,
        # and the path's counter sum after the source, instruction count and
        # touched loop groups (measurement points lie on no cycle).  The
        # source may be re-entered only as a terminal.
        on_path = {source}
        frames = [(source, iter(graph.succ[source]), zero, 0, frozenset())]
        while frames:
            node, nexts, base, instr, touched = frames[-1]
            for nxt in nexts:
                if nxt.block in points:
                    key = (source.block, nxt.block)
                    per_key_count[key] = per_key_count.get(key, 0) + 1
                    if per_key_count[key] > path_budget:
                        raise BudgetError(
                            f"segment {key[0]} -> {key[1]} exceeded the simple-path "
                            f"budget (budget {path_budget}); add measurement points "
                            "to split this region or raise --budget-paths",
                            budget=path_budget,
                            reached=per_key_count[key],
                        )
                    end_base = vadd(base, deltas[nxt.block])
                    loops, loop_counts = loops_of(touched)
                    unique = found.setdefault(key, {})
                    if (source, nxt, end_base, loops) not in unique:
                        unique[source, nxt, end_base, loops] = PathCandidate(
                            source, nxt, end_base, loops, instr + counts[nxt.block], loop_counts
                        )
                elif nxt not in on_path:
                    on_path.add(nxt)
                    group = group_of.get(nxt)
                    if group is not None and group not in touched:
                        touched = touched | {group}
                    sums = vadd(base, deltas[nxt.block]), instr + counts[nxt.block]
                    frames.append((nxt, iter(graph.succ[nxt]), *sums, touched))
                    break
            else:
                frames.pop()
                on_path.discard(node)

    entries = {
        key: tuple(sorted(found[key].values(), key=PathCandidate.sort_key))
        for key in sorted(found)
    }
    return SegmentDatabase(
        cfg_digest=cfg.digest,
        counters=cfg.counters,
        entries=entries,
        skip_segments=cfg.skip_segments,
    )


DedupKey = tuple[str, str, Vec, frozenset[CallStack] | None]


def dedup_key(
    start: str,
    end: str,
    delta: Vec,
    entry_stacks: frozenset[CallStack] | None,
) -> DedupKey:
    """In-process cache key for a segment observation.

    Equal endpoints, measured values, and feasible entry stacks yield equal
    keys.  ``None`` stacks (an unconstrained session after a skipped region)
    key distinctly from every concrete set.
    """
    return (start, end, delta, entry_stacks)


def serialize_database(db: SegmentDatabase) -> dict:
    segments = []
    for (start, end), candidates in sorted(db.entries.items()):
        segments.append(
            {
                "start": start,
                "end": end,
                "candidates": [
                    {
                        "start_stack": list(c.start.stack),
                        "end_stack": list(c.end.stack),
                        "base": list(c.base),
                        "base_instructions": c.base_instruction_count,
                        "loops": [list(v) for v in c.loops],
                        "loop_instructions": list(c.loop_instruction_counts),
                    }
                    for c in candidates
                ],
            }
        )
    return {
        "cfg_digest": db.cfg_digest,
        "counters": list(db.counters),
        "dimension": db.dimension,
        "skip_segments": [{"start": s, "end": e} for s, e in sorted(db.skip_segments)],
        "segments": segments,
    }


def _load_candidate(obj, start: str, end: str, dim: int, what: str) -> PathCandidate:
    _require_keys(
        obj,
        required=(
            "start_stack", "end_stack", "base", "base_instructions",
            "loops", "loop_instructions",
        ),
        optional=(),
        what=what,
    )
    for key in ("start_stack", "end_stack"):
        stack = obj[key]
        if not isinstance(stack, list) or not all(isinstance(s, str) for s in stack):
            raise SchemaError(f"{what}: {key} must be an array of block ids")
    loops = obj["loops"]
    counts = obj["loop_instructions"]
    if not isinstance(loops, list) or not isinstance(counts, list) or len(loops) != len(counts):
        raise SchemaError(f"{what}: loops and loop_instructions must be arrays of equal length")
    return PathCandidate(
        start=ExpandedNode(start, tuple(obj["start_stack"])),
        end=ExpandedNode(end, tuple(obj["end_stack"])),
        base=_check_vector(obj["base"], dim, f"{what}: base"),
        loops=tuple(_check_vector(v, dim, f"{what}: loops[{i}]") for i, v in enumerate(loops)),
        base_instruction_count=_check_int(obj["base_instructions"], f"{what}: base_instructions"),
        loop_instruction_counts=tuple(
            _check_int(c, f"{what}: loop_instructions[{i}]") for i, c in enumerate(counts)
        ),
    )


def load_database(document: dict | str, expected_digest: str | None = None) -> SegmentDatabase:
    """Parse a database document, refusing it when the digest disagrees
    with the CFG the caller is about to verify against.

    Every object is checked for its exact key set, and every base and loop
    vector must hold nonnegative integers of the database's dimension, the
    precondition of the cone solver.
    """
    if isinstance(document, str):
        document = json.loads(document)
    _require_keys(
        document,
        required=("cfg_digest", "counters", "dimension", "skip_segments", "segments"),
        optional=(),
        what="database document",
    )
    if not isinstance(document["cfg_digest"], str):
        raise SchemaError("database cfg_digest must be a string")
    if expected_digest is not None and document["cfg_digest"] != expected_digest:
        raise DigestMismatchError(
            f"database was built for CFG {document['cfg_digest'][:12]}..., "
            f"expected {expected_digest[:12]}..."
        )
    counters = document["counters"]
    if not isinstance(counters, list) or not all(isinstance(c, str) for c in counters):
        raise SchemaError("database counters must be an array of names")
    dim = _check_int(document["dimension"], "database dimension")
    if len(counters) != dim:
        raise SchemaError("database dimension disagrees with its counter list")
    for key in ("segments", "skip_segments"):
        _check_list(document[key], f"database {key}")
    entries: dict[tuple[str, str], tuple[PathCandidate, ...]] = {}
    for i, seg in enumerate(document["segments"]):
        what = f"database segment {i}"
        key = _load_endpoints(seg, what, extra=("candidates",))
        candidates = [
            _load_candidate(obj, key[0], key[1], dim, f"{what} candidate {j}")
            for j, obj in enumerate(_check_list(seg["candidates"], f"{what}: candidates"))
        ]
        entries[key] = tuple(sorted(candidates, key=PathCandidate.sort_key))
    return SegmentDatabase(
        cfg_digest=document["cfg_digest"],
        counters=tuple(counters),
        entries=entries,
        skip_segments=frozenset(
            _load_endpoints(obj, f"database skip segment {i}")
            for i, obj in enumerate(document["skip_segments"])
        ),
    )

"""One-time segment preprocessing: paths and loop closures between
measurement points.

For every ordered pair of measurement-point expanded nodes that execution
can connect without crossing another measurement point, the database holds
one candidate per distinct simple-path value.  Each candidate carries the
path's counter delta (excluding the start snapshot block, including the end
one), plus the loop vectors of the cycles attached to it: every cycle
sharing a node with the path, or with an already-attached cycle,
transitively.  Cycles never contain a measurement point - a walk looping
through one would have been split into two segments.

The measurement-point-free subgraph is split once per build into Tarjan's
strongly connected components.  Its simple cycles are enumerated with
Johnson's circuit search over those components, and cycles with a zero
counter delta are dropped.  The remaining cycles are grouped once by shared
nodes (union-find); a path's loops are the union of the groups its nodes
belong to.  Groups are not strongly connected components: a component can
hold nonzero cycles linked only through a dropped zero-delta cycle, and
those stay apart.

Paths are not walked one at a time.  A simple path crosses each component
in one contiguous stretch, so every node where a path can enter a component
gets one tail set: the distinct (terminal point, counter sum, loop vectors
of the touched groups) values of the simple paths from it, built from the
stretches inside its component and the tail sets of the components they
step into.  This is Ball-Larus path numbering (Ball & Larus, MICRO 1996)
with values in place of path ids.  The candidate budget caps every tail
set, and every measurement point's set of candidates, as it grows: it
bounds what verification pays for, whatever the number of simple paths
behind the values.  The simple stretches walked inside one component from
one entry are capped separately, at ``_STRETCH_LIMIT``.

Any walk between consecutive measurement points therefore decomposes into
one of these simple paths plus a multiset of its attached cycles, which is
what makes online verification sound.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from .cfg import (
    AnnotatedCfg,
    _bind_cfg_ref,
    _check_list,
    _check_vector,
    _load_endpoints,
    _require_keys,
    _simple_cycles,
    _strong_components,
)
from .errors import BudgetError, SchemaError
from .events import CounterConfig, EventTable, delta_map
from .expand import (
    DEFAULT_NODE_BUDGET,
    CallStack,
    ExpandedGraph,
    ExpandedNode,
    expand,
)
from .vectors import Vec, is_zero, vadd, vsum

# The default keeps a refusal memory-bounded: a cascade of 2**20 distinct
# path values is refused at a tracemalloc peak of about 1.6 MB (CPython
# 3.11); a budget of 2,048 doubles that.
DEFAULT_CANDIDATE_BUDGET = 1_024
DEFAULT_CYCLE_BUDGET = 10_000
# The simple stretches walked inside one component from one entry.
_STRETCH_LIMIT = 100_000


@dataclass(frozen=True)
class PathCandidate:
    """One simple path between measurement points plus its loop closure."""

    start: ExpandedNode
    end: ExpandedNode
    base: Vec
    loops: tuple[Vec, ...]

    def sort_key(self):
        return (len(self.loops), self.base, self.start.stack, self.end.stack, self.loops)


@dataclass(frozen=True, eq=False)
class SegmentDatabase:
    cfg_digest: str
    counters: tuple[str, ...]
    entries: dict[tuple[str, str], tuple[PathCandidate, ...]]
    skip_segments: frozenset[tuple[str, str]]
    # Memo of verify's candidate tables: register file (None for the
    # identity file) -> segment key -> one row per candidate, its reach map
    # last.  Filled lazily during verification; the reach maps grow with
    # it.
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


def _cycle_universe(
    succ: dict[ExpandedNode, list[ExpandedNode]],
    components: list[list[ExpandedNode]],
    dimension: int,
    deltas: Mapping[str, Vec],
    cycle_budget: int,
) -> list[_Cycle]:
    """All simple cycles of the measurement-point-free subgraph ``succ``,
    whose strongly connected components are ``components``.

    Every simple cycle counts against the budget.  Cycles whose counter
    delta is zero are then dropped: they cannot change any measurement and
    would only pad the generator sets.
    """
    cycles: list[_Cycle] = []
    count = 0
    for nodes in _simple_cycles(succ, components):
        count += 1
        if count > cycle_budget:
            raise BudgetError(
                f"loop enumeration exceeded the cycle budget (budget {cycle_budget}); "
                "add measurement points inside loop-heavy regions or raise "
                "--budget-cycles",
                budget=cycle_budget,
                reached=count,
            )
        delta = vsum((deltas[n.block] for n in nodes), dimension)
        if not is_zero(delta):
            cycles.append(_Cycle(nodes=frozenset(nodes), delta=delta))
    return cycles


def _loop_groups(cycles: list[_Cycle]) -> dict[ExpandedNode, frozenset[Vec]]:
    """Group cycles that share nodes, transitively (union-find), and map
    each cycle node to its group's distinct loop vectors."""
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
    vectors: dict[ExpandedNode, set[Vec]] = {}
    for cycle in cycles:
        vectors.setdefault(find(next(iter(cycle.nodes))), set()).add(cycle.delta)
    frozen = {root: frozenset(group) for root, group in vectors.items()}
    return {node: frozen[find(node)] for node in parent}


# A tail: (terminal point, counter sum up to and including it, loop set id).
_Tail = tuple[ExpandedNode, Vec, int]
# A step out of a component: (counter sum and loop set id so far, next node).
_Step = tuple[Vec, int, ExpandedNode]


class _Tails:
    """Tail sets of the component entries of one build.

    An entry is an inner (non-measurement-point) node entered from a
    measurement point or from another strongly connected component.  A
    simple path crosses each component in one contiguous stretch, so the
    simple paths from an entry are a simple stretch inside its component
    followed by a step to a measurement point or by a simple path from an
    entry of a later component; the two parts never share a node.
    Construction builds each entry's tail set from those steps, component
    by component in reverse topological order (Tarjan's output order), so
    every step's target already has its set.  The program entry is a
    measurement point, so a measurement point reaches every entry.

    A tail names the loop vectors its path touches by the id of their
    union, 0 for none, interned so that equal unions share one id: two
    tails are then distinct exactly when the candidates they close to are.
    """

    def __init__(
        self,
        graph: ExpandedGraph,
        points: frozenset[str],
        components: list[list[ExpandedNode]],
        deltas: Mapping[str, Vec],
        loop_groups: dict[ExpandedNode, frozenset[Vec]],
        candidate_budget: int,
    ):
        self.succ = succ = graph.succ
        self.points = points
        self.deltas = deltas
        self.candidate_budget = candidate_budget
        self.loop_sets: list[frozenset[Vec]] = [frozenset()]
        self._ids: dict[frozenset[Vec], int] = {frozenset(): 0}
        self._unions: dict[tuple[int, int], int] = {}
        self.loops_at = {node: self._intern(group) for node, group in loop_groups.items()}
        # The members of each node's component, for components of two or more.
        self.cyclic: dict[ExpandedNode, frozenset[ExpandedNode]] = {}
        for members in components:
            if len(members) > 1:
                shared = frozenset(members)
                self.cyclic.update(dict.fromkeys(members, shared))
        cyclic = self.cyclic
        entered = {
            nxt
            for node, nexts in succ.items()
            for nxt in nexts
            if nxt in cyclic and node not in cyclic[nxt]
        }
        self.tails: dict[ExpandedNode, set[_Tail]] = {}
        for members in components:
            single = len(members) == 1
            for entry in members:
                if not single and entry not in entered:
                    continue
                base = deltas[entry.block]
                touched = self.loops_at.get(entry, 0)
                if single:
                    out = [(base, touched, nxt) for nxt in succ[entry] if nxt != entry]
                else:
                    out = self._stretches(entry, base, touched)
                self.tails[entry] = self.values(out, entry)

    def _intern(self, loops: frozenset[Vec]) -> int:
        if loops not in self._ids:
            self._ids[loops] = len(self.loop_sets)
            self.loop_sets.append(loops)
        return self._ids[loops]

    def union(self, a: int, b: int) -> int:
        """The id of the union of loop sets ``a`` and ``b``, both nonzero."""
        key = (a, b) if a < b else (b, a)
        found = self._unions.get(key)
        if found is None:
            found = self._unions[key] = self._intern(self.loop_sets[a] | self.loop_sets[b])
        return found

    def _stretches(self, start: ExpandedNode, base: Vec, touched: int) -> Iterator[_Step]:
        """The steps out of ``start``'s component of every simple path from
        ``start`` inside it (iterative DFS).  ``base`` and ``touched`` are
        the counter sum and loop set of ``start`` itself.  The walk stops
        at its first stretch past :data:`_STRETCH_LIMIT`."""
        succ, deltas, loops_at = self.succ, self.deltas, self.loops_at
        members = self.cyclic[start]
        on_path = {start}
        frames = [(start, iter(succ[start]), base, touched)]
        walked = 1
        while frames:
            node, nexts, base, touched = frames[-1]
            for nxt in nexts:
                if nxt not in members:
                    yield base, touched, nxt
                elif nxt not in on_path:
                    walked += 1
                    if walked > _STRETCH_LIMIT:
                        raise BudgetError(
                            f"the component entered at {start.block} exceeded the "
                            f"stretch limit ({_STRETCH_LIMIT} simple stretches); add "
                            "measurement points inside it",
                            budget=_STRETCH_LIMIT,
                            reached=walked,
                        )
                    on_path.add(nxt)
                    loops = loops_at.get(nxt, 0)
                    if loops != touched and loops:
                        touched = self.union(touched, loops) if touched else loops
                    frames.append((nxt, iter(succ[nxt]), vadd(base, deltas[nxt.block]), touched))
                    break
            else:
                frames.pop()
                on_path.discard(node)

    def values(self, steps: Iterable[_Step], origin: ExpandedNode) -> set[_Tail]:
        """The distinct tails that the steps from ``origin`` lead to.

        Raises at the first value past the candidate budget, naming
        ``origin``'s block; ``steps`` is consumed lazily, so a component
        walk stops there too.
        """
        points, deltas, tails, union = self.points, self.deltas, self.tails, self.union
        budget = self.candidate_budget
        out: set[_Tail] = set()
        add = out.add
        for base, touched, nxt in steps:
            if nxt.block in points:
                add((nxt, vadd(base, deltas[nxt.block]), touched))
                if len(out) > budget:
                    raise _candidate_budget_error(origin, budget, len(out))
                continue
            for end, tail, loops in tails[nxt]:
                if loops != touched and loops and touched:
                    loops = union(touched, loops)
                add((end, vadd(base, tail), loops or touched))
                if len(out) > budget:
                    raise _candidate_budget_error(origin, budget, len(out))
        return out


def _candidate_budget_error(origin: ExpandedNode, budget: int, reached: int) -> BudgetError:
    return BudgetError(
        f"the simple paths from {origin.block} exceeded the candidate budget "
        f"(budget {budget} distinct candidates); add measurement points after it "
        "or raise --budget-candidates",
        budget=budget,
        reached=reached,
    )


def enumerate_segments(
    cfg: AnnotatedCfg,
    table: EventTable,
    *,
    candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
    cycle_budget: int = DEFAULT_CYCLE_BUDGET,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SegmentDatabase:
    """Build the segment database for a validated CFG.

    A segment's simple paths run from a measurement-point expanded node to
    the first measurement point they reach (the source itself included,
    which covers in-loop measurement points).  They are not walked one at
    a time: every node where a path enters a strongly connected component
    of the measurement-point-free subgraph gets one memoized tail set, the
    distinct (terminal, counter sum, touched loop vectors) values of the
    simple paths from it, and each source merges the tail sets of its
    successors into its candidates.

    The candidate budget caps each of those sets, a source's included, as
    it grows.  The error names the block whose set overflows, because the
    practical remedy is adding measurement points after it.
    """
    deltas = delta_map(cfg, table)
    graph = expand(cfg, node_budget)
    points = cfg.points
    inner = {
        node: list(dict.fromkeys(n for n in nexts if n.block not in points))
        for node, nexts in graph.succ.items()
        if node.block not in points
    }
    components = _strong_components(inner, list(inner))
    loop_groups = _loop_groups(
        _cycle_universe(inner, components, cfg.dimension, deltas, cycle_budget)
    )
    tails = _Tails(graph, points, components, deltas, loop_groups, candidate_budget)

    sorted_loops: dict[int, tuple[Vec, ...]] = {}
    found: dict[tuple[str, str], set[tuple]] = {}
    zero = (0,) * cfg.dimension
    for source, nexts in graph.succ.items():
        if source.block not in points:
            continue
        for end, base, touched in tails.values(((zero, 0, nxt) for nxt in nexts), source):
            loops = sorted_loops.get(touched)
            if loops is None:
                loops = sorted_loops[touched] = tuple(sorted(tails.loop_sets[touched]))
            found.setdefault((source.block, end.block), set()).add((source, end, base, loops))

    entries = {
        key: tuple(sorted((PathCandidate(*c) for c in found[key]), key=PathCandidate.sort_key))
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
    """The database as a JSON document::

        {
          "cfg_digest": "<sha256 of the CFG document>",
          "counters": ["instret", "cond_branch_retired", ...],
          "skip_segments": [{"start": "rt.pre", "end": "rt.post"}],
          "segments": [
            {"start": "main.0", "end": "main.4", "candidates": [
              {"start_stack": [], "end_stack": [],
               "base": [12, 1, ...], "loops": [[4, 1, ...], ...]}
            ]}
          ]
        }

    A candidate's stacks are the call sites of its endpoints' expanded
    nodes, and every vector has one entry per counter.  Instruction counts
    are not stored: a candidate's is its base's instructions-retired entry.
    """
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
                        "loops": [list(v) for v in c.loops],
                    }
                    for c in candidates
                ],
            }
        )
    return {
        "cfg_digest": db.cfg_digest,
        "counters": list(db.counters),
        "skip_segments": [{"start": s, "end": e} for s, e in sorted(db.skip_segments)],
        "segments": segments,
    }


def _load_candidate(obj, start: str, end: str, dim: int, what: str) -> PathCandidate:
    _require_keys(
        obj, required=("start_stack", "end_stack", "base", "loops"), optional=(), what=what
    )
    for key in ("start_stack", "end_stack"):
        stack = obj[key]
        if not isinstance(stack, list) or not all(isinstance(s, str) for s in stack):
            raise SchemaError(f"{what}: {key} must be an array of block ids")
    loops = _check_list(obj["loops"], f"{what}: loops")
    return PathCandidate(
        start=ExpandedNode(start, tuple(obj["start_stack"])),
        end=ExpandedNode(end, tuple(obj["end_stack"])),
        base=_check_vector(obj["base"], dim, f"{what}: base"),
        loops=tuple(_check_vector(v, dim, f"{what}: loops[{i}]") for i, v in enumerate(loops)),
    )


def load_database(document: dict, expected_digest: str | None = None) -> SegmentDatabase:
    """Parse a database document, bound to the CFG ``expected_digest`` when
    one is given; without one, it is the anchor other documents bind to.

    Every object is checked for its exact key set, and every base and loop
    vector must hold one nonnegative integer per counter, the precondition
    of the cone solver.  Counter names and segment endpoints must be
    distinct: a second entry for one segment would silently replace the
    first.
    """
    _require_keys(
        document,
        required=("cfg_digest", "counters", "skip_segments", "segments"),
        optional=(),
        what="database document",
    )
    cfg_digest = _bind_cfg_ref(document, "cfg_digest", expected_digest, "database document")
    counters = document["counters"]
    if not isinstance(counters, list) or not all(isinstance(c, str) for c in counters):
        raise SchemaError("database counters must be an array of names")
    if len(set(counters)) != len(counters):
        raise SchemaError("database counters contain duplicate names")
    dim = len(counters)
    for key in ("segments", "skip_segments"):
        _check_list(document[key], f"database {key}")
    entries: dict[tuple[str, str], tuple[PathCandidate, ...]] = {}
    for i, seg in enumerate(document["segments"]):
        what = f"database segment {i}"
        key = _load_endpoints(seg, what, extra=("candidates",))
        if key in entries:
            raise SchemaError(f"{what}: segment {key[0]} -> {key[1]} is given twice")
        candidates = [
            _load_candidate(obj, key[0], key[1], dim, f"{what} candidate {j}")
            for j, obj in enumerate(_check_list(seg["candidates"], f"{what}: candidates"))
        ]
        entries[key] = tuple(sorted(candidates, key=PathCandidate.sort_key))
    return SegmentDatabase(
        cfg_digest=cfg_digest,
        counters=tuple(counters),
        entries=entries,
        skip_segments=frozenset(
            _load_endpoints(obj, f"database skip segment {i}")
            for i, obj in enumerate(document["skip_segments"])
        ),
    )

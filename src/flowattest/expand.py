"""Call-string expansion of an annotated CFG.

Because recursion is banned, every block can be paired with the finite
string of call sites still awaiting a return.  On the resulting expanded
graph, "simple path" and "simple cycle" are unambiguous interprocedural
notions, and return edges only lead back to the caller that is actually on
the stack.

A call stack is a tuple of call-site block ids, bottom to top; the program
entry runs with the empty stack.  Traversing a call edge pushes the calling
block, a return edge pops it (and must target a block of the popped site's
function), and intra-function edges leave the stack untouched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .cfg import AnnotatedCfg
from .errors import BudgetError

CallStack = tuple[str, ...]

DEFAULT_NODE_BUDGET = 200_000


class ExpandedNode(NamedTuple):
    block: str
    stack: CallStack


@dataclass(frozen=True)
class ExpandedGraph:
    entry: ExpandedNode
    succ: dict[ExpandedNode, tuple[ExpandedNode, ...]]

    def __len__(self) -> int:
        return len(self.succ)


def _successors(cfg: AnnotatedCfg, node: ExpandedNode) -> list[ExpandedNode]:
    """Expanded nodes one step from ``node``, in edge order.  The one step
    rule, shared by the expansion and the random walk generator."""
    out: list[ExpandedNode] = []
    block, stack = node
    fn = cfg.blocks[block].function
    for edge in cfg.succ[block]:
        kind = edge.kind
        dst_fn = cfg.blocks[edge.dst].function
        if kind == "call" or (kind == "indirect" and dst_fn != fn):
            out.append(ExpandedNode(edge.dst, stack + (block,)))
        elif kind == "return":
            if stack and cfg.blocks[stack[-1]].function == dst_fn:
                out.append(ExpandedNode(edge.dst, stack[:-1]))
        else:
            out.append(ExpandedNode(edge.dst, stack))
    return out


def expand(cfg: AnnotatedCfg, node_budget: int = DEFAULT_NODE_BUDGET) -> ExpandedGraph:
    """Expanded graph of every (block, call stack) pair reachable from entry."""
    entry = ExpandedNode(cfg.program_entry, ())
    succ: dict[ExpandedNode, tuple[ExpandedNode, ...]] = {}
    queue: deque[ExpandedNode] = deque([entry])
    seen = {entry}
    while queue:
        node = queue.popleft()
        nexts = _successors(cfg, node)
        succ[node] = tuple(nexts)
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > node_budget:
                    raise BudgetError(
                        "call-string expansion exceeded the node budget "
                        f"(budget {node_budget}, reached {len(seen)}); "
                        "simplify the call structure or raise --budget-nodes",
                        budget=node_budget,
                        reached=len(seen),
                    )
                queue.append(nxt)
    return ExpandedGraph(entry=entry, succ=succ)

"""Seeded generators for the benchmark's input programs.

Everything here builds plain CFG documents (dicts) from a ``random.Random``;
nothing imports flowattest, so the inputs stay the same whatever the
program under test does with them.  Walks for the forged workload are drawn
here too, for the same reason: its brute-force reference verdicts are
stored, and must keep describing the same measurements.
"""

from __future__ import annotations

import random

# The mnemonics of flowattest's default event table.
MNEMONICS = (
    "add", "addi", "sub", "and", "or", "slli",
    "lw", "sw", "beq", "jal", "jalr", "mul",
)


def random_attribution(rng: random.Random, dim: int) -> tuple[list[str], dict]:
    """A ``dim``-counter table: instructions retired plus random events."""
    names = ["instret"] + [f"ev{i}" for i in range(1, dim)]
    attribution = {
        m: [1] + [rng.choice((0, 0, 1, 1, 2)) for _ in range(dim - 1)]
        for m in MNEMONICS
    }
    return names, attribution


class ProgramBuilder:
    """Accumulates a CFG document function by function.

    Functions are built callee-first, so every call targets a function that
    already exists and the call graph is acyclic by construction.
    """

    def __init__(self, rng: random.Random, counters: list[str], mp_rate: float = 0.0):
        self.rng = rng
        self.counters = counters
        self.mp_rate = mp_rate
        self.blocks: list[dict] = []
        self.edges: list[dict] = []
        self.functions: dict[str, list[str]] = {}
        self.bounds: dict[str, tuple[str, str]] = {}
        self.fn = ""
        self.cascades: list[tuple[str, str, list[list[str]]]] = []

    def block(self, mp: bool | None = None, instructions: list[str] | None = None) -> str:
        if mp is None:
            mp = self.rng.random() < self.mp_rate
        if instructions is None:
            instructions = [self.rng.choice(MNEMONICS) for _ in range(self.rng.randint(1, 5))]
        bid = f"{self.fn}.{len(self.functions[self.fn])}"
        self.functions[self.fn].append(bid)
        self.blocks.append(
            {
                "id": bid,
                "function": self.fn,
                "instruction_count": len(instructions),
                "is_measurement_point": mp,
                "instructions": list(instructions),
            }
        )
        return bid

    def edge(self, src: str, dst: str, kind: str = "fallthrough") -> None:
        self.edges.append({"from": src, "to": dst, "kind": kind})

    def begin(self, name: str) -> str:
        self.fn = name
        self.functions[name] = []
        return self.block(mp=False)

    def end(self, entry: str, exit_block: str) -> None:
        self.bounds[self.fn] = (entry, exit_block)

    # Gadgets: each takes the current block and returns the new current one.

    def line(self, cur: str) -> str:
        nxt = self.block()
        self.edge(cur, nxt)
        return nxt

    def diamond(self, cur: str) -> str:
        left, right, join = self.block(), self.block(), self.block()
        self.edge(cur, left, "branch")
        self.edge(cur, right, "branch")
        self.edge(left, join)
        self.edge(right, join)
        return join

    def loop(self, cur: str, depth: int = 1) -> str:
        """A loop whose body is a chain of gadgets; ``depth > 1`` nests
        further loops inside it."""
        head = self.block()
        self.edge(cur, head)
        body = self.block()
        self.edge(head, body, "branch")
        tail = body
        if depth > 1:
            for _ in range(self.rng.randint(1, 2)):
                kind = self.rng.choice(("loop", "diamond", "line"))
                if kind == "loop":
                    tail = self.loop(tail, depth - 1)
                elif kind == "diamond":
                    tail = self.diamond(tail)
                else:
                    tail = self.line(tail)
        self.edge(tail, head, "branch")
        out = self.block()
        self.edge(head, out, "branch")
        return out

    def call(self, cur: str, callee: str, mp_return: bool | None = None) -> str:
        site = self.block(mp=False)
        ret = self.block(mp=mp_return)
        self.edge(cur, site)
        self.edge(site, self.bounds[callee][0], "call")
        self.edge(self.bounds[callee][1], ret, "return")
        return ret

    def cascade(self, cur: str, layers: int, width: int = 2) -> str:
        """A measurement point, then ``layers`` ranks of ``width``
        alternative one-instruction blocks fully connected rank to rank,
        then a measurement point: width**layers simple paths, all drawn from
        a two-mnemonic palette, so at most layers + 1 distinct sums.

        The segment and its ranks are recorded in ``self.cascades`` so the
        expected base vectors can be computed from the construction.
        """
        palette = self.rng.sample(MNEMONICS, 2)
        start = self.block(mp=True)
        self.edge(cur, start)
        prev = [start]
        ranks = []
        for _ in range(layers):
            rank = [
                self.block(mp=False, instructions=[self.rng.choice(palette)])
                for _ in range(width)
            ]
            for src in prev:
                for dst in rank:
                    self.edge(src, dst, "branch")
            ranks.append(rank)
            prev = rank
        join = self.block(mp=True)
        for src in prev:
            self.edge(src, join, "branch")
        self.cascades.append((start, join, ranks))
        return join

    def document(self, main: str) -> dict:
        entry, exit_block = self.bounds[main]
        for blk in self.blocks:
            if blk["id"] in (entry, exit_block):
                blk["is_measurement_point"] = True
        return {
            "counters": list(self.counters),
            "functions": [
                {"name": name, "entry": self.bounds[name][0], "blocks": blocks}
                for name, blocks in self.functions.items()
            ],
            "blocks": self.blocks,
            "edges": self.edges,
            "entry": entry,
        }


def random_program(rng: random.Random, counters: list[str], mp_rate: float = 0.2) -> dict:
    """A small random program: 1-4 functions of 1-4 gadgets each (lines,
    diamonds, single loops and calls), measurement points sprinkled at
    ``mp_rate``; the population of the soundness acceptance criterion."""
    b = ProgramBuilder(rng, counters, mp_rate)
    names = [f"f{i}" for i in range(rng.randint(1, 4))]
    for idx in reversed(range(len(names))):
        callees = names[idx + 1 :]
        cur = entry = b.begin(names[idx])
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("line", "line", "diamond", "loop") + (("call",) if callees else ()))
            if kind == "call":
                cur = b.call(cur, rng.choice(callees))
            elif kind == "loop":
                cur = b.loop(cur)
            else:
                cur = getattr(b, kind)(cur)
        b.end(entry, cur)
    return b.document(names[0])


def loop_nest_program(rng: random.Random, counters: list[str]) -> dict:
    """One function whose only measurement points are its entry and exit,
    with 3-4 loop nests of depth 2-3 between them: one segment carrying
    many loop vectors."""
    b = ProgramBuilder(rng, counters)
    cur = entry = b.begin("main")
    for _ in range(rng.randint(3, 4)):
        cur = b.loop(cur, depth=rng.randint(2, 3))
    b.end(entry, b.line(cur))
    return b.document("main")


def mixed_program(
    rng: random.Random, counters: list[str], cascade_layers: int | None
) -> tuple[dict, list[tuple[str, str, list[list[str]]]]]:
    """Preprocessing input: up to three functions mixing nested loops,
    diamonds and call sites, plus (when ``cascade_layers`` is set) one
    branch cascade between two measurement points in the entry function.

    Every call returns to a measurement point.  Without that, simple paths
    through several calls into loop nests multiply: one such 27-block
    program has 872 cycles in 83 expanded nodes and its enumeration runs
    for minutes before the path budget stops it.

    Returns the document and the cascades, as (start, end, ranks).
    """
    b = ProgramBuilder(rng, counters, mp_rate=0.15)
    names = [f"f{i}" for i in range(rng.randint(1, 3))]
    for idx in reversed(range(len(names))):
        callees = names[idx + 1 :]
        cur = entry = b.begin(names[idx])
        gadgets = rng.randint(2, 4)
        cascade_at = rng.randrange(gadgets) if idx == 0 and cascade_layers else -1
        for g in range(gadgets):
            if g == cascade_at:
                cur = b.cascade(cur, cascade_layers)
                continue
            kind = rng.choice(("line", "diamond", "loop", "loop") + (("call",) if callees else ()))
            if kind == "call":
                cur = b.call(cur, rng.choice(callees), mp_return=True)
            elif kind == "loop":
                cur = b.loop(cur, depth=rng.randint(1, 2))
            else:
                cur = getattr(b, kind)(cur)
        b.end(entry, b.line(cur))
    return b.document(names[0]), b.cascades


def walk_one_segment(doc: dict, rng: random.Random, max_visits: int) -> tuple[str, ...]:
    """A random walk from the entry to the first measurement point after
    it, visiting no block more than ``max_visits`` times.

    Only for single-function programs (no call matching).  A walk that
    dead-ends is retried with fresh draws from the same generator.
    """
    succ: dict[str, list[str]] = {}
    for e in doc["edges"]:
        succ.setdefault(e["from"], []).append(e["to"])
    is_point = {b["id"]: b["is_measurement_point"] for b in doc["blocks"]}
    while True:
        steps = [doc["entry"]]
        visits = {doc["entry"]: 1}
        while True:
            options = [n for n in succ.get(steps[-1], ()) if visits.get(n, 0) < max_visits]
            if not options:
                break
            nxt = rng.choice(options)
            steps.append(nxt)
            visits[nxt] = visits.get(nxt, 0) + 1
            if is_point[nxt]:
                return tuple(steps)

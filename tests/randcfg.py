"""Seeded random program generator for the soundness suite.

Functions are built callee-first so call sites can wire return edges to a
known exit block; calls only ever target later-built functions, so the
call graph is acyclic by construction.  Bodies are chains of gadgets
(straight line, diamond, loop, call), sprinkled with measurement points;
the program entry and exit are always measurement points so every walk can
terminate on a snapshot.
"""

import random

from flowattest.cfg import load_cfg
from flowattest.events import CounterEvent, make_event_table

MNEMONICS = ("add", "addi", "lw", "sw", "beq", "jal", "jalr", "mul")


def random_table(rng, dim):
    counters = [CounterEvent("instret")] + [CounterEvent(f"ev{i}") for i in range(1, dim)]
    attribution = {
        m: tuple([1] + [rng.choice((0, 0, 1, 1, 2)) for _ in range(dim - 1)])
        for m in MNEMONICS
    }
    return make_event_table(counters, attribution)


class _Builder:
    def __init__(self, rng, counters, max_blocks, point_density):
        self.rng = rng
        self.point_density = point_density
        self.counters = counters
        self.max_blocks = max_blocks
        self.blocks = []
        self.edges = []
        self.functions = {}

    def new_block(self, fn, mp=False):
        bid = f"{fn}.{len(self.functions[fn])}"
        self.functions[fn].append(bid)
        self.blocks.append(
            {
                "id": bid,
                "function": fn,
                "instruction_count": 0,
                "is_measurement_point": mp,
                "instructions": [
                    self.rng.choice(MNEMONICS)
                    for _ in range(self.rng.randint(1, 5))
                ],
            }
        )
        self.blocks[-1]["instruction_count"] = len(self.blocks[-1]["instructions"])
        return bid

    def edge(self, src, dst, kind="fallthrough"):
        self.edges.append({"from": src, "to": dst, "kind": kind})

    def maybe_mp(self):
        return self.rng.random() < self.point_density

    def build_function(self, name, callees, exits):
        rng = self.rng
        self.functions[name] = []
        entry = self.new_block(name, mp=False)
        current = entry
        for _ in range(rng.randint(1, 4)):
            if len(self.blocks) >= self.max_blocks - 4:
                break
            choices = ["line", "line", "diamond", "loop"]
            if callees:
                choices.append("call")
            kind = rng.choice(choices)
            if kind == "line":
                nxt = self.new_block(name, self.maybe_mp())
                self.edge(current, nxt)
                current = nxt
            elif kind == "diamond":
                left = self.new_block(name, self.maybe_mp())
                right = self.new_block(name, self.maybe_mp())
                join = self.new_block(name, self.maybe_mp())
                self.edge(current, left, "branch")
                self.edge(current, right, "branch")
                self.edge(left, join)
                self.edge(right, join)
                current = join
            elif kind == "loop":
                head = self.new_block(name, self.maybe_mp())
                body = self.new_block(name, self.maybe_mp())
                nxt = self.new_block(name, self.maybe_mp())
                self.edge(current, head)
                self.edge(head, body, "branch")
                self.edge(body, head, "branch")
                self.edge(head, nxt, "branch")
                current = nxt
            else:
                callee = rng.choice(callees)
                site = self.new_block(name, mp=False)
                ret = self.new_block(name, self.maybe_mp())
                self.edge(current, site)
                self.edge(site, exits[callee][0], "call")
                self.edge(exits[callee][1], ret, "return")
                current = ret
        return entry, current


def random_cfg_and_table(seed, max_blocks=40, max_functions=4, point_density=0.2):
    """A random program and its random event table; ``point_density`` is
    the chance that a block (other than a function entry or a call site)
    is a measurement point."""
    rng = random.Random(seed)
    dim = rng.randint(2, 5)
    table = random_table(rng, dim)
    counters = [c.name for c in table.counters]
    names = [f"f{i}" for i in range(rng.randint(1, max_functions))]
    builder = _Builder(rng, counters, max_blocks, point_density)
    exits = {}
    for idx in reversed(range(len(names))):
        callees = names[idx + 1 :]
        entry, exit_block = builder.build_function(names[idx], callees, exits)
        exits[names[idx]] = (entry, exit_block)
    main_entry, main_exit = exits[names[0]]
    for blk in builder.blocks:
        if blk["id"] in (main_entry, main_exit):
            blk["is_measurement_point"] = True
    doc = {
        "counters": counters,
        "functions": [
            {
                "name": name,
                "entry": exits[name][0],
                "blocks": builder.functions[name],
            }
            for name in names
        ],
        "blocks": builder.blocks,
        "edges": builder.edges,
        "entry": main_entry,
    }
    return load_cfg(doc), table

import pytest

from flowattest import attacks
from flowattest.events import CounterEvent, make_event_table


def tiny_table_doc():
    """3-counter table: instructions retired, conditional branches, loads."""
    mnemonics = ("add", "addi", "lw", "sw", "beq", "jal", "jalr")
    attribution = {
        m: (1, 1 if m == "beq" else 0, 1 if m == "lw" else 0) for m in mnemonics
    }
    return (
        [
            CounterEvent("instret"),
            CounterEvent("cond_branch_retired"),
            CounterEvent("int_load_retired"),
        ],
        attribution,
    )


@pytest.fixture
def tiny_table():
    counters, attribution = tiny_table_doc()
    return make_event_table(counters, attribution)


def block(bid, fn, instructions, mp=False):
    return {
        "id": bid,
        "function": fn,
        "instruction_count": len(instructions),
        "is_measurement_point": mp,
        "instructions": list(instructions),
    }


def edge(src, dst, kind="fallthrough"):
    return {"from": src, "to": dst, "kind": kind}


TINY_COUNTERS = ["instret", "cond_branch_retired", "int_load_retired"]


def two_loop_chain_doc():
    """Seven blocks: simple path A->B->C with a loop hanging off B and a
    second loop reachable only through the first.

    Block deltas under the tiny table:
      A (1,0,0)  B (2,1,0)  C (1,0,0)  D (2,0,1)  E (1,0,0)
      F (3,0,2)  G (1,1,0)
    Loop vectors: B,D,E -> (5,1,1) and D,F,G -> (6,1,3).
    """
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {
                "name": "main",
                "entry": "A",
                "blocks": ["A", "B", "C", "D", "E", "F", "G"],
            }
        ],
        "blocks": [
            block("A", "main", ["addi"], mp=True),
            block("B", "main", ["add", "beq"]),
            block("C", "main", ["jalr"], mp=True),
            block("D", "main", ["lw", "add"]),
            block("E", "main", ["add"]),
            block("F", "main", ["lw", "lw", "add"]),
            block("G", "main", ["beq"]),
        ],
        "edges": [
            edge("A", "B"),
            edge("B", "C", "branch"),
            edge("B", "D", "branch"),
            edge("D", "E", "branch"),
            edge("E", "B", "branch"),
            edge("D", "F", "branch"),
            edge("F", "G"),
            edge("G", "D", "branch"),
        ],
        "entry": "A",
    }


LOOP1 = (5, 1, 1)
LOOP2 = (6, 1, 3)


def straight_line_doc():
    return {
        "counters": TINY_COUNTERS,
        "functions": [{"name": "main", "entry": "s.0", "blocks": ["s.0", "s.1", "s.2"]}],
        "blocks": [
            block("s.0", "main", ["addi"], mp=True),
            block("s.1", "main", ["add", "lw"]),
            block("s.2", "main", ["jalr"], mp=True),
        ],
        "edges": [edge("s.0", "s.1"), edge("s.1", "s.2")],
        "entry": "s.0",
    }


def distinct_cascade_doc(layers: int):
    """A cascade of ``layers`` ranks of two blocks each, fully connected
    rank to rank, whose 2**layers simple paths all have distinct sums: the
    blocks of rank i retire one or two instructions counted only by
    counter i.  Returns the CFG document and its event table."""
    counters = [CounterEvent("instret")] + [CounterEvent(f"rank{i}") for i in range(layers)]
    unit = [0] * (layers + 1)
    attribution = {"nop": tuple([1] + unit[1:])}
    for i in range(layers):
        vec = [1] + unit[1:]
        vec[i + 1] = 1
        attribution[f"r{i}"] = tuple(vec)
    table = make_event_table(counters, attribution)
    ids, blocks, edges, prev = ["x.s"], [block("x.s", "main", ["nop"], mp=True)], [], ["x.s"]
    for i in range(layers):
        rank = [f"x.a{i}", f"x.b{i}"]
        blocks += [block(rank[0], "main", [f"r{i}"]), block(rank[1], "main", [f"r{i}"] * 2)]
        edges += [edge(src, dst, "branch") for src in prev for dst in rank]
        ids += rank
        prev = rank
    ids.append("x.t")
    blocks.append(block("x.t", "main", ["nop"], mp=True))
    edges += [edge(src, "x.t", "branch") for src in prev]
    doc = {
        "counters": [c.name for c in counters],
        "functions": [{"name": "main", "entry": "x.s", "blocks": ids}],
        "blocks": blocks,
        "edges": edges,
        "entry": "x.s",
    }
    return doc, table


def mutation_pool(cfg, deltas, kind):
    """The blocks ``attacks.evaluate`` lets a ``kind`` edit draw from."""
    if kind == "random_change":
        return []
    if kind in attacks._UNIQUE_KINDS:
        return attacks._unique_delta_blocks(cfg, deltas)
    return attacks._block_pool(cfg)

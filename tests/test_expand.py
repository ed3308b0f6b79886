import pytest

from flowattest.cfg import load_cfg
from flowattest.errors import BudgetError
from flowattest.expand import ExpandedNode, expand

from .conftest import TINY_COUNTERS, block, edge, two_loop_chain_doc
from .oracles import count_call_strings


def test_single_function_expansion_is_isomorphic():
    cfg = load_cfg(two_loop_chain_doc())
    succ = expand(cfg)
    assert len(succ) == len(cfg.blocks)
    assert all(node.stack == () for node in succ)
    # Edge structure carries over one-to-one.
    assert sorted((n.block, m.block) for n, succs in succ.items() for m in succs) == sorted(
        (e.src, e.dst) for e in cfg.edges
    )


def _two_site_doc():
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {
                "name": "main",
                "entry": "m.0",
                "blocks": ["m.0", "m.1", "m.2", "m.3", "m.4"],
            },
            {"name": "f", "entry": "f.0", "blocks": ["f.0", "f.1"]},
        ],
        "blocks": [
            block("m.0", "main", ["addi"], mp=True),
            block("m.1", "main", ["jal"]),  # first call site
            block("m.2", "main", ["add"]),  # its return block
            block("m.3", "main", ["jal"]),  # second call site
            block("m.4", "main", ["jalr"], mp=True),  # second return, terminal
            block("f.0", "f", ["lw"]),
            block("f.1", "f", ["jalr"]),
        ],
        "edges": [
            edge("m.0", "m.1"),
            edge("m.1", "f.0", "call"),
            edge("f.0", "f.1"),
            edge("f.1", "m.2", "return"),
            edge("f.1", "m.4", "return"),
            edge("m.2", "m.3"),
            edge("m.3", "f.0", "call"),
        ],
        "entry": "m.0",
    }


def test_two_call_sites_duplicate_the_callee():
    cfg = load_cfg(_two_site_doc())
    succ = expand(cfg)
    f_nodes = [n for n in succ if n.block == "f.0"]
    assert sorted(n.stack for n in f_nodes) == [("m.1",), ("m.3",)]
    # Return edges from both stacks reach both return blocks of main: the
    # stack constrains the function, the document enumerates the sites.
    exits = {n: succ[n] for n in succ if n.block == "f.1"}
    for node, succs in exits.items():
        assert all(s.stack == () for s in succs)
        assert {s.block for s in succs} == {"m.2", "m.4"}


def _fanout_chain_doc():
    """Three call levels, two sites per level: f0 calls f1 twice, f1 calls
    f2 twice."""
    def fn_doc(name, callees, mp_entry=False):
        blocks = [block(f"{name}.0", name, ["addi"], mp=mp_entry)]
        edges = []
        current = f"{name}.0"
        for i, callee in enumerate(callees):
            site = f"{name}.s{i}"
            ret = f"{name}.r{i}"
            blocks += [block(site, name, ["jal"]), block(ret, name, ["add"])]
            edges += [
                edge(current, site),
                edge(site, f"{callee}.0", "call"),
                edge(f"{callee}.end", ret, "return"),
            ]
            current = ret
        blocks.append(block(f"{name}.end", name, ["jalr"], mp=(name == "f0")))
        edges.append(edge(current, f"{name}.end"))
        return blocks, edges

    b0, e0 = fn_doc("f0", ["f1", "f1"], mp_entry=True)
    b1, e1 = fn_doc("f1", ["f2", "f2"])
    b2, e2 = fn_doc("f2", [])
    blocks = b0 + b1 + b2
    return {
        "counters": TINY_COUNTERS,
        "functions": [
            {"name": name, "entry": f"{name}.0", "blocks": [b["id"] for b in blocks if b["function"] == name]}
            for name in ("f0", "f1", "f2")
        ],
        "blocks": blocks,
        "edges": e0 + e1 + e2,
        "entry": "f0.0",
    }


def test_expansion_count_equals_call_string_count():
    cfg = load_cfg(_fanout_chain_doc())
    succ = expand(cfg)
    call_sites = {
        "f0": [("f0.s0", "f1"), ("f0.s1", "f1")],
        "f1": [("f1.s0", "f2"), ("f1.s1", "f2")],
        "f2": [],
    }
    strings = count_call_strings(call_sites, "f0")
    assert strings == {"f0": 1, "f1": 2, "f2": 4}
    blocks_per_fn = {name: len(info.blocks) for name, info in cfg.functions.items()}
    expected = sum(strings[fn] * blocks_per_fn[fn] for fn in strings)
    assert len(succ) == expected


def test_node_budget_reports_budget_and_reached():
    cfg = load_cfg(_fanout_chain_doc())
    with pytest.raises(BudgetError) as err:
        expand(cfg, node_budget=5)
    assert err.value.budget == 5
    assert err.value.reached == 6


def test_entry_node_has_empty_stack():
    cfg = load_cfg(_two_site_doc())
    assert next(iter(expand(cfg))) == ExpandedNode("m.0", ())

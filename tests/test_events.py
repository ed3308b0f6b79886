import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowattest.cfg import BasicBlock, BlockTrace, load_cfg, serialize_cfg
from flowattest.errors import SchemaError, UnknownMnemonicError
from flowattest.events import (
    CounterEvent,
    block_delta,
    default_event_table,
    delta_map,
    load_event_table,
    make_config,
    make_event_table,
    parse_register_spec,
    project,
    serialize_event_table,
    three_register_config,
)
from flowattest.simulate import measure
from flowattest.vectors import vadd

from .conftest import straight_line_doc, tiny_table_doc
from .oracles import tally_instructions


def _bb(instructions, bid="x.0"):
    return BasicBlock(
        id=bid,
        function="x",
        instruction_count=len(instructions),
        is_measurement_point=False,
        instructions=tuple(instructions),
    )


def test_empty_block_has_zero_delta(tiny_table):
    assert block_delta(tiny_table, _bb([])) == (0, 0, 0)


def test_mixed_block_delta(tiny_table):
    assert block_delta(tiny_table, _bb(["add", "beq", "lw"])) == (3, 1, 1)


def test_randomized_block_matches_naive_tally(tiny_table):
    rng = random.Random(1)
    mnemonics = [rng.choice(list(tiny_table.attribution)) for _ in range(20)]
    assert block_delta(tiny_table, _bb(mnemonics)) == tally_instructions(
        tiny_table, mnemonics
    )


def test_unknown_mnemonic_is_named(tiny_table):
    with pytest.raises(UnknownMnemonicError, match="fmadd"):
        block_delta(tiny_table, _bb(["add", "fmadd"]))


def test_stored_delta_must_agree(tiny_table):
    bad = BasicBlock(
        id="x.0",
        function="x",
        instruction_count=1,
        is_measurement_point=False,
        instructions=("add",),
        delta=(1, 1, 0),
    )
    with pytest.raises(SchemaError, match="disagrees"):
        block_delta(tiny_table, bad)


def test_delta_map_checks_instret_consistency(tiny_table):
    doc = straight_line_doc()
    doc["blocks"][1] = {
        "id": "s.1",
        "function": "main",
        "instruction_count": 3,
        "is_measurement_point": False,
        "delta": [2, 0, 1],  # claims 2 retired instructions, count says 3
    }
    cfg = load_cfg(doc)
    # A failed call caches nothing, so the second call checks again.
    for _ in range(2):
        with pytest.raises(SchemaError, match="instruction_count"):
            delta_map(cfg, tiny_table)


def test_delta_map_is_per_table_object(tiny_table):
    cfg = load_cfg(straight_line_doc())
    counters, attribution = tiny_table_doc()
    # Same counter names, but loads also count as conditional branches.
    attribution["lw"] = (1, 1, 1)
    other = make_event_table(counters, attribution)
    twin = make_event_table(*tiny_table_doc())
    assert twin == tiny_table and twin is not tiny_table
    expected = {"s.0": (1, 0, 0), "s.1": (2, 0, 1), "s.2": (1, 0, 0)}
    for table, want in [
        (tiny_table, expected),
        (other, {**expected, "s.1": (2, 1, 1)}),
        (tiny_table, expected),
        (twin, expected),
        (other, {**expected, "s.1": (2, 1, 1)}),
    ]:
        assert dict(delta_map(cfg, table)) == want
    assert delta_map(cfg, tiny_table) is delta_map(cfg, tiny_table)


def test_delta_map_result_is_read_only(tiny_table):
    deltas = delta_map(load_cfg(straight_line_doc()), tiny_table)
    with pytest.raises(TypeError):
        deltas["s.1"] = (0, 0, 0)
    with pytest.raises(TypeError):
        del deltas["s.1"]


def test_replaced_cfg_starts_with_an_empty_memo(tiny_table):
    cfg = load_cfg(straight_line_doc())
    deltas = delta_map(cfg, tiny_table)
    copy = dataclasses.replace(cfg)
    assert copy == cfg and copy._deltas == {}
    assert delta_map(copy, tiny_table) == deltas
    assert serialize_cfg(copy) == serialize_cfg(cfg)
    assert "_deltas" not in repr(cfg)


def test_delta_map_requires_matching_counter_lists(tiny_table):
    doc = straight_line_doc()
    doc["counters"] = ["instret", "other", "int_load_retired"]
    with pytest.raises(SchemaError, match="disagree"):
        delta_map(load_cfg(doc), tiny_table)


def test_block_delta_is_additive(tiny_table):
    a = ["add", "lw"]
    b = ["beq", "beq", "sw"]
    assert block_delta(tiny_table, _bb(a + b)) == vadd(
        block_delta(tiny_table, _bb(a)), block_delta(tiny_table, _bb(b))
    )


def test_instret_component_equals_instruction_count(tiny_table):
    mnemonics = ["add", "lw", "beq", "sw", "jal"]
    delta = block_delta(tiny_table, _bb(mnemonics))
    assert delta[tiny_table.instret_index] == len(mnemonics)


def _branchy_table():
    counters = [
        CounterEvent("instret"),
        CounterEvent("cond_branch_retired"),
        CounterEvent("jal_retired"),
        CounterEvent("jalr_retired"),
    ]
    attribution = {
        "add": (1, 0, 0, 0),
        "beq": (1, 1, 0, 0),
        "jal": (1, 0, 1, 0),
        "jalr": (1, 0, 0, 1),
    }
    return make_event_table(counters, attribution)


def test_identity_projection_is_identity(tiny_table):
    config = make_config(tiny_table)
    assert project(config, (4, 2, 1)) == (4, 2, 1)


def test_composite_register_sums_members():
    table = _branchy_table()
    config = make_config(
        table, [("cond_branch_retired", "jal_retired", "jalr_retired")]
    )
    assert project(config, (9, 5, 2, 1)) == (8,)


def test_reprojection_matches_composed_config():
    table = _branchy_table()
    first = make_config(
        table,
        [("instret",), ("cond_branch_retired", "jal_retired"), ("jalr_retired",)],
    )
    # A sub-config over the projected space: merge registers 1 and 2.
    sub_counters = [CounterEvent(name) for name in first.register_names]
    sub_table = make_event_table(
        sub_counters, {"nop": (1,) * len(sub_counters)}
    )
    sub = make_config(
        sub_table,
        [("instret",), ("cond_branch_retired+jal_retired", "jalr_retired")],
    )
    composed = make_config(
        table,
        [("instret",), ("cond_branch_retired", "jal_retired", "jalr_retired")],
    )
    for v in [(9, 5, 2, 1), (0, 0, 0, 0), (7, 1, 1, 1)]:
        assert project(sub, project(first, v)) == project(composed, v)


@given(
    st.tuples(*[st.integers(min_value=0, max_value=1000)] * 4),
    st.tuples(*[st.integers(min_value=0, max_value=1000)] * 4),
)
def test_projection_commutes_with_addition(u, v):
    table = _branchy_table()
    config = make_config(
        table, [("instret",), ("cond_branch_retired", "jalr_retired")]
    )
    assert project(config, vadd(u, v)) == vadd(project(config, u), project(config, v))


def test_default_table_shape():
    table = default_event_table()
    assert table.dimension == 17
    assert len(table.attribution) == 12
    assert all(c.deterministic for c in table.counters)
    assert table.counter_names[table.instret_index] == "instret"
    # Round-trips through its document form.
    assert load_event_table(serialize_event_table(table)) == table


@pytest.mark.parametrize("flag", ["false", 0, None])
def test_deterministic_flag_must_be_a_boolean(flag):
    document = serialize_event_table(default_event_table())
    document["counters"][0]["deterministic"] = flag
    with pytest.raises(SchemaError, match="deterministic must be a boolean"):
        load_event_table(document)


def test_three_register_config_shape():
    table = default_event_table()
    config = three_register_config(table)
    assert config.dimension == 3
    assert config.register_names[0] == "instret"
    assert "+" in config.register_names[1]


def test_nondeterministic_counters_are_refused():
    counters = [CounterEvent("instret"), CounterEvent("dcache_miss", deterministic=False)]
    table = make_event_table(counters, {"add": (1, 0), "lw": (1, 1)})
    with pytest.raises(SchemaError, match="nondeterministic"):
        make_config(table, [("instret",), ("dcache_miss",)])
    # The default selection silently keeps only deterministic events.
    assert make_config(table).dimension == 1


def test_table_requires_fixed_instruction_counter():
    counters = [CounterEvent("loads")]
    with pytest.raises(SchemaError, match="instructions-retired"):
        make_event_table(counters, {"lw": (1,), "add": (0,)})


def test_register_spec_parsing():
    table = default_event_table()
    config = parse_register_spec(
        table, "instret,cond_branch_retired+jal_retired+jalr_retired,int_load_retired"
    )
    assert config.registers == (
        ("instret",),
        ("cond_branch_retired", "jal_retired", "jalr_retired"),
        ("int_load_retired",),
    )
    with pytest.raises(SchemaError, match="unknown counter"):
        parse_register_spec(table, "instret,bogus")
    with pytest.raises(SchemaError, match="two registers"):
        parse_register_spec(table, "instret,instret")


def test_delta_map_projects_once_per_register_file(tiny_table):
    cfg = load_cfg(straight_line_doc())
    raw = delta_map(cfg, tiny_table)
    composite = make_config(
        tiny_table, [("instret", "int_load_retired"), ("cond_branch_retired",)]
    )
    loads = make_config(tiny_table, [("int_load_retired",)])
    maps = {}
    for config in (composite, loads):
        projected = delta_map(cfg, tiny_table, config)
        assert dict(projected) == {b: project(config, v) for b, v in raw.items()}
        with pytest.raises(TypeError):
            projected["s.1"] = (0,)
        assert delta_map(cfg, tiny_table, config) is projected
        # A value-equal config is the same register file.
        twin = make_config(tiny_table, [list(r) for r in config.registers])
        assert twin == config and delta_map(cfg, tiny_table, twin) is projected
        maps[config] = projected
    assert maps[composite] is not maps[loads] and maps[composite] != maps[loads]
    assert delta_map(cfg, tiny_table, None) is raw
    copy = dataclasses.replace(cfg)
    assert copy._deltas == {}
    assert delta_map(copy, tiny_table, composite) == maps[composite]
    assert delta_map(copy, tiny_table, composite) is not maps[composite]


def test_delta_map_of_a_config_for_other_counters_raises_every_time(tiny_table):
    cfg = load_cfg(straight_line_doc())
    counters, attribution = tiny_table_doc()
    short = make_event_table(counters[:2], {m: v[:2] for m, v in attribution.items()})
    config = make_config(short)  # a register file for a table of two counters
    for _ in range(2):
        with pytest.raises(SchemaError, match="cannot project a 3-dim vector"):
            delta_map(cfg, tiny_table, config)
    ((_, _, projected),) = cfg._deltas.values()
    assert projected == {}


def test_delta_map_of_a_config_for_other_counter_names_raises_every_time(tiny_table):
    """A register file over another table with as many counters is refused
    by name, not read through the wrong counters, and nothing is cached."""
    cfg = load_cfg(straight_line_doc())
    _, attribution = tiny_table_doc()
    other = make_event_table(
        [CounterEvent("instret"), CounterEvent("x"), CounterEvent("y")], attribution
    )
    config = make_config(other, [("instret",), ("y",)])
    trace = BlockTrace(("s.0", "s.1", "s.2"))
    for _ in range(2):
        with pytest.raises(SchemaError, match="different counter list"):
            measure(cfg, tiny_table, config, trace)
        with pytest.raises(SchemaError, match="different counter list"):
            delta_map(cfg, tiny_table, config)
    ((_, _, projected),) = cfg._deltas.values()
    assert projected == {}
    # The same registers over the table the CFG was measured with are fine.
    good = make_config(tiny_table, [("instret",), ("int_load_retired",)])
    assert [m.delta for m in measure(cfg, tiny_table, good, trace)] == [(3, 1)]

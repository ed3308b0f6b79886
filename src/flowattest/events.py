"""Instruction-to-counter attribution tables and counter register configs.

An :class:`EventTable` maps each instruction mnemonic to the increment it
causes on every modeled counter event.  A :class:`CounterConfig` describes
which of those events are actually wired to hardware registers, including
composite registers that accumulate several events at once.  Projecting a
full-width vector through a config simulates measuring with that register
file.

The table document is ``{"counters": [{"name", "deterministic"}],
"attribution": {mnemonic: [increments]}}``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .cfg import AnnotatedCfg, BasicBlock, _check_list, _check_str, _check_vector, _require_keys
from .errors import SchemaError, UnknownMnemonicError
from .vectors import Vec, vsum


@dataclass(frozen=True)
class CounterEvent:
    name: str
    deterministic: bool = True


@dataclass(frozen=True, eq=False)
class EventTable:
    counters: tuple[CounterEvent, ...]
    attribution: dict[str, Vec]
    instret_index: int = -1

    @property
    def dimension(self) -> int:
        return len(self.counters)

    @property
    def counter_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.counters)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventTable):
            return NotImplemented
        return self.counters == other.counters and self.attribution == other.attribution


def _find_instret(counters: tuple[CounterEvent, ...], attribution: dict[str, Vec]) -> int:
    for i in range(len(counters)):
        if all(vec[i] == 1 for vec in attribution.values()):
            return i
    raise SchemaError(
        "event table has no fixed instructions-retired counter "
        "(one event must increment by exactly 1 for every mnemonic)"
    )


def make_event_table(counters: list[CounterEvent], attribution: dict[str, Vec]) -> EventTable:
    dim = len(counters)
    if dim == 0:
        raise SchemaError("event table needs at least one counter")
    names = [c.name for c in counters]
    if len(set(names)) != dim:
        raise SchemaError("event table has duplicate counter names")
    if not attribution:
        raise SchemaError("event table has an empty attribution map")
    for mnemonic, vec in attribution.items():
        if len(vec) != dim:
            raise SchemaError(
                f"attribution for '{mnemonic}' has length {len(vec)}, expected {dim}"
            )
        if any(x < 0 for x in vec):
            raise SchemaError(f"attribution for '{mnemonic}' has a negative increment")
    table = EventTable(
        counters=tuple(counters),
        attribution=dict(attribution),
        instret_index=_find_instret(tuple(counters), attribution),
    )
    return table


def load_event_table(document: dict) -> EventTable:
    _require_keys(document, required=("counters", "attribution"), optional=(), what="event table")
    counters = []
    for obj in _check_list(document["counters"], "event table counters"):
        _require_keys(obj, required=("name", "deterministic"), optional=(), what="counter")
        name = _check_str(obj["name"], "counter name")
        if not isinstance(obj["deterministic"], bool):
            raise SchemaError(f"counter {name!r}: deterministic must be a boolean")
        counters.append(CounterEvent(name=name, deterministic=obj["deterministic"]))
    raw = document["attribution"]
    if not isinstance(raw, dict):
        raise SchemaError("event table attribution must be an object")
    attribution = {
        mnemonic: _check_vector(vec, len(counters), f"attribution for '{mnemonic}'")
        for mnemonic, vec in raw.items()
    }
    return make_event_table(counters, attribution)


def serialize_event_table(table: EventTable) -> dict:
    return {
        "counters": [
            {"name": c.name, "deterministic": c.deterministic} for c in table.counters
        ],
        "attribution": {m: list(v) for m, v in sorted(table.attribution.items())},
    }


def block_delta(table: EventTable, block: BasicBlock) -> Vec:
    """Componentwise sum of the attributions of the block's instructions.

    The block must carry a mnemonic list; if it also stores a precomputed
    delta, the two must agree.
    """
    if block.instructions is None:
        raise SchemaError(f"block '{block.id}' has no instruction list")
    vecs = []
    for mnemonic in block.instructions:
        try:
            vecs.append(table.attribution[mnemonic])
        except KeyError:
            raise UnknownMnemonicError(
                f"block '{block.id}' uses unknown mnemonic '{mnemonic}'"
            ) from None
    delta = vsum(vecs, table.dimension)
    if block.delta is not None and block.delta != delta:
        raise SchemaError(
            f"block '{block.id}': stored delta {block.delta} disagrees with "
            f"instruction-derived delta {delta}"
        )
    return delta


def delta_map(
    cfg: AnnotatedCfg, table: EventTable, config: CounterConfig | None = None
) -> Mapping[str, Vec]:
    """Resolve every block to its counter delta under the given table, and,
    given a register file ``config``, projected through it.

    Validates in one pass that the CFG and table agree on the counter list,
    that all mnemonics are known, that any stored deltas are consistent,
    and that each delta's instructions-retired component matches the
    block's instruction count.  A config built for another counter list
    raises :class:`SchemaError`: :func:`project`'s for another number of
    counters, and a counter-list mismatch for the same number.

    The result is memoized on the CFG per table object (by identity, so a
    value-equal table is resolved on its own) and, within it, per config
    (by value), and returned as a read-only mapping shared by every
    caller.  Projection is linear, so a sum of projected deltas is the
    projection of the sum.  A call that raises caches nothing, so every
    call with the same bad pair or config raises again.
    """
    cached = cfg._deltas.get(id(table))
    if cached is None:
        cached = cfg._deltas[id(table)] = (table, _resolve_deltas(cfg, table), {})
    if config is None:
        return cached[1]
    projected = cached[2].get(config)
    if projected is None:
        projected = MappingProxyType({bid: project(config, v) for bid, v in cached[1].items()})
        # A config for another number of counters has already failed in
        # ``project``; one for another list of the same length fails here.
        if config.counter_names != table.counter_names:
            raise SchemaError(
                "counter config was built for a different counter list than the event table"
            )
        cached[2][config] = projected
    return projected


def _resolve_deltas(cfg: AnnotatedCfg, table: EventTable) -> Mapping[str, Vec]:
    if cfg.counters != table.counter_names:
        raise SchemaError(
            "CFG and event table disagree on the counter list: "
            f"{cfg.counters} vs {table.counter_names}"
        )
    result: dict[str, Vec] = {}
    for bid, block in cfg.blocks.items():
        delta = block_delta(table, block) if block.instructions is not None else block.delta
        assert delta is not None
        if delta[table.instret_index] != block.instruction_count:
            raise SchemaError(
                f"block '{bid}': delta claims {delta[table.instret_index]} retired "
                f"instructions but instruction_count is {block.instruction_count}"
            )
        result[bid] = delta
    return MappingProxyType(result)


@dataclass(frozen=True)
class CounterConfig:
    """A simulated register file over a table's counter events.

    ``registers`` is an ordered tuple of event-name groups; each group is
    one hardware register and sums its member events.  Singleton groups
    model plain counters, larger groups model composite registers.
    """

    counter_names: tuple[str, ...]
    registers: tuple[tuple[str, ...], ...]
    groups: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.groups)

    @property
    def register_names(self) -> tuple[str, ...]:
        return tuple("+".join(group) for group in self.registers)


def make_config(
    table: EventTable,
    registers: list[tuple[str, ...]] | None = None,
) -> CounterConfig:
    """Build a config for ``table``; defaults to the identity register file.

    Selecting a counter flagged nondeterministic is refused: only counters
    that report identical values for identical instruction sequences can
    back verification.
    """
    names = table.counter_names
    index = {name: i for i, name in enumerate(names)}
    if registers is None:
        registers = [(c.name,) for c in table.counters if c.deterministic]
    if not registers:
        raise SchemaError("counter config selects no registers")
    groups = []
    used: set[str] = set()
    for group in registers:
        if not group:
            raise SchemaError("counter config has an empty register group")
        for name in group:
            if name not in index:
                raise SchemaError(f"counter config references unknown counter '{name}'")
            if name in used:
                raise SchemaError(f"counter '{name}' appears in two registers")
            used.add(name)
            if not table.counters[index[name]].deterministic:
                raise SchemaError(
                    f"counter '{name}' is nondeterministic and cannot back verification"
                )
        groups.append(tuple(index[name] for name in group))
    return CounterConfig(
        counter_names=names,
        registers=tuple(tuple(g) for g in registers),
        groups=tuple(groups),
    )


def parse_register_spec(table: EventTable, spec: str) -> CounterConfig:
    """Parse a CLI register spec: comma-separated registers, '+' for composites.

    Example: ``"instret,cond_branch_retired+jal_retired+jalr_retired,int_load_retired"``.
    """
    registers = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise SchemaError("empty register in counter spec")
        registers.append(tuple(part.strip() for part in chunk.split("+")))
    return make_config(table, registers)


def project(config: CounterConfig, v: Vec) -> Vec:
    """Restrict a full-width vector to the configured registers."""
    if len(v) != len(config.counter_names):
        raise SchemaError(
            f"cannot project a {len(v)}-dim vector through a "
            f"{len(config.counter_names)}-counter config"
        )
    return tuple(sum(v[i] for i in group) for group in config.groups)


# The shipped toy ISA: 12 mnemonics, 17 deterministic counter events.  The
# instructions-retired counter is fixed; the other event names are
# illustrative groupings with no hardware claim.  The table is data, not
# code, so other ISAs can be modeled by loading a different document.
_DEFAULT_MNEMONICS = (
    "add", "addi", "sub", "and", "or", "slli",
    "lw", "sw", "beq", "jal", "jalr", "mul",
)

_DEFAULT_EVENTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("instret", _DEFAULT_MNEMONICS),
    ("int_arith_retired", ("add", "addi", "sub")),
    ("reg_arith_retired", ("add", "sub")),
    ("imm_arith_retired", ("addi",)),
    ("int_logic_retired", ("and", "or")),
    ("shift_retired", ("slli",)),
    ("alu_retired", ("add", "addi", "sub", "and", "or", "slli")),
    ("int_load_retired", ("lw",)),
    ("int_store_retired", ("sw",)),
    ("mem_retired", ("lw", "sw")),
    ("cond_branch_retired", ("beq",)),
    ("jal_retired", ("jal",)),
    ("jalr_retired", ("jalr",)),
    ("jump_retired", ("jal", "jalr")),
    ("control_retired", ("beq", "jal", "jalr")),
    ("mul_retired", ("mul",)),
    ("muldiv_retired", ("mul",)),
)


def default_event_table() -> EventTable:
    counters = [CounterEvent(name=name) for name, _ in _DEFAULT_EVENTS]
    attribution = {}
    for mnemonic in _DEFAULT_MNEMONICS:
        attribution[mnemonic] = tuple(
            1 if mnemonic in members else 0 for _, members in _DEFAULT_EVENTS
        )
    return make_event_table(counters, attribution)


def three_register_config(table: EventTable) -> CounterConfig:
    """The limited-hardware register file: instructions retired, a composite
    of the three control-transfer events, and integer loads."""
    return make_config(
        table,
        [
            ("instret",),
            ("cond_branch_retired", "jal_retired", "jalr_retired"),
            ("int_load_retired",),
        ],
    )

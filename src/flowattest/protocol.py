"""Tracer/tracee/security-monitor protocol as a deterministic state machine.

The monitor's job is a lock discipline: a traced enclave's shared memory
stays blocked from the host whenever its control flow is unverified, and a
rejection halts the enclave with the lock engaged forever.  The machine
models exactly that - physical memory protection collapses to one lock bit
per tracee - plus the attach handshake (the tracee names the only tracer
hash it will accept) and the rule that a tracee runs only with its tracer
attached.

Illegal events are observable rejections, never crashes, so an exhaustive
scheduler can drive any interleaving.  :func:`explore` does a breadth-first
search over world states up to a depth bound and reports every safety
violation with the event trace that reached it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .cfg import _check_str, _require_keys
from .errors import SchemaError


class Role(Enum):
    TRACEE = "TRACEE"
    TRACER = "TRACER"
    NONE = "NONE"


class VerifState(Enum):
    GATHERING = "GATHERING"
    PENDING = "PENDING"
    VERIFIED = "VERIFIED"
    HALTED = "HALTED"


# Event kinds; "verify_result" is accepted as an alias for the API call that
# delivers it, set_cfa_verification_state.
EVENT_KINDS = (
    "create",
    "attach_as_tracer",
    "start",
    "ecall",
    "set_cfa_verification_state",
    "host_read_shm",
)

# Context switches per completed ecall-verify round: the host-mediated
# choreography costs eight, a monitor-mediated variant would cost four.
HOST_MEDIATED_SWITCHES = 8
SM_MEDIATED_SWITCHES = 4

# The one tracer/tracee pair of the standard world and alphabet, and the
# tracer hash that the tracee pins.
_TRACEE, _TRACER, _TRACER_HASH = "tracee", "tracer", "h-tracer"
# Distinct states an exploration may reach before it gives up.
_STATE_BUDGET = 200_000


@dataclass(frozen=True)
class EnclaveRecord:
    id: str
    role: Role
    counterpart: str | None = None
    expected_tracer_hash: str | None = None  # must stay unset unless TRACEE
    verif_state: VerifState = VerifState.GATHERING
    shm_locked: bool = True
    runnable: bool = False
    running: bool = False


@dataclass(frozen=True)
class ProtocolEvent:
    kind: str
    actor: str
    target: str | None = None
    value: str | None = None  # attach hash, or "accept"/"reject"


@dataclass(frozen=True)
class World:
    enclaves: tuple[EnclaveRecord, ...] = ()
    context_switches: int = 0
    sm_mediated: bool = False

    def get(self, enclave_id: str) -> EnclaveRecord | None:
        for record in self.enclaves:
            if record.id == enclave_id:
                return record
        return None

    def _with(self, *records: EnclaveRecord) -> World:
        by_id = {r.id: r for r in self.enclaves}
        for record in records:
            by_id[record.id] = record
        return replace(self, enclaves=tuple(by_id[k] for k in sorted(by_id)))


Effect = tuple[str, ...]


def step(world: World, event: ProtocolEvent) -> tuple[World, tuple[Effect, ...]]:
    """Apply one event; illegal events leave the world unchanged and emit a
    ('rejected', reason) effect."""
    kind = event.kind
    if kind == "verify_result":
        kind = "set_cfa_verification_state"
    if kind not in EVENT_KINDS:
        raise SchemaError(f"unknown protocol event kind '{event.kind}'")

    def rejected(reason: str) -> tuple[World, tuple[Effect, ...]]:
        return world, (("rejected", event.kind, reason),)

    if kind == "create":
        if world.get(event.actor) is not None:
            return rejected("enclave id already exists")
        try:
            role = Role(event.target or "NONE")
        except ValueError:
            return rejected(f"unknown role '{event.target}'")
        if role is not Role.TRACEE and event.value is not None:
            return rejected("expected tracer hash must be zeroed for non-tracee roles")
        if role is Role.TRACEE and event.value is None:
            return rejected("a tracee must pin its tracer's hash")
        record = EnclaveRecord(
            id=event.actor,
            role=role,
            expected_tracer_hash=event.value,
            shm_locked=role is Role.TRACEE,
        )
        return world._with(record), (("created", event.actor, role.value),)

    if kind == "attach_as_tracer":
        tracer = world.get(event.actor)
        tracee = world.get(event.target or "")
        if tracer is None or tracee is None:
            return rejected("unknown enclave")
        if tracer.role is not Role.TRACER:
            return rejected("caller is not a tracer")
        if tracee.role is not Role.TRACEE:
            return rejected("target is not a tracee")
        if tracee.counterpart is not None:
            return rejected("tracee already has a tracer attached")
        if event.value != tracee.expected_tracer_hash:
            return rejected("tracer hash does not match the tracee's pinned value")
        return (
            world._with(
                replace(tracer, counterpart=tracee.id),
                replace(tracee, counterpart=tracer.id, runnable=True),
            ),
            (("attached", tracer.id, tracee.id),),
        )

    if kind == "start":
        tracee = world.get(event.actor)
        if tracee is None or tracee.role is not Role.TRACEE:
            return rejected("only tracees start")
        if not tracee.runnable:
            return rejected("tracee is not runnable (no tracer attached, or halted)")
        if tracee.running:
            return rejected("tracee is already running")
        # Execution re-engages the lock and resumes gathering.
        return (
            world._with(
                replace(
                    tracee,
                    running=True,
                    shm_locked=True,
                    verif_state=VerifState.GATHERING,
                )
            ),
            (("started", tracee.id),),
        )

    if kind == "ecall":
        tracee = world.get(event.actor)
        if tracee is None or tracee.role is not Role.TRACEE:
            return rejected("only tracees perform ecalls")
        if not tracee.running:
            return rejected("tracee is not running")
        # Control passes to the monitor: verification is now required and
        # the shared memory stays blocked until it succeeds.
        return (
            world._with(
                replace(tracee, running=False, verif_state=VerifState.PENDING)
            ),
            (("ecall", tracee.id),),
        )

    if kind == "set_cfa_verification_state":
        tracer = world.get(event.actor)
        tracee = world.get(event.target or "")
        if tracee is None or tracee.role is not Role.TRACEE:
            return rejected("unknown tracee")
        if tracer is None or tracer.role is not Role.TRACER or tracer.counterpart != tracee.id:
            return rejected("only the attached tracer may set the verification state")
        if tracee.verif_state is not VerifState.PENDING:
            return rejected("tracee has no verification pending")
        if event.value not in ("accept", "reject"):
            return rejected(f"unknown verdict '{event.value}'")
        switches = SM_MEDIATED_SWITCHES if world.sm_mediated else HOST_MEDIATED_SWITCHES
        if event.value == "accept":
            new_world = world._with(
                replace(tracee, verif_state=VerifState.VERIFIED, shm_locked=False)
            )
            new_world = replace(
                new_world, context_switches=new_world.context_switches + switches
            )
            return new_world, (("verified", tracee.id),)
        new_world = world._with(
            replace(
                tracee,
                verif_state=VerifState.HALTED,
                shm_locked=True,
                runnable=False,
                running=False,
            )
        )
        new_world = replace(
            new_world, context_switches=new_world.context_switches + switches
        )
        return new_world, (("halted", tracee.id),)

    if kind == "host_read_shm":
        tracee = world.get(event.target or "")
        if tracee is None or tracee.role is not Role.TRACEE:
            return rejected("shared-memory reads target tracees")
        if tracee.shm_locked:
            return world, (("denied", tracee.id),)
        return world, (("read", tracee.id),)

    raise AssertionError("unreachable")


def check_record_invariants(world: World) -> list[str]:
    """Structural invariants every reachable world must satisfy."""
    problems = []
    for record in world.enclaves:
        if record.role is not Role.TRACEE:
            if record.expected_tracer_hash is not None:
                problems.append(f"{record.id}: non-tracee with a tracer hash set")
            continue
        if record.verif_state in (
            VerifState.GATHERING,
            VerifState.PENDING,
            VerifState.HALTED,
        ) and not record.shm_locked:
            problems.append(
                f"{record.id}: shared memory unlocked in {record.verif_state.value}"
            )
        if record.running and record.counterpart is None:
            problems.append(f"{record.id}: running without an attached tracer")
        if record.verif_state is VerifState.HALTED and (record.runnable or record.running):
            problems.append(f"{record.id}: halted but still runnable")
    return problems


@dataclass
class Violation:
    description: str
    trace: tuple[ProtocolEvent, ...]


@dataclass
class ExploreReport:
    states: int
    depth: int
    violations: list[Violation]
    successful_reads_outside_verified: int


def explore(
    world: World,
    alphabet: list[ProtocolEvent],
    depth: int,
) -> ExploreReport:
    """Breadth-first search over every interleaving of the alphabet.

    Checks, at every reachable state and transition: the record invariants,
    that no shared-memory read succeeds unless the target is VERIFIED, and
    that HALTED is absorbing (a halted tracee never becomes runnable and
    its lock never opens).
    """
    violations: list[Violation] = []
    bad_reads = 0
    parents: dict[World, tuple[World, ProtocolEvent] | None] = {world: None}

    def trace_to(state: World, extra: ProtocolEvent | None = None) -> tuple[ProtocolEvent, ...]:
        events: list[ProtocolEvent] = [] if extra is None else [extra]
        cursor = parents[state]
        while cursor is not None:
            prev, event = cursor
            events.append(event)
            cursor = parents[prev]
        return tuple(reversed(events))

    for problem in check_record_invariants(world):
        violations.append(Violation(description=problem, trace=()))
    frontier = [world]
    seen = {world}
    level = 0
    while frontier and level < depth:
        level += 1
        next_frontier = []
        for state in frontier:
            halted_before = {
                r.id for r in state.enclaves if r.verif_state is VerifState.HALTED
            }
            for event in alphabet:
                new_state, effects = step(state, event)
                for effect in effects:
                    if effect[0] == "read":
                        target = new_state.get(effect[1])
                        if target is not None and target.verif_state is not VerifState.VERIFIED:
                            bad_reads += 1
                            violations.append(
                                Violation(
                                    description=(
                                        f"host read {effect[1]} succeeded in state "
                                        f"{target.verif_state.value}"
                                    ),
                                    trace=trace_to(state, event),
                                )
                            )
                for enclave_id in halted_before:
                    after = new_state.get(enclave_id)
                    if after is None:
                        continue
                    if (
                        after.verif_state is not VerifState.HALTED
                        or after.runnable
                        or after.running
                        or not after.shm_locked
                    ):
                        violations.append(
                            Violation(
                                description=f"{enclave_id}: escaped HALTED",
                                trace=trace_to(state, event),
                            )
                        )
                if new_state not in seen:
                    for problem in check_record_invariants(new_state):
                        violations.append(
                            Violation(description=problem, trace=trace_to(state, event))
                        )
                    seen.add(new_state)
                    if len(seen) > _STATE_BUDGET:
                        raise SchemaError(
                            f"state exploration exceeded budget {_STATE_BUDGET}"
                        )
                    parents[new_state] = (state, event)
                    next_frontier.append(new_state)
        frontier = next_frontier
    return ExploreReport(
        states=len(seen),
        depth=depth,
        violations=violations,
        successful_reads_outside_verified=bad_reads,
    )


def bind_verdicts(events: list[ProtocolEvent], accepted: list[bool]) -> list[ProtocolEvent]:
    """Integration mode: fill ``value: "auto"`` verdict events from verifier
    outcomes, in order.

    Once a rejection is consumed the remaining autos stay ``reject`` - the
    machine keeps the tracee halted regardless, so scripts may carry more
    verdict events than the verifier produced results.
    """
    outcomes = iter(accepted)
    exhausted_as = "reject"
    bound = []
    for event in events:
        if (
            event.kind in ("set_cfa_verification_state", "verify_result")
            and event.value == "auto"
        ):
            verdict = next(outcomes, None)
            if verdict is None:
                value = exhausted_as
            else:
                value = "accept" if verdict else "reject"
                if not verdict:
                    outcomes = iter(())
            bound.append(replace(event, value=value))
        else:
            bound.append(event)
    return bound


def parse_event(obj) -> ProtocolEvent:
    """One scenario event: an object with string ``kind`` and ``actor`` and
    optional ``target`` and ``value``, each a string or null."""
    what = "protocol event"
    _require_keys(obj, required=("kind", "actor"), optional=("target", "value"), what=what)
    for key, value in obj.items():
        if value is not None or key in ("kind", "actor"):
            _check_str(value, f"{what} {key}")
    return ProtocolEvent(**obj)


def load_scenario(document: list) -> list[ProtocolEvent]:
    if not isinstance(document, list):
        raise SchemaError("a scenario is an array of protocol events")
    return [parse_event(obj) for obj in document]


def run_scenario(
    world: World, events: list[ProtocolEvent]
) -> tuple[World, list[tuple[ProtocolEvent, tuple[Effect, ...]]]]:
    log = []
    for event in events:
        world, effects = step(world, event)
        log.append((event, effects))
    return world, log


def standard_tandem_alphabet() -> list[ProtocolEvent]:
    """The adversarial alphabet for the standard tracer/tracee pair: every
    protocol call with both honest and hostile actors/arguments, plus host
    reads at every point."""
    tracee, tracer = _TRACEE, _TRACER
    return [
        ProtocolEvent("attach_as_tracer", tracer, target=tracee, value=_TRACER_HASH),
        ProtocolEvent("attach_as_tracer", tracer, target=tracee, value="h-evil"),
        ProtocolEvent("start", tracee),
        ProtocolEvent("ecall", tracee),
        ProtocolEvent("set_cfa_verification_state", tracer, target=tracee, value="accept"),
        ProtocolEvent("set_cfa_verification_state", tracer, target=tracee, value="reject"),
        ProtocolEvent("set_cfa_verification_state", "host", target=tracee, value="accept"),
        ProtocolEvent("set_cfa_verification_state", tracee, target=tracee, value="accept"),
        ProtocolEvent("host_read_shm", "host", target=tracee),
    ]


def tandem_world(*, sm_mediated: bool = False) -> World:
    world = World(sm_mediated=sm_mediated)
    world, _ = step(world, ProtocolEvent("create", _TRACEE, target="TRACEE", value=_TRACER_HASH))
    world, _ = step(world, ProtocolEvent("create", _TRACER, target="TRACER"))
    return world

"""Control-flow attestation from hardware-counter measurements, desk scale.

The pipeline: :func:`load_cfg` ingests an annotated control-flow graph,
:func:`enumerate_segments` precomputes every path and loop closure between
measurement points, :func:`measure` replays traces into counter snapshots,
and :func:`verify_trace_measurements` decides each snapshot by exact
integer-cone membership.  :mod:`flowattest.attacks` reproduces the
mutation-reliability methodology and :mod:`flowattest.protocol` models the
tracer/tracee lock discipline.
"""

from .cfg import (
    AnnotatedCfg,
    BasicBlock,
    BlockTrace,
    Edge,
    Measurement,
    load_cfg,
    load_measurements,
    load_trace,
    serialize_cfg,
    serialize_measurements,
    serialize_trace,
    split_trace,
    validate_trace,
)
from .cone import solve_cone
from .database import (
    PathCandidate,
    SegmentDatabase,
    dedup_key,
    enumerate_segments,
    load_database,
    serialize_database,
)
from .events import (
    CounterConfig,
    EventTable,
    block_delta,
    default_event_table,
    load_event_table,
    make_config,
    parse_register_spec,
    project,
    three_register_config,
)
from .expand import ExpandedNode, expand
from .simulate import measure, measure_segment, random_valid_walk
from .verify import (
    SessionState,
    VerificationResult,
    verify_segment,
    verify_trace_measurements,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedCfg",
    "BasicBlock",
    "BlockTrace",
    "CounterConfig",
    "Edge",
    "EventTable",
    "ExpandedNode",
    "Measurement",
    "PathCandidate",
    "SegmentDatabase",
    "SessionState",
    "VerificationResult",
    "block_delta",
    "dedup_key",
    "default_event_table",
    "enumerate_segments",
    "expand",
    "load_cfg",
    "load_database",
    "load_event_table",
    "load_measurements",
    "load_trace",
    "make_config",
    "measure",
    "measure_segment",
    "parse_register_spec",
    "project",
    "random_valid_walk",
    "serialize_cfg",
    "serialize_database",
    "serialize_measurements",
    "serialize_trace",
    "solve_cone",
    "split_trace",
    "three_register_config",
    "validate_trace",
    "verify_segment",
    "verify_trace_measurements",
]

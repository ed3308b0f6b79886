"""Field-replacement sweep over the greeter demo's documents and the
protocol demo's scenario.

Every field of each document (object keys, and the first three elements of
every array) is replaced in turn by each ill-typed value below; the result
is loaded and used.  Loading and using it must either succeed or raise a
FlowAttestError, which the CLI maps to a usage (2) or digest (3) exit code.
Any other exception would surface as a traceback with exit 1, the code that
means "measurement rejected".
"""

import copy
import json

import pytest

from flowattest import demos, protocol
from flowattest.cfg import (
    BlockTrace,
    load_cfg,
    load_measurements,
    load_trace,
    serialize_measurements,
    serialize_trace,
)
from flowattest.database import enumerate_segments, load_database, serialize_database
from flowattest.errors import FlowAttestError, SchemaError
from flowattest.events import default_event_table, load_event_table, serialize_event_table
from flowattest.simulate import measure
from flowattest.verify import verify_trace_measurements

REPLACEMENTS = ([], {}, "x", 1, -1, True, None, 1.5, ["x"], {"a": 1})

TABLE = default_event_table()
CFG = load_cfg(demos.greeter_cfg())
TRACE = BlockTrace(steps=tuple(demos.greeter_trace()))
DB = enumerate_segments(CFG, TABLE)
MEASUREMENTS = measure(CFG, TABLE, None, TRACE)


def _use_cfg(doc):
    enumerate_segments(load_cfg(doc), TABLE)


def _use_table(doc):
    table = load_event_table(doc)
    enumerate_segments(CFG, table)
    measure(CFG, table, None, TRACE)


def _use_trace(doc):
    measure(CFG, TABLE, None, load_trace(doc, CFG.digest))


def _use_measurements(doc):
    verify_trace_measurements(DB, load_measurements(doc, DB.cfg_digest))


def _use_database(doc):
    verify_trace_measurements(load_database(doc, expected_digest=CFG.digest), MEASUREMENTS)


def _use_scenario(doc):
    protocol.run_scenario(protocol.World(), protocol.load_scenario(doc))


DOCUMENTS = {
    "cfg": (demos.greeter_cfg(), _use_cfg),
    "table": (serialize_event_table(TABLE), _use_table),
    "trace": (serialize_trace(CFG, TRACE), _use_trace),
    "measurements": (serialize_measurements(CFG.digest, MEASUREMENTS), _use_measurements),
    "database": (serialize_database(DB), _use_database),
    "scenario": (demos.happy_path_scenario(), _use_scenario),
}


def _fields(doc, prefix=()):
    """Paths to every object value and to the first three elements of every array."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc[:3]))
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _fields(value, prefix + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = copy.deepcopy(value)
    return out


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_json_text_is_not_a_document(kind):
    # Loaders take parsed JSON values; the command line parses the files.
    doc, use = DOCUMENTS[kind]
    with pytest.raises(SchemaError):
        use(json.dumps(doc))


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_every_ill_typed_field_is_a_clean_error(kind):
    doc, use = DOCUMENTS[kind]
    use(doc)  # the unmodified document loads and works
    paths = list(_fields(doc))
    assert paths
    escaped = []
    for path in paths:
        for value in REPLACEMENTS:
            try:
                use(_replaced(doc, path, value))
            except FlowAttestError:
                pass
            except Exception as exc:
                escaped.append((path, value, repr(exc)))
    assert not escaped, escaped[:10]


def test_a_repeated_segment_or_counter_name_is_a_clean_error():
    """A database document may name each segment and each counter once: a
    later entry for one segment would silently replace the earlier one,
    whether it has candidates or not, and a repeated counter name is what
    ``load_cfg`` refuses."""
    doc, use = DOCUMENTS["database"]
    segments = doc["segments"]
    assert segments
    for segment in segments:
        for candidates in ([], segment["candidates"]):
            repeated = copy.deepcopy(doc)
            repeated["segments"].append({**copy.deepcopy(segment), "candidates": candidates})
            with pytest.raises(SchemaError, match="is given twice"):
                use(repeated)
    counters = doc["counters"]
    for i in range(len(counters)):
        for j in range(len(counters)):
            if i != j:
                renamed = _replaced(doc, ("counters", j), counters[i])
                with pytest.raises(SchemaError, match="duplicate names"):
                    use(renamed)

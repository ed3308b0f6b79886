"""The benchmark's tracer wraps layer functions by name; each must exist."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from flowattest import attacks, cli, demos

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for module_name, attr, _span, _hook in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_evaluate_mutates_through_the_traced_name(monkeypatch, tmp_path):
    """``attacks.evaluate`` draws its mutants through ``attacks.mutate``, the
    name the tracer rebinds: once per mutation kind and segment class."""
    calls = Counter()
    mutate = attacks.mutate

    def counting(cfg, deltas, segment, spec, pool, **kwargs):
        calls[spec.kind] += 1
        return mutate(cfg, deltas, segment, spec, pool, **kwargs)

    monkeypatch.setattr(attacks, "mutate", counting)
    demos.write_demo("signer", tmp_path, iterations=4)
    label, reports = cli._run_manifest(str(tmp_path / "manifest_basic.json"), 3)
    assert label == "basic"
    assert set(reports) == set(attacks.MUTATION_KINDS)
    assert calls == {kind: len(report.per_segment) for kind, report in reports.items()}

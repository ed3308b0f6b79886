"""Show that every output checker catches a corrupted output.

    python3 perfbench/selftest.py

For each workload (seed 1) it runs one round of operations, confirms the
checker passes them all, then feeds the checker copies of the outputs with
one output corrupted - a flipped verdict, a witness off by one, a missing
base vector, a mis-summed reliability metric - and confirms that the
checker reports exactly that operation as failed.  Last, it shows that the
benchmark's checking round fails an operation whose output differs from
the one the timed rounds produced.  Exits 1 if any corruption slips
through.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction

import checks
import env
import run
from workloads import WORKLOADS


def _first(outputs, predicate) -> int:
    return next(i for i, out in enumerate(outputs) if predicate(out))


def _with(outputs, index, corrupted) -> list:
    copy = list(outputs)
    copy[index] = corrupted
    return copy


def _reject_first(report):
    results = [replace(report.results[0], verdict="rejected", witness=None, accepting=())]
    return replace(report, results=results + report.results[1:], rejected_at=0)


def _bump_witness(report):
    result = report.results[0]
    witness = (result.witness[0] + 1,) + result.witness[1:]
    return replace(report, results=[replace(result, witness=witness)] + report.results[1:])


def replay_corruptions(workload, outputs):
    i = _first(outputs, lambda o: o[1].results)
    yield "flipped verdict", i, (outputs[i][0], _reject_first(outputs[i][1]))
    i = _first(outputs, lambda o: o[1].results and o[1].results[0].witness)
    yield "witness off by one", i, (outputs[i][0], _bump_witness(outputs[i][1]))
    i = _first(outputs, lambda o: o[0])
    ms, report = outputs[i]
    m = ms[0]
    bumped = replace(m, delta=(m.delta[0] + 1,) + m.delta[1:])
    yield "measured delta off by one", i, ([bumped] + ms[1:], report)


def forged_corruptions(workload, outputs):
    i = next(k for k, r in enumerate(outputs) if workload.items[k][3] and r.accepted)
    yield "flipped verdict of a forged measurement", i, _reject_first(outputs[i])
    i = next(k for k, r in enumerate(outputs) if not workload.items[k][3])
    yield "flipped verdict of an unforged measurement", i, _reject_first(outputs[i])
    i = _first(outputs, lambda r: r.accepted and r.results[0].witness)
    yield "witness off by one", i, _bump_witness(outputs[i])


def preprocess_corruptions(workload, outputs):
    i = next(k for k, item in enumerate(workload.items) if item[2])
    start, end, _ = workload.items[i][2][0]
    db = outputs[i]
    entries = dict(db.entries)
    entries[(start, end)] = entries[(start, end)][1:]
    yield "missing base vector", i, replace(db, entries=entries)


def attack_corruptions(workload, outputs):
    i = 3  # the first random program
    reports = dict(outputs[i])
    kind = "replace_block"
    reports[kind] = replace(reports[kind], metric_weighted=reports[kind].metric_weighted + Fraction(1, 1000))
    yield "weighted metric off by 1/1000", i, reports
    # In-loop points no longer detecting remove_block, with metrics that
    # agree with the (corrupted) per-segment counts.
    reports = dict(outputs[2])
    r = reports["remove_block"]
    per_segment = {k: replace(o, detected=0) for k, o in r.per_segment.items()}
    uniform, weighted = checks.reliability(
        (o.frequency, o.instruction_count, o.attempted, o.detected, o.excluded)
        for o in per_segment.values()
    )
    reports["remove_block"] = replace(
        r, per_segment=per_segment, metric_uniform=uniform, metric_weighted=weighted
    )
    yield "in-loop detection trend broken", 2, reports


CORRUPTIONS = {
    "replay": replay_corruptions,
    "forged": forged_corruptions,
    "preprocess": preprocess_corruptions,
    "attack": attack_corruptions,
}


def main() -> int:
    fa, _ = env.import_flowattest()
    ok = True
    for name, cls in WORKLOADS.items():
        workload = cls(fa, 1)
        outputs = [workload.op(i) for i in range(len(workload))]
        clean = workload.check(outputs)
        print(f"{name}: {len(outputs)} outputs, {len(clean)} fail the checks")
        ok = ok and not clean
        for label, index, corrupted in CORRUPTIONS[name](workload, outputs):
            failures = workload.check(_with(outputs, index, corrupted))
            caught = set(failures) == {index}
            ok = ok and caught
            detail = failures.get(index, f"reported {sorted(failures)}")
            print(f"  {label}: {'caught' if caught else 'MISSED'} ({detail})")
        # The benchmark checks a recomputed round and ties it to the timed
        # rounds by digest; a digest that differs must fail its operation.
        reference = [run.digest(workload.summary(out)) for out in outputs]
        reference[0] = run.digest("another output")
        problems = run.check_round(workload, reference)
        caught = set(problems) == {0}
        ok = ok and caught
        print(f"  output differing from the timed rounds: {'caught' if caught else 'MISSED'}")
    print("every corruption caught" if ok else "SOME CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

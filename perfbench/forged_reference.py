"""Compute the brute-force verdicts the forged workload is checked against.

    python3 perfbench/forged_reference.py [--pool-seed 1]

The forged workload verifies a pool of programs fixed by the pool seed; a
run's ``--seed`` picks one of the stored perturbations of each forged
measurement.  This command rebuilds the pool and decides every measurement
and variant by exhaustive cone enumeration over the database candidates
(about two minutes: too slow to run in every benchmark run), then writes
``perfbench/data/forged_reference.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import checks
import env
from workloads import (
    FORGED_MEASUREMENTS,
    FORGED_PROGRAMS,
    FORGED_REFERENCE,
    FORGED_VARIANTS,
    forged_program,
    register_groups,
)


def bruteforce_verdict(db, m, groups) -> bool:
    """Accepted iff some candidate entered with the empty call stack
    explains the measurement exactly."""

    def project(v):
        return tuple(sum(v[i] for i in group) for group in groups)

    for cand in db.entries.get((m.start, m.end), ()):
        if cand.start.stack != ():
            continue
        target = tuple(a - b for a, b in zip(m.delta, project(cand.base)))
        if checks.cone_bruteforce(target, [project(loop) for loop in cand.loops]):
            return True
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pool-seed", type=int, default=1)
    args = parser.parse_args(argv)
    fa, _ = env.import_flowattest()
    groups = register_groups(fa.default_event_table().counter_names)
    instances = []
    started = time.perf_counter()
    for index in range(FORGED_PROGRAMS):
        prog, _, pool = forged_program(fa, args.pool_seed, index)
        for forged, variants in pool:
            instances.append(
                [forged, [[list(m.delta), bruteforce_verdict(prog.db, m, groups)] for m in variants]]
            )
    forged = [v for f, variants in instances if f for v in variants]
    print(
        f"{len(instances)} measurements; {len(forged)} forged variants, "
        f"{sum(1 for _, accepted in forged if accepted)} of them accepted; "
        f"{time.perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    with open(FORGED_REFERENCE, "w") as out:
        json.dump(
            {
                "pool_seed": args.pool_seed,
                "programs": FORGED_PROGRAMS,
                "measurements": FORGED_MEASUREMENTS,
                "variants": FORGED_VARIANTS,
                "fields": ["forged", [["delta", "accepted"], "per variant"]],
                "instances": instances,
            },
            out,
            separators=(",", ":"),
        )
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The process pins string hashing,
imports flowattest from the checkout's ``src/`` (timing the import), sets
the workload up, then runs whole rounds of the workload's operations until
``--seconds`` have passed and at least 1,000 operations were attempted.
Only the calls into flowattest are timed, on the thread's CPU clock, and
each operation's time is its best over the rounds (see ``CLOCK`` and
``run_round``).  Every output is kept only as a digest, and every round
must reproduce the first round's digests.  Peak memory is read when the
timed phase ends.  An untimed round then recomputes the outputs, confirms
their digests and checks them against independent computations, and the
set-up is timed twice more.  The last line printed is one JSON object; the
exit status is 1 if any operation failed.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it wraps flowattest's layer functions, records spans
over the set-up and the first round, writes them to ``.bench_out/`` and
reports the per-layer metrics instead.  Later rounds run unwrapped, so the
run also measures the tracing overhead on identical work.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time
from array import array
from contextlib import nullcontext

import env
from tracer import Tracer
from workloads import WORKLOADS

MIN_OPS = 1000
# setup_s is the import plus the best of this many set-ups: one before the
# timed phase, the rest after the checks.  A slow spell of the shared host
# then moves one sample, not the figure.
SETUP_REPEATS = 3
# Every time the benchmark reports is read from the thread's CPU clock.  The
# benchmark is one thread doing no I/O once its inputs are made, so that is
# its wall time minus the time it was not running, whether another process
# ran or, through the kernel's paravirtual steal accounting, the hypervisor
# gave the virtual CPU to another guest.
CLOCK = time.thread_time_ns


def quantile(sorted_values, q: float):
    """Nearest-rank quantile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def digest(summary) -> bytes:
    """A compact fingerprint of an operation's summary, whose repr is canonical."""
    return hashlib.blake2b(repr(summary).encode(), digest_size=16).digest()


def run_round(workload, tracer: Tracer | None, best: array) -> tuple:
    """One pass over every operation: (output digests, the round's summed
    call time in ns, the whole round's (wall, CPU) time in ns).

    ``best[i]`` is lowered to operation i's time when this round's is
    shorter.  Every round repeats the same calls on the same inputs, so an
    operation takes longer in one round than in another only when
    something outside the program slowed the CPU: on a shared host a slow
    spell of a few milliseconds slows a handful of calls in a round, and
    one of tens of seconds most rounds of a run.  The fastest of an
    operation's repeats is the one least disturbed, as with ``timeit``.
    Keeping only the best time also keeps the run's memory from growing
    with its length.

    Each output is reduced to its digest as soon as its call is timed and
    then released, so no round holds its outputs.  An operation that raises
    has the digest ``None``.
    """
    op, summary, clock = workload.op, workload.summary, CLOCK
    wall, cpu = time.perf_counter_ns(), clock()
    digests = [None] * len(workload)
    total = 0
    for i in range(len(digests)):
        raised = None
        started = clock()
        try:
            if tracer is None:
                output = op(i)
            else:
                with tracer.span("bench.op"):
                    output = op(i)
        except Exception as exc:  # counted as a failed operation
            raised = exc
        took = clock() - started
        total += took
        if took < best[i]:
            best[i] = took
        if raised is not None:
            print(f"operation {i} raised {raised!r}", file=sys.stderr)
            continue
        digests[i] = digest(summary(output))
        del output
    return digests, total, (time.perf_counter_ns() - wall, clock() - cpu)


def check_round(workload, reference) -> dict[int, str]:
    """Recompute every output untimed, confirm it is the one the timed rounds
    produced, and check it: {operation index: problem}."""
    outputs = [None] * len(workload)
    problems: dict[int, str] = {}
    for i in range(len(outputs)):
        try:
            outputs[i] = workload.op(i)
        except Exception as exc:
            problems[i] = f"raised {exc!r}"
            continue
        if digest(workload.summary(outputs[i])) != reference[i]:
            problems[i] = "output differs from the timed rounds' output"
    for i, problem in workload.check(outputs).items():
        problems.setdefault(i, f"failed its check: {problem}")
    return problems


def layer_metrics(tracer: Tracer, import_s: float, traced_round: int, untraced_rounds) -> dict:
    names = tracer.names
    own = tracer.self_times()
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    for nid, start, end, ns in zip(tracer.name, tracer.start, tracer.end, own):
        name = names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + ns
        durations.setdefault(name, []).append(end - start)
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
    out.update(tracer.counts)
    cone = sorted(durations.get("cone.solve_cone", ())) or [0]
    out["cone.solve_cone.p50_us"] = quantile(cone, 0.50) / 1e3
    out["cone.solve_cone.p99_us"] = quantile(cone, 0.99) / 1e3

    def children_of(parent_name, child_name):
        return sum(
            1
            for nid, parent in zip(tracer.name, tracer.parent)
            if names[nid] == child_name and parent >= 0 and names[tracer.name[parent]] == parent_name
        )

    lookups = children_of("verify.verify_segment", "database.dedup_key")
    out["verify.cache_lookups"] = lookups
    out["verify.cache_hit_ratio"] = tracer.counts["verify.cache_hits"] / lookups if lookups else 0.0
    validates = children_of("attacks.mutate", "cfg.validate_trace")
    out["attacks.mutants_per_validate"] = tracer.counts["attacks.mutants"] / validates if validates else 0.0
    out["setup.import_s"] = import_s
    # Against the fastest untraced round, the least disturbed one.
    out["trace.overhead_pct"] = 100.0 * (traced_round / min(untraced_rounds) - 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = env.benchmark_spec()
        fa, import_s = env.import_flowattest()
    except (OSError, env.MissingProgram) as exc:
        print(f"cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    started = CLOCK()
    with tracer.span("bench.setup") if tracer is not None else nullcontext():
        workload = cls(fa, args.seed)
    setup_times = [(CLOCK() - started) / 1e9]
    # Set-up objects live for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()

    best = array("q", [2**63 - 1]) * len(workload)
    round_ns: list[int] = []
    # Whole rounds on the wall and the CPU clock: how much of the time the
    # process was kept from running.
    round_wall_ns = round_cpu_ns = 0
    bad_in_round: list[set[int]] = []
    reference = None
    began = time.perf_counter()
    while True:
        digests, total, (wall_ns, cpu_ns) = run_round(workload, tracer if not round_ns else None, best)
        round_ns.append(total)
        round_wall_ns += wall_ns
        round_cpu_ns += cpu_ns
        if reference is None:
            reference = digests
            if tracer is not None:
                tracer.uninstall()
        bad_in_round.append({i for i, d in enumerate(digests) if d is None or d != reference[i]})
        del digests
        if (
            time.perf_counter() - began >= args.seconds
            and len(round_ns) * len(workload) >= MIN_OPS
            and len(round_ns) >= (2 if tracer is not None else 1)
        ):
            break
    # The timed phase ends here: the checks' memory is not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = check_round(workload, reference)
    size = len(workload)
    if tracer is None:
        del workload
        gc.unfreeze()
        for _ in range(SETUP_REPEATS - 1):
            gc.collect()
            started = CLOCK()
            cls(fa, args.seed)
            setup_times.append((CLOCK() - started) / 1e9)
    for i, problem in sorted(problems.items()):
        print(f"operation {i}: {problem}", file=sys.stderr)
    # An output that fails its check is wrong in every round that made it.
    round_failed = [len(bad | problems.keys()) for bad in bad_in_round]
    failed = sum(round_failed)
    attempted = len(round_ns) * size
    print(
        f"{args.workload} seed {args.seed}: {attempted} operations in {len(round_ns)} rounds "
        f"of {size}, {failed} failed; the rounds ran for {round_cpu_ns / 1e9:.2f} s of "
        f"{round_wall_ns / 1e9:.2f} s"
    )

    if tracer is not None:
        os.makedirs(env.OUT, exist_ok=True)
        path = os.path.join(env.OUT, f"spans-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, env.ROOT)}")
        values = layer_metrics(tracer, import_s, round_ns[0], round_ns[1:])
        wanted = spec["per_layer"]
    else:
        typical = sorted(best)
        values = {
            "setup_s": import_s + min(setup_times),
            # Operations that passed, per second of their calls' best times.
            "ops_per_s": (size - failed / len(round_ns)) / (sum(best) / 1e9),
            "op_p50_us": quantile(typical, 0.50) / 1e3,
            "op_p99_us": quantile(typical, 0.99) / 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # Two runs with one seed must execute the same work, set iteration order
    # included.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())

"""Check that the benchmark repeats: two interleaved sets of runs per workload.

    python3 perfbench/steady.py [--runs 10] [--traced]

Runs every workload ``--runs`` times in each of two sets, set A on seeds
1..N and set B on seeds 101..100+N, alternating which set goes first, each
run as long as BENCHMARK.json's ``run_seconds``.  Runs are sequential, one
process at a time.  For every end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance over the median)
and whether the two sets agree within the metric's bound in
BENCHMARK.json: both spreads within the bound and the two medians apart by
no more than the bound, in either direction.  The share of failed
operations must be equal too.

With ``--traced`` it then makes two traced runs of each workload on seed 1,
checks that their per-layer counts repeat exactly, and prints the
per-layer breakdown with the tracing overhead.  Everything is also written
to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

import env

RUN = os.path.join(env.HERE, "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=900,
    )
    # Exit status 1 means some operation failed; the result still counts.
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def worse_by(metric: dict, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = env.benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for label in order:
                seed = i + 1 if label == "A" else i + 101
                results[w][label].append(run_once(w, seed, seconds, 0))
                print(f"run {i + 1}/{args.runs} {w} set {label} seed {seed}", file=sys.stderr)

    report: dict = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    all_agree = True
    for w in workloads:
        sets = results[w]
        shares = {
            label: {Fraction(r["failed"], r["attempted"]) for r in runs}
            for label, runs in sets.items()
        }
        same_share = len(shares["A"] | shares["B"]) == 1
        print(f"\n{w}: failed share {'equal' if same_share else 'DIFFERS'} "
              f"({sorted(map(str, shares['A'] | shares['B']))}); attempted "
              f"{min(r['attempted'] for r in sets['A'] + sets['B'])}.."
              f"{max(r['attempted'] for r in sets['A'] + sets['B'])}")
        print(f"  {'metric':12} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  verdict")
        rows = {}
        agree = same_share
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {
                label: summarize([r["metrics"][name]["value"] for r in runs])
                for label, runs in sets.items()
            }
            shift = worse_by(metric, stats["A"]["median"], stats["B"]["median"])
            ok = abs(shift) <= bound and all(s["spread"] <= bound for s in stats.values())
            agree = agree and ok
            rows[name] = {**stats, "worse_by": shift, "bound": bound, "agree": ok}
            for label in ("A", "B"):
                s = stats[label]
                verdict = (
                    f"B worse by {shift:+.3f}, bound {bound}: {'agree' if ok else 'DISAGREE'}"
                    if label == "B" else ""
                )
                print(f"  {name:12} {label:3} {s['median']:12.4f} {s['q1']:12.4f} "
                      f"{s['q3']:12.4f} {s['spread']:7.3f}  {verdict}")
        all_agree = all_agree and agree
        report["workloads"][w] = {"metrics": rows, "failed_share_equal": same_share, "agree": agree}

    if args.traced:
        for w in workloads:
            first, second = (run_once(w, 1, seconds, 1) for _ in range(2))
            counts_repeat = all(
                first["metrics"][m["name"]] == second["metrics"][m["name"]]
                for m in spec["per_layer"]
                if m["unit"] == "count"
            )
            print(f"\n{w} traced, seed 1: per-layer counts "
                  f"{'repeat exactly' if counts_repeat else 'DIFFER between two runs'}")
            for m in spec["per_layer"]:
                value = first["metrics"][m["name"]]["value"]
                if value:
                    print(f"  {m['name']:36} {value:14.6g} {m['unit']}")
            report["workloads"][w]["traced"] = {
                "metrics": {k: v["value"] for k, v in first["metrics"].items()},
                "counts_repeat": counts_repeat,
            }
            all_agree = all_agree and counts_repeat

    os.makedirs(env.OUT, exist_ok=True)
    with open(os.path.join(env.OUT, "steady.json"), "w") as out:
        json.dump(report, out, indent=1)
    print(f"\nall workloads {'agree' if all_agree else 'DO NOT all agree'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads.

Each workload is a class.  Its constructor is the set-up the run times: it
generates the inputs from the seed and makes every program call that
prepares the timed phase.  ``op(i)`` is one timed operation, a call into
flowattest; ``summary(output)`` is a value with a canonical repr that every
round must reproduce; and ``check(outputs)`` checks one round's outputs
against the computations in :mod:`checks`, returning {operation index:
problem}.

The workloads look flowattest functions up on their modules at call time,
so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
FORGED_REFERENCE = os.path.join(HERE, "data", "forged_reference.json")
# The forged workload's pool: programs, measurements per program, and stored
# perturbations per forged measurement.
FORGED_PROGRAMS = 64
FORGED_MEASUREMENTS = 32
FORGED_VARIANTS = 4
# Seed of the fixed program pools of replay and attack.  A run's seed
# varies what those pools are put through, not the pools themselves.
POOL_SEED = 1

# The register file of the limited-hardware experiments, by event name.
THREE_REGISTERS = (
    ("instret",),
    ("cond_branch_retired", "jal_retired", "jalr_retired"),
    ("int_load_retired",),
)


@dataclass
class Program:
    doc: dict
    cfg: object
    table: object
    db: object

    @property
    def is_point(self) -> dict:
        return {b["id"]: b["is_measurement_point"] for b in self.doc["blocks"]}

    @property
    def instructions(self) -> dict:
        return {b["id"]: b["instructions"] for b in self.doc["blocks"]}


def _table_document(names, attribution) -> dict:
    return {
        "counters": [{"name": n, "deterministic": True} for n in names],
        "attribution": attribution,
    }


def _candidate(db, m, accepting_id):
    """The database candidate a verifier's accepting id names."""
    return db.entries[(m.start, m.end)][int(accepting_id.rsplit("#", 1)[1])]


def _run_checks(items, outputs, check_one) -> dict[int, str]:
    failures = {}
    for i, (item, out) in enumerate(zip(items, outputs)):
        try:
            problem = check_one(item, out)
        except Exception as exc:  # a malformed output is a failed check
            problem = f"checker raised {exc!r}"
        if problem:
            failures[i] = problem
    return failures


class Replay:
    """Valid random walks replayed through ``measure`` and verified.

    The random programs and their walks are a fixed pool: even at density
    0.4 a few walks send the cone's bitset engine through boxes of millions
    of states, and peak memory follows the largest one a seed draws.  The
    seed draws the long signer runs and the order.
    """

    PROGRAMS = 600
    WALKS = 8
    LONG_RUNS = 24
    # Measurement-point density of the random programs.  At the soundness
    # criterion's 0.2, long 4- and 5-counter segments reach the cone
    # solver's bitset engine with boxes of tens of millions of states: a
    # handful of walks per seed then take 0.1-0.6 s each and decide half of
    # a round's time, so no two seeds agree.  Those cases are the forged
    # workload's business; here the cone is meant to do little.
    POINT_DENSITY = 0.4

    def __init__(self, fa, seed: int):
        self.fa = fa
        pool = random.Random(POOL_SEED)
        self.items: list[tuple[Program, object, dict]] = []
        for _ in range(self.PROGRAMS):
            names, attribution = gen.random_attribution(pool, pool.randint(2, 5))
            doc = gen.random_program(pool, names, self.POINT_DENSITY)
            table = fa.load_event_table(_table_document(names, attribution))
            cfg = fa.load_cfg(doc)
            prog = Program(doc, cfg, table, fa.enumerate_segments(cfg, table))
            for _ in range(self.WALKS):
                trace = fa.random_valid_walk(cfg, pool.randrange(1 << 31), max_segments=4)
                self.items.append((prog, trace, attribution))
        rng = random.Random(seed)
        # Long signing runs with a measurement point inside the loop nest:
        # their repeated segments are what the dedup cache answers.
        table = fa.default_event_table()
        doc = fa.demos.signer_cfg(True)
        cfg = fa.load_cfg(doc)
        signer = Program(doc, cfg, table, fa.enumerate_segments(cfg, table))
        attribution = {m: list(v) for m, v in table.attribution.items()}
        for _ in range(self.LONG_RUNS):
            steps = fa.demos.signer_trace(
                rng.randint(50, 300), rng.choice((0, 7, 25)), True
            )
            self.items.append((signer, fa.BlockTrace(tuple(steps)), attribution))
        rng.shuffle(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def op(self, i):
        prog, trace, _ = self.items[i]
        measurements = self.fa.measure(prog.cfg, prog.table, None, trace)
        return measurements, self.fa.verify_trace_measurements(prog.db, measurements)

    @staticmethod
    def summary(out):
        measurements, report = out
        return (
            tuple(m.delta for m in measurements),
            tuple((r.verdict, r.witness, r.accepting) for r in report.results),
        )

    def check(self, outputs) -> dict[int, str]:
        return _run_checks(self.items, outputs, self._check_one)

    @staticmethod
    def _check_one(item, out) -> str | None:
        prog, trace, attribution = item
        measurements, report = out
        segments = checks.split_at_points(trace.steps, prog.is_point)
        if len(measurements) != len(segments):
            return f"{len(measurements)} measurements for {len(segments)} segments"
        instructions = prog.instructions
        for k, (seg, m) in enumerate(zip(segments, measurements)):
            if (m.start, m.end) != (seg[0], seg[-1]):
                return f"segment {k} measured between the wrong points"
            if m.delta != checks.tally(attribution, instructions, seg[1:]):
                return f"segment {k}: measured delta differs from the instruction tally"
        if not report.accepted or len(report.results) != len(measurements):
            return f"valid trace rejected at segment {report.rejected_at}"
        for k, (result, m) in enumerate(zip(report.results, measurements)):
            if result.witness is None:
                return f"segment {k} accepted without a witness"
            cand = _candidate(prog.db, m, result.accepting[0])
            if checks.reconstruct(cand.base, cand.loops, result.witness) != m.delta:
                return f"segment {k}: witness does not reconstruct the measured delta"
        return None


def forged_program(fa, pool_seed: int, index: int):
    """Pool program ``index``: a loop-nest program, its database and
    FORGED_MEASUREMENTS single-segment measurements under the three-register
    file.  Every second measurement is forged: it comes in FORGED_VARIANTS
    perturbations, each counter moved by up to a tenth of its value as the
    ``random_change`` mutation does.

    Returns (program, config, [(forged, [measurement per variant])]); an
    unforged measurement has one variant.  Shared by the workload and the
    command that computes the reference verdicts.
    """
    rng = random.Random(pool_seed * 1000 + index)
    table = fa.default_event_table()
    config = fa.three_register_config(table)
    doc = gen.loop_nest_program(rng, list(table.counter_names))
    cfg = fa.load_cfg(doc)
    prog = Program(doc, cfg, table, fa.enumerate_segments(cfg, table))
    instances = []
    for j in range(FORGED_MEASUREMENTS):
        steps = gen.walk_one_segment(doc, rng, rng.choice((8, 16, 32)))
        (m,) = fa.measure(cfg, table, config, fa.BlockTrace(steps))
        bounds = [v // 10 for v in m.delta]
        if j % 2 == 0 or not any(bounds):
            instances.append((False, [m]))
            continue
        forged = []
        for _ in range(FORGED_VARIANTS):
            while True:
                change = [rng.randint(-b, b) for b in bounds]
                if any(change):
                    break
            forged.append(fa.Measurement(m.start, m.end, tuple(v + c for v, c in zip(m.delta, change))))
        instances.append((True, forged))
    return prog, config, instances


def register_groups(counters) -> list[tuple[int, ...]]:
    index = {name: i for i, name in enumerate(counters)}
    return [tuple(index[name] for name in group) for group in THREE_REGISTERS]


class Forged:
    """Single-segment measurements of loop nests, half of them forged,
    verified through the three-register file.

    Every run verifies the whole pool of reference programs; the seed picks
    which perturbation of each forged measurement is used, and the order.
    A run thus always contains the pool's hardest segments, and its cost
    does not swing with whether a seed happened to draw them.
    """

    def __init__(self, fa, seed: int):
        self.fa = fa
        with open(FORGED_REFERENCE) as f:
            ref = json.load(f)
        per_program = FORGED_MEASUREMENTS
        if len(ref["instances"]) != FORGED_PROGRAMS * per_program:
            raise ValueError(f"{FORGED_REFERENCE} is for another pool; run forged_reference.py")
        rng = random.Random(seed)
        self.items = []
        for index in range(FORGED_PROGRAMS):
            prog, config, pool = forged_program(fa, ref["pool_seed"], index)
            expected = ref["instances"][index * per_program : (index + 1) * per_program]
            for (forged, variants), (ref_forged, ref_variants) in zip(pool, expected):
                pick = rng.randrange(len(variants))
                m = variants[pick]
                ref_delta, ref_accepted = ref_variants[pick]
                # The stored verdict speaks of the stored delta only.
                same = forged == ref_forged and list(m.delta) == ref_delta
                self.items.append((prog, config, m, forged, ref_accepted if same else None))
        rng.shuffle(self.items)
        self.groups = register_groups(fa.default_event_table().counter_names)

    def __len__(self) -> int:
        return len(self.items)

    def op(self, i):
        prog, config, m, _, _ = self.items[i]
        return self.fa.verify_trace_measurements(prog.db, [m], config=config)

    @staticmethod
    def summary(report):
        return tuple((r.verdict, r.witness, r.accepting) for r in report.results)

    def check(self, outputs) -> dict[int, str]:
        return _run_checks(self.items, outputs, self._check_one)

    def _check_one(self, item, report) -> str | None:
        prog, _, m, forged, expected = item
        if expected is None:
            return "measurement differs from the one the reference verdict was computed for"
        if not forged and not report.accepted:
            return "unforged measurement rejected"
        if report.accepted != expected:
            return f"verdict {report.accepted}, brute force says {expected}"
        if report.accepted:
            (result,) = report.results
            cand = _candidate(prog.db, m, result.accepting[0])
            if checks.reconstruct(cand.base, cand.loops, result.witness, self.groups) != m.delta:
                return "witness does not reconstruct the measured delta"
        return None


class Preprocess:
    """Segment databases of programs mixing branch cascades, loop nests and
    call sites."""

    PROGRAMS = 1000
    # Every CASCADE_EVERY-th program carries a cascade; their depths cycle
    # through CASCADE_LAYERS, so each round does the same amount of path
    # enumeration whatever the seed.
    CASCADE_EVERY = 8
    CASCADE_LAYERS = (7, 8, 9, 10, 11)
    CHECK_WALKS = 3

    def __init__(self, fa, seed: int):
        self.fa = fa
        rng = random.Random(seed)
        self.table = fa.default_event_table()
        counters = list(self.table.counter_names)
        self.items = []
        for p in range(self.PROGRAMS):
            layers = None
            if p % self.CASCADE_EVERY == 0:
                layers = self.CASCADE_LAYERS[p // self.CASCADE_EVERY % len(self.CASCADE_LAYERS)]
            doc, cascades = gen.mixed_program(rng, counters, layers)
            self.items.append((doc, fa.load_cfg(doc), cascades, rng.randrange(1 << 31)))

    def __len__(self) -> int:
        return len(self.items)

    def op(self, i):
        return self.fa.enumerate_segments(self.items[i][1], self.table)

    @staticmethod
    def summary(db):
        return (db.cfg_digest, db.counters, sorted(db.entries.items()), sorted(db.skip_segments))

    def check(self, outputs) -> dict[int, str]:
        return _run_checks(self.items, outputs, self._check_one)

    def _check_one(self, item, db) -> str | None:
        fa = self.fa
        doc, cfg, cascades, walk_seed = item
        attribution = self.table.attribution
        instructions = {b["id"]: b["instructions"] for b in doc["blocks"]}

        def delta(bid):
            return checks.tally(attribution, instructions, [bid])

        for start, end, ranks in cascades:
            expected = checks.cascade_bases([[delta(b) for b in rank] for rank in ranks], delta(end))
            found = db.entries.get((start, end), ())
            if {c.base for c in found} != expected or any(c.loops for c in found):
                return f"cascade {start} -> {end}: base vectors differ from its construction"
        for w in range(self.CHECK_WALKS):
            trace = fa.random_valid_walk(cfg, walk_seed + w, max_segments=4)
            measurements = fa.measure(cfg, self.table, None, trace)
            if not fa.verify_trace_measurements(db, measurements).accepted:
                return f"valid walk {w} rejected by the database"
        return None


class Attack:
    """Mutation experiments: the three shipped signer manifests plus random
    programs at three measurement-point densities, measured through the
    three-register file (the signer manifests cover 17 counters).

    The random programs and their walks are a fixed pool: some programs
    take seconds to build a database for, and set-up time would follow
    whether a seed drew one.  The seed draws each program's mutation seed.
    """

    RANDOM_PROGRAMS = 1000
    REPS = 10
    DENSITIES = (0.1, 0.25, 0.5)

    def __init__(self, fa, seed: int):
        self.fa = fa
        attacks, demos = fa.attacks, fa.demos
        self.table = table = fa.default_event_table()
        three = fa.three_register_config(table)
        # The shipped manifests: seed 7, 100 repetitions, a 60-pass run.
        signer_specs = [attacks.MutationSpec(k, 100, 7) for k in attacks.MUTATION_KINDS]
        self.items = []
        for label, in_loop, config in (
            ("basic", False, three),
            ("added_counters", False, None),
            ("added_ecalls", True, None),
        ):
            cfg = fa.load_cfg(demos.signer_cfg(in_loop))
            trace = fa.BlockTrace(tuple(demos.signer_trace(60, 25, in_loop)))
            db = fa.enumerate_segments(cfg, table)
            self.items.append((label, cfg, db, trace, signer_specs, config))
        pool, rng = random.Random(POOL_SEED), random.Random(seed)
        counters = list(table.counter_names)
        for p in range(self.RANDOM_PROGRAMS):
            doc = gen.random_program(pool, counters, self.DENSITIES[p % len(self.DENSITIES)])
            cfg = fa.load_cfg(doc)
            trace = fa.random_valid_walk(cfg, pool.randrange(1 << 31), max_segments=2)
            specs = attacks.default_specs(seed=rng.randrange(1000), repetitions=self.REPS)
            db = fa.enumerate_segments(cfg, table)
            self.items.append((f"random{p}", cfg, db, trace, specs, three))

    def __len__(self) -> int:
        return len(self.items)

    def op(self, i):
        _, cfg, db, trace, specs, config = self.items[i]
        return self.fa.attacks.evaluate(cfg, db, self.table, trace, specs, config=config)

    @staticmethod
    def summary(reports):
        return tuple(
            (
                kind,
                r.metric_uniform,
                r.metric_weighted,
                tuple((o.attempted, o.detected, o.excluded) for o in r.per_segment.values()),
            )
            for kind, r in sorted(reports.items())
        )

    def check(self, outputs) -> dict[int, str]:
        failures = _run_checks(self.items, outputs, self._check_one)
        try:
            index, problem = self._check_trends(outputs)
        except Exception as exc:  # a malformed output is a failed check
            index, problem = 0, f"checker raised {exc!r}"
        if problem:
            failures.setdefault(index, problem)
        return failures

    @staticmethod
    def _check_one(item, reports) -> str | None:
        specs = item[4]
        if sorted(reports) != sorted(s.kind for s in specs):
            return "not every mutation kind was reported"
        for spec in specs:
            r = reports[spec.kind]
            for o in r.per_segment.values():
                if not 0 <= o.detected <= o.attempted <= spec.reps:
                    return f"{spec.kind}: impossible counts {o.detected}/{o.attempted}"
            recomputed = checks.reliability(
                (o.frequency, o.instruction_count, o.attempted, o.detected, o.excluded)
                for o in r.per_segment.values()
            )
            if recomputed != (r.metric_uniform, r.metric_weighted):
                return f"{spec.kind}: reported metrics differ from the per-segment counts"
        return None

    @staticmethod
    def _check_trends(outputs) -> tuple[int, str | None]:
        """The paper's trends on the signer, as (operation blamed, problem):
        in-loop measurement points restore remove_block detection, and 17
        counters never detect less than three registers."""
        basic, wide, ecalls = outputs[:3]
        if not wide["remove_block"].metric_weighted < Fraction(1, 5):
            return 1, "remove_block weighted reliability without in-loop points is not below 1/5"
        if not ecalls["remove_block"].metric_weighted > Fraction(95, 100):
            return 2, "remove_block weighted reliability with in-loop points is not above 95/100"
        for kind, report in basic.items():
            if wide[kind].metric_weighted < report.metric_weighted:
                return 1, f"{kind}: 17 counters detect less than three registers"
        return 0, None


WORKLOADS = {
    "replay": Replay,
    "forged": Forged,
    "preprocess": Preprocess,
    "attack": Attack,
}

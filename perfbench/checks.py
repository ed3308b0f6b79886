"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports flowattest or anything heavy: the checks run in the
measured process after the timed phase, and must not move its set-up time
or its memory.  Each function recomputes a result from the inputs the
benchmark generated, by the plainest method available.
"""

from __future__ import annotations

from fractions import Fraction


def tally(attribution: dict, instructions: dict, steps) -> tuple[int, ...]:
    """Counter totals of ``steps``, one instruction and one counter at a time."""
    dim = len(next(iter(attribution.values())))
    total = [0] * dim
    for step in steps:
        for mnemonic in instructions[step]:
            vec = attribution[mnemonic]
            for i in range(dim):
                total[i] += vec[i]
    return tuple(total)


def split_at_points(steps, is_point) -> list[tuple[str, ...]]:
    """Snapshot-to-snapshot segments of a trace, sharing their endpoints."""
    marks = [i for i, step in enumerate(steps) if is_point[step]]
    return [tuple(steps[a : b + 1]) for a, b in zip(marks, marks[1:])]


def reconstruct(base, loops, witness, groups=None) -> tuple[int, ...]:
    """base + sum(witness_i * loop_i), summed into register groups if given."""
    full = list(base)
    for count, loop in zip(witness, loops, strict=True):
        for d, value in enumerate(loop):
            full[d] += count * value
    if groups is None:
        return tuple(full)
    return tuple(sum(full[i] for i in group) for group in groups)


def cone_bruteforce(target, generators) -> bool:
    """Whether ``target`` is a nonnegative integer combination of the
    (nonnegative) generators, by exhaustive search.

    Generator i takes every count from its cap down to 0 in turn; a
    (position, residual) pair once refuted is remembered, which keeps the
    search finite and, on these inputs, within seconds.
    """
    if any(t < 0 for t in target):
        return False
    order = sorted((g for g in generators if any(g)), key=lambda g: -sum(g))
    refuted: set = set()

    def search(pos: int, residual: tuple[int, ...]) -> bool:
        if not any(residual):
            return True
        if pos == len(order) or (pos, residual) in refuted:
            return False
        g = order[pos]
        cap = min(r // v for r, v in zip(residual, g) if v > 0)
        for x in range(cap, -1, -1):
            if search(pos + 1, tuple(r - x * v for r, v in zip(residual, g))):
                return True
        refuted.add((pos, residual))
        return False

    return search(0, tuple(target))


def cascade_bases(rank_deltas: list[list[tuple[int, ...]]], end_delta) -> set:
    """Every distinct counter sum of one block per rank, plus the end block."""
    sums = {tuple(end_delta)}
    for rank in rank_deltas:
        sums = {tuple(a + b for a, b in zip(s, d)) for s in sums for d in rank}
    return sums


def reliability(outcomes) -> tuple[Fraction, Fraction]:
    """(uniform, weighted) reliability from per-segment counts.

    ``outcomes`` holds (frequency, instruction_count, attempted, detected,
    excluded) per segment class.  Uniform averages each included segment
    occurrence's detection rate; weighted weighs it by instructions.
    """
    uniform_num = Fraction(0)
    weighted_num = Fraction(0)
    occurrences = 0
    instructions = 0
    for frequency, count, attempted, detected, excluded in outcomes:
        if excluded:
            continue
        rate = Fraction(detected, attempted) if attempted else Fraction(0)
        uniform_num += rate * frequency
        weighted_num += rate * frequency * count
        occurrences += frequency
        instructions += frequency * count
    if not occurrences:
        return Fraction(0), Fraction(0)
    uniform = uniform_num / occurrences
    weighted = weighted_num / instructions if instructions else Fraction(0)
    return uniform, weighted

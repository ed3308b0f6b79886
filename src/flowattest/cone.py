"""Exact integer-cone membership.

A measurement is valid for a candidate path exactly when the residual
``target = measured - base`` can be written as a nonnegative-integer
combination of the candidate's loop vectors.  This module decides that
membership exactly, with no floating point anywhere in the decision path,
and stops at the first exact hit - optimality is irrelevant.

Each node of the search (a box of bounds on the generator counts) goes
through one exact pipeline:

1. integer propagation: support reduction, per-dimension gcd and capacity
   pruning, forced-variable fixing (resolves most instances outright);
2. bitset reachability over the residual box, when the box is small enough
   to afford it - generators are nonnegative, so partial sums never leave
   the box and saturating one generator at a time is complete.  This is
   the workhorse for low-dimension/many-generator instances, where pure
   branch-and-bound degenerates;
3. an exact rational phase-1 simplex plus branching on a fractional
   variable for everything else (high-dimension instances, where the
   equality rows prune hard).

Root propagation alone decides a target with fewer than two nonzero
generators: with none, no generator covers a nonzero component; with one,
the generator is forced and its count is read off one component.  The
verifier's candidate table decides both shapes before calling here, a
generator-free candidate by comparing its base and a single-generator one
by :func:`single_generator_count`, with the count propagation would fix.
For two or more generators it first reads the candidate's :class:`Reach`,
the bitset sweep of one generator tuple over a box grown on demand, and
calls here only for a target the map cannot cover.

A lattice test runs between steps 1 and 2 only for boxes of more than
``_LATTICE_FIRST_BITS`` states and for nodes headed to the simplex: a
residual outside the integer lattice of the free generators has no
combination at all, so the node is pruned.  The bitset sweep is exact, so
on a small box that test could only repeat its verdict at a higher price.

The decision problem is NP-hard in general, so adversarial inputs outside
the reachability budget can still be slow; they remain exactly decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import le, mul

from .lattice import lattice_basis
from .vectors import Vec

# Bitset reachability is used when the box holds at most this many states
# and the estimated sweep work (one pass per copy of each generator, times
# bitmap words) is affordable.  Saturation doubles, so the estimate is a
# loose upper bound; it stays as it is so that no node changes engine.
_DP_BIT_LIMIT = 1 << 26
_DP_WORK_LIMIT = 80_000_000
# Boxes of at most this many states go straight to the bitset sweep; the
# lattice test runs first only on larger boxes and before the simplex.
_LATTICE_FIRST_BITS = 1 << 19


@dataclass
class ConeSolution:
    witness: tuple[int, ...] | None
    lp_solves: int


def _propagate(target: Vec, gens: list[Vec], lb: list[int], ub: list[int]):
    """Shrink a box exactly; returns None (infeasible),
    ('witness', assign) or ('open', lb, ub, residual)."""
    dim = len(target)
    k = len(gens)
    while True:
        residual = list(target)
        for i in range(k):
            if lb[i]:
                gi = gens[i]
                for d in range(dim):
                    residual[d] -= lb[i] * gi[d]
        if any(r < 0 for r in residual):
            return None
        for i in range(k):
            if ub[i] > lb[i]:
                cap = min(residual[d] // gens[i][d] for d in range(dim) if gens[i][d] > 0)
                if lb[i] + cap < ub[i]:
                    ub[i] = lb[i] + cap
        changed = False
        for d in range(dim):
            r = residual[d]
            if r == 0:
                continue
            cover = [i for i in range(k) if ub[i] > lb[i] and gens[i][d] > 0]
            if not cover:
                return None
            g = 0
            capacity = 0
            for i in cover:
                g = gcd(g, gens[i][d])
                capacity += (ub[i] - lb[i]) * gens[i][d]
            if r % g or capacity < r:
                return None
            if len(cover) == 1:
                # The only generator reaching this dimension is forced.
                i = cover[0]
                lb[i] += r // gens[i][d]
                ub[i] = lb[i]
                changed = True
                break
        if not changed:
            if all(r == 0 for r in residual):
                return ("witness", lb)
            return ("open", lb, ub, residual)


def _in_lattice(residual: list[int], basis: list[Vec]) -> bool:
    """Exact membership of ``residual`` in the integer lattice of ``basis``.

    Back-substitution over an echelon basis; a nonnegative combination need
    not exist, but a residual outside the lattice certainly has none.
    """
    r = list(residual)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x)
        q, rem = divmod(r[pivot], row[pivot])
        if rem:
            return False
        if q:
            r = [a - q * b for a, b in zip(r, row)]
    return all(x == 0 for x in r)


def _repeat_pattern(pattern: int, block_bits: int, reps: int) -> int:
    """Concatenate ``reps`` copies of a ``block_bits``-wide pattern."""
    built = pattern
    blocks = 1
    while blocks * 2 <= reps:
        built |= built << (blocks * block_bits)
        blocks *= 2
    remaining = reps - blocks
    if remaining:
        built |= (built & ((1 << (remaining * block_bits)) - 1)) << (blocks * block_bits)
    return built


def _dp_plan(residual: list[int], gens: list[Vec]):
    """Box geometry and work estimate for bitset reachability, or None."""
    bits = 1
    for r in residual:
        bits *= r + 1
        if bits > _DP_BIT_LIMIT:
            return None
    passes = 0
    for g in gens:
        passes += min(r // v for r, v in zip(residual, g) if v > 0) + 1
    if passes * (bits // 64 + 1) > _DP_WORK_LIMIT:
        return None
    strides = [0] * len(residual)
    stride = 1
    for d in reversed(range(len(residual))):
        strides[d] = stride
        stride *= residual[d] + 1
    return bits, strides


def _saturate(box: list[int], gens: list[Vec], strides: list[int]):
    """Yield each generator's shift and the reachable bitmap after its stage.

    One big integer is the bitmap of reachable box states, starting from
    the origin alone.  Because the generators are componentwise
    nonnegative, any sum can be built one generator at a time without ever
    leaving the box, so saturating each generator once covers every
    combination.  Saturation doubles: after step j every state gained
    0..2^j - 1 copies of the generator, and the mask keeps the states that
    can still take 2^j more, so about log2(cap) steps reach the fixed point
    of one-copy-at-a-time shifting.  Every generator must be nonzero and
    fit inside the box once; a zero shift would never clear its mask.
    """
    dim = len(box)
    reach = 1
    for g in gens:
        shift = sum(v * s for v, s in zip(g, strides))
        # Mask of source states s with s + g still inside the box.
        mask = (1 << (box[dim - 1] - g[dim - 1] + 1)) - 1
        for d in reversed(range(dim - 1)):
            mask = _repeat_pattern(mask, strides[d], box[d] - g[d] + 1)
        step = shift
        while mask:
            reach |= (reach & mask) << step
            mask &= mask >> step
            step <<= 1
        yield shift, reach


def _dp_reachable(residual: list[int], gens: list[Vec], plan) -> list[int] | None:
    """Exact reachability of ``residual`` by nonnegative generator sums.

    The bitmap after each generator's stage (:func:`_saturate`) is kept,
    so the witness can be read back afterwards: the reverse-lexicographic
    minimum, the fewest copies of the last generator, then of the one
    before it, and so on.  Every generator must be nonzero and fit inside
    the box once, as ``solve_cone`` guarantees.
    """
    _, strides = plan
    shifts = []
    snapshots = []
    reach = 1  # only the origin, before any generator is applied
    for shift, reach in _saturate(residual, gens, strides):
        shifts.append(shift)
        snapshots.append(reach)
    goal = sum(r * s for r, s in zip(residual, strides))
    if not (reach >> goal) & 1:
        return None
    # Walk the layers backwards: how many copies of each generator were
    # needed to first reach the goal within its snapshot.
    counts = [0] * len(gens)
    index = goal
    for i in reversed(range(len(gens))):
        previous = snapshots[i - 1] if i else 1
        while not (previous >> index) & 1:
            counts[i] += 1
            index -= shifts[i]
        assert index >= 0
    return counts


class Reach:
    """The reachability map of one generator tuple, grown on demand.

    The map is the bitset sweep over a box: the componentwise maximum of
    the targets it was asked to cover.  For every state of the box it
    holds the first stage (the index of the first generator, among those
    that fit the box) whose sweep reaches the state, or the number of
    stages for a state no stage reaches, as ``stages.bit_length()``
    bit-planes of ``bytes`` so that one bit read is O(1).  Partial sums toward a
    target never leave the box [0, target], so every stage restricted to a
    sub-box is that sub-box's own stage: one sweep over the box answers
    every target inside it with the witness the sweep over the target's
    own box would read back.

    A target outside the box grows it to the merged box, and re-sweeps,
    only when the merged box passes ``_dp_plan``; otherwise the map is
    left as it is and :func:`solve_cone` decides the target alone.
    :meth:`reaches` is the verdict alone for a point of the box, one stage
    read; :meth:`witness` reads the combination back.  A box that admits
    no generator has no stage, so it reports even the origin unreached: a
    zero target is decided before either is asked.

    The read-back jumps between stages.  From a state first reached at
    stage ``s > 0`` it steps back by stage ``s``'s generator until the
    state read is below ``s``: the number of steps is that generator's
    count, and the last read is the next stage to visit, so stages that
    add no copy are never read.  A state first reached at stage 0 is a
    multiple of stage 0's generator.  A witness thus costs
    ``1 + sum(counts of stages 1..)`` stage reads, an unreached target one.

    For a nonzero, nonnegative target the map covers, :meth:`witness` is
    :func:`solve_cone`'s witness, found with no simplex: such a target
    passes the bitset plan at the solver's root node too, where the
    sweep's reverse-lexicographic minimum is the minimum over all
    witnesses, since root propagation only removes non-witnesses and fixes
    what every witness shares.
    """

    __slots__ = ("_generators", "_active", "box", "_strides", "_used", "_shifts", "_planes")

    def __init__(self, generators: tuple[Vec, ...]):
        self._generators = generators
        self._active = [i for i, g in enumerate(generators) if any(g)]
        self.box: tuple[int, ...] | None = None

    def covers(self, target: Vec) -> bool:
        """Whether ``target`` lies in the box, after growing it if the
        merged box passes the bitset plan."""
        box = self.box
        if box is not None and all(map(le, target, box)):
            return True
        merged = list(target) if box is None else list(map(max, box, target))
        generators = self._generators
        used = [
            i for i in self._active if all(v <= b for v, b in zip(generators[i], merged))
        ]
        plan = _dp_plan(merged, [generators[i] for i in used])
        if plan is None:
            return False
        self._sweep(merged, used, plan)
        return True

    def _sweep(self, box: list[int], used: list[int], plan) -> None:
        size, strides = plan
        stages = len(used)
        planes = [0] * stages.bit_length()
        shifts = []
        reach = 1
        for stage, (shift, after) in enumerate(
            _saturate(box, [self._generators[i] for i in used], strides)
        ):
            shifts.append(shift)
            fresh = after & ~reach
            for b in range(len(planes)):
                if stage >> b & 1:
                    planes[b] |= fresh
            reach = after
        unreached = ((1 << size) - 1) & ~reach
        for b in range(len(planes)):
            if stages >> b & 1:
                planes[b] |= unreached
        nbytes = (size + 7) // 8
        self.box = tuple(box)
        self._strides = strides
        self._used = used
        self._shifts = shifts
        self._planes = [(1 << b, p.to_bytes(nbytes, "little")) for b, p in enumerate(planes)]

    def _stage(self, index: int) -> int:
        at, bit = index >> 3, index & 7
        stage = 0
        for weight, plane in self._planes:
            if plane[at] >> bit & 1:
                stage += weight
        return stage

    def reaches(self, target: Vec) -> bool:
        """Whether some combination reaches ``target``, a point of the box:
        one stage read.  The origin counts as reached only when some stage
        exists, so a box that admits no generator reaches nothing."""
        return self._stage(sum(map(mul, target, self._strides))) != len(self._used)

    def witness(self, target: Vec) -> tuple[int, ...] | None:
        """The reverse-lexicographic minimum witness of a nonzero target
        inside the box, or None when no combination reaches it."""
        used = self._used
        index = sum(map(mul, target, self._strides))
        stage_of = self._stage
        stage = stage_of(index)
        if stage == len(used):
            return None
        witness = [0] * len(self._generators)
        shifts = self._shifts
        while stage:
            # Copies of this stage's generator until the state was reached
            # by an earlier stage, which is the next stage to visit.
            shift = shifts[stage]
            count = 0
            read = stage
            while read >= stage:
                count += 1
                index -= shift
                read = stage_of(index)
            witness[used[stage]] = count
            stage = read
        # What is left was first reached by the first stage: copies of its
        # generator alone.
        witness[used[0]] = index // shifts[0]
        return tuple(witness)


def _lp_feasible(A: list[list[int]], b: list[int], caps: list[int]) -> list[Fraction] | None:
    """Exact phase-1 simplex for {z : A z = b, 0 <= z <= caps}.

    Cap rows start with their slack basic; equality rows start with an
    artificial.  Bland's rule on both the entering and leaving choice
    guarantees termination.  Returns a basic feasible point or None.
    """
    m1 = len(A)
    k = len(caps)
    ncols = 2 * k + m1
    zero = Fraction(0)
    one = Fraction(1)
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for r in range(m1):
        row = [Fraction(A[r][j]) for j in range(k)]
        row += [zero] * k
        row += [one if j == r else zero for j in range(m1)]
        row.append(Fraction(b[r]))
        tableau.append(row)
        basis.append(2 * k + r)
    for i in range(k):
        row = [zero] * ncols + [Fraction(caps[i])]
        row[i] = one
        row[k + i] = one
        tableau.append(row)
        basis.append(k + i)
    # Reduced costs for "minimize sum of artificials".
    obj = [zero] * (ncols + 1)
    for j in range(ncols + 1):
        total = sum(tableau[r][j] for r in range(m1))
        cost = one if 2 * k <= j < ncols else zero
        obj[j] = cost - total

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for r, row in enumerate(tableau):
            coeff = row[enter]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = r
        assert leave is not None, "phase-1 objective is bounded"
        pivot_row = tableau[leave]
        inv = one / pivot_row[enter]
        tableau[leave] = [x * inv for x in pivot_row]
        pivot_row = tableau[leave]
        for r, row in enumerate(tableau):
            if r != leave and row[enter] != 0:
                factor = row[enter]
                tableau[r] = [x - factor * p for x, p in zip(row, pivot_row)]
        if obj[enter] != 0:
            factor = obj[enter]
            obj = [x - factor * p for x, p in zip(obj, pivot_row)]
        basis[leave] = enter

    if -obj[-1] > 0:
        return None
    solution = [zero] * k
    for r, var in enumerate(basis):
        if var < k:
            solution[var] = tableau[r][-1]
    return solution


def first_positive(generator: Vec) -> int:
    """The first index where a nonnegative, nonzero ``generator`` is
    positive: the pivot of :func:`single_generator_count`."""
    return next(d for d, v in enumerate(generator) if v > 0)


def single_generator_count(target: Vec, generator: Vec, pivot: int) -> int | None:
    """The one count ``c >= 0`` with ``target == c * generator``, or None.

    ``generator`` is nonnegative and nonzero and ``pivot`` is its
    :func:`first_positive` index, so the pivot component fixes ``c``: one
    floor division, then a componentwise check, which also rejects any
    negative component of ``target``.  This is what :func:`solve_cone`'s
    root propagation decides for a lone generator (a remainder at the
    pivot or a mismatch elsewhere is infeasible), with the same unique
    witness; the verifier's table applies it so that single-generator
    candidates need no solver call.
    """
    count = target[pivot] // generator[pivot]
    if count < 0:
        return None
    for t, g in zip(target, generator):
        if t != count * g:
            return None
    return count


def solve_cone(target: Vec, generators: tuple[Vec, ...]) -> ConeSolution:
    """Nonnegative integer scalars with ``sum(x_i * v_i) == target`` as the
    witness, or None.  A target negative in some component is simply
    infeasible.  Fewer than two nonzero generators are decided by root
    propagation, with no simplex; one gives
    :func:`single_generator_count`'s witness.
    """
    dim = len(target)
    n = len(generators)
    if any(t < 0 for t in target):
        return ConeSolution(None, 0)
    if all(t == 0 for t in target):
        return ConeSolution((0,) * n, 0)
    active = [i for i, g in enumerate(generators) if any(g)]
    gens = [generators[i] for i in active]
    k = len(gens)

    def assemble(assign: list[int], lp_solves: int) -> ConeSolution:
        witness = [0] * n
        for idx, value in zip(active, assign):
            witness[idx] = value
        return ConeSolution(tuple(witness), lp_solves)

    root_ub = [
        min(target[d] // g[d] for d in range(dim) if g[d] > 0) for g in gens
    ]
    lp_solves = 0
    stack: list[tuple[list[int], list[int]]] = [([0] * k, root_ub)]
    while stack:
        lb, ub = stack.pop()
        outcome = _propagate(target, gens, lb, ub)
        if outcome is None:
            continue
        if outcome[0] == "witness":
            return assemble(outcome[1], lp_solves)
        _, lb, ub, residual = outcome
        free = [i for i in range(k) if ub[i] > lb[i]]
        usable = [i for i in free if all(v <= r for v, r in zip(gens[i], residual))]
        usable_gens = [gens[i] for i in usable]
        plan = _dp_plan(residual, usable_gens)

        # A residual outside the generators' integer lattice has no
        # combination at all, nonnegative or otherwise.  The bitset sweep
        # would reject it too, so small boxes skip this test.
        if plan is None or plan[0] > _LATTICE_FIRST_BITS:
            if not _in_lattice(residual, lattice_basis([gens[i] for i in free])):
                continue

        # When the residual box is small enough, bitset reachability decides
        # this node outright.  Generators that do not fit inside the box even
        # once can never be used and are left out.  A witness it finds
        # ignores branching bounds, but any nonnegative exact combination is
        # globally valid, and an unreachable residual prunes the node exactly.
        if plan is not None:
            counts = _dp_reachable(residual, usable_gens, plan)
            if counts is None:
                continue
            assign = list(lb)
            for i, count in zip(usable, counts):
                assign[i] += count
            return assemble(assign, lp_solves)

        rows = [d for d in range(dim) if residual[d] > 0]
        caps = [ub[i] - lb[i] for i in free]
        lp_solves += 1
        relaxed = _lp_feasible(
            [[gens[i][d] for i in free] for d in rows],
            [residual[d] for d in rows],
            caps,
        )
        if relaxed is None:
            continue
        fractional = [j for j, z in enumerate(relaxed) if z.denominator != 1]
        if not fractional:
            assign = list(lb)
            for j, z in enumerate(relaxed):
                assign[free[j]] += int(z)
            return assemble(assign, lp_solves)

        # Branch on the most fractional variable, nearest side first
        # (the stack is LIFO).
        frac_at = max(
            fractional,
            key=lambda j: min(
                relaxed[j] - (relaxed[j].numerator // relaxed[j].denominator),
                1 - (relaxed[j] - (relaxed[j].numerator // relaxed[j].denominator)),
            ),
        )
        i = free[frac_at]
        z = relaxed[frac_at]
        floor_x = lb[i] + z.numerator // z.denominator
        low = (list(lb), list(ub))
        low[1][i] = floor_x
        high = (list(lb), list(ub))
        high[0][i] = floor_x + 1
        if z - (z.numerator // z.denominator) >= Fraction(1, 2):
            stack.append(low)
            stack.append(high)
        else:
            stack.append(high)
            stack.append(low)
    return ConeSolution(None, lp_solves)

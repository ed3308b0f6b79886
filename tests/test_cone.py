import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flowattest import cone
from flowattest.cone import solve_cone
from flowattest.lattice import lattice_basis

from .oracles import cone_member_bruteforce


def _evaluates_to(witness, generators, target):
    dim = len(target)
    return (
        tuple(sum(x * g[d] for x, g in zip(witness, generators)) for d in range(dim))
        == target
    )


def test_zero_target_is_trivially_inside():
    assert solve_cone((0, 0), ((3, 1), (0, 2))).witness == (0, 0)


def test_forced_variable_with_bad_residue_is_outside():
    # x2 is forced to 2 by the second dimension; the residue (5,0) is not a
    # multiple of 3 in dimension 0.  Frozen against brute force.
    assert cone_member_bruteforce((7, 4), ((3, 0), (1, 2))) is None
    assert solve_cone((7, 4), ((3, 0), (1, 2))).witness is None


def test_small_feasible_instance():
    assert cone_member_bruteforce((5, 4), ((3, 0), (1, 2))) == (1, 2)
    assert solve_cone((5, 4), ((3, 0), (1, 2))).witness == (1, 2)


def test_negative_target_is_infeasible_not_an_error():
    solution = solve_cone((3, -1), ((1, 0), (0, 1)))
    assert solution.witness is None
    assert solution.lp_solves == 0


def test_zero_generators_are_tolerated():
    witness = solve_cone((4,), ((0,), (2,))).witness
    assert witness == (0, 2)


def test_no_generators():
    assert solve_cone((1, 1), ()).witness is None
    assert solve_cone((0, 0), ()).witness == ()


def test_all_zero_generators_cannot_reach_a_nonzero_target():
    for target, generators in (((1, 1), ()), ((3, 0, 2), ((0, 0, 0),) * 3), ((5,), ((0,),))):
        assert solve_cone(target, generators) == cone.ConeSolution(None, 0)
    assert solve_cone((0, 0), ((0, 0), (0, 0))) == cone.ConeSolution((0, 0), 0)


def test_requires_branching_when_relaxation_is_fractional():
    # 5a + 3b = N has rational solutions everywhere but integer ones need
    # search; N = 7 is the largest infeasible value.
    assert solve_cone((7,), ((5,), (3,))).witness is None
    witness = solve_cone((8,), ((5,), (3,))).witness
    assert witness is not None and _evaluates_to(witness, ((5,), (3,)), (8,))


def test_agreement_with_bruteforce_on_random_instances():
    rng = random.Random(9)
    for _ in range(600):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 5)
        gens = tuple(tuple(rng.randint(0, 12) for _ in range(dim)) for _ in range(n))
        if rng.random() < 0.4:
            xs = [rng.randint(0, 8) for _ in range(n)]
            target = tuple(
                sum(x * g[d] for x, g in zip(xs, gens)) for d in range(dim)
            )
        else:
            target = tuple(rng.randint(0, 60) for _ in range(dim))
        mine = solve_cone(target, gens)
        reference = cone_member_bruteforce(target, gens)
        assert (mine.witness is None) == (reference is None), (target, gens)
        if mine.witness is not None:
            assert _evaluates_to(mine.witness, gens, target), (target, gens, mine.witness)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda dim: st.tuples(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=9)] * dim),
                min_size=1,
                max_size=4,
            ),
            st.tuples(*[st.integers(min_value=0, max_value=40)] * dim),
        )
    )
)
def test_witnesses_always_evaluate_exactly(case):
    gens, target = case
    gens = tuple(gens)
    solution = solve_cone(target, gens)
    if solution.witness is not None:
        assert _evaluates_to(solution.witness, gens, target)
        assert all(x >= 0 for x in solution.witness)
    assert (cone_member_bruteforce(target, gens) is None) == (solution.witness is None)


def _criterion_2_shaped(rng, trial):
    dim = rng.randint(1, 4)
    count = rng.randint(1, 5)
    gens = tuple(tuple(rng.randint(0, 20) for _ in range(dim)) for _ in range(count))
    if trial % 3 == 0:
        xs = [rng.randint(0, 10) for _ in range(count)]
        target = tuple(min(200, sum(x * g[d] for x, g in zip(xs, gens))) for d in range(dim))
    else:
        target = tuple(rng.randint(0, 200) for _ in range(dim))
    return target, gens


def test_simplex_and_branching_alone_agree_with_bruteforce(monkeypatch):
    # With no bitset budget, every node takes the lattice test after
    # propagation, and every node those two leave open is decided by the
    # exact simplex plus branching.
    monkeypatch.setattr(cone, "_DP_BIT_LIMIT", 0)
    rng = random.Random(20_261_018)
    simplex_used = 0
    for trial in range(300):
        target, gens = _criterion_2_shaped(rng, trial)
        mine = solve_cone(target, gens)
        simplex_used += mine.lp_solves > 0
        reference = cone_member_bruteforce(target, gens)
        assert (mine.witness is None) == (reference is None), (target, gens)
        if mine.witness is not None:
            assert _evaluates_to(mine.witness, gens, target), (target, gens, mine.witness)
    assert simplex_used


def _dp_reachable_one_copy_at_a_time(residual, gens, plan):
    """Reference bitset sweep: each generator's masked shift repeats, one
    copy per pass, until the bitmap stops growing.  The doubling sweep
    must reach the same fixed point and read back the same counts."""
    bits, strides = plan
    dim = len(residual)
    shifts = []
    masks = []
    for g in gens:
        shifts.append(sum(v * s for v, s in zip(g, strides)))
        mask = (1 << (residual[dim - 1] - g[dim - 1] + 1)) - 1
        for d in reversed(range(dim - 1)):
            mask = cone._repeat_pattern(mask, strides[d], residual[d] - g[d] + 1)
        masks.append(mask)
    reach = 1
    snapshots = []
    for shift, mask in zip(shifts, masks):
        while True:
            grown = reach | ((reach & mask) << shift)
            if grown == reach:
                break
            reach = grown
        snapshots.append(reach)
    goal = sum(r * s for r, s in zip(residual, strides))
    if not (reach >> goal) & 1:
        return None
    counts = [0] * len(gens)
    index = goal
    for i in reversed(range(len(gens))):
        previous = snapshots[i - 1] if i else 1
        while not (previous >> index) & 1:
            counts[i] += 1
            index -= shifts[i]
    return counts


_EDGE_SIDES = (0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17)


def test_doubling_sweep_matches_one_copy_at_a_time():
    # A generator's cap is how many copies of it fit in the box.  Doubling
    # must stop exactly at the cap whether it is a power of two, one below
    # or one above; cap 0 is a generator one past the box's last side,
    # whose mask is empty from the start.
    rng = random.Random(20_261_019)
    caps_seen = set()
    zero_coordinate_seen = False
    outcomes = {True: 0, False: 0}
    for _ in range(2_000):
        dim = rng.randint(1, 4)
        residual = [
            rng.choice(_EDGE_SIDES) if rng.random() < 0.6 else rng.randint(0, 24)
            for _ in range(dim)
        ]
        if not any(residual):
            residual[rng.randrange(dim)] = rng.randint(1, 17)
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(0, r) if rng.random() < 0.7 else min(r, 1) for r in residual]
            if rng.random() < 0.1:
                g[-1] = residual[-1] + 1
            if not any(g):
                d = rng.choice([d for d in range(dim) if residual[d]])
                g[d] = rng.randint(1, residual[d])
            zero_coordinate_seen |= 0 in g and any(g)
            caps_seen.add(min(r // v for r, v in zip(residual, g) if v > 0))
            gens.append(tuple(g))
        plan = cone._dp_plan(residual, gens)
        assert plan is not None
        mine = cone._dp_reachable(residual, gens, plan)
        assert mine == _dp_reachable_one_copy_at_a_time(residual, gens, plan), (
            residual,
            gens,
        )
        outcomes[mine is not None] += 1
        if mine is not None:
            assert [sum(x * g[d] for x, g in zip(mine, gens)) for d in range(dim)] == residual
    assert {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17} <= caps_seen
    assert zero_coordinate_seen
    assert min(outcomes.values()) > 100


def test_lattice_test_is_only_a_shortcut(monkeypatch):
    # Running the lattice test before every bitset node, or before none,
    # must not change a witness or the simplex count: the sweep is exact.
    calls = {"n": 0}

    def counting_lattice_basis(vectors):
        calls["n"] += 1
        return lattice_basis(vectors)

    monkeypatch.setattr(cone, "lattice_basis", counting_lattice_basis)
    rng = random.Random(20_261_020)
    instances = [_criterion_2_shaped(rng, trial) for trial in range(300)]
    results = {}
    lattice_calls = {}
    for threshold in (0, cone._DP_BIT_LIMIT + 1):
        monkeypatch.setattr(cone, "_LATTICE_FIRST_BITS", threshold)
        calls["n"] = 0
        results[threshold] = [solve_cone(t, g) for t, g in instances]
        lattice_calls[threshold] = calls["n"]
    always, never = results[0], results[cone._DP_BIT_LIMIT + 1]
    assert [(s.witness, s.lp_solves) for s in always] == [
        (s.witness, s.lp_solves) for s in never
    ]
    assert lattice_calls[cone._DP_BIT_LIMIT + 1] < lattice_calls[0]
    for (target, gens), solution in zip(instances, always):
        reference = cone_member_bruteforce(target, gens)
        assert (solution.witness is None) == (reference is None), (target, gens)
        if solution.witness is not None:
            assert _evaluates_to(solution.witness, gens, target)


def test_lattice_test_still_runs_before_the_simplex(monkeypatch):
    # Every vector in the lattice of (1, 1) and (1, 3) has an even
    # difference of coordinates, and (3, 4) has an odd one.  Propagation
    # leaves it open and the relaxation x + y = 3, x + 3y = 4 is feasible,
    # so only the lattice test keeps the simplex from running.
    monkeypatch.setattr(cone, "_DP_BIT_LIMIT", 0)
    target, gens = (3, 4), ((1, 1), (1, 3))
    assert cone_member_bruteforce(target, gens) is None
    solution = solve_cone(target, gens)
    assert solution.witness is None
    assert solution.lp_solves == 0


def _reach_cases(rng):
    """(generators, targets) pairs: every tuple shape the map can hold, and
    target sequences that grow, shrink, repeat and change shape, so that
    the merged box ends up larger than any single target."""
    cases = [
        ((), [(0, 0), (2, 1), (-1, 0)]),
        (((0, 0), (0, 0)), [(0, 0), (3, 0), (0, -2)]),
        (((3,),), [(9,), (4,), (0,), (12,), (9,), (-3,)]),
        (((0, 2), (3, 1), (0, 0)), [(6, 2), (3, 5), (0, 0), (12, 4), (-1, 4), (6, 2)]),
        (((5,), (3,)), [(7,), (8,), (1,), (22,), (7,), (6,)]),
        (((1, 1), (1, 3)), [(3, 4), (2, 4), (5, 9), (0, 2), (3, 4)]),
    ]
    for _ in range(60):
        dim = rng.randint(1, 3)
        gens = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.15:
                gens.append((0,) * dim)
            else:
                gens.append(tuple(rng.randint(0, 6) for _ in range(dim)))

        def combination(scale):
            xs = [rng.randint(0, scale) for _ in gens]
            return tuple(sum(x * g[d] for x, g in zip(xs, gens)) for d in range(dim))

        def anywhere(side):
            return tuple(rng.randint(0, side) for _ in range(dim))

        growing = [combination(scale) for scale in (1, 2, 3, 5)]
        shrinking = [anywhere(side) for side in (30, 18, 9, 4)]
        # One long side per target, a different side each time.
        shapes = []
        for d in range(dim):
            shape = [rng.randint(0, 3) for _ in range(dim)]
            shape[d] = rng.randint(10, 30)
            shapes.append(tuple(shape))
        targets = growing + shrinking + shapes + [growing[-1], shrinking[0]]
        targets.append((0,) * dim)
        targets.append(tuple(-1 if d == 0 else t for d, t in enumerate(anywhere(5))))
        rng.shuffle(targets)
        cases.append((tuple(gens), targets))
    return cases


def test_reach_map_answers_as_the_solver_does(monkeypatch):
    # Each tuple's map sees its whole target sequence.  Every answer must be
    # the map-free solver's, witness and simplex count alike, and agree with
    # brute force; under small bit limits the map must fall back (or stay
    # small) exactly where the solver leaves the bitset sweep.
    rng = random.Random(20_261_021)
    cases = _reach_cases(rng)
    seen = {"inside": 0, "grown": 0, "fallback": 0, "simplex": 0, "infeasible": 0}
    for limit in (cone._DP_BIT_LIMIT, 300, 40, 0):
        monkeypatch.setattr(cone, "_DP_BIT_LIMIT", limit)
        for gens, targets in cases:
            reach = cone.Reach(gens)
            for target in targets:
                before = reach.box
                mine = solve_cone(target, gens, reach)
                alone = solve_cone(target, gens)
                assert mine == alone, (limit, gens, target, before, reach.box)
                reference = cone_member_bruteforce(target, gens)
                assert (mine.witness is None) == (reference is None), (gens, target)
                if mine.witness is not None:
                    assert _evaluates_to(mine.witness, gens, target)
                else:
                    seen["infeasible"] += 1
                seen["simplex"] += mine.lp_solves > 0
                if reach.box is None or any(t > b for t, b in zip(target, reach.box)):
                    seen["fallback"] += any(t > 0 for t in target) and all(
                        t >= 0 for t in target
                    )
                elif reach.box != before:
                    seen["grown"] += before is not None
                elif all(t >= 0 for t in target) and any(target):
                    seen["inside"] += 1
    assert min(seen.values()) > 20, seen


def test_single_generator_multiple_is_accepted_with_its_count():
    g = (0, 2, 3)
    assert cone.first_positive(g) == 1
    assert cone.single_generator_count((0, 8, 12), g, 1) == 4
    assert solve_cone((0, 8, 12), (g,)) == cone.ConeSolution((4,), 0)
    # Zero generators beside the lone active one get a zero count.
    assert solve_cone((0, 8, 12), ((0, 0, 0), g, (0, 0, 0))) == cone.ConeSolution((0, 4, 0), 0)


def test_single_generator_rejects_a_negative_count():
    g = (1, 2)
    assert cone.single_generator_count((-2, -4), g, 0) is None
    assert solve_cone((-2, -4), (g,)) == cone.ConeSolution(None, 0)


def test_single_generator_rejects_a_remainder_at_the_pivot():
    g = (3, 3)
    assert cone.single_generator_count((7, 6), g, 0) is None
    assert solve_cone((7, 6), (g,)) == cone.ConeSolution(None, 0)


def test_single_generator_rejects_a_mismatch_off_the_pivot():
    g = (2, 0, 1)
    for target in ((4, 1, 2), (4, 0, 3), (4, 0, -2)):
        assert cone.single_generator_count(target, g, 0) is None
        assert solve_cone(target, (g,)) == cone.ConeSolution(None, 0)


def test_single_generator_accepts_the_zero_target():
    g = (0, 5)
    assert cone.single_generator_count((0, 0), g, 1) == 0
    assert solve_cone((0, 0), (g,)) == cone.ConeSolution((0,), 0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any),
    st.lists(st.integers(-3, 20), min_size=4, max_size=4),
)
def test_single_generator_rule_agrees_with_bruteforce(generator, target):
    generator = tuple(generator)
    target = tuple(target[: len(generator)])
    count = cone.single_generator_count(target, generator, cone.first_positive(generator))
    reference = cone_member_bruteforce(target, (generator,))
    assert count == (None if reference is None else reference[0])
    assert solve_cone(target, (generator,)) == cone.ConeSolution(
        None if count is None else (count,), 0
    )

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from flowattest import cone
from flowattest.cone import solve_cone

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


def test_simplex_and_branching_alone_agree_with_bruteforce(monkeypatch):
    # With no bitset budget, every node that propagation and the lattice
    # test leave open is decided by the exact simplex plus branching.
    monkeypatch.setattr(cone, "_DP_BIT_LIMIT", 0)
    rng = random.Random(20_261_018)
    simplex_used = 0
    for trial in range(300):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 5)
        gens = tuple(tuple(rng.randint(0, 20) for _ in range(dim)) for _ in range(n))
        if trial % 3 == 0:
            xs = [rng.randint(0, 10) for _ in range(n)]
            target = tuple(
                min(200, sum(x * g[d] for x, g in zip(xs, gens))) for d in range(dim)
            )
        else:
            target = tuple(rng.randint(0, 200) for _ in range(dim))
        mine = solve_cone(target, gens)
        simplex_used += mine.lp_solves > 0
        reference = cone_member_bruteforce(target, gens)
        assert (mine.witness is None) == (reference is None), (target, gens)
        if mine.witness is not None:
            assert _evaluates_to(mine.witness, gens, target), (target, gens, mine.witness)
    assert simplex_used

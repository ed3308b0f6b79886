"""``lattice_basis`` checked in pure Python: Leibniz determinants, exact
rational solves and the gcd of maximal minors, none of which share the
basis's row reduction."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt, prod

from hypothesis import given
from hypothesis import strategies as st

from flowattest.lattice import lattice_basis


def _det(rows):
    """Leibniz determinant of a small square integer matrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def _gram(basis):
    """det(B Bᵀ): the squared covolume of the lattice ``basis`` spans."""
    return _det([[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis])


def _covolume(basis):
    """The covolume of a lattice whose Gram determinant is a square, and 0
    for the zero lattice."""
    if not basis:
        return 0
    gram = _gram(basis)
    root = isqrt(gram)
    assert root * root == gram
    return root


def _solve(basis, v):
    """The rational x with sum(x_i * basis_i) == v, or None; ``basis`` is
    linearly independent, so x is unique when it exists."""
    r, dim = len(basis), len(v)
    rows = [[Fraction(basis[i][d]) for i in range(r)] + [Fraction(v[d])] for d in range(dim)]
    pivots = []
    for col in range(r):
        at = next((i for i in range(len(pivots), dim) if rows[i][col]), None)
        if at is None:
            return None  # dependent rows: not a basis
        row = len(pivots)
        rows[row], rows[at] = rows[at], rows[row]
        rows[row] = [x / rows[row][col] for x in rows[row]]
        for i in range(dim):
            if i != row and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[row])]
        pivots.append(col)
    if any(rows[i][-1] for i in range(r, dim)):
        return None
    return [rows[i][-1] for i in range(r)]


def _minor_gcd(vectors, r):
    """gcd of every r x r minor of the matrix whose rows are ``vectors``."""
    g = 0
    dim = len(vectors[0])
    for picked in combinations(vectors, r):
        for cols in combinations(range(dim), r):
            g = gcd(g, _det([[v[c] for c in cols] for v in picked]))
    return g


def _spans_same_lattice(vectors, basis):
    """Every input is an integer combination of the basis rows, and the
    inputs' maximal minors have the basis's gcd.  By Cauchy-Binet the
    inputs' gcd is the basis's times the index of their lattice in the
    basis's, so equal gcds mean equal lattices."""
    nonzero = [v for v in vectors if any(v)]
    if not basis:
        return not nonzero
    for v in nonzero:
        x = _solve(basis, v)
        if x is None or any(c.denominator != 1 for c in x):
            return False
    return _minor_gcd(basis, len(basis)) == _minor_gcd(nonzero, len(basis))


def test_diagonal_basis_covolume():
    assert _covolume(lattice_basis([(2, 0), (0, 2)])) == 4


def test_unit_lattice_scores_one():
    assert _covolume(lattice_basis([(1, 0), (0, 1)])) == 1


def test_sheared_basis_covolume():
    # Row reduction of {(2,1),(1,2)} to a basis; |det| = 3.
    basis = lattice_basis([(2, 1), (1, 2)])
    assert (len(basis), _gram(basis)) == (2, 9)
    assert _covolume(basis) == 3


def test_empty_generators_score_zero():
    assert lattice_basis([]) == []
    assert lattice_basis([(0, 0)]) == []
    assert _covolume(lattice_basis([(0, 0)])) == 0


def test_rank_deficient_scored_in_span():
    # One generator (3,4): Gram det 25, covolume 5 exactly.
    assert _covolume(lattice_basis([(3, 4)])) == 5


def test_basis_spans_the_input_lattice_on_random_sets():
    rng = random.Random(11)
    ranks = set()
    for _ in range(200):
        dim = rng.randint(1, 4)
        vectors = [
            tuple(rng.randint(-3, 5) for _ in range(dim)) for _ in range(rng.randint(0, 5))
        ]
        basis = lattice_basis(vectors)
        # Echelon form: pivots move strictly right and are positive.
        pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        assert all(row[p] > 0 for row, p in zip(basis, pivots))
        assert _spans_same_lattice(vectors, basis)
        ranks.add(len(basis))
    assert ranks == {0, 1, 2, 3, 4}


def test_a_proper_sublattice_is_told_apart():
    # The helper itself: (2, 0), (0, 1) spans index 2 inside the unit lattice.
    assert not _spans_same_lattice([(2, 0), (0, 1)], [(1, 0), (0, 1)])
    assert _spans_same_lattice([(2, 0), (0, 1), (3, 0)], [(1, 0), (0, 1)])


@given(
    st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=9)] * 3),
        min_size=1,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_score_invariant_under_permutation_and_combinations(loops, rng):
    def profile(vectors):
        basis = lattice_basis(vectors)
        return len(basis), _gram(basis)

    base = profile(loops)
    shuffled = list(loops)
    rng.shuffle(shuffled)
    assert profile(shuffled) == base
    # Adding an integer combination of existing generators changes nothing.
    coeffs = [rng.randint(0, 3) for _ in loops]
    combo = tuple(sum(c * v[d] for c, v in zip(coeffs, loops)) for d in range(3))
    assert profile(loops + [combo]) == base


def test_gram_determinant_of_known_basis():
    basis = lattice_basis([(2, 0, 0), (0, 3, 0)])
    assert _gram(basis) == 36

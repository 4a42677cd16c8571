import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import linalg
from fedosov.rationals import parse_ratfun
from conftest import random_rational_function


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity():
    m = frac_matrix([[1, 0], [0, 1]])
    reduced, pivots = linalg.rref(m)
    assert reduced == m and pivots == [0, 1]


def test_rank_and_nullspace():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(m) == 2
    basis = linalg.nullspace(m)
    assert len(basis) == 1
    for row in m:
        assert sum(a * b for a, b in zip(row, basis[0])) == 0


def test_nullspace_of_empty_conditions():
    basis = linalg.nullspace([], ncols=3)
    assert len(basis) == 3


def test_solve_consistent_and_inconsistent():
    a = frac_matrix([[1, 1], [1, -1]])
    x = linalg.solve(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    b = frac_matrix([[1, 1], [2, 2]])
    assert linalg.solve(b, [Fraction(1), Fraction(3)]) is None


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if linalg.det(m) == 0:
            continue
        inv = linalg.inverse(m)
        assert linalg.matmul(m, inv) == [[Fraction(1) if i == j else Fraction(0)
                                          for j in range(n)] for i in range(n)]


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.inverse(frac_matrix([[1, 1], [1, 1]]))


def test_det_known_values():
    assert linalg.det(frac_matrix([[2, 0], [0, 3]])) == 6
    assert linalg.det(frac_matrix([[0, 1], [1, 0]])) == -1
    assert linalg.det(frac_matrix([[1, 2], [2, 4]])) == 0


def test_det_of_symmetric_parameter_matrices_matches_sympy():
    # the metric obstruction decides whether such a determinant vanishes
    import sympy

    from fedosov.rationals import Polynomial, RationalFunction

    params = ("t1", "t2", "t3")
    symbols = sympy.symbols(params)
    rng = random.Random(31)
    for trial in range(12):
        n = rng.randint(2, 4)
        coeffs = {}
        for i in range(n):
            for j in range(i, n):
                coeffs[i, j] = coeffs[j, i] = [rng.randint(-2, 2) if rng.random() < 0.6 else 0
                                               for _ in params]
        if trial % 4 == 0:  # a repeated row: the determinant is the zero polynomial
            for j in range(n):
                coeffs[1, j] = coeffs[j, 1] = coeffs[0, j]
        ours = linalg.det([[RationalFunction(Polynomial(params, {
            tuple(int(r == s) for s in range(3)): Fraction(c)
            for r, c in enumerate(coeffs[i, j])})) for j in range(n)] for i in range(n)])
        expected = sympy.Matrix(n, n, lambda i, j: sum(
            c * x for c, x in zip(coeffs[i, j], symbols))).det()
        ours_sym = (sympy.sympify(str(ours.num).replace("^", "**"))
                    / sympy.sympify(str(ours.den).replace("^", "**")))
        assert sympy.cancel(ours_sym - expected) == 0
        assert ours.is_zero() == (sympy.expand(expected) == 0)


def test_det_matches_permutation_expansion():
    rng = random.Random(9)
    import itertools
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        expected = Fraction(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            for s in range(n):
                if seen[s]:
                    continue
                length, pos = 0, s
                while not seen[pos]:
                    seen[pos] = True
                    pos = perm[pos]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            term = Fraction(sign)
            for i in range(n):
                term *= m[i][perm[i]]
            expected += term
        assert linalg.det(m) == expected


def test_certified_rank_matches_exact():
    rng = random.Random(21)
    for _ in range(30):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)]
        assert linalg.certified_rank(m) == linalg.rank(m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(Fraction(0)),
                                   st.fractions(max_denominator=10 ** 6)),
                         min_size=1, max_size=8),
                min_size=1, max_size=5))
def test_int_rows_matches_fraction_rescaling(matrix):
    """Each row is scaled by the lcm of its denominators, in integers."""
    rows = linalg._int_rows(matrix)
    for row, ints in zip(matrix, rows):
        scale = 1
        for x in row:
            scale = scale * x.denominator // math.gcd(scale, x.denominator)
        assert ints == [int(x * scale) for x in row]
        assert all(type(v) is int for v in ints)


def test_generic_field_elimination_with_rational_functions():
    x = parse_ratfun("x", ("x",))
    one = parse_ratfun("1", ("x",))
    m = [[x, one], [one, x]]
    d = linalg.det(m)
    assert d == parse_ratfun("x^2 - 1", ("x",))
    inv = linalg.inverse(m)
    prod = linalg.matmul(m, inv)
    assert prod[0][0] == 1 and prod[1][1] == 1
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def test_rank_over_function_field():
    rng = random.Random(4)
    f = random_rational_function(rng)
    g = random_rational_function(rng)
    while g.is_zero():
        g = random_rational_function(rng)
    # second row is a function-field multiple of the first
    row1 = [g, g * f]
    row2 = [g * g, g * g * f]
    assert linalg.rank([row1, row2]) == 1


# -- incremental echelon ---------------------------------------------------------------

SMALL = st.integers(min_value=-3, max_value=3).map(Fraction)


@st.composite
def vector_sequences(draw):
    """Small-integer vectors mixed with zeros, repeats, multiples and sums of earlier ones."""
    dim = draw(st.integers(min_value=1, max_value=5))
    vecs = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "multiple", "sum")
                                    if vecs else ("fresh", "zero")))
        if kind == "fresh":
            vec = draw(st.lists(SMALL, min_size=dim, max_size=dim))
        elif kind == "zero":
            vec = [Fraction(0)] * dim
        elif kind == "repeat":
            vec = list(draw(st.sampled_from(vecs)))
        elif kind == "multiple":
            scale = draw(st.sampled_from((Fraction(-2), Fraction(1, 2), Fraction(3, 5))))
            vec = [scale * x for x in draw(st.sampled_from(vecs))]
        else:
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            vec = [x + y for x, y in zip(a, b)]
        vecs.append(vec)
    return vecs


@settings(max_examples=200, deadline=None)
@given(vecs=vector_sequences())
def test_echelon_agrees_with_rank(vecs):
    echelon = linalg.Echelon()
    kept = []
    for vec in vecs:
        grows = linalg.rank(kept + [vec]) > linalg.rank(kept)
        assert (vec in echelon) is not grows
        added = echelon.add(vec)
        assert added is grows
        if added:
            kept.append(vec)
        assert vec in echelon
    greedy = []
    for vec in vecs:
        if linalg.rank(greedy + [vec]) > len(greedy):
            greedy.append(vec)
    assert kept == greedy


def _coords_by_solve(rows, vec):
    """Coordinates over independent rows by one fresh solve per vector (the old path)."""
    if not rows:
        return None if any(v != 0 for v in vec) else []
    return linalg.solve(linalg.transpose(rows), vec)


@settings(max_examples=200, deadline=None)
@given(vecs=vector_sequences(), probe=st.lists(SMALL, min_size=5, max_size=5))
def test_coordinates_agree_with_solve(vecs, probe):
    echelon = linalg.Echelon()
    basis = [vec for vec in vecs if echelon.add(vec)]
    coords = linalg.Coordinates(basis)
    dim = len(vecs[0]) if vecs else 3
    for vec in [*vecs, probe[:dim], [Fraction(0)] * dim]:
        expected = _coords_by_solve(basis, vec)
        assert coords(vec) == expected
        if expected is not None:
            assert all(isinstance(x, Fraction) for x in coords(vec))

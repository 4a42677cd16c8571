"""Scaled-integer change of basis and evaluation against the Fraction loops they replaced.

`symplectic.change_basis` (and so `models.push_tensor`) scales the tensor
and both matrices to ints by their own common denominators, runs
`_contract_slot` on the ints and divides each entry once.
`Polynomial.evaluate`, `RationalFunction.evaluate`, `charts.evaluate_tensor`
and `charts.evaluate_matrix` sum integer terms over one common denominator
and divide once.  Past `rationals.MAX_SCALE_BITS` the same kernels take the
Fraction values.  The oracles in conftest are the old Fraction loops.
Results must agree by value and by `str`, every returned entry must be a
`Fraction`, and poles and unassigned variables must raise the same errors
with the same messages, on both sides of the bound.  `rationals.divided`,
which forms each distinct int value's `Fraction` once, must equal the
per-entry `Fraction(v, den)`, and `rationals.scaled_entries` scales ints and
`Fraction`s and nothing else.  Zero entries are read
as Fraction(0) without evaluation, which keeps every pole because a zero
`RationalFunction` has denominator 1.  A last test pins that the adapter
lives in `rationals` alone.
"""

from __future__ import annotations

import ast
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fedosov import linalg, rationals
from fedosov.charts import (
    _curvature, chart_from_json, evaluate_matrix, evaluate_tensor, tilde_christoffel,
)
from fedosov.models import push_tensor
from fedosov.rationals import PoleError, Polynomial, RationalFunction, ScaledPoint, parse_ratfun
from fedosov.symplectic import CON, COV, Tensor, change_basis

from conftest import (
    PRODUCT_CHART, coprime_denominators, old_change_basis, old_polynomial_evaluate,
    old_ratfun_evaluate,
)

VARIABLES = ("u", "x", "y")


def _fraction(rng: random.Random, zero_share: float = 0.3) -> Fraction:
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.choice((-9, -5, -2, -1, 1, 3, 4, 7)), rng.choice((1, 2, 3, 4, 5, 7, 12)))


def _tensor(rng: random.Random, d: int, rank: int) -> Tensor:
    valence = tuple(rng.choice((COV, CON)) for _ in range(rank))
    return Tensor(d, valence, [_fraction(rng) for _ in range(d ** rank)])


def _matrix(rng: random.Random, d: int) -> tuple[list[list], list[list]]:
    """A non-integral invertible d x d matrix and its inverse."""
    while True:
        m = [[_fraction(rng, 0.2) for _ in range(d)] for _ in range(d)]
        if all(c.denominator == 1 for row in m for c in row):
            continue
        try:
            return m, linalg.inverse(m)
        except ValueError:
            pass


def _strs(values) -> list[str]:
    return [str(c) for c in values]


def assert_same_tensor(got: Tensor, expected: Tensor) -> None:
    assert got.valence == expected.valence
    assert got.comps == expected.comps
    assert _strs(got.comps) == _strs(expected.comps)
    assert all(type(c) is Fraction for c in got.comps)


# -- change of basis ---------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_change_basis_matches_oracle(scale_bound, d, rank):
    rng = random.Random(9100 + 10 * d + rank)
    for _ in range(3 if d ** rank <= 64 else 1):
        t = _tensor(rng, d, rank)
        m, minv = _matrix(rng, d)
        assert_same_tensor(change_basis(t, m, minv), old_change_basis(t, m, minv))
        assert_same_tensor(change_basis(t, m), old_change_basis(t, m, minv))
        assert_same_tensor(push_tensor(m, t, minv), old_change_basis(t, minv, m))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), rank=st.integers(min_value=1, max_value=3))
def test_drawn_change_basis_matches_oracle(data, rank):
    values = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    valence = tuple(data.draw(st.lists(st.sampled_from((COV, CON)), min_size=rank,
                                       max_size=rank)))
    t = Tensor(2, valence, data.draw(st.lists(values, min_size=2 ** rank, max_size=2 ** rank)))
    m = [data.draw(st.lists(values, min_size=2, max_size=2)) for _ in range(2)]
    assume(m[0][0] * m[1][1] != m[0][1] * m[1][0])
    minv = linalg.inverse(m)
    assert_same_tensor(change_basis(t, m, minv), old_change_basis(t, m, minv))


def test_int_entries_come_back_as_fractions():
    rng = random.Random(9200)
    t = Tensor(2, (COV, CON), [3, 0, -2, 5])
    m, minv = _matrix(rng, 2)
    assert_same_tensor(change_basis(t, m, minv),
                       old_change_basis(Tensor(2, t.valence, [Fraction(c) for c in t.comps]),
                                        m, minv))
    # a rank-0 tensor has no slot to contract
    assert_same_tensor(change_basis(Tensor(2, (), [4]), m, minv),
                       Tensor(2, (), [Fraction(4)]))


def test_rational_function_entries_take_the_unscaled_branch():
    rng = random.Random(9300)
    variables = ("x", "y")
    entries = [parse_ratfun(text, variables) for text in
               ("x/(2*y + 1)", "0", "-3/4", "x*y - 1/5", "1/(x - y)", "0", "y^2/3", "7")]
    t = Tensor(2, (COV, COV, CON), entries)
    m, minv = _matrix(rng, 2)
    got, expected = change_basis(t, m, minv), old_change_basis(t, m, minv)
    assert got.comps == expected.comps
    assert _strs(got.comps) == _strs(expected.comps)
    assert all(type(c) is RationalFunction for c in got.comps)


# -- change of basis above the bit bound ------------------------------------------------

def _bits(values) -> int:
    return math.lcm(*(c.denominator for c in values)).bit_length()


def test_tensor_above_bound_matches_oracle():
    # every entry over its own prime power: D has some 4,800 bits
    rng = random.Random(9400)
    t = Tensor(2, (COV, CON, COV), [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), q)
                                    for q in coprime_denominators(8, 600)])
    assert _bits(t.comps) > rationals.MAX_SCALE_BITS
    m, minv = _matrix(rng, 2)
    assert_same_tensor(change_basis(t, m, minv), old_change_basis(t, m, minv))


def test_matrix_above_bound_matches_oracle():
    # the tensor scales, the matrices do not
    rng = random.Random(9500)
    q1, q2 = coprime_denominators(2, 2500)
    m = [[Fraction(1, q1), Fraction(2, 3)], [Fraction(-5, 7), Fraction(3, q2)]]
    minv = linalg.inverse(m)
    assert _bits([x for row in m for x in row]) > rationals.MAX_SCALE_BITS
    for valence in ((COV,), (CON,), (COV, CON), (CON, CON, COV)):
        t = Tensor(2, valence, [_fraction(rng) for _ in range(2 ** len(valence))])
        assert_same_tensor(change_basis(t, m, minv), old_change_basis(t, m, minv))


def test_above_bound_tensor_matches_when_scaled(monkeypatch):
    # the same hostile tensor through the int path
    monkeypatch.setattr(rationals, "MAX_SCALE_BITS", 10 ** 6)
    rng = random.Random(9400)
    t = Tensor(2, (COV, CON, COV), [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), q)
                                    for q in coprime_denominators(8, 600)])
    m, minv = _matrix(rng, 2)
    assert_same_tensor(change_basis(t, m, minv), old_change_basis(t, m, minv))


# -- evaluation --------------------------------------------------------------------------

def _polynomial(rng: random.Random, variables=VARIABLES, terms: int = 4) -> Polynomial:
    """Up to `terms` terms of degree <= 3 per variable, coefficients over mixed denominators."""
    return Polynomial(variables, {tuple(rng.randint(0, 3) for _ in variables): _fraction(rng, 0.1)
                                  for _ in range(rng.randint(0, terms))})


def _point(rng: random.Random, variables=VARIABLES) -> dict:
    return {v: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 8))) for v in variables}


def assert_same_value(got, expected) -> None:
    assert got == expected
    assert type(got) is Fraction


def assert_same_evaluation(f: RationalFunction, point) -> None:
    """Same value, or the same PoleError message, as the oracle."""
    try:
        expected = old_ratfun_evaluate(f, point)
    except PoleError as err:
        with pytest.raises(PoleError) as got:
            f.evaluate(point)
        assert str(got.value) == str(err)
        return
    assert_same_value(f.evaluate(point), expected)


def test_seeded_evaluation_matches_oracle(scale_bound):
    rng = random.Random(9600)
    for _ in range(150):
        p, q = _polynomial(rng), _polynomial(rng)
        point = _point(rng)
        assert_same_value(p.evaluate(point), old_polynomial_evaluate(p, point))
        if not q.is_zero():
            assert_same_evaluation(RationalFunction(p, q), point)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_drawn_evaluation_matches_oracle(data):
    values = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    exponents = st.tuples(*(st.integers(0, 3) for _ in VARIABLES))
    p, q = (Polynomial(VARIABLES, data.draw(st.dictionaries(exponents, values, max_size=5)))
            for _ in range(2))
    point = {v: data.draw(values) for v in VARIABLES}
    assert_same_value(p.evaluate(point), old_polynomial_evaluate(p, point))
    if not q.is_zero():
        assert_same_evaluation(RationalFunction(p, q), point)


def test_tables_hold_only_the_powers_in_use(scale_bound):
    # Sparse high degrees share one point: each (variable, top degree) table
    # holds b^T and the powers that some term evaluated there uses, each
    # the integer a^e b^(T-e) of the full table.
    rng = random.Random(9650)
    point = _point(rng)
    shared = ScaledPoint(point)
    used: dict = {}
    for _ in range(40):
        p = Polynomial(VARIABLES, {tuple(rng.choice((0, 0, 1, 5, 40, 300)) for _ in VARIABLES):
                                   _fraction(rng, 0.1) for _ in range(rng.randint(1, 4))})
        assert_same_value(p.evaluate(shared), old_polynomial_evaluate(p, point))
        exponents = list(p.exponent_terms())
        if exponents:
            for v, column in zip(VARIABLES, zip(*exponents)):
                used.setdefault((v, max(column)), {0}).update(column)
    assert {key: set(table) for key, table in shared._tables.items()} == used
    for (v, top), table in shared._tables.items():
        value = Fraction(point[v])
        a, b = value.numerator, value.denominator
        if b.bit_length() > rationals.MAX_SCALE_BITS:
            a, b = value, 1
        assert table == {e: a ** e * b ** (top - e) for e in used[v, top]}
    assert sum(map(len, shared._tables.values())) < sum(top + 1 for _, top in used)


@pytest.mark.parametrize("text, point", [
    ("1/(4*x^2 - 1)", {"x": Fraction(1, 2)}),
    ("1/(4*x^2 - 1)", {"x": Fraction(-1, 2), "z": "junk"}),
    ("y/(x - y)", {"x": Fraction(3, 7), "y": Fraction(3, 7)}),
    ("(x + 1)/(3*x*y - 1)", {"x": 2, "y": Fraction(1, 6)}),
    ("x/(x^3 - 2*x*y + y)", {"x": Fraction(-1, 2), "y": "1/16"}),
])
def test_poles_raise_the_same_error(scale_bound, text, point):
    f = parse_ratfun(text)
    with pytest.raises(PoleError) as expected:
        old_ratfun_evaluate(f, point)
    with pytest.raises(PoleError) as got:
        f.evaluate(point)
    assert str(got.value) == str(expected.value)
    with pytest.raises(PoleError) as got:
        evaluate_tensor(Tensor(2, (COV,), [RationalFunction.constant(1, f.variables), f]), point)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [
    Polynomial(("x", "y"), {}),
    Polynomial.constant(Fraction(2, 3), ("x", "y")),
    Polynomial(("x", "y"), {(1, 0): Fraction(1, 2)}),
    RationalFunction.constant(0, ("x", "y")),
    RationalFunction.constant(5, ("x", "y")),
    parse_ratfun("x/(y + 1)", ("x", "y")),
])
def test_unassigned_variables_raise_the_same_error(scale_bound, value):
    point = {"x": Fraction(1, 3)}
    oracle = (old_polynomial_evaluate if isinstance(value, Polynomial) else old_ratfun_evaluate)
    with pytest.raises(ValueError) as expected:
        oracle(value, point)
    assert str(expected.value) == "unassigned variables: ['y']"
    with pytest.raises(ValueError) as got:
        value.evaluate(point)
    assert str(got.value) == str(expected.value)


def test_evaluate_tensor_and_matrix_match_oracle(scale_bound):
    rng = random.Random(9700)
    for _ in range(10):
        entries = [RationalFunction(_polynomial(rng), _polynomial(rng) + 1) for _ in range(7)]
        entries.append(Fraction(2, 3))
        point = _point(rng)
        try:
            expected = [old_ratfun_evaluate(c, point) if isinstance(c, RationalFunction) else c
                        for c in entries]
        except PoleError:
            continue
        tensor = evaluate_tensor(Tensor(2, (COV, COV, CON), entries), point)
        assert_same_tensor(tensor, Tensor(2, (COV, COV, CON), expected))
        matrix = evaluate_matrix([entries[:4], entries[4:]], point)
        assert matrix == [expected[:4], expected[4:]]
        assert all(type(c) is Fraction for row in matrix for c in row)
        # one ScaledPoint shared between calls gives the same values
        shared = ScaledPoint(point)
        assert evaluate_tensor(Tensor(2, (COV, COV, CON), entries), shared).comps == expected
        assert evaluate_matrix([entries[:4], entries[4:]], shared) == matrix


def test_zero_rational_functions_have_denominator_one():
    """Point evaluation skips zero entries; no pole is lost because a zero
    RationalFunction, however it was formed, has denominator 1."""
    rng = random.Random(11)
    one = Polynomial.constant(1, VARIABLES)
    for _ in range(200):
        f, g = RationalFunction(_polynomial(rng), _polynomial(rng) + 1), _polynomial(rng)
        zeros = [f - f, f * 0, 0 * f, f * (g - g), (f - f) / (f + 1), f + (-f),
                 RationalFunction.constant(0, VARIABLES), RationalFunction(g - g, g + 1)]
        zeros += [z.partial(v) for z in (f - f, RationalFunction.constant(3, VARIABLES))
                  for v in VARIABLES]
        for z in zeros:
            z = RationalFunction(z) if isinstance(z, Polynomial) else z
            assert z.is_zero() and z.den == one
    for text in ("0/(x - 1)", "(x - x)/(y^2 + 1)", "0*u/(u*x - y)"):
        assert parse_ratfun(text, VARIABLES).den == one


def test_zero_entries_are_not_evaluated(monkeypatch):
    # the product chart's shifted curvature has 4 nonzero entries of 256
    chart = chart_from_json(PRODUCT_CHART)
    curvature = _curvature(chart, tilde_christoffel(chart, chart.field_tensor("S")))
    point = {"x": Fraction(2), "y": Fraction(-1, 3), "u": Fraction(5, 7), "v": Fraction(3)}
    expected = [old_ratfun_evaluate(c, point) for c in curvature.comps]
    calls = []
    evaluate = RationalFunction.evaluate
    monkeypatch.setattr(RationalFunction, "evaluate",
                        lambda self, p: calls.append(self) or evaluate(self, p))
    assert_same_tensor(evaluate_tensor(curvature, point),
                       Tensor(chart.dim, curvature.valence, expected))
    assert len(calls) == sum(not c.is_zero() for c in curvature.comps) == 4
    calls.clear()
    assert evaluate_matrix(chart.omega, point) == [
        [old_ratfun_evaluate(c, point) for c in row] for row in chart.omega]
    assert len(calls) == sum(not c.is_zero() for row in chart.omega for c in row) == 4


# -- evaluation above the bit bound --------------------------------------------------------

def test_point_above_bound_matches_oracle():
    q1, q2 = coprime_denominators(2, 4200)
    point = {"u": Fraction(1, q1), "x": Fraction(-3, q2), "y": Fraction(2, 5)}
    assert q1.bit_length() > rationals.MAX_SCALE_BITS
    rng = random.Random(9800)
    for _ in range(10):
        p, q = _polynomial(rng), _polynomial(rng) + 1
        assert_same_value(p.evaluate(point), old_polynomial_evaluate(p, point))
        assert_same_evaluation(RationalFunction(p, q), point)


def test_coefficients_above_bound_match_oracle():
    q1, q2, q3 = coprime_denominators(3, 2500)
    p = Polynomial(("x", "y"), {(2, 0): Fraction(1, q1), (1, 1): Fraction(-2, q2),
                                (0, 3): Fraction(5, q3), (0, 0): Fraction(1, 3)})
    assert _bits(p.terms.values()) > rationals.MAX_SCALE_BITS
    den = Polynomial(("x", "y"), {(1, 0): 1, (0, 0): Fraction(-1, q1)})
    for point in ({"x": Fraction(2, 3), "y": Fraction(-1, 4)}, {"x": Fraction(1, q1), "y": 1}):
        assert_same_value(p.evaluate(point), old_polynomial_evaluate(p, point))
        assert_same_evaluation(RationalFunction(p, den), point)
        assert_same_evaluation(RationalFunction(den, p), point)


# -- dividing by the shared denominator -----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_divided_matches_per_entry_fractions(data):
    # zeros, +-v pairs and repeats drawn from a few magnitudes, some past
    # 2**64, with Fractions (the entries past the bound) among them
    magnitudes = data.draw(st.lists(st.integers(1, 12) | st.integers(2 ** 64, 2 ** 80),
                                    min_size=1, max_size=5))
    ints = st.sampled_from([0, *magnitudes, *(-v for v in magnitudes)])
    values = data.draw(st.lists(ints | st.fractions(max_denominator=9), max_size=30))
    den = data.draw(st.integers(1, 60) | st.integers(2 ** 64, 2 ** 70))
    got = rationals.divided(values, den)
    assert got == [Fraction(v, den) if type(v) is int else v / den for v in values]
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-2 ** 70, 2 ** 70) | st.fractions(max_denominator=30),
                       max_size=20))
def test_scaled_entries_take_ints_and_fractions_only(values):
    # ints and Fractions scale by the lcm of their denominators; one float
    # (which has an integer ratio too) or `RationalFunction` entry gives None
    scaled = rationals.scaled_entries(values)
    den = math.lcm(*(Fraction(v).denominator for v in values))
    assert scaled == ([int(v * den) for v in values], den)
    assert all(type(n) is int for n in scaled[0])
    for other in (0.5, 2.0, RationalFunction.variable("x")):
        assert rationals.scaled_entries(values + [other]) is None
        assert rationals.scaled_entries([other] + values) is None


# -- one adapter ------------------------------------------------------------------------

ADAPTER = ("MAX_SCALE_BITS", "scaled_entries", "divided")


def _definitions(tree: ast.Module) -> set[str]:
    """Names the module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _lcm_callers(tree: ast.Module) -> set[str]:
    """Names of the functions and methods that call an `lcm`."""
    return {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func) if isinstance(node, ast.Call)
            and "lcm" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_scaling_is_defined_in_rationals_alone():
    # the bound and the lcm-of-denominators scaling live in `rationals`, and
    # `decomposition`, `symplectic` and `linalg` import them; `models` imports
    # the unbounded `_scaled_ints`
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(rationals.__file__).parent.glob("*.py")}
    for name, tree in trees.items():
        found = _definitions(tree) & set(ADAPTER)
        assert found == (set(ADAPTER) if name == "rationals" else set()), name
    assert {name: callers for name, tree in trees.items()
            if (callers := _lcm_callers(tree))} == {
                "rationals": {"content", "scaled_entries", "_scaled_ints"}}
    adapter = {"scaled_entries", "divided"}
    for name, used in (("decomposition", adapter), ("symplectic", adapter),
                       ("linalg", {"scaled_entries"}), ("models", {"_scaled_ints"})):
        imported = {alias.name for node in trees[name].body if isinstance(node, ast.ImportFrom)
                    and node.module == "rationals" and node.level == 1 for alias in node.names}
        assert used <= imported, name

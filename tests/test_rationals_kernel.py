"""Differential tests of the integer-coefficient polynomial kernel.

`rationals.Polynomial` stores a coefficient as an `int` when it is integral
and as a `Fraction` otherwise, and `RationalFunction` skips its
normalization pass where the result is normal by construction.  The
private oracle below is the previous all-`Fraction` arithmetic, which ran
every result through the full normalization; both must give the same term
maps and the same printed form, on hypothesis-drawn polynomials and
rational functions over different variable tuples.  A second test pins the
coefficient-type invariant itself, a third compares the zero-operand fast
paths with the normalizing constructor, and a few seeded cases are checked
against `sympy.cancel`.  The oracle keys terms by exponent tuples and has no
degree limit, so seeded draws over 1-12 variables with exponents up to the
limit check the packed keys of `Polynomial`: their order, borrows in exact
division, the guard bits of products and the common-factor mask.  Seeded
tests check that the results normalized without the content pass have the
keys the full normalization gives, that partials are kept per instance, and
that exact division, which stops past the dividend's degrees, still finds
every exact quotient.  The last tests run every operation both on the
library and on its previous difference, normalization and product code
(kept below as private oracles) and require the same ordered, typed term
maps, printed forms and `DegreeError` texts; they also check that no
division by a one-term denominator is ever exact.  The tests of
`Polynomial._times` run rational functions with shared denominator objects
both on the library and on the previous plain products, and check that a
product is formed once, that a factor 1 gives the other factor and keeps no
memo, that a chart command leaves no memo alive, that memos are freed by
reference counting alone, and that a reused id misses.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import math
import operator
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import rationals
from fedosov.rationals import (
    MAX_DEGREE, DegreeError, ParseError, PoleError, Polynomial, RationalFunction, parse_ratfun,
)

from test_chart_derivatives import COORDS as CHART_COORDS, random_entry


# -- the oracle: all-Fraction coefficients, every result normalized -----------------


class _OraclePolynomial:
    def __init__(self, variables, terms):
        self.variables = tuple(variables)
        self.terms = {exp: Fraction(c) for exp, c in terms.items() if c != 0}

    @classmethod
    def constant(cls, value, variables=()):
        variables = tuple(variables)
        c = Fraction(value)
        return cls(variables, {(0,) * len(variables): c} if c else {})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get((0,) * len(self.variables)) == 1

    def embed(self, variables):
        variables = tuple(variables)
        if variables == self.variables:
            return self
        positions = [variables.index(v) for v in self.variables]
        terms = {}
        for exp, c in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(positions, exp):
                new[pos] = e
            terms[tuple(new)] = c
        return _OraclePolynomial(variables, terms)

    @staticmethod
    def _aligned(a, b):
        if a.variables == b.variables:
            return a, b
        merged = tuple(sorted(set(a.variables) | set(b.variables)))
        return a.embed(merged), b.embed(merged)

    def _coerced(self, other):
        if isinstance(other, _OraclePolynomial):
            return other
        return _OraclePolynomial.constant(other, self.variables)

    def __add__(self, other):
        a, b = _OraclePolynomial._aligned(self, self._coerced(other))
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            value = terms.get(exp, Fraction(0)) + c
            if value:
                terms[exp] = value
            else:
                terms.pop(exp, None)
        return _OraclePolynomial(a.variables, terms)

    def __neg__(self):
        return _OraclePolynomial(self.variables, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __mul__(self, other):
        a, b = _OraclePolynomial._aligned(self, self._coerced(other))
        terms = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                value = terms.get(exp, Fraction(0)) + ca * cb
                if value:
                    terms[exp] = value
                else:
                    terms.pop(exp, None)
        return _OraclePolynomial(a.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = _OraclePolynomial.constant(1, self.variables)
        for _ in range(k):
            result = result * self
        return result

    def partial(self, var):
        i = self.variables.index(var)
        terms = {}
        for exp, c in self.terms.items():
            if exp[i]:
                new = list(exp)
                new[i] -= 1
                terms[tuple(new)] = c * exp[i]
        return _OraclePolynomial(self.variables, terms)

    def evaluate(self, point):
        total = Fraction(0)
        for exp, c in self.terms.items():
            term = c
            for v, e in zip(self.variables, exp):
                term *= Fraction(point[v]) ** e
            total += term
        return total

    def content(self):
        if not self.terms:
            return Fraction(1)
        num, den = 0, 1
        for c in self.terms.values():
            num = math.gcd(num, abs(c.numerator))
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def min_exponents(self):
        if not self.terms:
            return (0,) * len(self.variables)
        return tuple(min(column) for column in zip(*self.terms))

    def shift_down(self, shift):
        return _OraclePolynomial(self.variables, {
            tuple(e - s for e, s in zip(exp, shift)): c for exp, c in self.terms.items()})

    def try_exact_div(self, den):
        a, b = _OraclePolynomial._aligned(self, den)
        if a.is_zero():
            return a
        lead_exp = max(b.terms)
        lead_c = b.terms[lead_exp]
        quotient = {}
        rest = dict(a.terms)
        while rest:
            exp = max(rest)
            diff = tuple(x - y for x, y in zip(exp, lead_exp))
            if any(d < 0 for d in diff):
                return None
            qc = rest[exp] / lead_c
            quotient[diff] = quotient.get(diff, Fraction(0)) + qc
            for eb, cb in b.terms.items():
                e = tuple(x + y for x, y in zip(diff, eb))
                value = rest.get(e, Fraction(0)) - qc * cb
                if value:
                    rest[e] = value
                else:
                    rest.pop(e, None)
        return _OraclePolynomial(a.variables, quotient)

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for exp in keys:
            c = self.terms[exp]
            factors = []
            for v, e in zip(self.variables, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mono = "*".join(factors)
            if not mono:
                text = str(abs(c))
            elif abs(c) == 1:
                text = mono
            else:
                text = f"{abs(c)}*{mono}"
            pieces.append(("-" if c < 0 else "+", text))
        out = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out


class _OracleRationalFunction:
    def __init__(self, num, den=None):
        if den is None:
            den = _OraclePolynomial.constant(1, num.variables)
        num, den = _OraclePolynomial._aligned(num, den)
        if num.is_zero():
            den = _OraclePolynomial.constant(1, num.variables)
        else:
            shift = tuple(min(a, b) for a, b in zip(num.min_exponents(), den.min_exponents()))
            if any(shift):
                num = num.shift_down(shift)
                den = den.shift_down(shift)
            scale = den.content()
            if den.terms[max(den.terms)] < 0:
                scale = -scale
            if scale != 1:
                num = num * (1 / scale)
                den = den * (1 / scale)
            if not den.is_one():
                quotient = num.try_exact_div(den)
                if quotient is not None:
                    num = quotient
                    den = _OraclePolynomial.constant(1, num.variables)
        self.num = num
        self.den = den

    def _coerced(self, other):
        if isinstance(other, _OracleRationalFunction):
            return other
        return _OracleRationalFunction(_OraclePolynomial.constant(other, self.num.variables))

    def __add__(self, other):
        other = self._coerced(other)
        if (self.den - other.den).is_zero():
            return _OracleRationalFunction(self.num + other.num, self.den)
        return _OracleRationalFunction(self.num * other.den + other.num * self.den,
                                       self.den * other.den)

    def __neg__(self):
        return _OracleRationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __mul__(self, other):
        other = self._coerced(other)
        return _OracleRationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerced(other)
        return _OracleRationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, k):
        return _OracleRationalFunction(self.num ** k, self.den ** k)

    def partial(self, var):
        dn = self.num.partial(var)
        if self.den.is_one():
            return _OracleRationalFunction(dn, self.den)
        dd = self.den.partial(var)
        return _OracleRationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def __str__(self):
        return str(self.num) if self.den.is_one() else f"({self.num})/({self.den})"


# -- strategies ----------------------------------------------------------------------

VARIABLE_TUPLES = [(), ("x",), ("y",), ("x", "y"), ("y", "x"), ("u", "x", "y")]

coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6),
              st.integers(min_value=1, max_value=4)),
)


@st.composite
def term_maps(draw, variables=None):
    if variables is None:
        variables = draw(st.sampled_from(VARIABLE_TUPLES))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3) for _ in variables])
    terms = draw(st.dictionaries(exponents, coefficients, max_size=4))
    return variables, terms


def _pair(variables, terms):
    return Polynomial(variables, terms), _OraclePolynomial(variables, terms)


def assert_same_poly(new, old):
    assert isinstance(new, Polynomial)
    assert new.variables == old.variables
    assert new.exponent_terms() == old.terms
    assert str(new) == str(old)


def assert_same_quotient(new, old):
    if old is None:
        assert new is None
    else:
        assert_same_poly(new, old)


def assert_same_ratfun(new, old):
    assert isinstance(new, RationalFunction)
    assert_same_poly(new.num, old.num)
    assert_same_poly(new.den, old.den)
    assert str(new) == str(old)


def assert_canonical(p: Polynomial):
    for c in p.terms.values():
        assert type(c) in (int, Fraction)
        assert c != 0
        assert (type(c) is int) == (Fraction(c).denominator == 1)


# -- polynomial operations -------------------------------------------------------------


def _poly_results(data):
    """(new result, oracle result) for every polynomial operation on drawn inputs."""
    p, op = _pair(*data.draw(term_maps()))
    q, oq = _pair(*data.draw(term_maps()))
    scalar = data.draw(coefficients)
    k = data.draw(st.integers(min_value=0, max_value=3))
    results = [
        (p + q, op + oq),
        (p - q, op - oq),
        (p * q, op * oq),
        (p ** k, op ** k),
        (p * scalar, op * scalar),
        (scalar * p, scalar * op),
        (p * Polynomial.constant(scalar, q.variables),
         op * _OraclePolynomial.constant(scalar, q.variables)),
        (-p, -op),
    ]
    results += [(p.partial(v), op.partial(v)) for v in p.variables]
    if not q.is_zero():
        results.append((p.try_exact_div(q), op.try_exact_div(oq)))
        results.append(((p * q).try_exact_div(q), (op * oq).try_exact_div(oq)))
    return p, op, results


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_polynomial_operations_match_oracle(data):
    p, op, results = _poly_results(data)
    for new, old in results:
        assert_same_quotient(new, old)
    point = {v: data.draw(coefficients) for v in p.variables}
    assert p.evaluate(point) == op.evaluate(point)


# -- rational-function operations -------------------------------------------------------


@st.composite
def ratfun_pairs(draw):
    num_vars, num_terms = draw(term_maps())
    den_vars, den_terms = draw(term_maps())
    num, onum = _pair(num_vars, num_terms)
    den, oden = _pair(den_vars, den_terms)
    if den.is_zero():
        return RationalFunction(num), _OracleRationalFunction(onum)
    return RationalFunction(num, den), _OracleRationalFunction(onum, oden)


def _ratfun_results(data):
    a, oa = data.draw(ratfun_pairs())
    b, ob = data.draw(ratfun_pairs())
    scalar = data.draw(coefficients)
    k = data.draw(st.integers(min_value=0, max_value=2))
    results = [
        (a, oa),
        (a + b, oa + ob),
        (a - b, oa - ob),
        (a * b, oa * ob),
        (a * scalar, oa * scalar),
        (-a, -oa),
        (a ** k, oa ** k),
    ]
    if not b.is_zero():
        results.append((a / b, oa / ob))
    results += [(a.partial(v), oa.partial(v)) for v in a.variables]
    return results


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rational_function_operations_match_oracle(data):
    for new, old in _ratfun_results(data):
        assert_same_ratfun(new, old)


# -- the coefficient-type invariant -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coefficients_are_int_exactly_when_integral(data):
    p, _, results = _poly_results(data)
    for new, _ in results:
        if new is not None:
            assert_canonical(new)
    for new, _ in _ratfun_results(data):
        assert_canonical(new.num)
        assert_canonical(new.den)
        try:
            value = new.evaluate({v: Fraction(1, 7) + i for i, v in enumerate(new.variables)})
        except PoleError:
            value = Fraction(0)
        assert type(value) is Fraction
        if new.is_constant():
            assert type(new.constant_value()) is Fraction
    point = {v: data.draw(coefficients) for v in p.variables}
    assert type(p.evaluate(point)) is Fraction
    if p.is_constant():
        assert type(p.constant_value()) is Fraction


def test_exact_division_quotients_are_never_floats():
    # 3x / 2x and (2x + 2) / 2: int / int must give an exact Fraction or an int.
    x = Polynomial(("x",), {(1,): 1})
    half = (x * 3).try_exact_div(x * 2).exponent_terms()[(0,)]
    assert type(half) is Fraction and half == Fraction(3, 2)
    quotient = (x * 2 + 2).try_exact_div(Polynomial.constant(2, ("x",)))
    assert quotient.exponent_terms() == {(1,): 1, (0,): 1}
    assert all(type(c) is int for c in quotient.terms.values())
    assert type(Polynomial.constant(Fraction(4, 2)).exponent_terms()[()]) is int


# -- the zero-operand fast paths -----------------------------------------------------------


def slow_sum(a, b, sign):
    return RationalFunction(a.num * b.den + b.num * a.den * sign, a.den * b.den)


def slow_product(a, b):
    return RationalFunction(a.num * b.num, a.den * b.den)


def ratfun_key(f):
    return f.variables, f.num.terms, f.den.terms


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32))
def test_zero_operands_match_the_constructor(seed):
    # A zero over the same variables makes a sum the other operand and a
    # product zero, without normalizing; over other variables (a permutation
    # included) the result is still over the merged tuple.
    x = random_entry(random.Random(seed))
    for variables in (CHART_COORDS, CHART_COORDS[::-1], ("x",), ("w",)):
        z = RationalFunction.constant(0, variables)
        merged = CHART_COORDS if variables == CHART_COORDS else \
            tuple(sorted(set(CHART_COORDS) | set(variables)))
        for got, want in ((x + z, slow_sum(x, z, 1)), (z + x, slow_sum(z, x, 1)),
                          (x - z, slow_sum(x, z, -1)), (z - x, slow_sum(z, x, -1)),
                          (x * z, slow_product(x, z)), (z * x, slow_product(z, x))):
            assert ratfun_key(got) == ratfun_key(want)
            assert got.variables == merged
    z = RationalFunction.constant(0, CHART_COORDS)
    assert x + z is x and z + x is x


# -- normalization without the content pass ------------------------------------------------


def _seeded_ratfun(rng):
    """A rational function over a tuple of VARIABLE_TUPLES, the unsorted one
    included.  Its numerator and denominator often share a monomial, and its
    denominator a content, such as 1/(2*x + 4), so that the normalized
    numerator has Fraction coefficients."""
    variables = rng.choice(VARIABLE_TUPLES[1:])

    def poly(size):
        return Polynomial(variables, {
            tuple(rng.randint(0, 2) for _ in variables):
                Fraction(rng.choice((-3, -2, -1, 1, 2, 4)), rng.choice((1, 1, 2, 3)))
            for _ in range(rng.randint(1, size))})

    num, den = poly(3), poly(3)
    if den.is_zero():
        den = Polynomial.constant(1, variables)
    monomial = Polynomial(variables, {tuple(rng.randint(0, 1) for _ in variables): 1})
    if rng.random() < 0.5:
        num, den = num * monomial, den * monomial
    return RationalFunction(num, den * rng.choice((1, 2, -2, 6, Fraction(1, 2))))


def _raw_sum(a, b):
    """The pair that a + b normalizes: one of its two branches."""
    if a.den == b.den:
        return a.num + b.num, a.den
    return a.num * b.den + b.num * a.den, a.den * b.den


def _raw_results(a, b, k):
    """(result, raw num, raw den) of each operation on normalized operands."""
    yield a * b, a.num * b.num, a.den * b.den
    yield (a + b, *_raw_sum(a, b))
    yield (a - b, *_raw_sum(a, -b))
    yield a ** k, a.num ** k, a.den ** k
    if not b.is_zero():
        yield a / b, a.num * b.den, a.den * b.num
    for v in a.variables:
        dn, dd = a.num.partial(v), a.den.partial(v)
        yield a.partial(v), dn * a.den - a.num * dd, a.den * a.den


def test_results_match_the_full_normalization():
    # Products, sums, powers and partials normalize a denominator that is a
    # product of normalized ones without the content pass; a quotient, whose
    # denominator holds a numerator, and a result over merged variables,
    # whose lex order can differ from an operand's, take the full pass.
    rng = random.Random(9300)
    # over ("y", "x") the lex-leading term of y - x is y; over ("x", "y") it is -x
    flipped = RationalFunction(Polynomial.constant(1, ("y", "x")),
                               Polynomial(("y", "x"), {(1, 0): 1, (0, 1): -1}))
    pool = [flipped, RationalFunction.variable("x")] + [_seeded_ratfun(rng) for _ in range(24)]
    assert any(type(c) is Fraction for f in pool for c in f.num.terms.values())
    for a, b in itertools.product(pool, repeat=2):
        for got, num, den in _raw_results(a, b, rng.randint(0, 3)):
            assert ratfun_key(got) == ratfun_key(RationalFunction(num, den))
            assert got.den.content() == 1 and got.den._leading()[1] > 0


def test_partials_are_formed_once_per_instance():
    rng = random.Random(9400)
    for _ in range(30):
        f = _seeded_ratfun(rng)
        oracle = _OracleRationalFunction(
            _OraclePolynomial(f.variables, f.num.exponent_terms()),
            _OraclePolynomial(f.variables, f.den.exponent_terms()))
        for v in f.variables:
            first = f.partial(v)
            assert_same_ratfun(first, oracle.partial(v))
            assert f.partial(v) is first
            for variables in (f.variables, tuple(sorted(set(f.variables) | {"w"}))):
                other = f.with_variables(variables)
                assert other.partial(v) is not first and other.partial(v) == first


# -- packed exponent vectors ----------------------------------------------------------------

# exponents at and just below the limit, and pairs that sum to it or past it
HIGH_EXPONENTS = (16383, 16384, 32766, MAX_DEGREE)


def _drawn_terms(rng, variables, size, high):
    """1 to `size` terms with exponents 0-3 and, when `high`, one field of
    one term drawn from HIGH_EXPONENTS."""
    terms = {}
    for _ in range(rng.randint(1, size)):
        exp = [rng.choice((0, 0, 1, 2, 3)) for _ in variables]
        terms[tuple(exp)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
    if high and variables:
        exp = list(rng.choice(list(terms)))
        exp[rng.randrange(len(variables))] = rng.choice(HIGH_EXPONENTS)
        terms[tuple(exp)] = Fraction(rng.choice((-1, 1, 7)))
    return terms


def _degree(p):
    return max((max(exp, default=0) for exp in p.terms), default=0)


def _checked_product(p, q, op, oq):
    """p * q against the oracle: the same polynomial, or DegreeError exactly
    when an exponent of the true product passes MAX_DEGREE."""
    want = op * oq
    if _degree(want) > MAX_DEGREE:
        with pytest.raises(DegreeError, match="over the limit of 32767 per variable"):
            p * q
        return None
    got = p * q
    assert_same_poly(got, want)
    return got, want


@pytest.mark.parametrize("width", range(1, 13))
def test_packed_polynomials_match_oracle(width):
    rng = random.Random(9100 + width)
    variables = tuple(f"x{i}" for i in range(width))
    for _ in range(40):
        # q over a random subset in random order, so that aligning re-packs
        q_vars = tuple(rng.sample(variables, rng.randint(1, width)))
        p, op = _pair(variables, _drawn_terms(rng, variables, 3, high=True))
        r, o_r = _pair(variables, _drawn_terms(rng, variables, 1, high=True))
        q, oq = _pair(q_vars, _drawn_terms(rng, q_vars, 3, high=False))
        small, o_small = _pair(variables, _drawn_terms(rng, variables, 3, high=False))
        assert_same_poly(p + q, op + oq)
        assert_same_poly(p - q, op - oq)
        assert_same_poly(-p, -op)
        for v in variables:
            assert_same_poly(p.partial(v), op.partial(v))
        for a, b, oa, ob in ((p, q, op, oq), (p, r, op, o_r), (r, r, o_r, o_r), (p, p, op, op)):
            product = _checked_product(a, b, oa, ob)
            if product is not None and not b.is_zero():
                assert_same_quotient(product[0].try_exact_div(b), product[1].try_exact_div(ob))
        # a monomial divisor is often smaller as an int than a term while
        # some field of it is larger: those divisions must give None
        for a, b, oa, ob in ((p, r, op, o_r), (small, r, o_small, o_r), (q, r, oq, o_r),
                             (small, q, o_small, oq)):
            assert_same_quotient(a.try_exact_div(b), oa.try_exact_div(ob))
        # normalization: the common monomial (through the nonzero-field mask)
        # and the sign of the lex-leading denominator term
        one, o_one = _pair(variables, {(0,) * width: 1})
        pairs = [(one, q, o_one, oq), (small, q, o_small, oq), (p, r, op, o_r)]
        if _degree(op * o_r) <= MAX_DEGREE:
            pairs.append((p * r, r * 3, op * o_r, o_r * 3))
        for num, den, o_num, o_den in pairs:
            assert_same_ratfun(RationalFunction(num, den), _OracleRationalFunction(o_num, o_den))


def test_exact_division_stops_past_the_dividend_degrees():
    # A term t of an exact quotient q = a/b has deg_v(t) + deg_v(b) <= deg_v(a)
    # in every variable v, so the division ends at the first quotient term
    # past that bound.  Exact divisions still find their quotients, and the
    # inexact ones give None as the oracle's unbounded division does.
    rng = random.Random(9500)
    variables = ("u", "x", "y")
    for _ in range(200):
        p_vars = tuple(rng.sample(variables, rng.randint(1, 3)))
        q_vars = tuple(rng.sample(variables, rng.randint(1, 3)))
        p, op = _pair(p_vars, _drawn_terms(rng, p_vars, 4, high=False))
        q, oq = _pair(q_vars, _drawn_terms(rng, q_vars, 3, high=False))
        assert_same_quotient((p * q).try_exact_div(q), (op * oq).try_exact_div(oq))
        assert_same_quotient(p.try_exact_div(q), op.try_exact_div(oq))
        assert_same_quotient((p * q).try_exact_div(p), (op * oq).try_exact_div(op))
    x, y = Polynomial(("x", "y"), {(1, 0): 1}), Polynomial(("x", "y"), {(0, 1): 1})
    for k in (1, 2, 7, 30):
        assert_same_quotient((x ** k).try_exact_div(x + y + 1),
                             _OraclePolynomial(("x", "y"), {(k, 0): 1}).try_exact_div(
                                 _OraclePolynomial(("x", "y"), {(1, 0): 1, (0, 1): 1, (0, 0): 1})))
        assert ((x + y + 1) ** k).try_exact_div(x + y + 1) == (x + y + 1) ** (k - 1)


def test_packed_keys_at_the_degree_limit():
    x, y = Polynomial(("x",), {(1,): 1}), Polynomial(("y",), {(1,): 1})
    top = Polynomial(("x",), {(MAX_DEGREE,): 2})
    assert top.exponent_terms() == {(32767,): 2}
    assert str(top.partial("x")) == "65534*x^32766"
    assert (Polynomial(("x",), {(16384,): 1}) * Polynomial(("x",), {(16383,): 1})
            ).exponent_terms() == {(32767,): 1}
    with pytest.raises(DegreeError, match="a product has degree 32768 in x"):
        top * x
    with pytest.raises(DegreeError, match="a product has degree 32768 in x"):
        (top + y) * (x + y)
    with pytest.raises(DegreeError, match="exponent 32768 is over the degree limit"):
        Polynomial(("x", "y"), {(0, 32768): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(("x",), {(-1,): 1})
    with pytest.raises(ValueError, match="does not match 2 variables"):
        Polynomial(("x", "y"), {(1,): 1})
    # a power squares its base only while bits remain: x^32000 = (x^20)^1600
    # never forms x^40960
    assert (Polynomial(("x",), {(20,): 1}) ** 1600).exponent_terms() == {(32000,): 1}
    with pytest.raises(DegreeError):
        Polynomial(("x",), {(20,): 1}) ** 1639
    # x has the larger key, y^5 the larger y field: neither divides the other
    assert x.try_exact_div(y ** 5) is None
    assert (y ** 5).try_exact_div(x) is None
    assert (x * y ** 5).try_exact_div(y ** 5).exponent_terms() == {(1, 0): 1}
    # the lex-leading term of a denominator is the largest key: x, not y
    assert str(RationalFunction(Polynomial.constant(1, ("x", "y")), y - x)) == "(-1)/(x - y)"
    # An inexact division whose remainder passes the limit: its second step
    # would take y^65534 as a quotient term, and the third carries y^98301
    # into the x field, where it cancels -x*y^32765 and empties the remainder.
    a = {(2, MAX_DEGREE): 1, (1, 32765): -1}
    b = {(1, 0): 1, (0, MAX_DEGREE): 1}
    assert Polynomial(("x", "y"), a).try_exact_div(Polynomial(("x", "y"), b)) is None
    assert _OraclePolynomial(("x", "y"), a).try_exact_div(_OraclePolynomial(("x", "y"), b)) is None
    assert str(RationalFunction(Polynomial(("x", "y"), {(1, MAX_DEGREE): 1}),
                                Polynomial(("x", "y"), {(0, MAX_DEGREE): 1, (1, 16384): 1}))
               ) == "(x*y^16383)/(y^16383 + x)"
    with pytest.raises(ParseError, match=r"degree 40000 in x.* \(line 1, column 11\)"):
        parse_ratfun("((x^1000)^1000)^1000")


# -- against sympy -------------------------------------------------------------------------


def test_seeded_expressions_match_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    x, y, u = sympy.symbols("x y u")
    symbols = {"x": x, "y": y, "u": u}
    rng = random.Random(7)

    def to_sympy(value):
        return sympy.sympify(str(value).replace("^", "**"), locals=symbols)

    def random_pair():
        variables = rng.choice(VARIABLE_TUPLES[1:])
        terms = {tuple(rng.randint(0, 2) for _ in variables):
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)}
        poly = Polynomial(variables, terms)
        return poly, to_sympy(poly)

    for _ in range(12):
        (p, ps), (q, qs), (r, rs) = random_pair(), random_pair(), random_pair()
        if q.is_zero() or r.is_zero():
            continue
        a, b = RationalFunction(p, q), RationalFunction(q, r)
        for ours, theirs in ((a + b, ps / qs + qs / rs), (a * b, ps / rs),
                             (a / b, ps * rs / qs ** 2),
                             (a.partial(q.variables[0]),
                              sympy.diff(ps / qs, symbols[q.variables[0]]))):
            assert sympy.cancel(to_sympy(ours) - theirs) == 0


# -- direct differences, exact-type dispatch, one-term denominators ------------------------
#
# The private oracles below are the previous library code: a difference was
# a sum with a negated copy, the normalization tried the exact division on
# every denominator other than 1, and every product of two non-constant
# polynomials ran the accumulation loop.  Under `_previous_arithmetic` the
# library runs on them, so each operation can be computed both ways.


def _previous_normalized(one_term_dens, num, den, primitive):
    """The previous `_normalized`; it appends each one-term denominator it
    divides by to `one_term_dens`, and asserts that no such division is exact."""
    if num.is_zero():
        return num, rationals._one(num.variables)
    guards, lows = rationals._masks(len(num.variables))
    common = guards
    for exp in itertools.chain(num.terms, den.terms):
        common &= exp + lows
        if not common:
            break
    if common:
        shift = rationals._pack(map(min, num.min_exponents(), den.min_exponents()))
        num = num.shift_down(shift)
        den = den.shift_down(shift)
    if not primitive:
        scale = den.content()
        if den._leading()[1] < 0:
            scale = -scale
        if scale != 1:
            inv = rationals._canonical(1 / scale)
            num = num._scaled(inv)
            den = den._scaled(inv)
    if not den.is_one():
        quotient = num.try_exact_div(den)
        if len(den.terms) == 1:
            assert quotient is None, f"{num} is divisible by the one-term {den}"
            one_term_dens.append(den)
        if quotient is not None:
            return quotient, rationals._one(num.variables)
    return num, den


def _previous_product(self, other):
    if not isinstance(other, Polynomial):
        if isinstance(other, (int, Fraction)):
            return self._scaled(rationals._canonical(other))
        return NotImplemented
    a, b = Polynomial._aligned(self, other)
    if len(b.terms) > len(a.terms):
        a, b = b, a
    if not b.terms:
        return b
    if len(b.terms) == 1:
        (exp, c), = b.terms.items()
        if not exp:
            return a._scaled(c)
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            terms[ea + eb] = terms.get(ea + eb, 0) + ca * cb
    if functools.reduce(operator.or_, terms) & rationals._masks(len(a.variables))[0]:
        width = len(a.variables)
        top, var = max(zip(map(max, zip(*rationals._unpacked(terms, width))), a.variables))
        raise DegreeError(f"a product has degree {top} in {var}, "
                          f"over the limit of {MAX_DEGREE} per variable")
    return Polynomial._new(a.variables, rationals._canonical_terms(terms))


def _previous_sub(self, other):
    other = self._coerced(other)
    if other is None:
        return NotImplemented
    return self + (-other)


def _previous_rsub(self, other):
    other = self._coerced(other)
    if other is None:
        return NotImplemented
    return other + (-self)


@contextlib.contextmanager
def _previous_arithmetic():
    """Run the library on the previous code; yields the list of one-term
    denominators met."""
    one_term_dens = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rationals, "_normalized",
                      functools.partial(_previous_normalized, one_term_dens))
        patch.setattr(Polynomial, "__mul__", _previous_product)
        patch.setattr(Polynomial, "__rmul__", _previous_product)
        patch.setattr(RationalFunction, "__sub__", _previous_sub)
        patch.setattr(RationalFunction, "__rsub__", _previous_rsub)
        yield one_term_dens


def term_list(p):
    """The term map in order, with each coefficient's type."""
    return [(exp, type(c), c) for exp, c in p.terms.items()]


def assert_identical(new, old):
    assert type(new) is type(old)
    if isinstance(new, RationalFunction):
        assert new.variables == old.variables
        assert term_list(new.num) == term_list(old.num)
        assert term_list(new.den) == term_list(old.den)
    else:
        assert (new.variables, term_list(new)) == (old.variables, term_list(old))
    assert str(new) == str(old)


nonzero_coefficients = coefficients.filter(bool)
DEN_SHAPES = ("zero", "den 1", "one term", "multi-term")


def _poly_of(draw, variables, size):
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3) for _ in variables])
    return Polynomial(variables, draw(st.dictionaries(
        exponents, nonzero_coefficients, min_size=size[0], max_size=size[1])))


@st.composite
def shaped_operands(draw):
    """(a, b): each zero, over the denominator 1, or over a one-term or
    multi-term denominator; b over a's variables or other ones, and its
    numerator often a multiple of a's denominator, so that a * b and a
    difference over a shared denominator can collapse by exact division."""
    operands = []
    variables = draw(st.sampled_from(VARIABLE_TUPLES))
    for _ in range(2):
        shape = draw(st.sampled_from(DEN_SHAPES))
        if shape == "zero":
            operands.append(RationalFunction.constant(0, variables))
        else:
            num = _poly_of(draw, variables, (1, 4))
            if operands and not operands[0].is_zero() and draw(st.booleans()):
                num = num * operands[0].den.embed(
                    sorted(set(variables) | set(operands[0].variables)))
            if shape == "den 1":
                operands.append(RationalFunction(num))
            else:
                # over no variables there is one monomial, so one term
                size = (2, 3) if shape == "multi-term" and variables else (1, 1)
                den = _poly_of(draw, variables, size)
                if den.is_constant() and len(den.terms) == 1 and variables:
                    den = den * Polynomial.variable(variables[0])
                operands.append(RationalFunction(num, den))
        if not draw(st.booleans()):
            variables = draw(st.sampled_from(VARIABLE_TUPLES))
    return tuple(operands)


def _operations(a, b, scalar):
    """Each binary operation on a and b, both orders, and with scalars and a
    polynomial on either side."""
    results = [a + b, b + a, a - b, b - a, a * b, b * a, a - a, a + scalar, scalar - a,
               a - scalar, a * scalar, a - b.num, b.num - a, a * b.num, a ** 2]
    if not b.is_zero():
        results.append(a / b)
    results += [a.partial(v) for v in a.variables]
    return results


@settings(max_examples=300, deadline=None)
@given(operands=shaped_operands(), scalar=coefficients)
def test_operations_match_the_previous_arithmetic(operands, scalar):
    new = _operations(*operands, scalar)
    with _previous_arithmetic():
        # fresh instances: a partial, once formed, is kept on its instance
        old = _operations(*(RationalFunction._new(f.num, f.den) for f in operands), scalar)
    assert len(new) == len(old)
    for got, want in zip(new, old):
        assert_identical(got, want)
        assert_canonical(got.num)
        assert_canonical(got.den)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_products_match_the_previous_loop(data):
    # one-term factors (constant or not) and Fraction coefficients whose
    # products are integral, over equal and different variable tuples
    p = _poly_of(data.draw, data.draw(st.sampled_from(VARIABLE_TUPLES)), (0, 4))
    q = _poly_of(data.draw, data.draw(st.sampled_from(VARIABLE_TUPLES)), (0, 2))
    for a, b in ((p, q), (q, p), (q, q), (p, p)):
        want = _previous_product(a, b)
        assert_identical(a * b, want)
        assert_canonical(a * b)


def test_degree_errors_match_the_previous_loop():
    rng = random.Random(9600)
    variables = ("u", "x", "y")
    raised = 0
    for _ in range(200):
        a_vars = tuple(rng.sample(variables, rng.randint(1, 3)))
        b_vars = tuple(rng.sample(variables, rng.randint(1, 3)))
        a = Polynomial(a_vars, _drawn_terms(rng, a_vars, rng.choice((1, 3)), high=True))
        b = Polynomial(b_vars, _drawn_terms(rng, b_vars, 1, high=True))
        try:
            want = _previous_product(a, b)
        except DegreeError as err:
            raised += 1
            with pytest.raises(DegreeError) as caught:
                a * b
            assert str(caught.value) == str(err)
        else:
            assert_identical(a * b, want)
    assert raised > 20


def test_one_term_denominators_never_divide():
    # The previous normalization met one-term denominators (each then 1 or a
    # monomial x^e) and no division by one was exact; drawn operands above
    # also assert it, on every one-term denominator they meet.
    rng = random.Random(9700)
    pool = [_seeded_ratfun(rng) for _ in range(30)]
    with _previous_arithmetic() as one_term_dens:
        for a, b in itertools.product(pool, repeat=2):
            a - b, a * b
            if not b.is_zero():
                a / b
    assert len(one_term_dens) > 20
    assert all(den.terms.get(0) is None and list(den.terms.values()) == [1]
               for den in one_term_dens)


# -- each product of two denominators formed once ------------------------------------------
#
# The private oracles below are the previous library code at the three sites
# that now call `Polynomial._times`: a product, a sum over two different
# denominators and a partial each formed the product of the denominators
# with `Polynomial.__mul__`, and a sum compared the denominators by value
# only.  Under `_plain_products` the library runs on them.


def _previous_sum(self, other, negate):
    a, b = self.num, other.num
    if not (a.terms and b.terms) and a.variables == b.variables:
        if not b.terms:
            return self
        return RationalFunction._new(-b, other.den) if negate else other
    if self.den.is_one() and other.den.is_one():
        return RationalFunction._polynomial(a._plus(b, negate))
    if self.den == other.den:
        return self._joined(other, a._plus(b, negate), self.den)
    return self._joined(other, (a * other.den)._plus(b * self.den, negate),
                        self.den * other.den)


def _previous_mul(self, other):
    if type(other) is not RationalFunction:
        if isinstance(other, (int, Fraction)):
            return self._scaled(rationals._canonical(other))
        other = self._coerced(other)
        if other is None:
            return NotImplemented
    if not (self.num.terms and other.num.terms) and \
            self.num.variables == other.num.variables:
        return RationalFunction._polynomial(Polynomial._new(self.variables, {}))
    if self.den.is_one() and other.den.is_one():
        return RationalFunction._polynomial(self.num * other.num)
    return self._joined(other, self.num * other.num, self.den * other.den)


def _previous_partial(self, var):
    if var not in self.variables:
        raise ValueError(f"unknown variable {var!r}")
    dn = self.num.partial(var)
    if self.den.is_one():
        return RationalFunction._new(dn, self.den)
    dd = self.den.partial(var)
    return RationalFunction._primitive(dn * self.den - self.num * dd, self.den * self.den)


@contextlib.contextmanager
def _plain_products():
    """Run the library with every product of denominators formed by
    `Polynomial.__mul__`, as the previous code did."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RationalFunction, "_sum", _previous_sum)
        patch.setattr(RationalFunction, "__mul__", _previous_mul)
        patch.setattr(RationalFunction, "__rmul__", _previous_mul)
        patch.setattr(RationalFunction, "partial", _previous_partial)
        yield


@st.composite
def shared_den_operands(draw):
    """Rational functions whose equal denominators are one object, as a
    parsed chart's are: each normalized denominator joins a pool keyed by
    its ordered term map, and the pair is rebuilt on the pooled object.  The
    last operand is sometimes over other variables."""
    variables = draw(st.sampled_from(VARIABLE_TUPLES[1:]))
    dens = [_poly_of(draw, variables, (1, 3)) for _ in range(3)]
    pool = {}
    operands = []
    for k in range(4):
        if k == 3 and draw(st.booleans()):
            variables = draw(st.sampled_from(VARIABLE_TUPLES))
            dens = [d.embed(sorted(set(d.variables) | set(variables))) for d in dens]
        num = _poly_of(draw, variables, (0, 3))
        den = draw(st.sampled_from(dens + [Polynomial.constant(1, variables)]))
        f = RationalFunction(num, den)
        shared = pool.setdefault((f.variables, tuple(f.den.terms.items())), f.den)
        operands.append(RationalFunction._new(f.num, shared))
    return operands


def _den_product_operations(operands):
    """Products, sums and differences of every ordered pair, chained
    products, and every partial; a second round reads the memos the first
    one filled."""
    results = []
    for _ in range(2):
        for a, b in itertools.product(operands, repeat=2):
            results += [a * b, a + b, a - b]
        a, b, c, d = operands
        results += [a * b * c, (a * b) * (c * d), a * b + c * d, (a - b) * (c + d)]
        results += [f.partial(v) for f in operands for v in f.variables]
    return results


@settings(max_examples=150, deadline=None)
@given(operands=shared_den_operands())
def test_shared_denominators_match_plain_products(operands):
    new = _den_product_operations(operands)
    with _plain_products():
        # fresh instances: a partial, once formed, is kept on its instance
        old = _den_product_operations([RationalFunction._new(f.num, f.den) for f in operands])
    assert len(new) == len(old)
    for got, want in zip(new, old):
        assert_identical(got, want)


def test_a_product_of_denominators_is_formed_once():
    variables = ("x", "y")
    q = Polynomial(variables, {(2, 0): 1, (0, 2): 1, (0, 0): 2})
    e = Polynomial(variables, {(1, 0): 1, (0, 0): 1})
    x = Polynomial(variables, {(1, 0): 1})
    for a, b in ((q, e), (e, q), (q, q), (x, q), (q, x)):
        assert a._times(b) is a._times(b)
        assert_identical(a._times(b), a * b)
    assert q._times(e) is not e._times(q)
    one = rationals._one(variables)
    for f in (q, e, x, Polynomial.constant(3, variables)):
        assert one._times(f) is f and f._times(one) is f
        assert_identical(one * f, f)
    assert one._times(one) is one
    assert not hasattr(one, "_products")
    # over other variables the plain product, and no memo on either side
    one_x = rationals._one(("x",))
    assert_identical(one_x._times(q), one_x * q)
    assert_identical(q._times(one_x), q * one_x)
    assert not hasattr(one_x, "_products")


def test_a_chart_command_leaves_no_memo(tmp_path, capsys):
    from fedosov import cli
    from test_slot_kernel import swell_json

    path = tmp_path / "swell.json"
    path.write_text(json.dumps(swell_json(1, 1, 2)), encoding="utf-8")
    gc.collect()
    # held, so that no new polynomial can reuse one of their ids
    before = [p for p in gc.get_objects() if type(p) is Polynomial and hasattr(p, "_products")]
    seen = set(map(id, before))
    assert cli.main(["verify-chart", str(path), "--suite", "all"]) == 1
    capsys.readouterr()
    assert not hasattr(rationals._one(("x", "y", "u", "v")), "_products")
    gc.collect()
    kept = [p for p in gc.get_objects()
            if type(p) is Polynomial and hasattr(p, "_products") and id(p) not in seen]
    assert not kept


def test_memos_are_freed_by_reference_counting():
    variables = ("x", "y")
    gc.disable()
    try:
        p = Polynomial(variables, {(2, 0): 1, (0, 0): 1})
        q = Polynomial(variables, {(0, 2): 1, (1, 0): 3})
        products = [p._times(q), q._times(p), p._times(p), q._times(q)]
        refs = [weakref.ref(f) for f in (p, q, *products)]
        del p, q, products
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_a_reused_id_misses_the_memo():
    variables = ("x", "y")
    p = Polynomial(variables, {(1, 0): 1, (0, 0): 2})
    q = Polynomial(variables, {(0, 1): 1, (0, 0): 1})
    stale, old_id = p._times(q), id(q)
    del q
    for k in range(1000):
        r = Polynomial(variables, {(0, 2): 1, (0, 0): k + 1})
        if id(r) == old_id:
            break
        del r
    else:
        pytest.skip("no new polynomial took the freed id")
    assert p._times(r) is not stale
    assert_identical(p._times(r), p * r)

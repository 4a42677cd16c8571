"""Exact scalar arithmetic: multivariate polynomials over Q and their quotient field.

Each coefficient is an `int` when it is integral and a `fractions.Fraction`
(in lowest terms with a positive denominator, never integral) otherwise, so
the common case -- integer polynomials such as every normalized
denominator -- runs on machine-speed integer arithmetic.  A polynomial
stores an ordered tuple of variable names plus a sparse map from packed
exponent vectors to nonzero coefficients; the zero polynomial has an empty
map.  As with `int` and `Fraction`, a polynomial or rational function is
falsy exactly when it is zero, so a zero test of any scalar is a truth
test.  Binary operations align the two variable tuples by taking their
sorted union, so polynomials over different variable sets combine
transparently.

A monomial's exponent vector is packed into one int (after M. Monagan and
R. Pearce, *Polynomial division using dynamic arrays, heaps, and packed
exponent vectors*, CASC 2007): one 16-bit field per variable, the first
variable most significant, so int order is the lex order of the exponent
tuples.  Multiplying monomials adds their keys and dividing subtracts them.
The top bit of each field is a guard bit that no stored exponent sets, so
an exponent is at most `MAX_DEGREE` (32767): a product that sets a guard
bit raises `DegreeError`, never wraps, and an exact division rejects a
field that would borrow.  Printing, evaluation, re-indexing and the public
tuple-keyed constructor unpack and pack through one pair of helpers.

Rational functions are numerator/denominator pairs and are *not* reduced to
lowest terms (there is no multivariate gcd engine): equality uses cross
multiplication, which is exact, and one is zero exactly when its numerator
is.  A cheap normalization pass -- common monomial factor, denominator
content and sign, a single exact-division attempt -- keeps representations
from growing during long computations such as curvature expansions.  The
division ends at the first quotient term that an exact quotient could not
have: a term of q = a/b has, in each variable, at most a's degree less b's.

Results that are already in normal form skip the normalization: products
with a scalar or a constant polynomial scale the coefficients directly,
negation and scaling of a normalized pair keep it normalized, sums and
products of two polynomials (denominator 1) stay polynomials, and a zero
operand over the same variables makes a sum the other operand and a
product zero.  Each such fast path yields exactly the pair the
normalization pass would produce.  A difference is formed directly, not
as a sum with a negated copy, and the pass tries the exact division only
on a denominator of two or more terms: a normalized one-term denominator
is 1 or a monomial, and once the common monomial is stripped some
numerator term lacks one of its variables.  Sums, products, powers and
partials over one variable tuple have a denominator that is a product of
normalized ones.  By Gauss's lemma (D. E. Knuth, *TAOCP* Vol. 2, 4.6.1) it is
primitive, and its lex-leading coefficient is a product of positive ones,
so their pass skips the content and the sign.  A quotient, whose
denominator holds a numerator, a result over merged variables, the public
constructor and `with_variables` take the full pass.

A rational function forms each partial derivative once: the instance keeps
it and returns the same object on every later call, which is safe because
instances are immutable.

A denominator forms each product with another denominator once
(`Polynomial._times`): the left factor keeps the product, keyed by the
right factor's id beside a weakref to it, and a hit needs the weakref to
give that factor back, so a reused id misses.  The memo holds no strong
reference to the right factor and a product none to either factor, so no
reference cycle forms and each memo is freed with its owner by reference
counting; nothing outlives the operands.  A factor 1 over the same
variables gives the other factor before any memo is read, so the shared
`_one` never keeps one.  `charts.chart_from_json` gives equal denominators
one object, so the products of a chart's denominators are formed once.

Kernels built from sums and products run on scaled integers through one
adapter: `scaled_entries` multiplies exact rationals by the lcm of their
denominators, and `divided` builds each distinct result value once as a
`Fraction`.  The Sp(V) projectors and `symplectic.change_basis` use it,
and so does evaluation, which sums integer terms homogenized by each
variable's top degree over one denominator (`ScaledPoint`).  Past
`MAX_SCALE_BITS` bits of a denominator the same kernels run on the
`Fraction` values.

The text syntax accepted by `parse_ratfun` covers integer literals, `+`,
`-`, `*`, `/`, `^` with positive integer exponents, parentheses and
variable identifiers, e.g. ``-4/(3*x)``.  A power whose expansion could
exceed `MAX_POWER_TERMS` terms is rejected with a `ParseError`.
"""

from __future__ import annotations

import math
import re
import weakref
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from operator import getitem, lshift, or_, sub
from typing import Iterable, Mapping

Rational = Fraction


class PoleError(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""


class DegreeError(ArithmeticError):
    """Raised when an exponent would pass `MAX_DEGREE`, in given terms or in a product."""


class ParseError(ValueError):
    """Raised on malformed scalar text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _canonical(c):
    """The exact rational `c` (an int or a Fraction) as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _quotient(a, b):
    """Exact a/b of two canonical coefficients, canonical (never a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canonical(a / b)


def _canonical_terms(terms: dict) -> dict:
    """Drop the zero coefficients and make the integral ones ints."""
    return {exp: c.numerator if c.denominator == 1 else c for exp, c in terms.items() if c}


# -- packed exponent vectors ----------------------------------------------------------
_FIELD_BITS = 16
MAX_DEGREE = (1 << _FIELD_BITS - 1) - 1
_FIELD = (1 << _FIELD_BITS) - 1


@lru_cache(maxsize=None)
def _masks(width: int) -> tuple[int, int]:
    """(guards, lows) over `width` fields: the guard bit of every field, and
    MAX_DEGREE in every field."""
    guards = sum(1 << _FIELD_BITS * i + _FIELD_BITS - 1 for i in range(width))
    return guards, guards - (guards >> _FIELD_BITS - 1)


def _pack(exponents: Iterable[int]) -> int:
    """The key of an exponent vector, the first exponent most significant."""
    key = 0
    for e in exponents:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if e > MAX_DEGREE:
            raise DegreeError(f"exponent {e} is over the degree limit of {MAX_DEGREE}")
        key = key << _FIELD_BITS | e
    return key


def _unpacked(keys: Iterable[int], width: int) -> list[tuple[int, ...]]:
    """The exponent tuples of packed keys over `width` variables."""
    shifts = range(_FIELD_BITS * (width - 1), -1, -_FIELD_BITS)
    return [tuple([key >> s & _FIELD for s in shifts]) for key in keys]


def _top_degrees(p: Polynomial) -> list[int]:
    """The top degree of each variable in the nonzero polynomial p."""
    return list(map(max, zip(*_unpacked(p.terms, len(p.variables)))))


def _check_product(terms: dict, variables: tuple[str, ...]) -> None:
    """Raise `DegreeError` when a product's raw key sums pass MAX_DEGREE.

    Each field of a key sum is at most 2 * MAX_DEGREE, so it carries into no
    other field and its guard bit is set exactly when it is over the limit.
    A variable's top degree in a product is the sum of its factors', so the
    raw keys over-reach exactly when the product does."""
    if reduce(or_, terms) & _masks(len(variables))[0]:
        top, var = max(zip(map(max, zip(*_unpacked(terms, len(variables)))), variables))
        raise DegreeError(f"a product has degree {top} in {var}, "
                          f"over the limit of {MAX_DEGREE} per variable")


# -- scaled integers ----------------------------------------------------------------
#
# A kernel built from +, - and products gives D times its result on entries
# scaled to ints by their common denominator D, so nothing divides until each
# result entry is built as Fraction(v, D * ...).  Past MAX_SCALE_BITS of D
# (break-even measured at 3,000-5,000 bits on the Sp(V) projectors) the
# closing gcds on D-sized ints cost more than Fraction arithmetic, so the
# kernel gets the values themselves.
MAX_SCALE_BITS = 4096


def scaled_entries(values) -> tuple[list, int] | None:
    """(values times D, D) for D the lcm of their denominators, with int
    entries; None when a value is not an int or Fraction (a `RationalFunction`
    entry) or D has more than MAX_SCALE_BITS bits."""
    try:
        denominators = {c.denominator for c in values}
    except AttributeError:
        return None
    if denominators == {1}:
        return [c.numerator for c in values], 1
    den = 1
    for d in denominators:
        den = math.lcm(den, d)
        if den.bit_length() > MAX_SCALE_BITS:
            return None
    return [c.numerator * (den // c.denominator) for c in values], den


def _scaled_ints(values) -> tuple[list[int], int]:
    """`scaled_entries` of ints and Fractions past any bound: constant data
    that stay few in number (model tensors) keep one int path at every size."""
    den = math.lcm(*{c.denominator for c in values})
    return [c.numerator * (den // c.denominator) for c in values], den


_ZERO = Fraction(0)


def divided(values, den: int) -> list[Fraction]:
    """values / den as `Fraction`s: an int / int would be a float, and a
    Fraction (left unscaled) / den takes gcds of den's size.  Each distinct
    int forms its `Fraction` once per call, and -v negates the one for v;
    hashing a Fraction costs a modular inverse, so those divide one by one."""
    formed = {0: _ZERO}
    out = []
    for v in values:
        if type(v) is not int:
            f = v / den
        elif (f := formed.get(v)) is None:
            g = formed.get(-v)
            f = formed[v] = Fraction(v, den) if g is None else -g
        out.append(f)
    return out


class _PowerTable(dict):
    """{e: a^e b^(top-e)}, each entry formed when it is first read."""

    __slots__ = ("a", "b", "top")

    def __init__(self, a, b, top: int):
        super().__init__()
        self.a, self.b, self.top = a, b, top

    def __missing__(self, e: int):
        value = self[e] = self.a ** e * self.b ** (self.top - e)
        return value


class ScaledPoint:
    """A point of Q^m for the integer evaluation kernel of `Polynomial`.

    Each coordinate p = a/b is read (through `Fraction`) when a polynomial
    first needs it, and its table [a^e b^(T-e) for e <= T] under a top
    degree T is shared by every entry evaluated at the point.  A table forms
    an entry when it is first read, so only the powers that some term uses,
    and b^T, are ever formed.  A coordinate whose denominator has more than
    MAX_SCALE_BITS bits enters as the Fraction p over b = 1.  `point` is the
    mapping given.
    """

    __slots__ = ("point", "_tables")

    def __init__(self, point: Mapping[str, Fraction]):
        self.point = point
        self._tables: dict = {}

    @classmethod
    def of(cls, point) -> ScaledPoint:
        return point if isinstance(point, ScaledPoint) else cls(point)

    def table(self, var: str, top: int) -> dict:
        table = self._tables.get((var, top))
        if table is None:
            value = Fraction(self.point[var])
            a, b = value.numerator, value.denominator
            if b.bit_length() > MAX_SCALE_BITS:
                a, b = value, 1
            table = self._tables[var, top] = _PowerTable(a, b, top)
        return table


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    A coefficient is an `int` when integral and a `Fraction` otherwise; the
    public constructor accepts anything `Fraction` accepts and converts it.
    `terms` maps packed exponent vectors (see the module docstring) to the
    coefficients; the constructor takes exponent tuples, packs them and
    raises `DegreeError` for an exponent above MAX_DEGREE (32767), and
    `exponent_terms` gives the map back keyed by tuples.  Instances are
    treated as immutable: no method mutates `self`, and the term map must not
    be modified after construction.
    """

    __slots__ = ("variables", "terms", "_products", "__weakref__")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Fraction]):
        self.variables: tuple[str, ...] = tuple(variables)
        width = len(self.variables)
        packed = {}
        for exp, c in terms.items():
            if len(exp) != width:
                raise ValueError(f"exponent tuple {exp} does not match {width} variables")
            packed[_pack(exp)] = Fraction(c)
        self.terms: dict[int, int | Fraction] = _canonical_terms(packed)

    @classmethod
    def _new(cls, variables: tuple[str, ...], terms: dict) -> Polynomial:
        """Trusted constructor: `terms` is already canonical and owned by the result."""
        self = object.__new__(cls)
        self.variables = variables
        self.terms = terms
        return self

    @classmethod
    def constant(cls, value, variables: Iterable[str] = ()) -> Polynomial:
        variables = tuple(variables)
        c = _canonical(Fraction(value))
        return cls._new(variables, {0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        return cls._new((name,), {1: 1})

    def exponent_terms(self) -> dict[tuple[int, ...], int | Fraction]:
        """The term map keyed by exponent tuples, in the same order."""
        return dict(zip(_unpacked(self.terms, len(self.variables)), self.terms.values()))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(0) == 1

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (zero polynomial gives 0)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values()), 0))

    def embed(self, variables: Iterable[str]) -> Polynomial:
        """Reindex onto a superset of variables (order taken from `variables`)."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        shifts = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"cannot drop variable {v!r}")
            shifts.append(_FIELD_BITS * (len(variables) - 1 - variables.index(v)))
        terms = {sum(map(lshift, exp, shifts)): c
                 for exp, c in self.exponent_terms().items()}
        return Polynomial._new(variables, terms)

    @staticmethod
    def _aligned(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
        if a.variables == b.variables:
            return a, b
        merged = tuple(sorted(set(a.variables) | set(b.variables)))
        return a.embed(merged), b.embed(merged)

    def _coerced(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.variables)
        return None

    def _scaled(self, c) -> Polynomial:
        """self * c for a canonical scalar c, without a polynomial product."""
        if not c:
            return Polynomial._new(self.variables, {})
        if c == 1:
            return self
        return Polynomial._new(self.variables,
                               _canonical_terms({exp: v * c for exp, v in self.terms.items()}))

    def _plus(self, other: Polynomial, negate: bool) -> Polynomial:
        a, b = (self, other) if self.variables == other.variables else \
            Polynomial._aligned(self, other)
        terms = dict(a.terms)
        for exp, c in b.terms.items():
            if negate:
                c = -c
            if exp in terms:
                value = terms[exp] + c
                if value:
                    terms[exp] = _canonical(value)
                else:
                    del terms[exp]
            else:
                terms[exp] = c
        return Polynomial._new(a.variables, terms)

    def __add__(self, other) -> Polynomial:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._new(self.variables, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self._plus(other, True)

    def __rsub__(self, other) -> Polynomial:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other._plus(self, True)

    def __mul__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self._scaled(_canonical(other))
            return NotImplemented
        a, b = (self, other) if self.variables == other.variables else \
            Polynomial._aligned(self, other)
        if len(b.terms) > len(a.terms):
            a, b = b, a
        if not b.terms:
            return b
        if len(b.terms) == 1:
            # a monomial shifts every key of a: no two products share a key
            (eb, cb), = b.terms.items()
            if not eb:
                return a._scaled(cb)
            terms = {ea + eb: ca * cb for ea, ca in a.terms.items()}
            _check_product(terms, a.variables)
            # an int product of nonzero ints is canonical
            if Fraction in map(type, terms.values()):
                terms = _canonical_terms(terms)
            return Polynomial._new(a.variables, terms)
        terms = {}
        get = terms.get
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                exp = ea + eb
                terms[exp] = get(exp, 0) + ca * cb
        _check_product(terms, a.variables)
        return Polynomial._new(a.variables, _canonical_terms(terms))

    __rmul__ = __mul__

    def _times(self, other: Polynomial) -> Polynomial:
        """self * other, computed in that operand order and formed once per
        pair (see the module docstring): `self` keeps it keyed by id(other)
        beside a weakref to `other`, and a hit needs the weakref to give
        `other` back.  A factor 1 over the same variables gives the other
        factor and no memo; over different variables this is the plain
        product."""
        if self.variables != other.variables:
            return self * other
        if self.is_one():
            return other
        if other.is_one():
            return self
        try:
            memo = self._products
        except AttributeError:
            memo = self._products = {}
        hit = memo.get(id(other))
        if hit and hit[0]() is other:
            return hit[1]
        product = self * other
        memo[id(other)] = weakref.ref(other), product
        return product

    def __pow__(self, k: int) -> Polynomial:
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _one(self.variables)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:  # no square past the top bit, which could pass MAX_DEGREE
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        a, b = Polynomial._aligned(self, other)
        return a.terms == b.terms

    __hash__ = None

    def partial(self, var: str) -> Polynomial:
        """Exact partial derivative; `var` must be one of the variables."""
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        shift = _FIELD_BITS * (len(self.variables) - 1 - self.variables.index(var))
        one = 1 << shift
        terms = {}
        for exp, c in self.terms.items():
            e = exp >> shift & _FIELD
            if e:
                terms[exp - one] = _canonical(c * e)
        return Polynomial._new(self.variables, terms)

    def evaluate(self, point: Mapping[str, Fraction] | ScaledPoint) -> Fraction:
        return Fraction(*self._scaled_value(ScaledPoint.of(point)))

    def _scaled_value(self, point: ScaledPoint) -> tuple:
        """(s, e) with value s / e at p_i = a_i/b_i: s sums c L prod a_i^e_i
        b_i^(T_i - e_i) over the terms c x^e, and e = L prod b_i^T_i, for L
        the lcm of the coefficient denominators and T_i the top degree of x_i."""
        missing = [v for v in self.variables if v not in point.point]
        if missing:
            raise ValueError(f"unassigned variables: {missing}")
        if not self.terms:
            return 0, 1
        coeffs, den = scaled_entries(self.terms.values()) or (list(self.terms.values()), 1)
        exponents = _unpacked(self.terms, len(self.variables))
        tables = list(map(point.table, self.variables, map(max, zip(*exponents))))
        total = sum(math.prod(map(getitem, tables, exp), start=c)
                    for exp, c in zip(exponents, coeffs))
        for table in tables:
            den *= table[0]
        return total, den

    def content(self) -> Fraction:
        """Positive rational content: gcd of coefficient numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
        return Fraction(num, den)

    def _leading(self) -> tuple[int, int | Fraction]:
        """Lex-maximal term (packed key: the exponent tuple compared left to right)."""
        exp = max(self.terms)
        return exp, self.terms[exp]

    def min_exponents(self) -> tuple[int, ...]:
        """Per-variable minimum exponent over all terms (the common monomial factor)."""
        if not self.terms:
            return (0,) * len(self.variables)
        return tuple(map(min, zip(*_unpacked(self.terms, len(self.variables)))))

    def shift_down(self, shift: int) -> Polynomial:
        """Divide by the monomial with packed key `shift` (must divide every term)."""
        if not shift:
            return self
        guards = _masks(len(self.variables))[0]
        terms = {}
        for exp, c in self.terms.items():
            if ((exp | guards) - shift) & guards != guards:
                raise ValueError("monomial does not divide polynomial")
            terms[exp - shift] = c
        return Polynomial._new(self.variables, terms)

    def try_exact_div(self, den: Polynomial) -> Polynomial | None:
        """Quotient self/den if the division is exact (lex order), else None."""
        a, b = Polynomial._aligned(self, den)
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not a:
            return a
        lead_exp, lead_c = b._leading()
        divisor = b.terms.items()
        guards = _masks(len(a.variables))[0]
        # The lex-largest remaining term strictly decreases, so every step
        # writes a new quotient monomial t, a term of the quotient q when the
        # division is exact.  Then deg_v(t) + deg_v(b) <= deg_v(q b) = deg_v(a)
        # in every variable v: a t past `room`, a's per-field maxima less b's,
        # ends the division, and so does a borrow when the lead is taken off.
        # Each remainder term is then within a's maxima, so none passes
        # MAX_DEGREE.  The maxima are unpacked only once a first step passes.
        room = None
        quotient = {}
        rest = dict(a.terms)
        while rest:
            exp = max(rest)
            if ((exp | guards) - lead_exp) & guards != guards:
                return None
            diff = exp - lead_exp
            if room is None:
                room = list(map(sub, _top_degrees(a), _top_degrees(b)))
                if any(r < 0 for r in room):
                    return None
                room = _pack(room) | guards
            if (room - diff) & guards != guards:
                return None
            qc = quotient[diff] = _quotient(rest[exp], lead_c)
            for eb, cb in divisor:
                e = diff + eb
                value = rest.get(e, 0) - qc * cb
                if value:
                    rest[e] = _canonical(value)
                else:
                    rest.pop(e, None)
        return Polynomial._new(a.variables, quotient)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # Deterministic order: total degree then lex, descending.
        terms = self.exponent_terms()
        keys = sorted(terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for exp in keys:
            c = terms[exp]
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
            sign = "-" if c < 0 else "+"
            pieces.append((sign, text))
        first_sign, first_text = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_text
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self})"


@lru_cache(maxsize=256)
def _one(variables: tuple[str, ...]) -> Polynomial:
    """The shared constant 1 over `variables`: the denominator of every
    rational function that is a polynomial."""
    return Polynomial._new(variables, {0: 1})


def _normalized(num: Polynomial, den: Polynomial,
                primitive: bool) -> tuple[Polynomial, Polynomial]:
    """The normal form of num/den over one variable tuple, den nonzero.

    The common monomial is stripped, den is made primitive with integer
    coefficients and a positive lex-leading coefficient, and an exact
    division collapses the pair onto the denominator 1.  A `primitive` den is
    a product of normalized denominators over the same variables: by Gauss's
    lemma its content is 1, and its leading coefficient is the product of
    theirs, so the content pass is skipped.  Stripping a monomial changes
    neither.  The division is tried only on a den of two or more terms: a
    one-term den is then 1 or x^e, e != 0, and after the strip some variable
    of e has exponent 0 in a term of num, so that term is not divisible.
    """
    if not num:
        return num, _one(num.variables)
    # A field of k + lows has its guard bit set exactly when the exponent is
    # nonzero, so `common` keeps the variables that divide every term of
    # both; most pairs have none and never unpack.
    guards, lows = _masks(len(num.variables))
    common = guards
    for exp in chain(num.terms, den.terms):
        common &= exp + lows
        if not common:
            break
    if common:
        shift = _pack(map(min, num.min_exponents(), den.min_exponents()))
        num = num.shift_down(shift)
        den = den.shift_down(shift)
    if not primitive:
        scale = den.content()
        if den._leading()[1] < 0:
            scale = -scale
        if scale != 1:
            inv = _canonical(1 / scale)
            num = num._scaled(inv)
            den = den._scaled(inv)
    if len(den.terms) > 1:
        quotient = num.try_exact_div(den)
        if quotient is not None:
            return quotient, _one(num.variables)
    return num, den


class RationalFunction:
    """Element of the quotient field Q(x1, ..., xm), stored as num/den.

    The pair is normalized (common monomial stripped, denominator primitive
    with integer coefficients and positive leading coefficient, collapsed to
    a polynomial over the shared denominator 1 when the division happens to
    be exact) but *not* reduced to lowest terms in general.  Equality is
    decided by cross multiplication and is therefore exact regardless of
    representation.  Operations whose result is normalized by construction
    (see the module docstring) build it without re-running the normalization.
    """

    __slots__ = ("num", "den", "_partials")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = _one(num.variables)
        num, den = Polynomial._aligned(num, den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _normalized(num, den, primitive=False)

    @classmethod
    def _new(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """Trusted constructor for a pair that is already normalized."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def _primitive(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """num/den for a `den` over num's variables that is a product of
        normalized denominators over those variables, normalized without the
        content pass (see `_normalized`)."""
        return cls._new(*_normalized(num, den, primitive=True))

    def _joined(self, other: RationalFunction, num: Polynomial,
                den: Polynomial) -> RationalFunction:
        """num/den for a result of `self` and `other` whose `den` is a product
        of their denominators.  Aligning two variable tuples can re-order the
        lex order that fixed the sign of each denominator, so a result over
        merged variables takes the full normalization."""
        if self.num.variables == other.num.variables:
            return RationalFunction._primitive(num, den)
        return RationalFunction(num, den)

    @classmethod
    def _polynomial(cls, num: Polynomial) -> RationalFunction:
        """`num` over the shared denominator 1 (always normalized)."""
        return cls._new(num, _one(num.variables))

    @classmethod
    def constant(cls, value, variables: Iterable[str] = ()) -> RationalFunction:
        return cls._polynomial(Polynomial.constant(value, variables))

    @classmethod
    def variable(cls, name: str) -> RationalFunction:
        return cls._polynomial(Polynomial.variable(name))

    @property
    def variables(self) -> tuple[str, ...]:
        return self.num.variables

    def with_variables(self, variables: Iterable[str]) -> RationalFunction:
        variables = tuple(variables)
        return RationalFunction(self.num.embed(variables), self.den.embed(variables))

    def is_zero(self) -> bool:
        return not self.num.terms

    def __bool__(self) -> bool:
        return bool(self.num.terms)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        return self.num.constant_value() / self.den.constant_value()

    def _coerced(self, other) -> RationalFunction | None:
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.constant(other, self.variables)
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return None

    def _scaled(self, c) -> RationalFunction:
        """self * c for a canonical scalar c.  Scaling the numerator of a
        normalized pair by a nonzero constant leaves it normalized: the
        exponents, the denominator and the exactness of the division are
        unchanged."""
        if not c:
            return RationalFunction._polynomial(Polynomial._new(self.variables, {}))
        return RationalFunction._new(self.num._scaled(c), self.den)

    def _sum(self, other: RationalFunction, negate: bool) -> RationalFunction:
        """self + other, or self - other formed directly when `negate`."""
        a, b = self.num, other.num
        if not (a.terms and b.terms) and a.variables == b.variables:
            if not b.terms:
                return self
            return RationalFunction._new(-b, other.den) if negate else other
        if self.den.is_one() and other.den.is_one():
            return RationalFunction._polynomial(a._plus(b, negate))
        if self.den is other.den or self.den == other.den:
            return self._joined(other, a._plus(b, negate), self.den)
        return self._joined(other, (a * other.den)._plus(b * self.den, negate),
                            self.den._times(other.den))

    # An operand of the exact type skips `_coerced`, whose isinstance test
    # of a `Fraction` goes through the ABC machinery.
    def __add__(self, other) -> RationalFunction:
        if type(other) is not RationalFunction:
            other = self._coerced(other)
            if other is None:
                return NotImplemented
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self) -> RationalFunction:
        return RationalFunction._new(-self.num, self.den)

    def __sub__(self, other) -> RationalFunction:
        if type(other) is not RationalFunction:
            other = self._coerced(other)
            if other is None:
                return NotImplemented
        return self._sum(other, True)

    def __rsub__(self, other) -> RationalFunction:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other._sum(self, True)

    def __mul__(self, other) -> RationalFunction:
        if type(other) is not RationalFunction:
            if isinstance(other, (int, Fraction)):
                return self._scaled(_canonical(other))
            other = self._coerced(other)
            if other is None:
                return NotImplemented
        if not (self.num.terms and other.num.terms) and \
                self.num.variables == other.num.variables:
            return RationalFunction._polynomial(Polynomial._new(self.variables, {}))
        if self.den.is_one() and other.den.is_one():
            return RationalFunction._polynomial(self.num * other.num)
        return self._joined(other, self.num * other.num, self.den._times(other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> RationalFunction:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> RationalFunction:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> RationalFunction:
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        if self.den.is_one():
            return RationalFunction._polynomial(self.num ** k)
        return RationalFunction._primitive(self.num ** k, self.den ** k)

    def __eq__(self, other) -> bool:
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return self.num == other.num
        return not (self.num * other.den - other.num * self.den)

    __hash__ = None

    def partial(self, var: str) -> RationalFunction:
        """Exact partial derivative via the quotient rule, formed once per
        variable: the instance keeps it, and every later call returns the
        same object."""
        try:
            memo = self._partials
        except AttributeError:
            memo = self._partials = {}
        value = memo.get(var)
        if value is None:
            if var not in self.variables:
                raise ValueError(f"unknown variable {var!r}")
            dn = self.num.partial(var)
            if self.den.is_one():
                value = RationalFunction._new(dn, self.den)
            else:
                dd = self.den.partial(var)
                value = RationalFunction._primitive(dn * self.den - self.num * dd,
                                                    self.den._times(self.den))
            memo[var] = value
        return value

    def evaluate(self, point: Mapping[str, Fraction] | ScaledPoint) -> Fraction:
        """num(p) / den(p) as one Fraction of the two scaled values."""
        point = ScaledPoint.of(point)
        d_num, d_den = (1, 1) if self.den.is_one() else self.den._scaled_value(point)
        if not d_num:
            at = ", ".join(f"{var}={value}" for var, value in point.point.items())
            raise PoleError(f"denominator vanishes at {at}")
        n_num, n_den = self.num._scaled_value(point)
        return Fraction(n_num * d_den, d_num * n_den)

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


# Term budget of one `^` in parsed text.  A t-term numerator or denominator
# raised to the k-th power can have C(k + t - 1, t - 1) terms, and its
# coefficients grow with k, so both that count and k itself must stay
# within the budget.  At the limit (x+1)^1000 and (x+y+1)^43 (990 terms)
# parse in under a second; (x+y+1)^3000 would reach 4.5 million terms.
MAX_POWER_TERMS = 1000

_TOKEN_RE = re.compile(r"\s+|(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for rational-function literals.

    Grammar (standard precedence, `^` binds tightest, then unary minus,
    then `*`/`/`, then `+`/`-`; `*` and `/` associate left):

        expr   := term (('+' | '-') term)*
        term   := unary (('*' | '/') unary)*
        unary  := '-' unary | power
        power  := atom ('^' INT)?
        atom   := INT | IDENT | '(' expr ')'
    """

    def __init__(self, text: str, variables: tuple[str, ...] | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables
        self.text = text

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else ("", "", 1, 1)
            raise ParseError("unexpected end of input", last[2], last[3] + len(last[1]))
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", tok[2], tok[3])

    def parse(self) -> RationalFunction:
        try:
            value = self.expr()
        except DegreeError as err:  # raised by the operation that ends at the last token read
            tok = self.tokens[self.pos - 1]
            raise ParseError(str(err), tok[2], tok[3]) from None
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return value
            self._next()
            rhs = self.term()
            value = value + rhs if tok[1] == "+" else value - rhs

    def term(self) -> RationalFunction:
        value = self.unary()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return value
            self._next()
            rhs = self.unary()
            if tok[1] == "*":
                value = value * rhs
            else:
                if not rhs:
                    raise ParseError("division by zero", tok[2], tok[3])
                value = value / rhs

    def unary(self) -> RationalFunction:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "-":
            self._next()
            return -self.unary()
        return self.power()

    def power(self) -> RationalFunction:
        base = self.atom()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self._next()
            exp_tok = self._next()
            if exp_tok[0] != "int":
                raise ParseError("exponent must be a positive integer", exp_tok[2], exp_tok[3])
            exponent = int(exp_tok[1])
            if exponent < 1:
                raise ParseError("exponent must be a positive integer", exp_tok[2], exp_tok[3])
            terms = max(len(base.num.terms), len(base.den.terms), 1)
            if (exponent > MAX_POWER_TERMS
                    or math.comb(exponent + terms - 1, terms - 1) > MAX_POWER_TERMS):
                raise ParseError(f"power ^{exponent} of a {terms}-term polynomial is over "
                                 f"the budget of {MAX_POWER_TERMS} terms", exp_tok[2], exp_tok[3])
            return base ** exponent
        return base

    def atom(self) -> RationalFunction:
        tok = self._next()
        kind, chunk, line, col = tok
        if kind == "int":
            return RationalFunction.constant(int(chunk), self.variables or ())
        if kind == "ident":
            if self.variables is not None and chunk not in self.variables:
                raise ParseError(f"unknown variable {chunk!r}", line, col)
            variable = Polynomial.variable(chunk)
            return RationalFunction._polynomial(variable.embed(self.variables or (chunk,)))
        if kind == "op" and chunk == "(":
            value = self.expr()
            self._expect_op(")")
            return value
        raise ParseError(f"unexpected token {chunk!r}", line, col)


def parse_ratfun(text: str, variables: Iterable[str] | None = None) -> RationalFunction:
    """Parse a rational-function literal.

    When `variables` is given, identifiers outside the list raise
    `ParseError` and the result is over exactly those variables (so partial
    derivatives with respect to any of them are defined): every atom is
    built over them, so no operation aligns two variable tuples.
    """
    return _Parser(text, tuple(variables) if variables is not None else None).parse()

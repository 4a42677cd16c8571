"""Exact dense linear algebra over any field with exact Python arithmetic.

Entries may be `int`, `fractions.Fraction` or `RationalFunction`; the
routines never pivot by magnitude (the first nonzero entry wins), so every
result is exact.

Every elimination runs through one kernel, `Echelon`, which grows a span
one vector at a time: `add(vec)` keeps `vec` when it is independent of the
vectors kept so far, and `vec in echelon` tests span membership.  A vector
over Q is scaled by the lcm of its denominators (`rationals.scaled_entries`)
and reduced fraction-free against primitive integer rows, after Bareiss
(Math. Comp. 22 (1968) 565-578).  A `RationalFunction` entry, or an lcm of
more than `rationals.MAX_SCALE_BITS` bits, keeps that vector, and the row
it may become, in field arithmetic (`+`, `-`, `*`, `/` and the zero test);
integer and field rows mix in one `Echelon`.

`rref` is two passes of that kernel.  The forward pass adds the rows in
order; the rows it keeps are a basis of the row space, each with zeros at
the pivots kept before it, so `rank` is their number.  The back pass
(`Echelon._reduced`) adds those rows, last to first, to a second
`Echelon`, which clears from each the pivots of the rows already final.
Sorted by pivot column, each row is divided by its pivot, one division per
output entry, so `Fraction`s are formed once, for the output.  The reduced
row echelon form is unique, so the result is the one that elimination over
Q gives: on Q input every output entry is a `Fraction`, and the rows past
the rank are zero rows.  `nullspace`, `solve`, `inverse` and `Coordinates`
go through these two passes, and every greedy basis (class generators,
symplectic frames, Lie closures, derived algebras) and every membership
test that needs no coordinates through `Echelon`.  `nullspace` negates
only the nonzero entries of the reduced rows.  `Coordinates` reduces a
fixed basis once and then reads the coordinates of many vectors in its
span, each checked by recombination in integers; `solve` is left for
one-off linear systems.  `matmul` multiplies the two scaled operands in
integers.

`Echelon.add(vec, _ints=True)` is the private int-row entry: `vec` is a
list of ints, taken as its own scaled form without a `scaled_entries`
pass, and reduced in place.  It has three callers.  The back pass hands
it each integer row of the forward pass, which is primitive ints already.
`models._stabilizer` hands it the stabilizer equations, ints over each
model tensor's denominator, and takes their nullspace from the `Echelon`
it filled (`Echelon._nullspace`); `models._closure` hands it each
curvature endomorphism and commutator, ints over its own denominator.
Both keep each element of their basis as ints over one denominator, and
`models._algebra_from_parts` builds its `Coordinates` on those int rows.

`det` keeps its own fraction-producing loop, the only other elimination
here.  Its callers need a value: the signs of a Killing form's leading
minors (`models`), and whether one `RationalFunction` determinant vanishes
(`charts.omega_is_nondegenerate`, once per chart verification).  One
triangular pass gives that; a rank through `Echelon` also reduces each
row to a unit pivot, and on the seeded 4D swell chart's omega it took
0.21 ms against `det`'s 0.05 ms (best of 50, Python 3.11).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .rationals import _scaled_ints, scaled_entries


def is_zero_scalar(x) -> bool:
    """Whether an entry is zero.  Every scalar is falsy exactly when it is
    zero, so this is a truth test.  It stays a function of its own, behind
    the entry tests of this module, because a test of the benchmark's
    tracer expects calls of it in a traced `chart-to-model` pass."""
    return not x


def rref(matrix: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    if not matrix:
        return [], []
    forward = Echelon()
    for row in matrix:
        forward.add(row)
    ncols = len(matrix[0])
    rows, pivots = forward._reduced(ncols)
    rows += ([Fraction(0)] * ncols for _ in range(len(matrix) - len(rows)))
    return rows, pivots


def rank(matrix: Sequence[Sequence]) -> int:
    span = Echelon()
    return sum(span.add(row) for row in matrix)


class Echelon:
    """Forward row echelon form of the vectors kept so far.

    Each row has zeros at every earlier row's pivot, so reducing a vector
    against the rows in order clears all pivots; it lies in the span
    exactly when nothing is left.  A vector over Q is reduced as its scaled
    integer entries against the primitive integer rows (positive pivot a),
    by v <- (a/g) v - (f/g) row for f = v[pivot] and g = gcd(a, f); any
    other vector, and any vector that meets a row kept in field arithmetic
    (pivot 1), is reduced by v <- v - (f/a) row.
    """

    def __init__(self):
        # (pivot column, the pivot entry of an integer row or None for a
        # field row with pivot 1, the row's nonzero (column, entry) pairs)
        self._rows: list[tuple] = []

    def _reduce(self, vec: Sequence, ints: bool = False) -> tuple[list, bool]:
        """The reduced vector, and whether it is still integer-scaled; a
        list of `ints` is taken as its own scaled form and reduced in place."""
        scaled = (vec, 1) if ints else scaled_entries(vec)
        exact = scaled is not None
        vec = scaled[0] if exact else list(vec)
        for pivot, a, row in self._rows:
            f = vec[pivot]
            if exact and a is not None:
                if f:
                    g = math.gcd(a, f)
                    if a != g:
                        vec = [a // g * x for x in vec]
                    f //= g
                    for c, x in row:
                        vec[c] -= f * x
            elif not is_zero_scalar(f):
                exact = False
                if a is not None:
                    f = Fraction(f, a) if type(f) is int else f / a
                for c, x in row:
                    vec[c] = vec[c] - f * x
        return vec, exact

    def add(self, vec: Sequence, *, _ints: bool = False) -> bool:
        """Keep `vec` if it is independent of the kept vectors; report whether.

        `_ints=True` is the private int-row entry: `vec` is a list of ints,
        reduced in place without `scaled_entries`.
        """
        vec, exact = self._reduce(vec, _ints)
        if exact:
            g = math.gcd(*vec)
            if not g:
                return False
            row = [(c, x // g) for c, x in enumerate(vec) if x]
            if row[0][1] < 0:
                row = [(c, -x) for c, x in row]
            self._rows.append((row[0][0], row[0][1], row))
            return True
        pivot = next((i for i, x in enumerate(vec) if not is_zero_scalar(x)), None)
        if pivot is None:
            return False
        a = Fraction(vec[pivot]) if type(vec[pivot]) is int else vec[pivot]
        self._rows.append((pivot, None, _nonzero([x / a for x in vec])))
        return True

    def __contains__(self, vec: Sequence) -> bool:
        return not any(self._reduce(vec)[0])

    def _reduced(self, ncols: int) -> tuple[list[list], list[int]]:
        """The nonzero rows of the reduced row echelon form of the kept
        vectors, and their pivots: the back pass of `rref`."""
        back = Echelon()
        for _, a, row in reversed(self._rows):
            vec = [0] * ncols
            for c, x in row:
                vec[c] = x
            back.add(vec, _ints=a is not None)
        back._rows.sort(key=lambda kept: kept[0])
        zero = Fraction(0)
        rows = []
        for _, a, row in back._rows:
            # a field row has pivot 1 already: it keeps its entries, and its
            # zeros take the type of its pivot
            vec = [zero if a is not None else row[0][1] * 0] * ncols
            for c, x in row:
                vec[c] = x if a is None else Fraction(x, a)
            rows.append(vec)
        return rows, [p for p, _, _ in back._rows]

    def _nullspace(self, ncols: int) -> list[list]:
        """`nullspace` of the kept vectors, one vector per free column."""
        reduced, pivots = self._reduced(ncols)
        pivot_set = set(pivots)
        zero, one = Fraction(0), Fraction(1)
        basis = []
        for f in range(ncols):
            if f in pivot_set:
                continue
            vec = [zero] * ncols
            vec[f] = one
            for row, p in zip(reduced, pivots):
                if x := row[f]:  # a Fraction zero stays `zero`
                    vec[p] = -x
            basis.append(vec)
        return basis


class Coordinates:
    """Coordinates of rational vectors over fixed independent vectors b_1..b_m.

    One elimination of [b | I] gives rows R = E b with unit pivots p_i; a
    vector v in the span is sum_i v[p_i] R_i, so its coordinates are
    c = E^T (v[p_i])_i.  Calling the instance on v returns c when
    sum_a c_a b_a == v holds exactly, and None when v lies outside the
    span.  E is kept as ints over one denominator L and the b_a as ints
    over one denominator B (`rationals._scaled_ints`), so a vector read as
    ints over its own denominator (`_ints`) is put in coordinates and
    checked in integers, visiting only the nonzero entries of E and b; a
    `Fraction` is formed once per nonzero coordinate.
    """

    def __init__(self, basis: Sequence[Sequence]):
        m = len(basis)
        width = len(basis[0]) if basis else 0
        one, zero = Fraction(1), Fraction(0)
        reduced, pivots = rref([list(b) + [one if j == i else zero for j in range(m)]
                                for i, b in enumerate(basis)])
        rows = [(p, row[width:]) for p, row in zip(pivots, reduced) if p < width]
        ints, self._den = _scaled_ints([x for _, row in rows for x in row])
        self._pivot_rows = [(p, _nonzero(ints[r * m:(r + 1) * m]))
                            for r, (p, _) in enumerate(rows)]
        ints, self._basis_den = _scaled_ints([x for b in basis for x in b])
        self._basis = [_nonzero(ints[a * width:(a + 1) * width]) for a in range(m)]

    def __call__(self, vec: Sequence) -> list | None:
        found = self._ints(*_scaled_ints(vec))
        return None if found is None else [Fraction(s, found[1]) for s in found[0]]

    def _ints(self, vec: list[int], den: int = 1) -> tuple[list[int], int] | None:
        """(sums, D), the coordinates of vec / den times D as ints, for `vec`
        a list of ints, or None when vec lies outside the span."""
        sums = [0] * len(self._basis)  # L den c
        for pivot, row in self._pivot_rows:
            if y := vec[pivot]:
                for a, x in row:
                    sums[a] += y * x
        combined = [0] * len(vec)  # L den B sum_a c_a b_a
        for s, entries in zip(sums, self._basis):
            if s:
                for pos, x in entries:
                    combined[pos] += s * x
        scale = self._den * self._basis_den
        if combined != [scale * v for v in vec]:
            return None
        return sums, self._den * den


def _nonzero(vec: Sequence) -> list[tuple[int, object]]:
    return [(i, x) for i, x in enumerate(vec) if not is_zero_scalar(x)]


def nullspace(matrix: Sequence[Sequence], ncols: int | None = None) -> list[list]:
    """Basis of the right nullspace (one vector per free column)."""
    rows = [list(r) for r in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty row list")
        ncols = len(rows[0])
    span = Echelon()
    for row in rows:
        span.add(row)
    return span._nullspace(ncols)


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> list | None:
    """A particular solution of A x = b (free variables set to 0), or None."""
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    if not rows:
        return []
    ncols = len(matrix[0])
    reduced, pivots = rref(rows)
    if pivots and pivots[-1] == ncols:
        return None
    zero = Fraction(0)
    x = [zero] * ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][ncols]
    return x


def inverse(matrix: Sequence[Sequence]) -> list[list]:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    one = Fraction(1)
    zero = Fraction(0)
    augmented = [
        list(row) + [one if j == i else zero for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    reduced, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def det(matrix: Sequence[Sequence]):
    """Determinant by fraction-producing Gaussian elimination with row swaps."""
    rows = [list(r) for r in matrix]
    n = len(rows)
    if n == 0:
        return Fraction(1)
    sign = 1
    result = None
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not is_zero_scalar(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            sample = rows[0][0]
            return Fraction(0) if isinstance(sample, (int, Fraction)) else sample - sample
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        pivot = rows[c][c]
        result = pivot if result is None else result * pivot
        for i in range(c + 1, n):
            factor = rows[i][c]
            if is_zero_scalar(factor):
                continue
            ratio = factor / pivot
            rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[c])]
    return result if sign == 1 else -result


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    scaled_a = scaled_entries([x for row in a for x in row])
    scaled_b = scaled_entries([x for row in b for x in row])
    if scaled_a is None or scaled_b is None:
        cols = list(zip(*b))
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
                for row in a]
    # (A da)(B db) / (da db), one Fraction per nonzero entry
    den = scaled_a[1] * scaled_b[1]
    ints_a, ints_b = iter(scaled_a[0]), iter(scaled_b[0])
    rows = [[next(ints_a) for _ in row] for row in a]
    cols = list(zip(*[[next(ints_b) for _ in row] for row in b]))
    zero = Fraction(0)
    return [[Fraction(s, den) if (s := sum(map(mul, row, col))) else zero for col in cols]
            for row in rows]


def transpose(matrix: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*matrix)]

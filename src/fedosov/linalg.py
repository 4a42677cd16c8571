"""Exact dense linear algebra over any field with exact Python arithmetic.

Entries may be `fractions.Fraction` or `RationalFunction`; the routines only
use `+`, `-`, `*`, `/` and comparison with zero, and they never pivot by
magnitude (the first nonzero entry wins), so every result is exact.

`Echelon` grows a span one vector at a time: `add(vec)` keeps `vec` when it
is independent of the vectors kept so far, and `vec in echelon` tests span
membership.  It is the only incremental elimination in the package: every
greedy basis (class generators, symplectic frames, Lie closures, derived
algebras) and every membership test that needs no coordinates uses it.
`Coordinates` reduces a fixed basis once and then reads the coordinates
of many vectors in its span, each checked by recombination; `solve` is
left for one-off linear systems.

For large matrices over Q there is a fast full-rank certificate: row-scale
to integers and eliminate modulo a fixed prime.  A maximal minor that is
nonzero mod p is nonzero over Z, so "full rank mod p" certifies full rank
over Q exactly; a deficient modular rank only triggers the exact fallback.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .rationals import RationalFunction

_CERT_PRIME = (1 << 61) - 1  # Mersenne prime


def is_zero_scalar(x) -> bool:
    # Exact types first: `isinstance(x, Fraction)` goes through the ABC
    # machinery, which a `RationalFunction` would pay on every call.
    cls = type(x)
    if cls is Fraction or cls is int:
        return not x
    if cls is RationalFunction:
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def rref(matrix: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not is_zero_scalar(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        if not (isinstance(inv, (int, Fraction)) and inv == 1):
            rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i == r:
                continue
            factor = rows[i][c]
            if is_zero_scalar(factor):
                continue
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: Sequence[Sequence]) -> int:
    return len(rref(matrix)[1])


class Echelon:
    """Forward row echelon form of the vectors kept so far.

    Each row has pivot entry 1 and zeros at every earlier row's pivot, so
    reducing a vector against the rows in order clears all pivots; it lies
    in the span exactly when nothing is left.
    """

    def __init__(self):
        # (pivot column, the row's nonzero (column, entry) pairs)
        self._rows: list[tuple[int, list[tuple[int, object]]]] = []

    def _reduce(self, vec: Sequence) -> list:
        vec = list(vec)
        for pivot, row in self._rows:
            factor = vec[pivot]
            if not is_zero_scalar(factor):
                for c, x in row:
                    vec[c] = vec[c] - factor * x
        return vec

    def add(self, vec: Sequence) -> bool:
        """Keep `vec` if it is independent of the kept vectors; report whether."""
        vec = self._reduce(vec)
        pivot = next((i for i, x in enumerate(vec) if not is_zero_scalar(x)), None)
        if pivot is None:
            return False
        inv = vec[pivot]
        self._rows.append((pivot, _nonzero([x / inv for x in vec])))
        return True

    def __contains__(self, vec: Sequence) -> bool:
        return all(is_zero_scalar(x) for x in self._reduce(vec))


class Coordinates:
    """Coordinates of rational vectors over fixed independent vectors b_1..b_m.

    One elimination of [b | I] gives rows R = E b with unit pivots p_i; a
    vector v in the span is sum_i v[p_i] R_i, so its coordinates are
    c = E^T (v[p_i])_i.  Calling the instance on v returns c when
    sum_a c_a b_a == v holds exactly, and None when v lies outside the
    span.  Only nonzero entries are visited, so one reduction serves many
    sparse vectors.
    """

    def __init__(self, basis: Sequence[Sequence]):
        m = len(basis)
        width = len(basis[0]) if basis else 0
        one, zero = Fraction(1), Fraction(0)
        reduced, pivots = rref([list(b) + [one if j == i else zero for j in range(m)]
                                for i, b in enumerate(basis)])
        self._pivot_rows = [(p, _nonzero(row[width:])) for p, row in zip(pivots, reduced)
                            if p < width]
        self._basis = [_nonzero(b) for b in basis]

    def __call__(self, vec: Sequence) -> list | None:
        coords = [Fraction(0)] * len(self._basis)
        for pivot, row in self._pivot_rows:
            y = vec[pivot]
            if not is_zero_scalar(y):
                for a, x in row:
                    coords[a] += y * x
        combined = [Fraction(0)] * len(vec)
        for c, entries in zip(coords, self._basis):
            if not is_zero_scalar(c):
                for pos, x in entries:
                    combined[pos] += c * x
        return coords if combined == list(vec) else None


def _nonzero(vec: Sequence) -> list[tuple[int, object]]:
    return [(i, x) for i, x in enumerate(vec) if not is_zero_scalar(x)]


def nullspace(matrix: Sequence[Sequence], ncols: int | None = None) -> list[list]:
    """Basis of the right nullspace (one vector per free column)."""
    rows = [list(r) for r in matrix]
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty row list")
        ncols = len(rows[0])
    if not rows:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)] for i in range(ncols)]
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    zero = Fraction(0)
    basis = []
    for f in free_cols:
        vec = [zero] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        basis.append(vec)
    return basis


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
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def transpose(matrix: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*matrix)]


def _int_rows(matrix: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out = []
    for row in matrix:
        scale = math.lcm(*{x.denominator for x in row})
        out.append([x.numerator * (scale // x.denominator) if x else 0 for x in row])
    return out


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(r + 1, len(rows)):
            factor = rows[i][c]
            if factor:
                pivot_vals = rows[r]
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], pivot_vals)]
        r += 1
        if r == len(rows):
            break
    return r


def certified_rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank: modular fast path when full, exact elimination otherwise."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    full = min(len(rows), len(rows[0]))
    modular = _rank_mod_p(_int_rows(rows), _CERT_PRIME)
    if modular == full:
        return modular
    return rank(rows)

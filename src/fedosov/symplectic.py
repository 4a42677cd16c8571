"""Symplectic vector spaces, dense tensors and the index calculus between pictures.

Conventions fixed here and used everywhere else:

* The standard symplectic basis (e_1, ..., e_n, e_{n+1}, ..., e_{2n})
  satisfies omega(e_i, e_{i+n}) = 1 for 1 <= i <= n and every other basis
  pairing in the upper triangle is 0.  Indices are 0-based in code, 1-based
  in serialized form and error messages.

* One codec maps multi-indices: (i_1, ..., i_r) of a dim^r array sits at
  flat position (...(i_1 dim + i_2) dim + ...) dim + i_r, so for indices
  of one length flat order is lexicographic order.  `_flat` and `_unflat`
  convert between the two, and `_index_of_key` reads the 1-based
  comma-joined key of a tensor, model or chart file ("1,2") as the 0-based
  tuple.  Each reader checks the range and words its own errors; a kernel
  of one fixed rank may write the position out in closed form.

* A (1,2)-tensor written A_X Y is stored with slot order (X, Y, output);
  a (1,3)-tensor written A_XY Z with slot order (X, Y, Z, output).

* Lowering conventions relating the (1,2) and (0,3) pictures:
  torsion-like   T(X,Y,Z) = omega(T_X Y, Z)      (antisymmetric in X, Y),
  cotorsion-like S(X,Y,Z) = omega(S_Z X, Y)      (symmetric in X, Y exactly
  when each endomorphism S_Z is in the symplectic Lie algebra).

* Every action of a matrix on a tensor -- change of basis, push-forward,
  derivations, covariant derivatives, raising and lowering -- goes through
  one kernel.  `_moves(M)` lists, for each row l of a matrix, the pairs
  (a - l, M[l][a]) of its nonzero entries, and `_scatter` adds each entry
  of a {flat: value} map, times each factor of the row of its slot value
  l, into the entry with a in that slot, at flat + (a - l) * stride.
  Entries go in flat order, so an output entry sums its terms over l in
  increasing order, and it starts from its first term.
  `_contract_slot(t, slot, M)` scatters t's support (`Tensor.support`,
  the nonzero positions, found once per tensor): out[..., a, ...] =
  sum_l t[..., l, ...] M[l][a], the slot index meets the matrix's row
  index and the column index becomes the new slot.  A matrix acting on
  vectors (row = output) therefore enters a contravariant slot
  transposed.  Vectors go through the same kernel: a d x 1 matrix makes
  the slot drop out, and `insert_vector(t, slot, v)` is that interior
  product.  Musical isomorphisms and every chart contraction with a
  vector field are built on it.
  A derivation sums one such contraction per slot, endo^T on a
  contravariant slot and -endo on a covariant one, both tables built once
  per endomorphism.  The model checks, whose entries are exact constants,
  scatter the nonzero model data as ints (`models._derivation_scatter`).
  `_derivation_entries` forms the same sums one entry at a time, gathered
  from the same tables in the same order, and forms only the entries that
  the support of its input reaches, since chart data are sparse; a check
  that stops at a nonzero entry computes nothing after it.  Its fixed
  summation order is what keeps the unreduced `RationalFunction`
  witnesses of the chart suites stable.  Its readers are the chart
  covariant derivatives (`charts._nabla_entries`, which adds the partials
  on the support of its field) and the public `models.derivation_action`.
  `change_basis` (and so every push-forward) scatters one slot after the
  other (`_changed_comps`), so only nonzero coordinates are visited; the
  matrix must be d x d, and its inverse is formed only when a
  contravariant slot reads it.  The pullback M^T omega M of the
  symplectic-map check and of `charts.model_at_point` is the change of
  basis of omega as a (0,2)-tensor.  When the tensor and both matrices
  are constant they are scaled to ints first, each by the lcm of its
  denominators (`rationals.scaled_entries`); each result entry is then
  divided once, and the result's support is known without a scan.
  Other entries (`RationalFunction`s, or a denominator past
  `rationals.MAX_SCALE_BITS`) go through the same loop as they are.  One
  reader, `_first_changed_difference`, finds the first entry at which the
  undivided result differs from a target, for the isomorphism check, the
  symplectic-map check and `model_at_point`'s standard form.

* Three kernels read sparse arrays, {flat: value} with absent meaning
  zero: the first antisymmetry failure in the first two slots
  (`_first_antisymmetry_violation`), the pairing of two arrays through a
  shared index (`_pair_through_first_slot`), and the first nonzero cyclic
  sum over three slots (`_first_cyclic_failure`).  The model axioms
  (antisymmetry, both Bianchi identities) and the Lie-algebra
  presentations of `models` (antisymmetry, and Jacobi as a cyclic sum of
  paired constants) share them.

Tensors are stored dense: at n = 4 a (0,3)-tensor has 512 entries, so a
sparse format would be unjustified.  Components may be `Fraction` (constant
tensors) or `RationalFunction` (coordinate fields); all operations are pure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from . import linalg
from .rationals import divided, scaled_entries

COV = "cov"
CON = "con"

# Largest half-dimension an input may declare: `dims --n-max`, `--n`, the
# `n` of a tensor or model file, and half a chart's coordinate count.  It is
# checked before anything of size (2n)^rank is allocated.  At the cap a
# (0,3)-tensor has 1728 entries and `dims --n-max 6` takes 2.6 s (36 MB) on
# a 2-core Xeon under Python 3.11; the class conditions grow as n^3 by n^3.
MAX_N = 6

# Most slots a tensor or chart field read from a file may have: the rank of
# the curvature, the largest any command reads.  Checked before the
# dim ** rank components are allocated.
MAX_RANK = 4

# Most tensors a file may declare in a list of its own: the `aux` tensors of
# a model and the `fields` of a chart.  Each takes up to 12^4 slots before
# anything reads it, about 0.16 MB, so the count is checked before any is
# allocated.  The fixtures declare at most two.
MAX_TENSORS = 16


class SymplecticSpace:
    """R^{2n} with the standard symplectic form."""

    __slots__ = ("n", "dim", "omega", "omega_inv")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("half-dimension must be a positive integer")
        self.n = n
        self.dim = 2 * n
        zero = Fraction(0)
        one = Fraction(1)
        omega = [[zero] * self.dim for _ in range(self.dim)]
        for i in range(n):
            omega[i][i + n] = one
            omega[i + n][i] = -one
        self.omega = tuple(tuple(row) for row in omega)
        # For the standard block form, omega^2 = -Id.
        self.omega_inv = tuple(tuple(-x for x in row) for row in omega)

    def __eq__(self, other):
        return isinstance(other, SymplecticSpace) and other.n == self.n

    def __hash__(self):
        return hash(("SymplecticSpace", self.n))

    def __repr__(self):
        return f"SymplecticSpace(n={self.n})"


class Tensor:
    """Dense multi-index array with a declared covariant/contravariant valence.

    Instances are immutable once built: `support` is found on first read
    and kept, so writing into `comps` afterwards would leave it stale.
    """

    __slots__ = ("dim", "valence", "comps", "space", "_support")

    def __init__(self, dim: int, valence: Sequence[str], comps: list,
                 space: SymplecticSpace | None = None):
        self.dim = dim
        self.valence = tuple(valence)
        for kind in self.valence:
            if kind not in (COV, CON):
                raise ValueError(f"bad slot kind {kind!r}")
        expected = dim ** len(self.valence)
        if len(comps) != expected:
            raise ValueError(f"expected {expected} components, got {len(comps)}")
        self.comps = comps
        self.space = space
        self._support = None
        if space is not None and space.dim != dim:
            raise ValueError("space dimension does not match tensor dimension")

    # -- construction -----------------------------------------------------

    @classmethod
    def zeros(cls, dim: int, valence: Sequence[str], *, zero=Fraction(0),
              space: SymplecticSpace | None = None) -> Tensor:
        return cls(dim, valence, [zero] * (dim ** len(valence)), space=space)

    @classmethod
    def build(cls, dim: int, valence: Sequence[str], fn: Callable[..., object],
              *, space: SymplecticSpace | None = None) -> Tensor:
        """Componentwise constructor: fn(*indices) -> scalar."""
        comps = [fn(*idx) for idx in itertools.product(range(dim), repeat=len(valence))]
        return cls(dim, valence, comps, space=space)

    # -- indexing ----------------------------------------------------------

    def __getitem__(self, idx: tuple[int, ...]):
        return self.comps[_flat(self.dim, idx)]

    def indices(self):
        return itertools.product(range(self.dim), repeat=len(self.valence))

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: Tensor):
        if self.dim != other.dim or self.valence != other.valence:
            raise ValueError("tensors have different shape or valence")

    def __add__(self, other: Tensor) -> Tensor:
        self._check_compatible(other)
        return Tensor(self.dim, self.valence,
                      [a + b for a, b in zip(self.comps, other.comps)],
                      space=self.space or other.space)

    def __sub__(self, other: Tensor) -> Tensor:
        self._check_compatible(other)
        return Tensor(self.dim, self.valence,
                      [a - b for a, b in zip(self.comps, other.comps)],
                      space=self.space or other.space)

    def __neg__(self) -> Tensor:
        return Tensor(self.dim, self.valence, [-a for a in self.comps], space=self.space)

    def scale(self, c) -> Tensor:
        return Tensor(self.dim, self.valence, [c * a for a in self.comps], space=self.space)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.dim != other.dim or self.valence != other.valence:
            return False
        return all(a == b for a, b in zip(self.comps, other.comps))

    __hash__ = None

    @property
    def support(self) -> tuple[int, ...]:
        """The flat positions of the nonzero entries, increasing."""
        if self._support is None:
            self._support = tuple(itertools.compress(itertools.count(), self.comps))
        return self._support

    def is_zero(self) -> bool:
        return not self.support

    def first_nonzero(self) -> tuple[tuple[int, ...], object] | None:
        """First (multi-index, value) with a nonzero value, indices 0-based."""
        if not self.support:
            return None
        flat = self.support[0]
        return _unflat(self.dim, len(self.valence), flat), self.comps[flat]

    # -- symmetry -----------------------------------------------------------

    def is_symmetric_in(self, a: int, b: int) -> bool:
        return self.first_symmetry_violation(a, b, anti=False) is None

    def is_antisymmetric_in(self, a: int, b: int) -> bool:
        return self.first_symmetry_violation(a, b, anti=True) is None

    def first_symmetry_violation(self, a: int, b: int, *, anti: bool) -> tuple[int, ...] | None:
        """First multi-index, in `indices()` order, where swapping slots a, b fails."""
        comps = self.comps
        for flat, other in _swap_pairs(self.dim, len(self.valence), a, b, anti):
            if comps[flat] != (-comps[other] if anti else comps[other]):
                return _unflat(self.dim, len(self.valence), flat)
        return None

    def __repr__(self):
        return f"Tensor(dim={self.dim}, valence={self.valence}, nonzero={len(self.support)})"


def _flat(dim: int, idx: Iterable[int]) -> int:
    """The flat position of a multi-index in a dim^rank array, the inverse of `_unflat`."""
    flat = 0
    for i in idx:
        flat = flat * dim + i
    return flat


def _unflat(dim: int, rank: int, flat: int) -> tuple[int, ...]:
    """The multi-index at a flat position of a dim^rank array."""
    idx = []
    for _ in range(rank):
        flat, i = divmod(flat, dim)
        idx.append(i)
    return tuple(reversed(idx))


@lru_cache(maxsize=None)
def _swap_pairs(dim: int, rank: int, a: int, b: int, anti: bool) -> tuple[tuple[int, int], ...]:
    """(flat, flat of the index with slots a, b swapped), in increasing flat order.

    A pair fails the (anti)symmetry test exactly when its mirror pair does,
    so the first failure always sits at flat <= swapped and the mirror
    half is left out; a fixed point can fail only antisymmetry.
    """
    pairs = []
    for flat, idx in enumerate(itertools.product(range(dim), repeat=rank)):
        swapped = list(idx)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        other = _flat(dim, swapped)
        if flat < other or (anti and flat == other):
            pairs.append((flat, other))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _cyclic_positions(dim: int) -> tuple[tuple[int, int, int], ...]:
    """Flat positions of (i,j,k), (j,k,i), (k,i,j) for each (i,j,k) in order."""
    return tuple(((i * dim + j) * dim + k, (j * dim + k) * dim + i, (k * dim + i) * dim + j)
                 for i in range(dim) for j in range(dim) for k in range(dim))


# -- sparse kernels on {flat: value} entries, absent meaning zero -------------------

def _first_antisymmetry_violation(entries: dict, d: int, rank: int) -> tuple[int, ...] | None:
    """`first_symmetry_violation(0, 1, anti=True)` of a d^rank array, read
    off its nonzero entries {flat: value}: a failing pair has a nonzero
    entry, and the first failure is the smaller flat of the first failing pair."""
    block = d ** (rank - 2)
    bad = []
    for flat, value in entries.items():
        (i, j), rest = divmod(flat // block, d), flat % block
        other = (j * d + i) * block + rest
        if value + entries.get(other, 0):
            bad.append(min(flat, other))
    return _unflat(d, rank, min(bad)) if bad else None


def _pair_through_first_slot(left: dict, right: dict, d: int, block: int) -> dict[int, int]:
    """{flat: sum_m left[.., m] right[m, ..]} from the nonzero entries of both.

    `left` holds entries at flat = head * d + m, `right` at flat = m * block
    + rest, with absent meaning zero; each product lands at head * block +
    rest.  Positions no product reaches are absent.
    """
    by_first = [[] for _ in range(d)]
    for flat, value in right.items():
        m, rest = divmod(flat, block)
        by_first[m].append((rest, value))
    out: dict[int, int] = {}
    for flat, a in left.items():
        head, m = divmod(flat, d)
        base = head * block
        for rest, b in by_first[m]:
            target = base + rest
            out[target] = out.get(target, 0) + a * b
    return out


def _first_cyclic_failure(entries: dict, d: int, tail: int) -> int | None:
    """The first flat ijk * tail + rest, i <= j <= k, in increasing order, at
    which the cyclic sum over (i, j, k) of an array of d^3 * tail entries is
    nonzero, or None.  `entries` maps flat positions to values, absent
    meaning zero.

    Each entry is added to the sum of the rotation of its (x, y, z) that
    has i <= j <= k, if there is one: a sum with three equal indices takes
    its one entry once, not three times, which changes no zero test.  Flat
    order is the lexicographic order on (i, j, k, rest).
    """
    sums: dict[int, int] = {}
    for flat, value in entries.items():
        xyz, rest = divmod(flat, tail)
        x, y, z = xyz // (d * d), xyz // d % d, xyz % d
        for i, j, k in ((x, y, z), (y, z, x), (z, x, y)):
            if i <= j <= k:
                key = ((i * d + j) * d + k) * tail + rest
                sums[key] = sums.get(key, 0) + value
                break
    bad = [flat for flat, value in sums.items() if value]
    return min(bad) if bad else None


def _resolve_omega(t: Tensor, omega):
    if omega is not None:
        return omega
    if t.space is None:
        raise ValueError("tensor has no symplectic space and no omega was supplied")
    return t.space.omega


def _resolve_omega_inverse(t: Tensor, omega):
    omega = _resolve_omega(t, omega)
    if t.space is not None and omega is t.space.omega:
        return t.space.omega_inv
    return linalg.inverse([list(row) for row in omega])


def _moves(matrix: Sequence[Sequence]) -> list[list[tuple[int, object]]]:
    """moves[l]: the (a - l, matrix[l][a]) pairs of the nonzero entries of
    row l, a increasing.  Every entry is its own zero test."""
    return [[(a - l, x) for a, x in enumerate(row) if x] for l, row in enumerate(matrix)]


def _scatter(entries: dict, moves: list, stride: int, out: dict) -> dict:
    """Add each entries[flat] * x into out[flat + shift * stride], over the
    (shift, x) pairs of moves[l], l the slot value of flat at that stride:
    the slot moves from l to l + shift.  Entries go in the order of
    `entries`, each through its moves in order, and an entry of `out` that
    has none yet starts from its first term.  Returns `out`."""
    d = len(moves)
    for flat, value in entries.items():
        for shift, factor in moves[flat // stride % d]:
            target = flat + shift * stride
            total = out.get(target)
            out[target] = value * factor if total is None else total + value * factor
    return out


def _contract_slot(t: Tensor, slot: int, matrix: Sequence[Sequence]) -> list:
    """Components of t with one slot contracted against the rows of a d x k
    matrix, k <= d.

    out[..., a, ...] = sum_l t[..., l, ...] * matrix[l][a] for a < k; the
    slot runs over k values afterwards, so a single column (a vector) makes
    it drop out.  The entries of `t.support` are scattered in flat order
    (`_scatter`), so an output entry sums its terms over l in increasing
    order, skips zero terms and starts from the first nonzero one; an entry
    no term reaches is the zero of t's scalar type.
    """
    d, k = t.dim, len(matrix[0])
    stride = d ** (len(t.valence) - 1 - slot)
    # a k-column matrix shifts each block of d * stride entries by (k - d) * stride
    block, shift = d * stride, (k - d) * stride
    comps = t.comps
    out = [_scalar_zero(t)] * (len(comps) // d * k)
    for flat, value in _scatter({flat: comps[flat] for flat in t.support}, _moves(matrix),
                                stride, {}).items():
        out[flat + flat // block * shift] = value
    return out


def _scalar_zero(t: Tensor):
    """The zero of t's scalar type (Fraction for constant tensors)."""
    sample = t.comps[0]
    return Fraction(0) if isinstance(sample, (int, Fraction)) else sample - sample


def _column_sum(comps: list, nonzero: bytearray, flat: int, stride: int, column: list, zero):
    """sum comps[flat + shift * stride] * factor over the (shift, factor)
    terms of a column, in order, skipping the terms whose component
    `nonzero` marks as zero and starting from the first nonzero one; `zero`
    if none."""
    total = None
    for shift, factor in column:
        at = flat + shift * stride
        if nonzero[at]:
            term = comps[at] * factor
            total = term if total is None else total + term
    return zero if total is None else total


def _derivation_entries(endo: Sequence[Sequence], t: Tensor):
    """(flat, value) for the derivation action of `endo` on t, in increasing
    flat order, one entry formed per draw, at the positions of `t.support`
    and those that some nonzero entry of t meets through a nonzero entry of
    endo.

    `endo` is a matrix with the output index first.  Entry j sums, in
    valence order, one part per slot: what `_contract_slot` gives at j with
    endo^T on a contravariant slot and -endo on a covariant one, summed
    over l in increasing order by `_column_sum`, zero components of t
    skipped.  The parts are merged from Fraction(0), skipping zero ones.
    A reached entry may still sum to zero; a support position that no
    entry reaches comes with value None, so that a reader adding a term
    that lives on the support (the partials of a covariant derivative)
    never draws an entry ahead of its position.  Every entry not yielded
    with a value is the zero of t's scalar type (for a zero t, its own
    entries), which is what the sum would give.  Nothing after the drawn
    pair is computed.  The chart path reads these entries unreduced in its
    witnesses, so the order of summation above is fixed.
    """
    comps = t.comps
    d, rank = t.dim, len(t.valence)
    support = t.support
    nonzero = bytearray(len(comps))
    for flat in support:
        nonzero[flat] = 1
    # The `_moves` of endo and endo^T, once per call.  Slot value a gathers
    # endo[a][l] (row a of endo) on a contravariant slot and -endo[l][a]
    # (row a of -endo^T, negated only if a slot needs it) on a covariant
    # one; slot value l reaches the a of row l of the other table.
    rows, cols = _moves(endo), _moves(linalg.transpose(endo))
    negated = [[(shift, -x) for shift, x in row] for row in cols] if COV in t.valence else None
    slots = [(d ** (rank - 1 - slot), *((rows, cols) if kind == CON else (negated, rows)))
             for slot, kind in enumerate(t.valence)]
    # walk[flat]: 2 where some entry of t reaches flat, 1 where only the support is walked
    walk = bytearray(nonzero)
    for stride, _, reach in slots:
        for flat in support:
            for shift, _ in reach[flat // stride % d]:
                walk[flat + shift * stride] = 2
    zero = _scalar_zero(t)
    for flat in itertools.compress(range(len(comps)), walk):
        if walk[flat] != 2:
            yield flat, None
            continue
        total = None  # Fraction(0), the start of the merge, which a zero part replaces
        for stride, gather, _ in slots:
            part = _column_sum(comps, nonzero, flat, stride, gather[flat // stride % d], zero)
            if not total:
                total = part
            elif part:
                total = total + part
        yield flat, total


def insert_vector(t: Tensor, slot: int, vec: Sequence) -> Tensor:
    """t with the vector `vec` inserted into one slot, which drops out:
    out[..., ...] = sum_l t[..., l, ...] * vec[l], summed as in `_contract_slot`."""
    return Tensor(t.dim, t.valence[:slot] + t.valence[slot + 1:],
                  _contract_slot(t, slot, [[v] for v in vec]), space=t.space)


# -- musical isomorphisms ---------------------------------------------------

def musical_flat(space: SymplecticSpace, vector: Sequence) -> list:
    """X -> X* with X*(Y) = omega(X, Y); returns covector components."""
    return _contract_slot(Tensor(space.dim, (CON,), list(vector)), 0, space.omega)


def musical_sharp(space: SymplecticSpace, covector: Sequence) -> list:
    """Inverse of `musical_flat`: X^m = sum_j alpha_j (omega^{-1})_jm."""
    return _contract_slot(Tensor(space.dim, (COV,), list(covector)), 0, space.omega_inv)


# -- raising and lowering ----------------------------------------------------

def torsion_lower(t: Tensor, omega=None) -> Tensor:
    """(1,2) antisymmetric T_X Y  ->  (0,3) with T(X,Y,Z) = omega(T_X Y, Z)."""
    if t.valence != (COV, COV, CON):
        raise ValueError("expected a (1,2)-tensor with valence (cov, cov, con)")
    bad = t.first_symmetry_violation(0, 1, anti=True)
    if bad is not None:
        raise ValueError(f"tensor is not antisymmetric in its arguments at {_one_based(bad)}")
    omega = _resolve_omega(t, omega)
    return Tensor(t.dim, (COV, COV, COV), _contract_slot(t, 2, omega), space=t.space)


def torsion_raise(t: Tensor, omega=None) -> Tensor:
    """Inverse of `torsion_lower`."""
    if t.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    inv = _resolve_omega_inverse(t, omega)
    return Tensor(t.dim, (COV, COV, CON), _contract_slot(t, 2, inv), space=t.space)


def cotorsion_lower(t: Tensor, omega=None) -> Tensor:
    """(1,2) S_Z X -> (0,3) with S(X,Y,Z) = omega(S_Z X, Y).

    The subscript slot of S is the first storage slot, so the component
    S(X,Y,Z) reads storage index (Z, X, output) contracted with omega.
    """
    if t.valence != (COV, COV, CON):
        raise ValueError("expected a (1,2)-tensor with valence (cov, cov, con)")
    omega = _resolve_omega(t, omega)
    lowered = Tensor(t.dim, (COV, COV, COV), _contract_slot(t, 2, omega))
    return Tensor.build(t.dim, (COV, COV, COV), lambda i, j, k: lowered[k, i, j],
                        space=t.space)


def cotorsion_raise(t: Tensor, omega=None) -> Tensor:
    """Inverse of `cotorsion_lower`."""
    if t.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    inv = _resolve_omega_inverse(t, omega)
    raised = Tensor(t.dim, (COV, CON, COV), _contract_slot(t, 1, inv))
    return Tensor.build(t.dim, (COV, COV, CON), lambda k, i, l: raised[i, l, k],
                        space=t.space)


# -- contractions -------------------------------------------------------------

def _require_n(t: Tensor) -> int:
    if t.dim % 2 != 0:
        raise ValueError("tensor dimension is odd; no symplectic half-dimension")
    return t.dim // 2


def _require_shape(t: Tensor, *, anti: bool) -> None:
    """Raise ValueError unless t is a (0,3)-tensor (anti)symmetric in slots (1,2)."""
    if t.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    bad = t.first_symmetry_violation(0, 1, anti=anti)
    if bad is not None:
        raise ValueError(f"tensor is not {'anti' if anti else ''}symmetric in slots (1,2); "
                         f"first violation at {_one_based(bad)}")


# The unchecked traces sum from int 0, so they keep the scalar type of the
# entries: `Fraction` tensors trace to `Fraction`s, int unit tensors to ints.

def _trace_12(t: Tensor) -> list:
    """sum_i T(e_i, e_{i+n}, Z), with no symmetry check."""
    d, n, c = t.dim, t.dim // 2, t.comps
    return [sum(c[(i * d + i + n) * d + z] for i in range(n)) for z in range(d)]


def _trace_13(t: Tensor) -> list:
    """sum_i (T(e_i, Y, e_{i+n}) - T(e_{i+n}, Y, e_i)), with no symmetry check."""
    d, n, c = t.dim, t.dim // 2, t.comps
    return [sum(c[(i * d + y) * d + i + n] - c[((i + n) * d + y) * d + i] for i in range(n))
            for y in range(d)]


def contract_s13(t: Tensor) -> list:
    """s13(S)(Z) = sum_i (S(e_i, Z, e_{i+n}) - S(e_{i+n}, Z, e_i)) for symmetric S."""
    _require_shape(t, anti=False)
    _require_n(t)
    return _trace_13(t)


def contract_t12(t: Tensor) -> list:
    """t12(T)(Z) = sum_i T(e_i, e_{i+n}, Z) for T antisymmetric in (1,2)."""
    _require_shape(t, anti=True)
    _require_n(t)
    return _trace_12(t)


def contract_t13(t: Tensor) -> list:
    """t13(T)(Y) = sum_i (T(e_i, Y, e_{i+n}) - T(e_{i+n}, Y, e_i)) for antisymmetric T."""
    _require_shape(t, anti=True)
    _require_n(t)
    return _trace_13(t)


def cyclic_sum(t: Tensor) -> Tensor:
    """(cyclic_sum A)(X,Y,Z) = A(X,Y,Z) + A(Y,Z,X) + A(Z,X,Y)."""
    if t.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    c = t.comps
    return Tensor(t.dim, t.valence, [c[f] + c[g] + c[h] for f, g, h in _cyclic_positions(t.dim)],
                  space=t.space)


# -- change of basis -----------------------------------------------------------

def change_basis(t: Tensor, basis_matrix: Sequence[Sequence], basis_inverse=None) -> Tensor:
    """Components in the basis whose vectors are the columns of `basis_matrix`.

    Covariant slots contract with the matrix, contravariant slots with its
    inverse: T'(a...) = sum T(i...) M[i][a] ... Minv[b][j] ...

    On constant entries the contractions run on D t, d_M M and d_Minv Minv
    as ints, and each entry is divided once by D d_M^#cov d_Minv^#con.
    A matrix that is not d x d, or not invertible, raises `ValueError`.
    """
    entries, den = _changed_comps(t, basis_matrix, basis_inverse)
    if basis_inverse is None and CON not in t.valence:
        linalg.inverse(basis_matrix)  # raises `matrix is singular` when the columns are no basis
    comps = [0 if den else _scalar_zero(t)] * len(t.comps)
    for flat, value in entries.items():
        comps[flat] = value
    out = Tensor(t.dim, t.valence, divided(comps, den) if den else comps, space=t.space)
    out._support = tuple(sorted(entries))
    return out


def _require_square_map(f: Sequence[Sequence], dim: int) -> None:
    widths = sorted({len(row) for row in f})
    if len(f) != dim or widths != [dim]:
        shape = f"{len(f)}x{'/'.join(map(str, widths)) or 0}"
        raise ValueError(f"the linear map is {shape}, not {dim}x{dim}")


def _changed_comps(t: Tensor, basis_matrix: Sequence[Sequence], basis_inverse=None):
    """(entries, den): the nonzero entries of `change_basis`'s result as
    {flat: value}, times den as ints when t and both matrices scale to
    ints, and otherwise as they are, with den None.

    Each slot scatters every nonzero entry, in flat order, through the
    nonzero entries of its matrix row (`_scatter`), so only nonzero
    coordinates are visited.  An inverse not given is formed only when a
    contravariant slot reads it (M stands in), so forms pull back along any M.
    """
    _require_square_map(basis_matrix, t.dim)
    m = [list(row) for row in basis_matrix]
    minv = m if CON not in t.valence else (  # M stands in where no slot reads Minv
        basis_inverse if basis_inverse is not None else linalg.inverse(m))
    minv_t = linalg.transpose(minv)
    # the type test keeps a zero `RationalFunction` tensor, whose support is
    # empty, off the int path
    scaled = isinstance(t.comps[0], (int, Fraction)) and scaled_entries(
        [t.comps[flat] for flat in t.support])
    on_cov, on_con = _scaled_matrix(m), _scaled_matrix(minv_t)
    if not (scaled and on_cov and on_con):  # the entries as they are
        scaled, on_cov, on_con = ([t.comps[flat] for flat in t.support], None), (m, 1), (minv_t, 1)
    ints, den = scaled
    on_cov, on_con = [(_moves(matrix), scale) for matrix, scale in (on_cov, on_con)]
    entries = dict(zip(t.support, ints))
    d, rank = t.dim, len(t.valence)
    for slot, kind in enumerate(t.valence):
        moves, scale = on_cov if kind == COV else on_con
        den = den and den * scale
        reached = _scatter(entries, moves, d ** (rank - 1 - slot), {})
        entries = {flat: x for flat, x in sorted(reached.items()) if x}
    return entries, den


def _first_changed_difference(t: Tensor, basis_matrix: Sequence[Sequence], basis_inverse,
                              wanted: dict[int, int], wanted_den: int):
    """The first (multi-index, value), in flat order, at which
    change_basis(t, basis_matrix, basis_inverse) differs from the target
    {flat: y} / wanted_den (its nonzero entries), or None, read off the
    undivided x / den where either is nonzero: x wanted_den - y den."""
    entries, den = _changed_comps(t, basis_matrix, basis_inverse)
    den = den or 1  # entries past the int path are taken as they are
    for flat in sorted(entries.keys() | wanted.keys()):
        if x := entries.get(flat, 0) * wanted_den - wanted.get(flat, 0) * den:
            return _unflat(t.dim, len(t.valence), flat), divided([x], den * wanted_den)[0]
    return None


def _scaled_matrix(matrix: list[list]) -> tuple[list[list], int] | None:
    """`scaled_entries` of a matrix, kept as rows, or None."""
    scaled = scaled_entries([x for row in matrix for x in row])
    if scaled is None:
        return None
    flat, den = scaled
    width = len(matrix[0])
    return [flat[i:i + width] for i in range(0, len(flat), width)], den


def is_symplectic_matrix(space: SymplecticSpace, matrix: Sequence[Sequence]) -> bool:
    """M^T omega M = omega, i.e. the columns form a symplectic basis."""
    return first_symplectic_defect(space, matrix) is None


def first_symplectic_defect(space: SymplecticSpace, matrix: Sequence[Sequence]):
    """First ((i, j), value) with (M^T omega M - omega)[i][j] = value nonzero, or None."""
    return _pullback_defect(space, space.omega, matrix)


def _pullback_defect(space: SymplecticSpace, form: Sequence[Sequence], matrix):
    """The first ((i, j), value) at which M^T form M - omega is nonzero, or
    None.  M^T form M is the change of basis of form, a (0,2)-tensor, to
    the columns of M."""
    omega = {flat: int(x) for flat, x in enumerate(y for row in space.omega for y in row) if x}
    form = Tensor(space.dim, (COV, COV), [x for row in form for x in row])
    return _first_changed_difference(form, matrix, None, omega, 1)


# -- serialization --------------------------------------------------------------

def _one_based(idx: Iterable[int]) -> tuple[int, ...]:
    return tuple(i + 1 for i in idx)


def tensor_to_json(t: Tensor) -> dict:
    """JSON form: 1-based comma-joined index keys, `p/q` strings, zeros omitted."""
    rank = len(t.valence)
    components = {",".join(str(i + 1) for i in _unflat(t.dim, rank, flat)): str(t.comps[flat])
                  for flat in t.support}
    return {"n": t.dim // 2, "valence": list(t.valence), "components": components}


def _index_of_key(key: str, rank: int) -> tuple[int, ...] | None:
    """The 0-based multi-index of a 1-based comma-joined file key such as
    "1,2" (the empty key is the empty index of a scalar), or None when a
    part is no integer or the key has not `rank` parts.  The caller checks
    the range, and words its own error."""
    try:
        idx = tuple(int(part) - 1 for part in key.split(",")) if key else ()
    except ValueError:
        return None
    return idx if len(idx) == rank else None


def _is_int(value) -> bool:
    """A JSON integer (`bool` is an `int` subclass but not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_fraction(text: str) -> Fraction:
    """`Fraction(text)`, with a zero denominator reported as `ValueError`.

    The exponent form (`1e5`) is rejected: `Fraction` expands the power
    of ten in time that grows with the exponent, which no bound on the
    length of the text limits.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponent form {text!r} is not accepted")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _half_dimension(data: dict) -> int:
    """`data["n"]`, checked to be an integer in 1..MAX_N (`ValueError` if not)."""
    n = data["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise ValueError(f"'n' must be at most {MAX_N}, got {n}")
    return n


def tensor_from_json(data: dict, *, space: SymplecticSpace | None = None) -> Tensor:
    """Inverse of `tensor_to_json`, with `Fraction` components.

    Malformed input raises `ValueError` (`KeyError` for a missing field): the
    tensor must be an object, `n` an integer in 1..MAX_N, `valence` a list
    of at most MAX_RANK slots, `components` an object whose values are strings,
    with no index given twice (as "1,2" and "01,2").
    """
    if not isinstance(data, dict):
        raise ValueError(f"a tensor must be a JSON object, got {type(data).__name__}")
    n = _half_dimension(data)
    dim = 2 * n
    if not isinstance(data["valence"], list):
        raise ValueError(f"'valence' must be a list, got {data['valence']!r}")
    if len(data["valence"]) > MAX_RANK:
        raise ValueError(f"'valence' has at most {MAX_RANK} slots, got {len(data['valence'])}")
    valence = tuple(data["valence"])
    components = data.get("components", {})
    if not isinstance(components, dict):
        raise ValueError("'components' must be a JSON object")
    if space is not None and space.n != n:
        raise ValueError(f"tensor declares n={n} but space has n={space.n}")
    comps = list(Tensor.zeros(dim, valence, space=space).comps)
    given = set()
    for key, text in components.items():
        idx = _index_of_key(key, len(valence))
        if idx is None or any(i < 0 or i >= dim for i in idx):
            raise ValueError(f"bad component index {key!r} for dimension {dim}")
        if not isinstance(text, str):
            raise ValueError(f"component {key!r} must be a string, got {type(text).__name__}")
        flat = _flat(dim, idx)
        if flat in given:
            raise ValueError(f"component {key!r} repeats an index given before")
        comps[flat] = parse_fraction(text)
        given.add(flat)
    t = Tensor(dim, valence, comps, space=space)
    t._support = tuple(sorted(flat for flat in given if comps[flat]))  # no scan of the zeros
    return t

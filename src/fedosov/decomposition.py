"""Irreducible Sp(V)-submodule bases, projectors and classifiers.

The space of cotorsion-like tensors (symmetric in the first two slots)
splits into three invariant classes S1, S2, S3; the space of torsion-like
tensors (antisymmetric in the first two slots) splits into T1, T2, T3, T4.
W is the auxiliary class appearing in the subspace-sum identities.  Closed
forms for the dimensions:

    dim S1 = 2n                 dim T1 = dim T3 = 2n
    dim S2 = (8/3)(n^3 - n)     dim T2 = (8/3)(n^3 - n)
    dim S3 = C(2n+2, 3)         dim T4 = (2/3) n (2n^2 - 3n - 2)

with the caveats that T3 is zero for n = 1 and T4 is zero for n <= 2 (the
closed form is negative at n = 1).  At n = 2 the computed ranks show that
T1 + T2 + T3 spans the 24-dimensional ambient space while T1 + T2 + T4 only
reaches 20; `dimension_table` points this out rather than silently adopting
either reading.

Projection onto the classes is by closed-form Sp(V)-equivariant maps, with
C the cyclic sum and s13/t12 the trace contractions:

    S3 = C(S)/3,   S1 = covector_to_cotorsion(-s13(S)),   S2 = S - S1 - S3;

    alt = C(T)/3 (the 3-form part), T3 = omega ^ (C'(alt)/(3(n-1))) with C'
    the `covector_contraction` (T3 = 0 at n = 1), T4 = alt - T3;
    R = T - alt, v = t12(R)/(2n+1),
    T1(X,Y,Z) = 2 omega(X,Y) v(Z) + omega(X,Z) v(Y) - omega(Y,Z) v(X),
    T2 = R - T1.

Each class has one entry in one table, `_CLASSES`, and is of one of two
kinds.  A generated class (S1, T1, T3, W) is the span of its generating
formula applied to the basis vectors.  A conditioned class is the common
kernel of a few tensor maps on the coordinates of its symmetry type:

    S2: cyclic sum and s13 trace, on cotorsion coordinates (i <= j, k);
    T2: cyclic sum and t12 trace, on torsion coordinates (i < j, k);
    T4: t12 trace, on 3-form coordinates (a < b < c);
    S3: no maps, on totally symmetric coordinates (a <= b <= c).

The entry is read by every consumer: `build_basis` (generator span, or the
nullspace of the condition matrix that the maps give on coordinate unit
tensors), `submodule_dimension` (one exact rank), `class_predicate`,
and the remainder checks of `decompose_*`, which re-verify S2, T2 and T4
on every decomposition.  Membership of S1, T1, T3 is P(t) == t for their
projector, and of W exact span membership.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

from . import linalg
from .rationals import divided, scaled_entries
from .symplectic import (
    COV, SymplecticSpace, Tensor, _cyclic_positions, _require_shape, _trace_12, _trace_13,
    cyclic_sum,
)

COTORSION_LABELS = ("S1", "S2", "S3")
TORSION_LABELS = ("T1", "T2", "T3", "T4")
SUBMODULE_LABELS = COTORSION_LABELS + TORSION_LABELS + ("W",)


# -- coordinate systems -----------------------------------------------------------
#
# A symmetry type of (0,3)-tensors is a list of slot swaps (a, b, anti) that
# fix its tensors, up to sign when `anti`.  Its coordinates are the index
# triples, in lexicographic order, with idx[a] <= idx[b] for every swap
# (strictly when `anti`): i <= j, k for cotorsion-like tensors, i < j, k for
# torsion-like ones, a < b < c for 3-forms and a <= b <= c for totally
# symmetric tensors.  A tensor of the type is its vector of values there.

_SYMMETRY_TYPES = {
    "cotorsion": ((0, 1, False),),
    "torsion": ((0, 1, True),),
    "threeform": ((0, 1, True), (1, 2, True)),
    "symmetric": ((0, 1, False), (1, 2, False)),
}


@lru_cache(maxsize=None)
def _coordinates(dim: int, kind: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per coordinate, the (flat position, sign) of each entry it fills, its own first."""
    swaps = _SYMMETRY_TYPES[kind]
    coords = []
    for idx in itertools.product(range(dim), repeat=3):
        if any(idx[a] > idx[b] or (anti and idx[a] == idx[b]) for a, b, anti in swaps):
            continue
        orbit, todo = {idx: 1}, [idx]
        while todo:
            current = todo.pop()
            for a, b, anti in swaps:
                image = list(current)
                image[a], image[b] = current[b], current[a]
                image = tuple(image)
                if image not in orbit:
                    orbit[image] = -orbit[current] if anti else orbit[current]
                    todo.append(image)
        coords.append(tuple(((x * dim + y) * dim + z, sign)
                            for (x, y, z), sign in orbit.items()))
    return tuple(coords)


def _has_symmetry(t: Tensor, kind: str) -> bool:
    return all(t.first_symmetry_violation(a, b, anti=anti) is None
               for a, b, anti in _SYMMETRY_TYPES[kind])


def ambient_dimension(kind: str, n: int) -> int:
    """Independent-component count, computed from first principles."""
    if kind == "cotorsion":
        return 2 * n * comb(2 * n + 1, 2)
    if kind == "torsion":
        return 2 * n * comb(2 * n, 2)
    raise ValueError(f"unknown kind {kind!r}")


def _vectorize(t: Tensor, kind: str) -> list[Fraction]:
    return [t.comps[orbit[0][0]] for orbit in _coordinates(t.dim, kind)]


def _tensor_from_vec(vec, kind: str, space: SymplecticSpace) -> Tensor:
    comps = [Fraction(0)] * space.dim ** 3
    for value, orbit in zip(vec, _coordinates(space.dim, kind)):
        if value != 0:
            for flat, sign in orbit:
                comps[flat] = value if sign > 0 else -value
    return Tensor(space.dim, (COV, COV, COV), comps, space=space)


def _unit_tensor(orbit, dim: int, one, space: SymplecticSpace | None = None) -> Tensor:
    comps = [one - one] * dim ** 3
    for flat, sign in orbit:
        comps[flat] = one if sign > 0 else -one
    return Tensor(dim, (COV, COV, COV), comps, space=space)


# -- generating formulas -------------------------------------------------------

def _omega_with(space: SymplecticSpace, u: int):
    """Column of pairings omega(e_x, e_u) as a function of x."""
    return [space.omega[x][u] for x in range(space.dim)]


# Every generating formula is a sum of terms c * omega(X_p, X_q) * u(X_r)
# over slot patterns (p, q, r) of (X, Y, Z) = (X_0, X_1, X_2).
_S1_TERMS = ((1, (2, 1, 0)), (1, (2, 0, 1)))     # omega(Z,Y) u(X) + omega(Z,X) u(Y)
_T1_TERMS = ((2, (0, 1, 2)), (1, (0, 2, 1)), (-1, (1, 2, 0)))
_WEDGE_TERMS = ((1, (0, 1, 2)), (1, (1, 2, 0)), (1, (2, 0, 1)))


def _omega_covector_form(space: SymplecticSpace, u, terms) -> Tensor:
    """The (0,3)-tensor sum of c * omega(X_p, X_q) * u(X_r) over `terms`.

    Only the 2n nonzero entries of omega and the nonzero entries of u are
    visited, so a form costs O(n^2) exact operations, not O(n^3).  The
    entries keep the scalar type of u: int covectors give int tensors.
    """
    d = space.dim
    comps = [u[0] - u[0]] * d ** 3
    pairs = [(a, b, int(w)) for a, row in enumerate(space.omega)
             for b, w in enumerate(row) if w != 0]
    entries = [(c, v) for c, v in enumerate(u) if v != 0]
    idx = [0, 0, 0]
    for coeff, (p, q, r) in terms:
        for a, b, w in pairs:
            cw = coeff * w
            idx[p], idx[q] = a, b
            for c, v in entries:
                idx[r] = c
                flat = (idx[0] * d + idx[1]) * d + idx[2]
                comps[flat] += cw * v
    return Tensor(d, (COV, COV, COV), comps, space=space)


def _s1_generator(space: SymplecticSpace, u: int) -> Tensor:
    return _omega_covector_form(space, _omega_with(space, u), _S1_TERMS)


def _t1_generator(space: SymplecticSpace, u: int) -> Tensor:
    return _omega_covector_form(space, _omega_with(space, u), _T1_TERMS)


def _t3_generator(space: SymplecticSpace, u: int) -> Tensor:
    # omega(e_x, e_u) = -omega(e_u, e_x)
    return _omega_covector_form(space, [-v for v in _omega_with(space, u)], _WEDGE_TERMS)


def _w_generator(space: SymplecticSpace, u: int) -> Tensor:
    n = space.n
    return _omega_covector_form(space, _omega_with(space, u),
                                ((1, (0, 1, 2)), (-n, (0, 2, 1)), (n, (1, 2, 0))))


# -- the classes -----------------------------------------------------------------

def _cyclic(t: Tensor) -> list:
    return cyclic_sum(t).comps


class _Class(NamedTuple):
    """A generated class (the span of `generator(space, u)` over the basis
    vectors e_u) or a conditioned one (the common kernel of `conditions`),
    on the coordinates of its symmetry type."""

    kind: str
    generator: Callable | None = None
    conditions: tuple = ()


_CLASSES = {
    "S1": _Class("cotorsion", generator=_s1_generator),
    "S2": _Class("cotorsion", conditions=(_cyclic, _trace_13)),
    "S3": _Class("symmetric"),
    "T1": _Class("torsion", generator=_t1_generator),
    "T2": _Class("torsion", conditions=(_cyclic, _trace_12)),
    "T3": _Class("torsion", generator=_t3_generator),
    "T4": _Class("threeform", conditions=(_trace_12,)),
    "W": _Class("torsion", generator=_w_generator),
}


def _class(label: str) -> _Class:
    try:
        return _CLASSES[label]
    except KeyError:
        raise ValueError(f"unknown class label {label!r}") from None


def _condition_rows(label: str, n: int) -> list[list[int]]:
    """Matrix of a conditioned class's conditions on its coordinates.

    Column p holds the conditions' outputs on the int unit tensor of
    coordinate p; output rows that are zero or repeat an earlier row up to
    sign are dropped.  Entries are ints: `linalg` returns `Fraction`s.
    """
    entry = _CLASSES[label]
    dim = 2 * n
    columns = []
    for orbit in _coordinates(dim, entry.kind):
        unit = _unit_tensor(orbit, dim, 1)
        columns.append([x for condition in entry.conditions for x in condition(unit)])
    rows, seen = [], set()
    for row in zip(*columns):
        lead = next(filter(None, row), 0)
        if lead == 0:
            continue
        if lead < 0:
            row = tuple(-x for x in row)
        if row not in seen:
            seen.add(row)
            rows.append(list(row))
    return rows


# -- basis construction ---------------------------------------------------------

@dataclass(frozen=True)
class SubmoduleBasis:
    """Exact basis of one invariant class; elements are (0,3) tensors."""

    label: str
    n: int
    elements: tuple[Tensor, ...]

    @property
    def dimension(self) -> int:
        return len(self.elements)


def closed_form_dimension(label: str, n: int) -> Fraction:
    """Closed-form dimension, as stated (may disagree with ranks at small n)."""
    if label in ("S1", "T1", "T3", "W"):
        return Fraction(2 * n)
    if label in ("S2", "T2"):
        return Fraction(8, 3) * (n ** 3 - n)
    if label == "S3":
        return Fraction(comb(2 * n + 2, 3))
    if label == "T4":
        return Fraction(2, 3) * n * (2 * n ** 2 - 3 * n - 2)
    raise ValueError(f"unknown class label {label!r}")


def expected_dimension(label: str, n: int) -> int:
    """Actual class dimension for every n >= 1 (rank-validated closed form)."""
    if label == "T3" and n == 1:
        return 0
    if label == "T4" and n <= 2:
        return 0
    if label == "W" and n == 1:
        return 0
    value = closed_form_dimension(label, n)
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"closed form for {label} at n={n} is not a dimension")
    return int(value)


@lru_cache(maxsize=None)
def build_basis(label: str, n: int) -> SubmoduleBasis:
    """Exact basis for one class; empty bases are allowed (e.g. S2 at n=1)."""
    entry = _class(label)
    if n < 1:
        raise ValueError("half-dimension must be >= 1")
    space = SymplecticSpace(n)
    if entry.generator is not None:
        span = linalg.Echelon()
        elements = [t for t in (entry.generator(space, u) for u in range(space.dim))
                    if span.add(_vectorize(t, entry.kind))]
    else:
        vecs = linalg.nullspace(_condition_rows(label, n),
                                ncols=len(_coordinates(space.dim, entry.kind)))
        elements = [_tensor_from_vec(v, entry.kind, space) for v in vecs]

    basis = SubmoduleBasis(label, n, tuple(elements))
    if basis.dimension != expected_dimension(label, n):
        raise AssertionError(
            f"{label} at n={n}: computed dimension {basis.dimension} "
            f"!= expected {expected_dimension(label, n)}")
    for element in basis.elements:
        # Span membership of generated classes holds by construction; the
        # conditioned classes get their full predicate re-verified.
        ok = (_has_symmetry(element, entry.kind) if entry.generator is not None
              else class_predicate(label, element))
        if not ok:
            raise AssertionError(f"{label} basis element violates the class predicate")
    return basis


def class_predicate(label: str, t: Tensor) -> bool:
    """Defining membership test for one class (exact, tolerance-free)."""
    entry = _class(label)
    if not _has_symmetry(t, entry.kind):
        return False
    if entry.generator is None:
        return not any(any(condition(t)) for condition in entry.conditions)
    if label in ("S1", "T1", "T3"):
        # P(t) == t, read off the kernel as P(x) == factor * x
        x, _ = _scaled(t)
        parts, factor = _KERNELS[entry.kind](_space_of(t), x)
        return parts[label] == [factor * v for v in x]
    # W is not a summand of either decomposition: exact span membership
    span = linalg.Echelon()
    for b in build_basis(label, t.dim // 2).elements:
        span.add(_vectorize(b, entry.kind))
    return _vectorize(t, entry.kind) in span


# -- closed-form projectors ---------------------------------------------------------
#
# One kernel per ambient space returns the parts times the projector
# denominator with only +, - and products by small ints, so it runs on the
# entries scaled to ints by `rationals.scaled_entries` and each part entry is
# divided once by D * factor.  The remainder conditions (S2, T2, T4) are
# homogeneous and linear and are checked on the scaled parts.  Past
# `rationals.MAX_SCALE_BITS` of D the kernel gets the Fraction entries
# themselves, with D = 1.

_COV3 = (COV, COV, COV)


def _space_of(t: Tensor) -> SymplecticSpace:
    return t.space if t.space is not None else SymplecticSpace(t.dim // 2)


def _scaled(t: Tensor) -> tuple[list, int]:
    """`scaled_entries` of t's entries, or (entries, 1) past the bound."""
    return scaled_entries(t.comps) or (list(t.comps), 1)


def _cotorsion_kernel(space: SymplecticSpace, x: list) -> tuple[dict, int]:
    """S1, S2, S3 parts of the cotorsion-like entries x, times P = 3(2n+1)."""
    m = 2 * space.n + 1
    s = Tensor(space.dim, _COV3, x)
    s1 = _omega_covector_form(space, [-3 * v for v in _trace_13(s)], _S1_TERMS).comps
    s3 = [m * v for v in cyclic_sum(s).comps]
    s2 = [3 * m * v - a - b for v, a, b in zip(x, s1, s3)]
    return {"S1": s1, "S2": s2, "S3": s3}, 3 * m


def _torsion_kernel(space: SymplecticSpace, x: list) -> tuple[dict, int]:
    """T1..T4 parts of the torsion-like entries x, times P = 3(2n+1) q.

    q = 3(n-1) is the T3 denominator, 1 at n = 1 where the 3-form C(T) and
    so T3, T4 vanish.  C'(alt) = t12(C(T)): on a 3-form the three terms of
    `covector_contraction` agree.  t12 sends T2 to 0 and the T1 generator of
    e_u to (2n+1) omega(., e_u).
    """
    n, d, m = space.n, space.dim, 2 * space.n + 1
    q = 3 * (n - 1) or 1
    cyc = cyclic_sum(Tensor(d, _COV3, x)).comps
    rest = [3 * v - c for v, c in zip(x, cyc)]  # 3R
    t1 = _omega_covector_form(
        space, [q * v for v in _trace_12(Tensor(d, _COV3, rest))], _T1_TERMS).comps
    t3 = omega_wedge(space, [3 * m * v for v in _trace_12(Tensor(d, _COV3, cyc))]).comps
    return {"T1": t1, "T2": [m * q * v - a for v, a in zip(rest, t1)],
            "T3": t3, "T4": [m * q * v - a for v, a in zip(cyc, t3)]}, 3 * m * q


_KERNELS = {"cotorsion": _cotorsion_kernel, "torsion": _torsion_kernel}
_REMAINDERS = {"cotorsion": ("S2",), "torsion": ("T2", "T4")}


# -- decomposition ---------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionResult:
    """Per-class parts of a tensor; `type_set` lists the classes with nonzero part."""

    parts: dict
    type_set: frozenset

    def part(self, label: str) -> Tensor:
        return self.parts[label]


def _divided(t: Tensor, comps: list, den: int) -> Tensor:
    return Tensor(t.dim, _COV3, divided(comps, den), space=_space_of(t))


def _result(t: Tensor, kind: str) -> DecompositionResult:
    x, den = _scaled(t)
    _require_shape(Tensor(t.dim, t.valence, x), anti=kind == "torsion")
    parts, factor = _KERNELS[kind](_space_of(t), x)
    for label in _REMAINDERS[kind]:
        if not class_predicate(label, Tensor(t.dim, _COV3, parts[label])):
            raise AssertionError(f"{label} remainder violates its defining conditions")
    return DecompositionResult(
        parts={label: _divided(t, comps, den * factor) for label, comps in parts.items()},
        type_set=frozenset(label for label, comps in parts.items() if any(comps)))


def decompose_cotorsion(t: Tensor) -> DecompositionResult:
    """Split a (0,3)-tensor symmetric in (1,2) into its S1, S2, S3 parts."""
    return _result(t, "cotorsion")


def decompose_torsion(t: Tensor) -> DecompositionResult:
    """Split a (0,3)-tensor antisymmetric in (1,2) into its T1..T4 parts."""
    return _result(t, "torsion")


# -- structural maps between the pictures ------------------------------------------

def cotorsion_to_torsion(s: Tensor) -> Tensor:
    """A(S)(X,Y,Z) = S(Y,Z,X) - S(X,Z,Y): sends S1 -> T1, S2 -> T2, S3 -> 0."""
    _require_shape(s, anti=False)
    # S(X,Z,Y) = S(Z,X,Y) by the symmetry just checked
    c = s.comps
    return Tensor(s.dim, s.valence, [c[g] - c[h] for _, g, h in _cyclic_positions(s.dim)],
                  space=s.space)


def covector_contraction(t: Tensor) -> list:
    """C(T)(Z) = sum_i (T(e_i,e_{i+n},Z) + T(Z,e_i,e_{i+n}) + T(e_{i+n},Z,e_i))."""
    if t.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    n = t.dim // 2
    return [sum((t[i, i + n, z] + t[z, i, i + n] + t[i + n, z, i] for i in range(n)),
                Fraction(0))
            for z in range(t.dim)]


def omega_wedge(space: SymplecticSpace, covector) -> Tensor:
    """(omega ^ u)(X,Y,Z) = omega(X,Y) u(Z) + omega(Y,Z) u(X) + omega(Z,X) u(Y)."""
    return _omega_covector_form(space, list(covector), _WEDGE_TERMS)


def covector_to_cotorsion(space: SymplecticSpace, covector) -> Tensor:
    """Normalized embedding of a covector into the cotorsion space.

    (1/(2n+1)) (omega(Z,X) u(Y) + omega(Z,Y) u(X)); the image lies in the
    S1 class and `contract_s13` returns the negated input covector, while
    the unnormalized S1 generator built from a vector U traces to
    (2n+1) omega(U, .) instead.
    """
    c = Fraction(1, 2 * space.n + 1)
    return _omega_covector_form(space, [c * v for v in covector], _S1_TERMS)


def omega_wedge_section_scale(n: int) -> Fraction:
    """Scale by which `covector_contraction(omega_wedge(u))` returns u.

    The composite equals 3(n-1) times the identity on covectors; at n = 1
    the wedge image is zero and no section exists.
    """
    if n < 2:
        raise ValueError("the covector section identity needs n >= 2")
    return Fraction(3 * (n - 1))


def symplectify_torsion(t: Tensor) -> Tensor:
    """Solve A(-S) = T for a cotorsion-like S, for T in T1 + T2.

    T1 + T2 is the kernel of the cyclic sum, so any other T is rejected
    with the names of its nonzero T3/T4 parts.  The solution is

        S(X,Y,Z) = (T(X,Z,Y) + T(Y,Z,X)) / 3,

    symmetric in (X,Y) with zero cyclic sum: the unique preimage with no
    S3 part, which makes it deterministic.  It is formed as 3D S, as the
    projectors form their parts.
    """
    x, den = _scaled(t)
    _require_shape(Tensor(t.dim, t.valence, x), anti=True)
    if not cyclic_sum(Tensor(t.dim, _COV3, x)).is_zero():
        parts, _ = _torsion_kernel(_space_of(t), x)
        outside = [label for label in ("T3", "T4") if any(parts[label])]
        raise ValueError(
            f"no symmetric solution: torsion has nonzero {'+'.join(outside)} part")
    # T(X,Z,Y) = -T(Z,X,Y) by the antisymmetry just checked
    s = Tensor(t.dim, _COV3, [x[g] - x[h] for _, g, h in _cyclic_positions(t.dim)])
    if cotorsion_to_torsion(s).comps != [-3 * v for v in x]:
        raise AssertionError("symplectification round trip failed")
    return _divided(t, s.comps, 3 * den)


# -- dimension table ----------------------------------------------------------------

@dataclass(frozen=True)
class DimensionRow:
    n: int
    computed: dict
    ambient_cotorsion: int
    ambient_torsion: int
    notes: tuple[str, ...]


def dimension_table(n_max: int) -> list[DimensionRow]:
    """Computed class dimensions for n = 1..n_max, with discrepancy notes."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        computed = {label: submodule_dimension(label, n) for label in SUBMODULE_LABELS}
        notes = []
        sum_s = computed["S1"] + computed["S2"] + computed["S3"]
        sum_t = sum(computed[lab] for lab in TORSION_LABELS)
        amb_s = ambient_dimension("cotorsion", n)
        amb_t = ambient_dimension("torsion", n)
        if sum_s != amb_s:
            notes.append(f"S-classes sum to {sum_s}, ambient is {amb_s}")
        if sum_t != amb_t:
            notes.append(f"T-classes sum to {sum_t}, ambient is {amb_t}")
        if n == 1 and computed["T3"] != closed_form_dimension("T3", 1):
            notes.append("T3 is zero at n=1 (closed form 2n does not apply); "
                         "the torsion space is T1 alone")
        if n == 2:
            t124 = computed["T1"] + computed["T2"] + computed["T4"]
            notes.append(
                f"n=2: T1+T2+T4 spans only {t124} of {amb_t} dimensions while "
                f"T1+T2+T3 spans {computed['T1'] + computed['T2'] + computed['T3']}; "
                "the stated n=2 torsion decomposition omits the nonzero T3")
        rows.append(DimensionRow(n=n, computed=computed,
                                 ambient_cotorsion=amb_s, ambient_torsion=amb_t,
                                 notes=tuple(notes)))
    return rows


def submodule_dimension(label: str, n: int) -> int:
    """Exact class dimension from one rank, without building a basis."""
    entry = _class(label)
    space = SymplecticSpace(n)
    if entry.generator is not None:
        return linalg.rank([_vectorize(entry.generator(space, u), entry.kind)
                            for u in range(space.dim)])
    return (len(_coordinates(space.dim, entry.kind))
            - linalg.rank(_condition_rows(label, n)))


def threeform_basis(n: int) -> list[Tensor]:
    """Totally antisymmetric (0,3)-tensors e_a ^ e_b ^ e_c for a < b < c."""
    space = SymplecticSpace(n)
    return [_unit_tensor(orbit, space.dim, Fraction(1), space)
            for orbit in _coordinates(space.dim, "threeform")]

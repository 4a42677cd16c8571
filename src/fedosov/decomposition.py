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

Every decomposition re-checks the defining conditions of its remainder
classes (S2 and T2: zero cyclic sum and zero trace; T4: antisymmetric in
(2,3) with zero t12), and membership of the generated classes S1, T1, T3
is P(t) == t for their projector.  The exact bases remain for dimensions
and tests: S2, T2, T4 are exact nullspaces of their defining linear
conditions; the rest come from their generating formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import linalg
from .symplectic import (
    COV, SymplecticSpace, Tensor, contract_s13, contract_t12, cyclic_sum,
)

COTORSION_LABELS = ("S1", "S2", "S3")
TORSION_LABELS = ("T1", "T2", "T3", "T4")
SUBMODULE_LABELS = COTORSION_LABELS + TORSION_LABELS + ("W",)


# -- coordinate systems for the two ambient spaces ----------------------------
#
# Symmetric pairs (i <= j) x k for cotorsion-like tensors, strict pairs
# (i < j) x k for torsion-like tensors; tensors are vectorized onto these
# independent components for all linear algebra.

@lru_cache(maxsize=None)
def _sym_coords(dim: int) -> tuple[tuple[tuple[int, int, int], ...], dict]:
    coords = [(i, j, k)
              for i in range(dim) for j in range(i, dim) for k in range(dim)]
    index = {c: pos for pos, c in enumerate(coords)}
    return tuple(coords), index


@lru_cache(maxsize=None)
def _alt_coords(dim: int) -> tuple[tuple[tuple[int, int, int], ...], dict]:
    coords = [(i, j, k)
              for i in range(dim) for j in range(i + 1, dim) for k in range(dim)]
    index = {c: pos for pos, c in enumerate(coords)}
    return tuple(coords), index


def ambient_dimension(kind: str, n: int) -> int:
    """Independent-component count, computed from first principles."""
    if kind == "cotorsion":
        return 2 * n * comb(2 * n + 1, 2)
    if kind == "torsion":
        return 2 * n * comb(2 * n, 2)
    raise ValueError(f"unknown kind {kind!r}")


def _vectorize(t: Tensor, kind: str) -> list[Fraction]:
    coords, _ = _sym_coords(t.dim) if kind == "cotorsion" else _alt_coords(t.dim)
    return [t[c] for c in coords]


def _tensor_from_vec(vec, n: int, kind: str, space: SymplecticSpace) -> Tensor:
    dim = 2 * n
    coords, _ = _sym_coords(dim) if kind == "cotorsion" else _alt_coords(dim)
    comps = [Fraction(0)] * dim ** 3
    for value, (i, j, k) in zip(vec, coords):
        if value == 0:
            continue
        comps[(i * dim + j) * dim + k] = value
        if kind == "cotorsion":
            if i != j:
                comps[(j * dim + i) * dim + k] = value
        else:
            comps[(j * dim + i) * dim + k] = -value
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
    visited, so a form costs O(n^2) exact operations, not O(n^3).
    """
    d = space.dim
    comps = [Fraction(0)] * d ** 3
    pairs = [(a, b, w) for a, row in enumerate(space.omega) for b, w in enumerate(row) if w != 0]
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


# -- linear conditions ---------------------------------------------------------

def _sym_lookup(index: dict, x: int, y: int, z: int) -> tuple[int, int]:
    """Position and sign of S(x,y,z) among symmetric coordinates."""
    if x <= y:
        return index[(x, y, z)], 1
    return index[(y, x, z)], 1


def _alt_lookup(index: dict, x: int, y: int, z: int) -> tuple[int, int] | None:
    """Position and sign of T(x,y,z) among antisymmetric coordinates."""
    if x == y:
        return None
    if x < y:
        return index[(x, y, z)], 1
    return index[(y, x, z)], -1


def _cyclic_rows_sym(n: int) -> list[list[Fraction]]:
    dim = 2 * n
    coords, index = _sym_coords(dim)
    rows = []
    for a in range(dim):
        for b in range(a, dim):
            for c in range(b, dim):
                row = [Fraction(0)] * len(coords)
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    pos, sign = _sym_lookup(index, x, y, z)
                    row[pos] += sign
                rows.append(row)
    return rows


def _s13_rows(n: int) -> list[list[Fraction]]:
    dim = 2 * n
    coords, index = _sym_coords(dim)
    rows = []
    for z in range(dim):
        row = [Fraction(0)] * len(coords)
        for i in range(n):
            pos, sign = _sym_lookup(index, i, z, i + n)
            row[pos] += sign
            pos, sign = _sym_lookup(index, i + n, z, i)
            row[pos] -= sign
        rows.append(row)
    return rows


def _cyclic_rows_alt(n: int) -> list[list[Fraction]]:
    dim = 2 * n
    coords, index = _alt_coords(dim)
    rows = []
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                row = [Fraction(0)] * len(coords)
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    hit = _alt_lookup(index, x, y, z)
                    if hit is not None:
                        row[hit[0]] += hit[1]
                rows.append(row)
    return rows


def _cyclic_rows_alt_degenerate(n: int) -> list[list[Fraction]]:
    # Components of the cyclic sum with a repeated index vanish automatically
    # for antisymmetric tensors; emitted anyway so the nullspace condition is
    # literally "cyclic sum = 0" rather than its restriction to strict triples.
    dim = 2 * n
    coords, index = _alt_coords(dim)
    rows = []
    for a in range(dim):
        for c in range(dim):
            row = [Fraction(0)] * len(coords)
            for (x, y, z) in ((a, a, c), (a, c, a), (c, a, a)):
                hit = _alt_lookup(index, x, y, z)
                if hit is not None:
                    row[hit[0]] += hit[1]
            if any(v != 0 for v in row):
                rows.append(row)
    return rows


def _t12_rows(n: int) -> list[list[Fraction]]:
    dim = 2 * n
    coords, index = _alt_coords(dim)
    rows = []
    for z in range(dim):
        row = [Fraction(0)] * len(coords)
        for i in range(n):
            hit = _alt_lookup(index, i, i + n, z)
            row[hit[0]] += hit[1]
        rows.append(row)
    return rows


def _t13_rows(n: int) -> list[list[Fraction]]:
    dim = 2 * n
    coords, index = _alt_coords(dim)
    rows = []
    for y in range(dim):
        row = [Fraction(0)] * len(coords)
        for i in range(n):
            hit = _alt_lookup(index, i, y, i + n)
            if hit is not None:
                row[hit[0]] += hit[1]
            hit = _alt_lookup(index, i + n, y, i)
            if hit is not None:
                row[hit[0]] -= hit[1]
        rows.append(row)
    return rows


def _antisym23_rows(n: int) -> list[list[Fraction]]:
    """Rows forcing T(x,y,z) + T(x,z,y) = 0 on antisymmetric coordinates."""
    dim = 2 * n
    coords, index = _alt_coords(dim)
    rows = []
    for x in range(dim):
        for y in range(dim):
            for z in range(y, dim):
                row = [Fraction(0)] * len(coords)
                for (a, b, c) in ((x, y, z), (x, z, y)):
                    hit = _alt_lookup(index, a, b, c)
                    if hit is not None:
                        row[hit[0]] += hit[1]
                if any(v != 0 for v in row):
                    rows.append(row)
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
    if label not in SUBMODULE_LABELS:
        raise ValueError(f"unknown class label {label!r}")
    if n < 1:
        raise ValueError("half-dimension must be >= 1")
    space = SymplecticSpace(n)
    dim = space.dim

    if label in ("S1", "T1", "T3", "W"):
        gen = {"S1": _s1_generator, "T1": _t1_generator,
               "T3": _t3_generator, "W": _w_generator}[label]
        kind = "cotorsion" if label == "S1" else "torsion"
        span = linalg.Echelon()
        elements = [t for t in (gen(space, u) for u in range(dim))
                    if span.add(_vectorize(t, kind))]
    elif label == "S3":
        _, index = _sym_coords(dim)
        elements = []
        for a in range(dim):
            for b in range(a, dim):
                for c in range(b, dim):
                    comps = [Fraction(0)] * dim ** 3
                    for perm in set(itertools.permutations((a, b, c))):
                        x, y, z = perm
                        comps[(x * dim + y) * dim + z] = Fraction(1)
                    elements.append(Tensor(dim, (COV, COV, COV), comps, space=space))
    elif label == "S2":
        rows = _cyclic_rows_sym(n) + _s13_rows(n)
        vecs = linalg.nullspace(rows, ncols=len(_sym_coords(dim)[0]))
        elements = [_tensor_from_vec(v, n, "cotorsion", space) for v in vecs]
    elif label == "T2":
        rows = (_cyclic_rows_alt(n) + _cyclic_rows_alt_degenerate(n) + _t12_rows(n))
        vecs = linalg.nullspace(rows, ncols=len(_alt_coords(dim)[0]))
        elements = [_tensor_from_vec(v, n, "torsion", space) for v in vecs]
    else:  # T4
        rows = _antisym23_rows(n) + _t12_rows(n)
        vecs = linalg.nullspace(rows, ncols=len(_alt_coords(dim)[0]))
        elements = [_tensor_from_vec(v, n, "torsion", space) for v in vecs]

    basis = SubmoduleBasis(label, n, tuple(elements))
    if basis.dimension != expected_dimension(label, n):
        raise AssertionError(
            f"{label} at n={n}: computed dimension {basis.dimension} "
            f"!= expected {expected_dimension(label, n)}")
    for element in basis.elements:
        symmetric_ok = (element.is_symmetric_in(0, 1) if label.startswith("S")
                        else element.is_antisymmetric_in(0, 1))
        # Span membership of generated classes holds by construction; the
        # condition-defined classes get their full predicate re-verified.
        condition_ok = (class_predicate(label, element)
                        if label in ("S2", "S3", "T2", "T4") else True)
        if not (symmetric_ok and condition_ok):
            raise AssertionError(f"{label} basis element violates the class predicate")
    return basis


def class_predicate(label: str, t: Tensor) -> bool:
    """Defining membership test for one class (exact, tolerance-free)."""
    n = t.dim // 2
    if label in ("S1", "S2", "S3"):
        if not t.is_symmetric_in(0, 1):
            return False
    else:
        if not t.is_antisymmetric_in(0, 1):
            return False
    if label == "S2":
        return cyclic_sum(t).is_zero() and _vanishes(contract_s13(t))
    if label == "S3":
        return t.is_symmetric_in(1, 2)
    if label == "T2":
        return cyclic_sum(t).is_zero() and _vanishes(contract_t12(t))
    if label == "T4":
        return t.is_antisymmetric_in(1, 2) and _vanishes(contract_t12(t))
    if label in _PROJECTORS:
        return _PROJECTORS[label](t) == t
    # W is not a summand of either decomposition: exact span membership
    span = linalg.Echelon()
    for b in build_basis(label, n).elements:
        span.add(_vectorize(b, "torsion"))
    return _vectorize(t, "torsion") in span


# -- closed-form projectors ---------------------------------------------------------
#
# Each class part is an Sp(V)-equivariant map built from the structural maps
# below; the remainder classes S2, T2, T4 are what is left and get their
# defining conditions re-checked on every decomposition.

_THIRD = Fraction(1, 3)


def _space_of(t: Tensor) -> SymplecticSpace:
    return t.space if t.space is not None else SymplecticSpace(t.dim // 2)


def _vanishes(covector) -> bool:
    return all(v == 0 for v in covector)


def _s1_part(s: Tensor) -> Tensor:
    """S1 part of a cotorsion-like tensor: the embedding of -s13(S)."""
    return covector_to_cotorsion(_space_of(s), [-v for v in contract_s13(s)])


def _s3_part(s: Tensor) -> Tensor:
    """S3 part of a cotorsion-like tensor: its total symmetrization C(S)/3."""
    return cyclic_sum(s).scale(_THIRD)


def _alternation(t: Tensor) -> Tensor:
    """Full antisymmetrization of a torsion-like tensor, its T3 + T4 part."""
    return cyclic_sum(t).scale(_THIRD)


def _t3_part(alt: Tensor) -> Tensor:
    """T3 part of a 3-form: omega ^ (covector_contraction(alt)/(3(n-1))); 0 at n = 1."""
    n = alt.dim // 2
    space = _space_of(alt)
    if n == 1:
        return Tensor.zeros(alt.dim, (COV, COV, COV), space=space)
    scale = omega_wedge_section_scale(n)
    return omega_wedge(space, [c / scale for c in covector_contraction(alt)])


def _t1_part(rest: Tensor) -> Tensor:
    """T1 part of a tensor in T1 + T2, rebuilt from v = t12(rest)/(2n+1).

    t12 vanishes on T2 and sends the T1 generator of e_u to
    (2n+1) omega(., e_u), so v is the covector that the T1 formula needs.
    """
    n = rest.dim // 2
    v = [c / (2 * n + 1) for c in contract_t12(rest)]
    return _omega_covector_form(_space_of(rest), v, _T1_TERMS)


_PROJECTORS = {
    "S1": _s1_part,
    "T1": lambda t: _t1_part(t - _alternation(t)),
    "T3": lambda t: _t3_part(_alternation(t)),
}


# -- decomposition ---------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionResult:
    """Per-class parts of a tensor; `type_set` lists the classes with nonzero part."""

    parts: dict
    type_set: frozenset

    def part(self, label: str) -> Tensor:
        return self.parts[label]


def _require_shape(t: Tensor, *, anti: bool) -> None:
    if t.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    bad = t.first_symmetry_violation(0, 1, anti=anti)
    if bad is not None:
        raise ValueError(
            f"tensor is not {'anti' if anti else ''}symmetric in slots (1,2); "
            f"first violation at {tuple(i + 1 for i in bad)}")


def _result(parts: dict) -> DecompositionResult:
    return DecompositionResult(
        parts=parts,
        type_set=frozenset(label for label, part in parts.items() if not part.is_zero()))


def decompose_cotorsion(t: Tensor) -> DecompositionResult:
    """Split a (0,3)-tensor symmetric in (1,2) into its S1, S2, S3 parts."""
    _require_shape(t, anti=False)
    s1, s3 = _s1_part(t), _s3_part(t)
    s2 = t - s1 - s3
    if not (cyclic_sum(s2).is_zero() and _vanishes(contract_s13(s2))):
        raise AssertionError("S2 remainder violates its defining conditions")
    return _result({"S1": s1, "S2": s2, "S3": s3})


def decompose_torsion(t: Tensor) -> DecompositionResult:
    """Split a (0,3)-tensor antisymmetric in (1,2) into its T1..T4 parts."""
    _require_shape(t, anti=True)
    alt = _alternation(t)
    t3 = _t3_part(alt)
    t4 = alt - t3
    rest = t - alt
    t1 = _t1_part(rest)
    t2 = rest - t1
    if not (cyclic_sum(t2).is_zero() and _vanishes(contract_t12(t2))):
        raise AssertionError("T2 remainder violates its defining conditions")
    if not (t4.is_antisymmetric_in(1, 2) and _vanishes(contract_t12(t4))):
        raise AssertionError("T4 remainder violates its defining conditions")
    return _result({"T1": t1, "T2": t2, "T3": t3, "T4": t4})


# -- structural maps between the pictures ------------------------------------------

def cotorsion_to_torsion(s: Tensor) -> Tensor:
    """A(S)(X,Y,Z) = S(Y,Z,X) - S(X,Z,Y): sends S1 -> T1, S2 -> T2, S3 -> 0."""
    if s.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    bad = s.first_symmetry_violation(0, 1, anti=False)
    if bad is not None:
        raise ValueError("input must be symmetric in slots (1,2)")
    return Tensor.build(s.dim, s.valence,
                        lambda x, y, z: s[y, z, x] - s[x, z, y], space=s.space)


def threeform_part(t: Tensor) -> Tensor:
    """Full antisymmetrization of a torsion-like tensor (its wedge-cube image)."""
    return cyclic_sum(t)


def cyclic_symmetrization(s: Tensor) -> Tensor:
    """Totally symmetric image of a cotorsion-like tensor (3x the projection)."""
    return cyclic_sum(s)


def cotorsion_trace(s: Tensor) -> list:
    """Covector-valued trace of a cotorsion-like tensor (equals contract_s13)."""
    return contract_s13(s)


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
    S3 part, which makes it deterministic.
    """
    _require_shape(t, anti=True)
    if not cyclic_sum(t).is_zero():
        type_set = decompose_torsion(t).type_set
        outside = [label for label in ("T3", "T4") if label in type_set]
        raise ValueError(
            f"no symmetric solution: torsion has nonzero {'+'.join(outside)} part")
    s = Tensor.build(t.dim, (COV, COV, COV),
                     lambda x, y, z: (t[x, z, y] + t[y, z, x]) * _THIRD,
                     space=_space_of(t))
    if cotorsion_to_torsion(s.scale(-1)) != t:
        raise AssertionError("symplectification round trip failed")
    return s


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
    """Exact class dimension, avoiding full basis construction for large n."""
    dim = 2 * n
    if label in ("S1", "T1", "T3", "W"):
        return len(build_basis(label, n).elements) if n <= 3 else _generator_rank(label, n)
    if label == "S3":
        return comb(dim + 2, 3)
    if label == "S2":
        rows = _cyclic_rows_sym(n) + _s13_rows(n)
        return len(_sym_coords(dim)[0]) - linalg.certified_rank(rows)
    if label == "T2":
        rows = _cyclic_rows_alt(n) + _t12_rows(n)
        return len(_alt_coords(dim)[0]) - linalg.certified_rank(rows)
    if label == "T4":
        return _threeform_t12_nullity(n)
    raise ValueError(f"unknown class label {label!r}")


def _generator_rank(label: str, n: int) -> int:
    space = SymplecticSpace(n)
    gen = {"S1": _s1_generator, "T1": _t1_generator,
           "T3": _t3_generator, "W": _w_generator}[label]
    kind = "cotorsion" if label == "S1" else "torsion"
    vecs = [_vectorize(gen(space, u), kind) for u in range(space.dim)]
    return linalg.certified_rank(vecs)


def threeform_basis(n: int) -> list[Tensor]:
    """Totally antisymmetric (0,3)-tensors e_a ^ e_b ^ e_c for a < b < c."""
    dim = 2 * n
    space = SymplecticSpace(n)
    basis = []
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                comps = [Fraction(0)] * dim ** 3
                for perm, sign in _SIGNED_PERMS:
                    x, y, z = (a, b, c)[perm[0]], (a, b, c)[perm[1]], (a, b, c)[perm[2]]
                    comps[(x * dim + y) * dim + z] = Fraction(sign)
                basis.append(Tensor(dim, (COV, COV, COV), comps, space=space))
    return basis


_SIGNED_PERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                 ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1))


def _threeform_t12_nullity(n: int) -> int:
    forms = threeform_basis(n)
    if not forms:
        return 0
    rows = linalg.transpose([contract_t12(f) for f in forms])
    return len(forms) - linalg.certified_rank(rows)

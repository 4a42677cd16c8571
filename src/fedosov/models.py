"""Infinitesimal models, their axioms, and the associated Lie algebras.

An infinitesimal model is pointwise data (V, R, T) plus a list of auxiliary
tensors K (always containing the symplectic form, optionally a cotorsion
structure tensor): a curvature-like map R: V ^ V -> End(V), a torsion-like
map T: V -> End(V), subject to the algebraic axioms below.  Curvature
endomorphisms R_XY act on the tensor algebra as derivations -- on a mixed
tensor this means A applied to each output slot minus A inserted into each
input slot:

    (A.P)(X1..Xs) = A(P(X1..Xs)) - sum_k P(X1.., A Xk, ..Xs)

with the obvious sign bookkeeping per slot kind.  The axioms are (1) T and
R antisymmetric in their vector arguments, (2) R_XY annihilates T, R and
every K as a derivation, (3) the first and second Bianchi identities in
torsion form:

    cyclic(R_XY Z + T_{T_X Y} Z) = 0,       cyclic(R_{T_X Y, Z}) = 0.

Model data are sparse exact constants, and every check reads them as ints
over one denominator: each tensor t as D_t, the lcm of the denominators of
its nonzero entries, and {flat: D_t t[flat]} (`_scaled`, built once per
public entry point and handed on from there).  A derivation check
scatters each nonzero int entry of the target, slot by slot, through the
nonzero entries of a curvature endomorphism scaled once by D_R
(`_derivation_scatter`, on the slot kernel of `symplectic`: the move
tables of endo^T and -endo, `_derivation_moves`, and `_scatter`), and
reads the smallest reached position with a nonzero sum, D_R D_t times
the entry of the action.  The
Bianchi checks pair nonzero entries into F = R + T.T, over the common
denominator D_R D_T^2, and G = T.R, over D_T D_R, and evaluate each cyclic
sum only at the sorted rotations (i <= j <= k) of nonzero F and G
positions, in the lexicographic order in which the witness is defined.
The stabilizer equations of each target are D_t times its equations, so
they go to `linalg.Echelon` as int rows with the same nullspace.  The
isomorphism check compares the undivided ints of each push-forward
(`symplectic._changed_comps`, {flat: int} over one denominator) with the
target only where either is nonzero.  A positive scale changes no zero
test, so no verdict or witness position moves.  The denominators are not
bounded by `rationals.MAX_SCALE_BITS`: model tensors have few entries, so
one int path serves every size.

The Nomizu construction builds the transitive Lie algebra g0 = V + h0,
where h0 is the exact annihilator of all model data inside End(V), with
brackets [A,B] = AB - BA, [A,X] = AX and [X,Y] = -T_X Y + R_XY.  The
transvection algebra replaces h0 by the Lie closure of the curvature
endomorphisms; it is always contained in h0 for a valid model.  Both run
on ints too, and each element A of h keeps one form, (den A as int rows,
den), from where it is built to where it is bracketed.  The stabilizer
scales each nullspace vector to ints once (`_stabilizer`); the closure
brackets int matrices, each over its own denominator, and tries only the
pairs that include an element added in the previous round (`_closure`).
The annihilation re-check of either basis reads those ints.
`_algebra_from_parts` reads [X,Y] off the scaled torsion and the nonzero
curvature endomorphisms, [X,A] off the ints of A over den, and [A,B] off
their int commutator; it puts each curvature endomorphism and each [A,B]
in coordinates on the den A from its ints (`linalg.Coordinates._ints`),
and each coordinate times den is the coordinate on A.  The public
`model_stabilizer_algebra` and `transvection_subalgebra` divide each
element's ints by its den once.  A presentation keeps its constants in the
form they are built, checked and written in: {(i, j): {k: c_ij^k}} over
the nonzero constants of each pair i < j, the JSON format's form, so it is
antisymmetric by construction.  It checks that it has one label per basis
vector and subspace indices 0..dim-1, and the Jacobi identity on those
constants, both orders of each pair, as ints over the lcm of their
denominators; `bracket` and the JSON writer read them directly, and the
dense dim^3 `structure_constants` is a view formed on first read, which
only `bianchi_classify` (dimension 3) reads.  `Fraction`s are formed only
for what is kept or printed: witness values (the same value, hence the
same text), bases, structure constants and JSON.  The `Fraction` paths
these replaced are the oracles in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from types import MappingProxyType
from typing import NamedTuple

from . import linalg
from .rationals import _scaled_ints, divided
from .reporting import Check, Report, index_witness
from .symplectic import (
    COV, CON, MAX_TENSORS, SymplecticSpace, Tensor, _derivation_entries,
    _first_antisymmetry_violation, _first_changed_difference, _first_cyclic_failure,
    _half_dimension, _is_int, _moves, _pair_through_first_slot, _require_square_map,
    _scalar_zero, _scatter, _unflat, change_basis, first_symplectic_defect, insert_vector,
    parse_fraction, tensor_from_json, tensor_to_json,
)


class ModelError(ValueError):
    """Structural failure while building algebras from a model."""


@dataclass(frozen=True)
class InfinitesimalModel:
    """Pointwise model data over a symplectic vector space.

    `curvature` is a (1,3)-tensor with slot order (X, Y, Z, output) and
    `torsion` a (1,2)-tensor with slot order (X, Y, output); `aux` lists
    the auxiliary tensors, the first of which is conventionally the
    symplectic form as a (0,2)-tensor.
    """

    space: SymplecticSpace
    curvature: Tensor
    torsion: Tensor
    aux: tuple[Tensor, ...]

    def __post_init__(self):
        if self.curvature.valence != (COV, COV, COV, CON):
            raise ValueError("curvature must be a (1,3)-tensor")
        if self.torsion.valence != (COV, COV, CON):
            raise ValueError("torsion must be a (1,2)-tensor")
        for t in (self.curvature, self.torsion, *self.aux):
            if t.dim != self.space.dim:
                raise ValueError("model tensors must share the space dimension")


def standard_omega_tensor(space: SymplecticSpace) -> Tensor:
    return Tensor.build(space.dim, (COV, COV),
                        lambda i, j: space.omega[i][j], space=space)


def trivial_model(n: int) -> InfinitesimalModel:
    """Zero curvature and torsion over the standard space, aux = (omega,)."""
    space = SymplecticSpace(n)
    return InfinitesimalModel(
        space=space,
        curvature=Tensor.zeros(space.dim, (COV, COV, COV, CON), space=space),
        torsion=Tensor.zeros(space.dim, (COV, COV, CON), space=space),
        aux=(standard_omega_tensor(space),),
    )


# -- derivation action ---------------------------------------------------------

def derivation_action(endo, t: Tensor) -> Tensor:
    """Action of an endomorphism (matrix, output index first) on a tensor.

    The entries `_derivation_entries` yields with a value are written over
    zeros of t's scalar type (Fraction(0) for a scalar); a zero t acts to a
    copy of itself.
    """
    if t.is_zero():
        comps = list(t.comps)
    else:
        comps = [_scalar_zero(t) if t.valence else Fraction(0)] * len(t.comps)
    for flat, value in _derivation_entries(endo, t):
        if value is not None:
            comps[flat] = value
    return Tensor(t.dim, t.valence, comps, space=t.space)


class _Scaled(NamedTuple):
    """A model tensor over one denominator: `den`, the lcm of the
    denominators of its nonzero entries, and {flat: den * entry} as ints."""
    tensor: Tensor
    den: int
    entries: dict[int, int]


def _scaled(t: Tensor) -> _Scaled:
    ints, den = _scaled_ints([t.comps[flat] for flat in t.support])
    return _Scaled(t, den, dict(zip(t.support, ints)))


def _targets(model: InfinitesimalModel) -> list[Tensor]:
    """The curvature, the torsion and each aux tensor: the data every
    stabilizer element must annihilate."""
    return [model.curvature, model.torsion, *model.aux]


def _scaled_targets(model: InfinitesimalModel) -> list[_Scaled]:
    return [_scaled(t) for t in _targets(model)]


def _derivation_moves(endo: list[list[int]]) -> tuple[list, list]:
    """The `_moves` of endo^T and of -endo, for the int matrix endo: a
    contravariant slot holding l sends t[flat] * endo[a][l] to the entry
    with a in that slot, a covariant one sends -t[flat] * endo[l][a]."""
    return (_moves(linalg.transpose(endo)),
            [[(shift, -x) for shift, x in row] for row in _moves(endo)])


def _derivation_scatter(moves: tuple[list, list], target: _Scaled) -> dict[int, int]:
    """{flat: value} of den_endo * den * `derivation_action`, for `moves`
    the `_derivation_moves` of the int matrix den_endo * A and `target` den
    * t, at the positions it reaches: each slot scatters the nonzero
    entries of the target (`_scatter`).  Positions no product reaches are
    absent (their entry is zero); a reached one may still sum to zero."""
    t = target.tensor
    d, rank = t.dim, len(t.valence)
    on_con, on_cov = moves
    out: dict[int, int] = {}
    for slot, kind in enumerate(t.valence):
        _scatter(target.entries, on_con if kind == CON else on_cov, d ** (rank - 1 - slot), out)
    return out


def _derivation_first_nonzero(moves: tuple[list, list], endo_den: int, target: _Scaled):
    """`derivation_action(endo / endo_den, t).first_nonzero()` for the scaled
    target t and the `_derivation_moves` of the int matrix endo, read off
    `_derivation_scatter`; the value is a `Fraction`."""
    entries = _derivation_scatter(moves, target)
    nonzero = [flat for flat, value in entries.items() if value]
    if not nonzero:
        return None
    flat = min(nonzero)
    t = target.tensor
    return _unflat(t.dim, len(t.valence), flat), Fraction(entries[flat], endo_den * target.den)


def curvature_endomorphism(r: Tensor, i: int, j: int) -> list[list]:
    """R_{e_i e_j} as a matrix (row = output index, column = argument)."""
    d = r.dim
    return [[r[i, j, k, l] for k in range(d)] for l in range(d)]


# -- model axioms ----------------------------------------------------------------

def check_model_axioms(model: InfinitesimalModel) -> Report:
    """Exact per-axiom verification; failures carry the first bad basis triple.

    Only nonzero data is touched, as ints over one denominator per tensor:
    each antisymmetry check pairs the nonzero entries with their swaps
    (`_first_antisymmetry_violation`), each derivation check is read off
    `_derivation_scatter` per curvature endomorphism R(e_i, e_j), i < j,
    whose move tables are built once for all targets, and each Bianchi
    identity is evaluated by `_first_cyclic_failure` at the sorted
    rotations of the nonzero entries of F = R + T.T or G = T.R.
    The witness is the first failure in (i, j) order and then flat order,
    and for the Bianchi identities the lexicographically first
    (i <= j <= k, l) or (i <= j <= k, w, l).
    """
    d = model.space.dim
    r, t = model.curvature, model.torsion
    checks = []

    r_s, t_s = _scaled(r), _scaled(t)
    for name, target in (("torsion_antisymmetry", t_s), ("curvature_antisymmetry", r_s)):
        bad = _first_antisymmetry_violation(target.entries, d, len(target.tensor.valence))
        checks.append(Check(name, bad is None, None if bad is None else index_witness(bad)))

    endos = {ij: _derivation_moves(endo) for ij, endo in _curvature_endos(r_s).items()}

    def derivation_check(name: str, target: _Scaled):
        for (i, j), moves in endos.items():
            hit = _derivation_first_nonzero(moves, r_s.den, target)
            if hit is not None:
                checks.append(Check(name, False,
                                    f"R(e{i + 1},e{j + 1}) acting at "
                                    f"{index_witness(hit[0])} gives {hit[1]}"))
                return
        checks.append(Check(name, True, None))

    derivation_check("curvature_derivation_on_torsion", t_s)
    derivation_check("curvature_derivation_on_curvature", r_s)

    # first Bianchi with torsion: cyclic(R_XY Z + T_{T_X Y} Z) = 0, the
    # cyclic sum of F_xyz^l = R_xyz^l + sum_m T_xy^m T_mz^l over (x, y, z).
    # Given the two antisymmetry axioms the cyclic sum is an alternating
    # trilinear form, so index triples i <= j <= k cover all cases.  F is
    # read over the common denominator r.den * t.den^2.
    f = _pair_through_first_slot(t_s.entries, t_s.entries, d, d * d)
    f = {flat: r_s.den * value for flat, value in f.items()}
    for flat, value in r_s.entries.items():
        f[flat] = f.get(flat, 0) + t_s.den ** 2 * value
    bad = _first_cyclic_failure(f, d, d)
    checks.append(Check("first_bianchi", bad is None,
                        None if bad is None else index_witness(_unflat(d, 4, bad))))

    # second Bianchi consequence: cyclic R_{T_X Y, Z} = 0 as endomorphisms,
    # the cyclic sum of G_xyzw^l = sum_m T_xy^m R_mzw^l over (x, y, z), over
    # the denominator t.den * r.den of each product.
    g = _pair_through_first_slot(t_s.entries, r_s.entries, d, d ** 3)
    bad = _first_cyclic_failure(g, d, d * d)
    checks.append(Check("second_bianchi", bad is None,
                        None if bad is None else index_witness(_unflat(d, 5, bad))))

    for pos, aux in enumerate(model.aux):
        derivation_check(f"curvature_derivation_on_aux{pos + 1}", _scaled(aux))

    return Report(title="infinitesimal model axioms", checks=checks)


def _curvature_endos(r: _Scaled) -> dict[tuple[int, int], list[list[int]]]:
    """{(i, j): r.den R(e_i, e_j)} for each i < j at which it is nonzero, in
    (i, j) order, as int matrices laid out as `curvature_endomorphism`'s;
    a zero endomorphism annihilates everything, so it is left out."""
    d = r.tensor.dim
    endos: dict = {}
    for flat, value in r.entries.items():  # flat order: (i, j) order
        i, j, k, l = _unflat(d, 4, flat)
        if i < j:
            endos.setdefault((i, j), [[0] * d for _ in range(d)])[l][k] = value
    return endos


# -- conversion between connection pictures ----------------------------------------

def _shift_terms(s: Tensor) -> tuple[Tensor, Tensor]:
    """D_X Y = S_X Y - S_Y X and Q_XY = [S_X, S_Y] - S_{D_X Y} for a structure tensor S."""
    d = s.dim
    diff = Tensor.build(d, (COV, COV, CON), lambda i, j, k: s[i, j, k] - s[j, i, k])
    # S_{e_i} as a matrix (row = output, column = argument)
    endos = [_sparse_rows([[s[i, m, l] for m in range(d)] for l in range(d)]) for i in range(d)]
    q = []
    for i, j in itertools.product(range(d), repeat=2):
        bracket = _commutator(endos[i], endos[j])
        shift = insert_vector(s, 0, diff.comps[(i * d + j) * d:(i * d + j + 1) * d])
        q.extend(bracket[l * d + k] - shift[k, l] for k in range(d) for l in range(d))
    return diff, Tensor(d, (COV, COV, COV, CON), q)


def model_from_pair(r: Tensor, t: Tensor, s: Tensor) -> tuple[Tensor, Tensor]:
    """Curvature and torsion of the connection shifted by the structure tensor.

        T'_X Y = T_X Y - (S_X Y - S_Y X)
        R'_XY  = R_XY + [S_X, S_Y] - S_{S_X Y - S_Y X}
    """
    if t.first_symmetry_violation(0, 1, anti=True) is not None:
        raise ValueError("torsion input must be antisymmetric")
    if r.first_symmetry_violation(0, 1, anti=True) is not None:
        raise ValueError("curvature input must be antisymmetric in (1,2)")
    diff, q = _shift_terms(s)
    return r + q, t - diff


def pair_from_model(r_tilde: Tensor, t_tilde: Tensor, s: Tensor) -> tuple[Tensor, Tensor]:
    """Inverse of `model_from_pair` (recovers the base curvature and torsion)."""
    diff, q = _shift_terms(s)
    return r_tilde - q, t_tilde + diff


# -- model isomorphism ---------------------------------------------------------------

def push_tensor(f: list[list], t: Tensor, f_inv: list[list] | None = None) -> Tensor:
    """Push-forward along the invertible matrix f (columns act on vectors).

    This is the change of basis to the columns of f^-1.
    """
    _require_square_map(f, t.dim)
    return change_basis(t, linalg.inverse(f) if f_inv is None else f_inv, f)


def verify_model_isomorphism(f: list[list], source: InfinitesimalModel,
                             target: InfinitesimalModel) -> Report:
    """Exact push-forward equality of all model data along f."""
    if source.space.dim != target.space.dim:
        raise ValueError("models have different dimensions")
    if len(source.aux) != len(target.aux):
        raise ValueError("models carry different numbers of auxiliary tensors")
    _require_square_map(f, source.space.dim)
    try:
        f_inv = linalg.inverse(f)
    except ValueError:
        raise ValueError("the linear map is singular") from None

    checks = []

    def push_check(name: str, a: Tensor, b: Tensor):
        b_s = _scaled(b)
        diff = _first_changed_difference(a, f_inv, f, b_s.entries, b_s.den)
        checks.append(Check(name, diff is None,
                            None if diff is None else
                            f"component {index_witness(diff[0])} differs by {diff[1]}"))

    push_check("curvature_pushforward", source.curvature, target.curvature)
    push_check("torsion_pushforward", source.torsion, target.torsion)
    for pos, (a, b) in enumerate(zip(source.aux, target.aux)):
        if a.valence != b.valence:
            checks.append(Check(f"aux{pos + 1}_pushforward", False,
                                "auxiliary tensors have different valences"))
            continue
        push_check(f"aux{pos + 1}_pushforward", a, b)

    defect = first_symplectic_defect(source.space, f)
    checks.append(Check("map_is_symplectic", defect is None,
                        None if defect is None else
                        f"(f^T omega f - omega) at {index_witness(defect[0])} is {defect[1]}"))
    return Report(title="model isomorphism", checks=checks)


# -- Nomizu and transvection constructions ----------------------------------------------

def _stabilizer_rows(targets: list[_Scaled]) -> list[list[int]]:
    """The linear equations A.t = 0 on A in End(V), one row per entry of each t.

    Unknown A[a][b] is column a*d + b.  The rows are read off the nonzero
    entries, with the `derivation_action` convention: an entry T[j] whose
    slot s holds c adds T[j] to A[e][c] in row j[s->e] when the slot is
    contravariant, and subtracts it from A[c][e] when it is covariant.
    Each target's rows are read off its scaled entries, so they are its
    denominator times its equations, as ints: the same nullspace.  Rows
    come in target order, then entry order; zero rows are dropped.
    """
    rows = []
    for target in targets:
        t = target.tensor
        d, rank = t.dim, len(t.valence)
        equations: dict[int, dict[int, int]] = {}
        for flat, value in target.entries.items():
            for slot, kind in enumerate(t.valence):
                stride = d ** (rank - 1 - slot)
                c = flat // stride % d
                base = flat - c * stride
                for e in range(d):
                    row = equations.setdefault(base + e * stride, {})
                    if kind == CON:
                        row[e * d + c] = row.get(e * d + c, 0) + value
                    else:
                        row[c * d + e] = row.get(c * d + e, 0) - value
        for flat in sorted(equations):
            dense = [0] * (d * d)
            for unknown, coeff in equations[flat].items():
                dense[unknown] = coeff
            if any(dense):
                rows.append(dense)
    return rows


def model_stabilizer_algebra(model: InfinitesimalModel) -> list[list[list[Fraction]]]:
    """Basis of {A in End(V): A annihilates curvature, torsion and aux}.

    Computed as the exact nullspace of the linear equations that
    `_stabilizer_rows` reads off the nonzero entries of the model data.
    There can be far more of them than the d^2 unknowns; they enter
    `linalg.Echelon` as ints, which keeps only the rows independent of
    those before them (at most d^2), and its back pass reduces those
    alone.  Each nullspace vector is scaled to ints once, as (den A as int
    rows, den) (`_stabilizer`), and re-verified on those ints to annihilate
    all model data (`_annihilates`); the matrices returned are their ints
    divided by den.
    """
    return _fractions(_stabilizer(_scaled_targets(model)))


def _stabilizer(targets: list[_Scaled]) -> list:
    d = targets[0].tensor.dim
    span = linalg.Echelon()
    for row in _stabilizer_rows(targets):
        span.add(row, _ints=True)
    basis = []
    for vec in span._nullspace(d * d):
        ints, den = _scaled_ints(vec)
        rows = [ints[a * d:(a + 1) * d] for a in range(d)]
        if not _annihilates(rows, targets):
            raise AssertionError("stabilizer candidate fails to annihilate model data")
        basis.append((rows, den))
    return basis


def _fractions(basis: list) -> list:
    """The matrix A of each (den A as int rows, den) in `basis`."""
    return [[divided(row, den) for row in rows] for rows, den in basis]


def _annihilates(endo: list[list[int]], targets: list[_Scaled]) -> bool:
    """Whether the int matrix endo, den A for some den > 0, annihilates
    every scaled target, read off `_derivation_scatter`."""
    moves = _derivation_moves(endo)
    return not any(any(_derivation_scatter(moves, t).values()) for t in targets)


@dataclass(frozen=True)
class LieAlgebraPresentation:
    """Structure constants [b_i, b_j] = sum_k c_ij^k b_k on a labeled basis.

    `brackets` maps each pair i < j whose bracket is nonzero to {k: c_ij^k}
    over its nonzero constants; [b_j, b_i] is its negative and [b_i, b_i]
    is zero, so the form is antisymmetric by construction.  On construction
    there must be one label per basis vector and each subspace must list
    indices 0..dim-1, and the Jacobi identity is verified exactly; the
    instance keeps read-only copies of `brackets` and `subspaces`, so every
    instance is a genuine Lie algebra presentation that `presentation_to_json`
    writes and `presentation_from_json` reads back.  `structure_constants`,
    c[i][j][k] as a dense nested tuple of `Fraction`s, is a view formed on
    first read.
    """

    dim: int
    basis_labels: tuple[str, ...]
    brackets: dict  # {(i, j): {k: c_ij^k}}, i < j, nonzero constants only
    subspaces: dict = field(default_factory=dict)

    def __post_init__(self):
        # read-only copies, so that the checks below hold for the instance's life
        object.__setattr__(self, "brackets", MappingProxyType(
            {pair: MappingProxyType(dict(row)) for pair, row in self.brackets.items()}))
        object.__setattr__(self, "subspaces", MappingProxyType(
            {name: tuple(idx) for name, idx in self.subspaces.items()}))
        if len(self.basis_labels) != self.dim:
            raise ValueError(f"{len(self.basis_labels)} basis labels for dimension {self.dim}")
        if not all(_is_int(i) and 0 <= i < self.dim
                   for idx in self.subspaces.values() for i in idx):
            raise ValueError(f"'subspaces' must map names to lists of indices 1..{self.dim}")
        for (i, j), row in self.brackets.items():
            if not (0 <= i < j < self.dim and row
                    and all(x and 0 <= k < self.dim for k, x in row.items())):
                raise ValueError(f"bracket ({i + 1},{j + 1}) is not a pair i < j of nonzero "
                                 f"constants at indices 1..{self.dim}")
        bad = self.first_jacobi_failure()
        if bad is not None:
            raise ValueError(f"Jacobi identity fails on basis triple {bad}")

    @cached_property
    def structure_constants(self) -> tuple:
        c = [[[Fraction(0)] * self.dim for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j), row in self.brackets.items():
            for k, x in row.items():
                c[i][j][k], c[j][i][k] = x, -x
        return tuple(tuple(map(tuple, plane)) for plane in c)

    def bracket(self, x: list, y: list) -> list:
        """[x, y] in coordinates, summed over the nonzero coordinates of x and y."""
        out = [Fraction(0)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in ys:
                if row := self.brackets.get((i, j) if i < j else (j, i)):
                    w = xi * yj
                    for k, c in row.items():
                        out[k] = out[k] + w * c if i < j else out[k] - w * c
        return out

    def first_jacobi_failure(self) -> tuple[int, int, int] | None:
        """The first triple i < j < k, 1-based and in `combinations` order, whose
        cyclic sum [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]] is
        nonzero.

        The constants are read as ints over the lcm of their denominators,
        at flat (i * dim + j) * dim + k for both orders of each pair.  By
        antisymmetry [b_a, [b_b, b_c]]_m = -sum_l c[b][c][l] c[l][a][m], the
        constants paired through their first slot (`_pair_through_first_slot`)
        at (b, c, a, m); the cyclic sum of that over (b, c, a) is minus the
        Jacobi sum of the triple, and vanishes where two indices are equal.
        """
        dim = self.dim
        ints = iter(_scaled_ints([x for row in self.brackets.values() for x in row.values()])[0])
        constants = {}
        for (i, j), row in self.brackets.items():
            for k in row:
                constants[(i * dim + j) * dim + k] = v = next(ints)
                constants[(j * dim + i) * dim + k] = -v
        paired = _pair_through_first_slot(constants, constants, dim, dim * dim)
        bad = _first_cyclic_failure(paired, dim, dim)
        return None if bad is None else tuple(i + 1 for i in _unflat(dim, 4, bad)[:3])


def _flatten_endo(endo) -> list:
    return [x for row in endo for x in row]


def _algebra_from_parts(targets: list[_Scaled], h_basis: list,
                        h_name: str) -> LieAlgebraPresentation:
    """The presentation of V + h, h spanned by the matrices A given as
    (den A as int rows, den) in h_basis, for the model whose scaled
    curvature and torsion lead `targets`.

    Every bracket is read off int data and only its nonzero constants are
    formed: [X, Y] = -T_X Y + R_XY from the scaled torsion and the nonzero
    curvature endomorphisms, [A, X] = A X from the ints of A over den, and
    [A, B] = AB - BA as an int matrix over den_A den_B.  A curvature
    endomorphism or a commutator is put in coordinates on the den A from
    its ints (`linalg.Coordinates._ints`), and each coordinate times den is
    its coordinate on A.  Each bracket is filed under its pair i < j, so
    [A, X_j] = A X_j goes under (j, d + a) as [X_j, A] = -A X_j.
    """
    r, t = targets[:2]
    d = r.tensor.dim
    coords_in_h = linalg.Coordinates([_flatten_endo(rows) for rows, _ in h_basis])
    dens = [den for _, den in h_basis]
    m = len(h_basis)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}

    def in_h(i: int, j: int, flat: list[int], den: int, error: str):
        found = coords_in_h._ints(flat, den)
        if found is None:
            raise ModelError(error)
        sums, den = found
        # sums / den are the coordinates on the den_a A_a: on A_a, den_a times that
        if row := {d + a: s * dens[a] for a, s in enumerate(sums) if s}:
            brackets.setdefault((i, j), {}).update(zip(row, divided(row.values(), den)))

    # [X, Y] = -T_X Y + R_XY
    for flat, value in t.entries.items():
        i, j, k = _unflat(d, 3, flat)
        if i < j:
            brackets.setdefault((i, j), {})[k] = Fraction(-value, t.den)
    for (i, j), endo in _curvature_endos(r).items():
        in_h(i, j, _flatten_endo(endo), r.den,
             "curvature endomorphism lies outside the isotropy algebra; "
             "the model does not satisfy its axioms")

    # [X, A] = -A X
    for a, (rows, den) in enumerate(h_basis):
        for j in range(d):
            if column := {l: -row[j] for l, row in enumerate(rows) if row[j]}:
                brackets[j, d + a] = dict(zip(column, divided(column.values(), den)))

    # [A, B] = AB - BA
    sparse = [_sparse_rows(rows) for rows, _ in h_basis]
    for a, b in itertools.combinations(range(m), 2):
        in_h(d + a, d + b, _commutator(sparse[a], sparse[b]), dens[a] * dens[b],
             "isotropy algebra is not closed under commutators")

    labels = tuple(f"e{i + 1}" for i in range(d)) + tuple(f"A{a + 1}" for a in range(m))
    return LieAlgebraPresentation(dim=d + m, basis_labels=labels, brackets=brackets,
                                  subspaces={"V": tuple(range(d)), h_name: tuple(range(d, d + m))})


def _sparse_rows(matrix) -> list[list[tuple[int, object]]]:
    """The (column, entry) pairs of the nonzero entries of each row."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in matrix]


def _commutator(a: list, b: list) -> list:
    """AB - BA as a flat row-major list, for a and b given as `_sparse_rows`;
    each entry sums its nonzero products from 0, so int matrices give ints."""
    d = len(a)
    out = [0] * (d * d)
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for i, row in enumerate(x):
            for m, xm in row:
                xm = sign * xm
                for j, v in y[m]:
                    out[i * d + j] += xm * v
    return out


def nomizu_algebra(model: InfinitesimalModel) -> LieAlgebraPresentation:
    """Transitive algebra V + h0 with h0 the full model stabilizer."""
    targets = _scaled_targets(model)
    return _algebra_from_parts(targets, _stabilizer(targets), "h0")


def transvection_subalgebra(model: InfinitesimalModel) -> list[list[list[Fraction]]]:
    """Lie closure of the curvature endomorphisms inside End(V).

    The closure runs on int matrices, each element A kept as (den A as int
    rows, den) (`_closure`): the nonzero curvature endomorphisms in (i, j)
    order, then in each round the commutators of the pairs a < b, in order,
    that include an element added in the previous round, each kept when it
    is independent of the elements before it (`linalg.Echelon`, on its
    ints).  A pair of older elements was tried against a smaller span in an
    earlier round, and spans only grow, so bracketing every pair would add
    the same elements.  The matrices returned are their ints divided by den.
    """
    return _fractions(_closure(_scaled(model.curvature)))


def _closure(r: _Scaled) -> list:
    d = r.tensor.dim
    basis = []  # (den A as int rows, den)
    sparse = []  # `_sparse_rows` of each den A
    span = linalg.Echelon()

    def try_add(flat: list[int], den: int):
        if span.add(list(flat), _ints=True):
            g = math.gcd(den, *flat)
            rows = [[x // g for x in flat[a * d:(a + 1) * d]] for a in range(d)]
            basis.append((rows, den // g))
            sparse.append(_sparse_rows(rows))

    for endo in _curvature_endos(r).values():
        try_add(_flatten_endo(endo), r.den)
    limit = d * d
    start = 0  # the first element added in the previous round
    for _ in range(limit + 1):
        end = len(basis)
        for a in range(end):
            for b in range(max(a + 1, start), end):
                try_add(_commutator(sparse[a], sparse[b]), basis[a][1] * basis[b][1])
        if len(basis) == end:
            return basis
        if len(basis) > limit:
            raise ModelError("Lie closure exceeded the dimension of End(V)")
        start = end
    raise ModelError("Lie closure did not stabilize inside End(V)")


def transvection_algebra(model: InfinitesimalModel) -> LieAlgebraPresentation:
    """Algebra V + h0' where h0' is Lie-generated by curvature endomorphisms.

    The containment h0' inside the full stabilizer h0 is re-verified on the
    closure's ints: every element of h0' must annihilate all model data.
    """
    targets = _scaled_targets(model)
    h0p = _closure(targets[0])
    if not all(_annihilates(rows, targets) for rows, _ in h0p):
        raise ModelError("transvection algebra is not contained in the stabilizer")
    return _algebra_from_parts(targets, h0p, "h0")


# -- Bianchi classification --------------------------------------------------------------

@dataclass(frozen=True)
class BianchiType:
    """Classification of a 3-dimensional real Lie algebra.

    `parameters` carries the eigenvalue-ratio invariant of the adjoint
    action on the derived algebra together with its reciprocal (published
    parameter conventions differ by exactly this ambiguity); `invariant`
    is the symmetric rational invariant trace^2/det, which determines the
    unordered ratio pair.
    """

    tag: str
    parameters: frozenset | None = None
    invariant: Fraction | None = None
    notes: str = ""


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = isqrt(q.numerator)
    den = isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def bianchi_classify(p: LieAlgebraPresentation) -> BianchiType:
    """Standard decision tree on the derived algebra and adjoint spectra."""
    if p.dim != 3:
        raise ValueError("Bianchi classification needs a 3-dimensional algebra")
    c = p.structure_constants
    unit = [[Fraction(1) if a == b else Fraction(0) for a in range(3)] for b in range(3)]
    derived = linalg.Echelon()
    derived_rows = [list(c[i][j]) for i, j in ((0, 1), (0, 2), (1, 2)) if derived.add(c[i][j])]
    dd = len(derived_rows)

    if dd == 0:
        return BianchiType(tag="I")

    if dd == 3:
        def killing(i: int, j: int) -> Fraction:  # tr(ad b_i ad b_j)
            return sum((c[i][l][k] * c[j][k][l] for k in range(3) for l in range(3)
                        if c[i][l][k] and c[j][k][l]), Fraction(0))

        neg = [[-killing(i, j) for j in range(3)] for i in range(3)]
        minors = [linalg.det([row[:k] for row in neg[:k]]) for k in (1, 2, 3)]
        negative_definite = all(m > 0 for m in minors)
        return BianchiType(tag="IX" if negative_definite else "VIII")

    if dd == 1:
        u = derived_rows[0]
        central = all(all(v == 0 for v in p.bracket(u, unit[i])) for i in range(3))
        return BianchiType(tag="II" if central else "III")

    # dd == 2: the derived algebra is abelian and ad_X acts invertibly on it
    u, v = derived_rows
    if any(x != 0 for x in p.bracket(u, v)):
        raise ModelError("derived algebra of a 3-dimensional solvable algebra must be abelian")
    complement = next(e for e in unit if e not in derived)
    coords_in_derived = linalg.Coordinates(derived_rows)
    cu = coords_in_derived(p.bracket(complement, u))
    cv = coords_in_derived(p.bracket(complement, v))
    if cu is None or cv is None:
        raise ModelError("adjoint action does not preserve the derived algebra")
    a_matrix = [[cu[0], cv[0]], [cu[1], cv[1]]]
    trace = a_matrix[0][0] + a_matrix[1][1]
    determinant = a_matrix[0][0] * a_matrix[1][1] - a_matrix[0][1] * a_matrix[1][0]
    if determinant == 0:
        raise ModelError("adjoint action on a 2-dimensional derived algebra is singular")
    invariant = trace * trace / determinant
    unimodular = " (unimodular)" if trace == 0 else ""

    discriminant = trace * trace - 4 * determinant
    if discriminant == 0:
        scalar = (a_matrix[0][1] == 0 and a_matrix[1][0] == 0
                  and a_matrix[0][0] == a_matrix[1][1])
        return BianchiType(tag="V" if scalar else "IV", invariant=invariant)
    if discriminant > 0:
        root = _fraction_sqrt(discriminant)
        params = None
        if root is not None:
            lam1 = (trace + root) / 2
            lam2 = (trace - root) / 2
            params = frozenset((lam1 / lam2, lam2 / lam1))
        return BianchiType(tag="VI", parameters=params, invariant=invariant,
                           notes="real distinct adjoint eigenvalues" + unimodular)
    return BianchiType(tag="VII", parameters=None, invariant=invariant,
                       notes="complex adjoint eigenvalues" + unimodular)


# -- serialization ---------------------------------------------------------------------

def presentation_to_json(p: LieAlgebraPresentation) -> dict:
    constants = {f"[{i + 1},{j + 1}]": {str(k + 1): str(c) for k, c in sorted(row.items())}
                 for (i, j), row in sorted(p.brackets.items())}
    return {
        "dim": p.dim,
        "basis_labels": list(p.basis_labels),
        "structure_constants": constants,
        "subspaces": {name: [i + 1 for i in idx] for name, idx in p.subspaces.items()},
    }


def presentation_from_json(data: dict) -> LieAlgebraPresentation:
    """Inverse of `presentation_to_json`.

    Malformed input raises `ValueError` (`KeyError` for a missing `dim`):
    `dim` must be a non-negative integer, `basis_labels` a list of strings,
    `structure_constants` an object of objects whose values are strings and
    `subspaces` an object of lists of basis indices 1..dim.  A pair given
    under both orders, such as `[1,2]` and `[2,1]`, must give brackets that
    are negatives of each other, and no bracket may give a component index
    twice, as `"3"` and `"03"`.  Zero constants are dropped.
    """
    dim = data["dim"]
    if not _is_int(dim) or dim < 0:
        raise ValueError(f"'dim' must be a non-negative integer, got {dim!r}")
    labels = data.get("basis_labels") or [f"b{i + 1}" for i in range(dim)]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("'basis_labels' must be a list of strings")
    # the constructor checks the label count: an empty presentation checks it
    # here, before the brackets, whose errors come after it
    LieAlgebraPresentation(dim, tuple(labels), {})
    constants = data.get("structure_constants", {})
    if not isinstance(constants, dict):
        raise ValueError("'structure_constants' must be a JSON object")
    brackets = {}
    keys = {}  # (i, j) with i < j -> the key that gave [e_i, e_j]
    for key, row in constants.items():
        inner = key.strip()
        try:  # a part that is no integer, or not two parts
            i, j = (int(part) - 1 for part in inner[1:-1].split(","))
        except ValueError:
            i = j = -1
        if not (inner.startswith("[") and inner.endswith("]")
                and 0 <= i < dim and 0 <= j < dim and i != j):
            raise ValueError(f"bad bracket key {key!r}")
        if not isinstance(row, dict):
            raise ValueError(f"bracket {key!r} must be a JSON object")
        bracket = {}
        for k_text, value in row.items():
            try:
                k = int(k_text) - 1
            except ValueError:
                k = -1
            if not 0 <= k < dim:
                raise ValueError(f"bad component index in {key!r}")
            if k in bracket:
                raise ValueError(f"component {k_text!r} of {key!r} repeats an index given before")
            if not isinstance(value, str):
                raise ValueError(f"component {k_text!r} of {key!r} must be a string, "
                                 f"got {type(value).__name__}")
            bracket[k] = parse_fraction(value)
        bracket = {k: x if i < j else -x for k, x in bracket.items() if x}
        i, j = min(i, j), max(i, j)
        if (i, j) in keys and brackets.get((i, j), {}) != bracket:
            raise ValueError(f"brackets {keys[i, j]!r} and {key!r} disagree")
        keys[i, j] = key
        if bracket:
            brackets[i, j] = bracket
    subspaces = data.get("subspaces", {})
    if not (isinstance(subspaces, dict) and all(
            isinstance(idx, list) and all(map(_is_int, idx)) for idx in subspaces.values())):
        raise ValueError(f"'subspaces' must map names to lists of indices 1..{dim}")
    # the constructor checks the subspace indices
    return LieAlgebraPresentation(
        dim=dim, basis_labels=tuple(labels), brackets=brackets,
        subspaces={name: tuple(i - 1 for i in idx) for name, idx in subspaces.items()})


def model_to_json(model: InfinitesimalModel) -> dict:
    return {
        "n": model.space.n,
        "curvature": tensor_to_json(model.curvature),
        "torsion": tensor_to_json(model.torsion),
        "aux": [tensor_to_json(t) for t in model.aux],
    }


def model_from_json(data: dict) -> InfinitesimalModel:
    """Inverse of `model_to_json`.

    Malformed input raises `ValueError` (`KeyError` for a missing field): `n`
    must be an integer in 1..MAX_N, `curvature` and `torsion` tensors and
    `aux` a list of at most MAX_TENSORS tensors, each in the
    `tensor_from_json` format.
    """
    n = _half_dimension(data)
    aux = data.get("aux", [])
    if not isinstance(aux, list):
        raise ValueError("'aux' must be a list of tensors")
    if len(aux) > MAX_TENSORS:
        raise ValueError(f"'aux' has at most {MAX_TENSORS} tensors, got {len(aux)}")
    space = SymplecticSpace(n)
    curvature = tensor_from_json(data["curvature"], space=space)
    torsion = tensor_from_json(data["torsion"], space=space)
    aux = tuple(tensor_from_json(item, space=space) for item in aux)
    return InfinitesimalModel(space=space, curvature=curvature, torsion=torsion, aux=aux)

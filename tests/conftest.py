"""Shared helpers: seeded generators and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
contraction oracles are brute-force double sums written from the index
definitions, the linear-solve oracle goes through sympy, and the
derivation-action oracle is the whole-list construction that the lazy
kernel replaced, with its own slot contraction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fedosov.rationals import Polynomial, RationalFunction
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor


def random_symmetric_tensor(rng: random.Random, n: int, bound: int = 9) -> Tensor:
    """Random (0,3)-tensor symmetric in the first two slots."""
    space = SymplecticSpace(n)
    d = space.dim
    comps = [Fraction(0)] * d ** 3
    for i in range(d):
        for j in range(i, d):
            for k in range(d):
                v = Fraction(rng.randint(-bound, bound))
                comps[(i * d + j) * d + k] = v
                comps[(j * d + i) * d + k] = v
    return Tensor(d, (COV, COV, COV), comps, space=space)


def random_antisymmetric_tensor(rng: random.Random, n: int, bound: int = 9) -> Tensor:
    """Random (0,3)-tensor antisymmetric in the first two slots."""
    space = SymplecticSpace(n)
    d = space.dim
    comps = [Fraction(0)] * d ** 3
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                v = Fraction(rng.randint(-bound, bound))
                comps[(i * d + j) * d + k] = v
                comps[(j * d + i) * d + k] = -v
    return Tensor(d, (COV, COV, COV), comps, space=space)


def random_tensor(rng: random.Random, n: int, valence, bound: int = 5) -> Tensor:
    space = SymplecticSpace(n)
    return Tensor(space.dim, valence,
                  [Fraction(rng.randint(-bound, bound))
                   for _ in range(space.dim ** len(valence))],
                  space=space)


def random_structure_tensor(rng: random.Random, n: int, bound: int = 3) -> Tensor:
    """Random (1,2)-tensor used as a connection-difference tensor."""
    return random_tensor(rng, n, (COV, COV, CON), bound)


def random_vector(rng: random.Random, dim: int, bound: int = 9) -> list[Fraction]:
    return [Fraction(rng.randint(-bound, bound)) for _ in range(dim)]


def random_rational_function(rng: random.Random, nvars: int = 2,
                             max_terms: int = 3, bound: int = 4) -> RationalFunction:
    """Small random rational function in <= 2 variables, nonzero denominator."""
    variables = ("x", "y")[:nvars]

    def random_poly(allow_zero: bool) -> Polynomial:
        terms = {}
        for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
            exp = tuple(rng.randint(0, 2) for _ in variables)
            coeff = Fraction(rng.randint(-bound, bound))
            if coeff:
                terms[exp] = terms.get(exp, Fraction(0)) + coeff
        return Polynomial(variables, terms)

    num = random_poly(allow_zero=True)
    den = random_poly(allow_zero=False)
    while den.is_zero():
        den = random_poly(allow_zero=False)
    return RationalFunction(num, den)


def linear_type_tensor(space: SymplecticSpace, xi) -> Tensor:
    """S_X Y = omega(X,Y) xi - omega(Y,xi) X on a constant space."""
    d = space.dim

    def entry(i, j, k):
        value = space.omega[i][j] * xi[k]
        value -= sum(space.omega[j][m] * xi[m] for m in range(d)) * (1 if k == i else 0)
        return value

    return Tensor.build(d, (COV, COV, CON), entry, space=space)


def valid_random_model(rng: random.Random, n: int):
    """A pseudorandom model that provably satisfies the model axioms.

    Generic structure tensors essentially never do (the axioms cut out a
    measure-zero set), so this samples the linear-type family (machine-
    verified valid for every xi) or the trivial model and randomizes by a
    symplectic pushforward.
    """
    from fedosov.models import (InfinitesimalModel, check_model_axioms,
                                model_from_pair, push_tensor,
                                standard_omega_tensor)

    space = SymplecticSpace(n)
    d = space.dim
    if rng.random() < 0.2:
        base = InfinitesimalModel(
            space=space,
            curvature=Tensor.zeros(d, (COV, COV, COV, CON), space=space),
            torsion=Tensor.zeros(d, (COV, COV, CON), space=space),
            aux=(standard_omega_tensor(space),))
    else:
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        if all(x == 0 for x in xi):
            xi[rng.randrange(d)] = Fraction(1)
        s = linear_type_tensor(space, xi)
        zero_r = Tensor.zeros(d, (COV, COV, COV, CON), space=space)
        zero_t = Tensor.zeros(d, (COV, COV, CON), space=space)
        r_tilde, t_tilde = model_from_pair(zero_r, zero_t, s)
        base = InfinitesimalModel(space=space, curvature=r_tilde,
                                  torsion=t_tilde,
                                  aux=(standard_omega_tensor(space), s))
    f = random_symplectic_matrix(rng, space)
    model = InfinitesimalModel(
        space=space,
        curvature=push_tensor(f, base.curvature),
        torsion=push_tensor(f, base.torsion),
        aux=tuple(push_tensor(f, t) for t in base.aux))
    report = check_model_axioms(model)
    if not report.passed:
        raise AssertionError("valid_random_model produced an invalid model")
    return model


def random_symplectic_matrix(rng: random.Random, space: SymplecticSpace,
                             transvections: int = 3) -> list[list[Fraction]]:
    """Product of random symplectic transvections x -> x + c omega(x, v) v."""
    d = space.dim
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for _ in range(transvections):
        v = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        if all(x == 0 for x in v):
            v[rng.randrange(d)] = Fraction(1)
        c = Fraction(rng.randint(-2, 2))
        # columns of the transvection: e_j + c omega(e_j, v) v
        t = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        for j in range(d):
            pairing = sum(space.omega[j][k] * v[k] for k in range(d))
            for i in range(d):
                t[i][j] += c * pairing * v[i]
        m = [[sum(t[i][k] * m[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return m


# -- brute-force oracles -------------------------------------------------------------

def oracle_s13(t: Tensor) -> list[Fraction]:
    """Direct double-sum evaluation of the symmetric-pair trace."""
    n = t.dim // 2
    out = []
    for z in range(t.dim):
        total = Fraction(0)
        for i in range(n):
            total += t[i, z, i + n] - t[i + n, z, i]
        out.append(total)
    return out


def oracle_t12(t: Tensor) -> list[Fraction]:
    n = t.dim // 2
    return [sum((t[i, i + n, z] for i in range(n)), Fraction(0)) for z in range(t.dim)]


def oracle_t13(t: Tensor) -> list[Fraction]:
    n = t.dim // 2
    out = []
    for y in range(t.dim):
        total = Fraction(0)
        for i in range(n):
            total += t[i, y, i + n] - t[i + n, y, i]
        out.append(total)
    return out


def _zero(x) -> bool:
    return x == 0 if isinstance(x, (int, Fraction)) else x.is_zero()


def old_contract_slot(t: Tensor, slot: int, matrix) -> list:
    """out[..., a, ...] = sum_l t[..., l, ...] * matrix[l][a] over all entries,
    l increasing, zero terms skipped, starting from the first nonzero term."""
    d = t.dim
    stride = d ** (len(t.valence) - 1 - slot)
    comps = t.comps
    sample = comps[0]
    zero = Fraction(0) if isinstance(sample, (int, Fraction)) else sample - sample
    columns = [[(l * stride, row[a]) for l, row in enumerate(matrix) if not _zero(row[a])]
               for a in range(len(matrix[0]))]
    out = []
    for block in range(0, len(comps), d * stride):
        for column in columns:
            for base in range(block, block + stride):
                total = None
                for offset, factor in column:
                    value = comps[base + offset]
                    if _zero(value):
                        continue
                    term = value * factor
                    total = term if total is None else total + term
                out.append(zero if total is None else total)
    return out


def old_derivation_action(endo, t: Tensor) -> Tensor:
    """The derivation action of `endo` (output index first) on t: one whole
    slot contraction per slot, merged slot by slot over all entries from
    Fraction(0).  A zero t is returned as a copy."""
    if all(_zero(c) for c in t.comps):
        return Tensor(t.dim, t.valence, list(t.comps), space=t.space)
    on_con = [list(column) for column in zip(*endo)]
    on_cov = [[-x for x in row] for row in endo]
    comps = [Fraction(0)] * len(t.comps)
    for slot, kind in enumerate(t.valence):
        part = old_contract_slot(t, slot, on_con if kind == CON else on_cov)
        comps = [b if _zero(a) else a if _zero(b) else a + b for a, b in zip(comps, part)]
    return Tensor(t.dim, t.valence, comps, space=t.space)


def sympy_solve_columns(columns: list[list[Fraction]], rhs: list[Fraction]):
    """Independent exact solve of (columns as matrix columns) x = rhs via sympy."""
    import sympy

    matrix = sympy.Matrix([[sympy.Rational(columns[c][r]) for c in range(len(columns))]
                           for r in range(len(rhs))])
    vector = sympy.Matrix([sympy.Rational(v) for v in rhs])
    solution = matrix.solve(vector)
    return [Fraction(int(v.p), int(v.q)) for v in solution]


def matvec(matrix, vec) -> list[Fraction]:
    """Matrix times column vector, exact."""
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in matrix]

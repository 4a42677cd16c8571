"""Class conditions read off the tensor maps, against hand-indexed rows.

`decomposition` builds the condition matrix of each conditioned class
(S2, S3, T2, T4) by applying the class's maps to coordinate unit tensors.
The oracle here is the earlier construction, kept independent of it: rows
written index by index on the symmetric (i <= j, k) and antisymmetric
(i < j, k) coordinates through position/sign lookups, S3 as the
symmetrized unit tensors, T4 as the tensors antisymmetric in (2,3) with
zero t12, and its dimension as the t12 nullity on 3-forms.

S2, T2 and S3 bases come out identical, because both matrices have the
same row space on the same coordinates and a nullspace basis is read off
the unique reduced echelon form.  T4 now lives on 3-form coordinates, so
only its span is compared.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import pytest

from fedosov import linalg
from fedosov.decomposition import (
    SUBMODULE_LABELS, build_basis, submodule_dimension,
    _s1_generator, _t1_generator, _t3_generator, _w_generator,
)
from fedosov.symplectic import COV, SymplecticSpace, Tensor, contract_t12


def _coords(dim: int, kind: str):
    if kind == "cotorsion":
        coords = [(i, j, k) for i in range(dim) for j in range(i, dim) for k in range(dim)]
    else:
        coords = [(i, j, k) for i in range(dim) for j in range(i + 1, dim) for k in range(dim)]
    return coords, {c: pos for pos, c in enumerate(coords)}


def _sym_lookup(index, x, y, z):
    return (index[(x, y, z)], 1) if x <= y else (index[(y, x, z)], 1)


def _alt_lookup(index, x, y, z):
    if x == y:
        return None
    return (index[(x, y, z)], 1) if x < y else (index[(y, x, z)], -1)


def _cyclic_rows_sym(n):
    dim = 2 * n
    coords, index = _coords(dim, "cotorsion")
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


def _s13_rows(n):
    dim = 2 * n
    coords, index = _coords(dim, "cotorsion")
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


def _alt_rows(n, triples):
    """One row per index triple list: the sum of T at those triples."""
    coords, index = _coords(2 * n, "torsion")
    rows = []
    for group in triples:
        row = [Fraction(0)] * len(coords)
        for triple in group:
            hit = _alt_lookup(index, *triple)
            if hit is not None:
                row[hit[0]] += hit[1]
        if any(v != 0 for v in row):
            rows.append(row)
    return rows


def _cyclic_rows_alt(n):
    r = range(2 * n)
    return _alt_rows(n, [((a, b, c), (b, c, a), (c, a, b))
                         for a in r for b in r if b > a for c in r if c > b])


def _cyclic_rows_alt_degenerate(n):
    r = range(2 * n)
    return _alt_rows(n, [((a, a, c), (a, c, a), (c, a, a)) for a in r for c in r])


def _t12_rows(n):
    return _alt_rows(n, [[(i, i + n, z) for i in range(n)] for z in range(2 * n)])


def _antisym23_rows(n):
    r = range(2 * n)
    return _alt_rows(n, [((x, y, z), (x, z, y)) for x in r for y in r for z in r if z >= y])


def _tensor_from_vec(vec, n, kind, space):
    dim = 2 * n
    coords, _ = _coords(dim, kind)
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


def _vectorize(t, kind):
    coords, _ = _coords(t.dim, kind)
    return [t[c] for c in coords]


_ORACLE_ROWS = {
    "S2": ("cotorsion", lambda n: _cyclic_rows_sym(n) + _s13_rows(n)),
    "T2": ("torsion", lambda n: (_cyclic_rows_alt(n) + _cyclic_rows_alt_degenerate(n)
                                 + _t12_rows(n))),
    "T4": ("torsion", lambda n: _antisym23_rows(n) + _t12_rows(n)),
}


def oracle_basis(label, n):
    space = SymplecticSpace(n)
    dim = space.dim
    if label == "S3":
        elements = []
        for a in range(dim):
            for b in range(a, dim):
                for c in range(b, dim):
                    comps = [Fraction(0)] * dim ** 3
                    for x, y, z in set(itertools.permutations((a, b, c))):
                        comps[(x * dim + y) * dim + z] = Fraction(1)
                    elements.append(Tensor(dim, (COV, COV, COV), comps, space=space))
        return elements
    kind, rows = _ORACLE_ROWS[label]
    vecs = linalg.nullspace(rows(n), ncols=len(_coords(dim, kind)[0]))
    return [_tensor_from_vec(v, n, kind, space) for v in vecs]


def _threeforms(n):
    dim = 2 * n
    forms = []
    for a, b, c in itertools.combinations(range(dim), 3):
        comps = [Fraction(0)] * dim ** 3
        for perm in itertools.permutations(range(3)):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
            x, y, z = ((a, b, c)[p] for p in perm)
            comps[(x * dim + y) * dim + z] = Fraction(sign)
        forms.append(Tensor(dim, (COV, COV, COV), comps))
    return forms


_GENERATORS = {"S1": ("cotorsion", _s1_generator), "T1": ("torsion", _t1_generator),
               "T3": ("torsion", _t3_generator), "W": ("torsion", _w_generator)}


def oracle_dimension(label, n):
    dim = 2 * n
    if label in _GENERATORS:
        kind, gen = _GENERATORS[label]
        space = SymplecticSpace(n)
        return linalg.rank([_vectorize(gen(space, u), kind) for u in range(dim)])
    if label == "S3":
        return comb(dim + 2, 3)
    if label == "T4":
        forms = _threeforms(n)
        if not forms:
            return 0
        return len(forms) - linalg.rank(linalg.transpose([contract_t12(f) for f in forms]))
    kind = "cotorsion" if label == "S2" else "torsion"
    rows = _cyclic_rows_sym(n) + _s13_rows(n) if label == "S2" else (
        _cyclic_rows_alt(n) + _t12_rows(n))
    return len(_coords(dim, kind)[0]) - linalg.rank(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("label", ["S2", "S3", "T2"])
def test_conditioned_basis_identical_to_row_oracle(label, n):
    got = build_basis(label, n).elements
    assert [e.comps for e in got] == [e.comps for e in oracle_basis(label, n)]
    assert all(type(c) is Fraction for e in got for c in e.comps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_t4_basis_spans_the_row_oracle_span(n):
    got = [_vectorize(e, "torsion") for e in build_basis("T4", n).elements]
    want = [_vectorize(e, "torsion") for e in oracle_basis("T4", n)]
    assert len(got) == len(want)
    if got:
        assert linalg.rank(got) == linalg.rank(want) == linalg.rank(got + want) == len(got)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_submodule_dimension_matches_row_oracle(n):
    for label in SUBMODULE_LABELS:
        assert submodule_dimension(label, n) == oracle_dimension(label, n), label

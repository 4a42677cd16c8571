"""Differential tests: closed-form projectors against the basis-and-solve oracle.

The oracle is the original exact-solve decomposition: concatenate the
class bases into one square matrix over Q, invert it, read each class's
coordinates off the inverse and sum the scaled basis tensors.  It is
correct by construction but slow (the n = 4 inverse alone takes seconds),
which is why the library now uses closed-form projectors; here the two
must agree exactly, part by part, on seeded and hypothesis-drawn tensors
and on every basis element.  Generated-class membership is compared with
the oracle's rank test in the same way.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import linalg
from fedosov.decomposition import (
    COTORSION_LABELS, TORSION_LABELS, ambient_dimension, build_basis,
    class_predicate, cotorsion_to_torsion, decompose_cotorsion,
    decompose_torsion, symplectify_torsion, _vectorize,
)
from fedosov.symplectic import COV, SymplecticSpace, Tensor, cyclic_sum

from conftest import matvec, random_antisymmetric_tensor, random_symmetric_tensor


# -- the oracle: basis concatenation plus one exact inverse -------------------------

@lru_cache(maxsize=None)
def _oracle_solver(kind: str, n: int):
    labels = COTORSION_LABELS if kind == "cotorsion" else TORSION_LABELS
    bases = {label: build_basis(label, n).elements for label in labels}
    columns = [_vectorize(t, kind) for label in labels for t in bases[label]]
    assert len(columns) == ambient_dimension(kind, n)
    return labels, bases, linalg.inverse(linalg.transpose(columns))


def oracle_decompose(t: Tensor, kind: str) -> dict:
    n = t.dim // 2
    labels, bases, inverse = _oracle_solver(kind, n)
    coeffs = iter(matvec(inverse, _vectorize(t, kind)))
    parts = {}
    for label in labels:
        part = Tensor.zeros(t.dim, (COV, COV, COV), space=t.space)
        for element in bases[label]:
            c = next(coeffs)
            if c != 0:
                part = part + element.scale(c)
        parts[label] = part
    return parts


def oracle_symplectify(t: Tensor) -> Tensor | None:
    """The S1 + S2 combination S with A(-S) = T, or None when none exists."""
    n = t.dim // 2
    elements = [e for label in ("S1", "S2") for e in build_basis(label, n).elements]
    columns = [_vectorize(cotorsion_to_torsion(e.scale(-1)), "torsion") for e in elements]
    coeffs = linalg.solve(linalg.transpose(columns), _vectorize(t, "torsion"))
    if coeffs is None:
        return None
    s = Tensor.zeros(t.dim, (COV, COV, COV), space=t.space)
    for c, element in zip(coeffs, elements):
        if c != 0:
            s = s + element.scale(c)
    return s


def oracle_in_span(label: str, t: Tensor) -> bool:
    kind = "cotorsion" if label.startswith("S") else "torsion"
    vecs = [_vectorize(b, kind) for b in build_basis(label, t.dim // 2).elements]
    return linalg.rank(vecs) == linalg.rank(vecs + [_vectorize(t, kind)])


# -- comparisons ---------------------------------------------------------------------

def assert_cotorsion_matches(s: Tensor) -> None:
    result = decompose_cotorsion(s)
    expected = oracle_decompose(s, "cotorsion")
    assert list(result.parts) == list(COTORSION_LABELS)
    for label in COTORSION_LABELS:
        assert result.part(label) == expected[label], label
    assert result.type_set == {lab for lab in COTORSION_LABELS if not expected[lab].is_zero()}


def assert_torsion_matches(t: Tensor) -> None:
    result = decompose_torsion(t)
    expected = oracle_decompose(t, "torsion")
    assert list(result.parts) == list(TORSION_LABELS)
    for label in TORSION_LABELS:
        assert result.part(label) == expected[label], label
    assert result.type_set == {lab for lab in TORSION_LABELS if not expected[lab].is_zero()}


def assert_symplectify_matches(t: Tensor) -> None:
    parts = oracle_decompose(t, "torsion")
    outside = [label for label in ("T3", "T4") if not parts[label].is_zero()]
    if outside:
        with pytest.raises(ValueError) as err:
            symplectify_torsion(t)
        assert str(err.value) == (
            f"no symmetric solution: torsion has nonzero {'+'.join(outside)} part")
    else:
        assert symplectify_torsion(t) == oracle_symplectify(t)


@pytest.mark.parametrize("n,samples", [(1, 10), (2, 10), (3, 3), (4, 2)])
def test_projectors_match_oracle_on_seeded_tensors(n, samples):
    rng = random.Random(7000 + n)
    for _ in range(samples):
        assert_cotorsion_matches(random_symmetric_tensor(rng, n))
        t = random_antisymmetric_tensor(rng, n)
        assert_torsion_matches(t)
        assert_symplectify_matches(t)
        # A is injective on S1 + S2, so a preimage free of its S3 part is the
        # answer; the solve oracle is skipped at n = 4, where it takes seconds
        s = random_symmetric_tensor(rng, n)
        s = s - cyclic_sum(s).scale(Fraction(1, 3))
        image = cotorsion_to_torsion(s.scale(-1))
        assert symplectify_torsion(image) == s
        if n <= 3:
            assert_symplectify_matches(image)


def _drawn_tensor(data, n: int, anti: bool) -> Tensor:
    d = 2 * n
    comps = [Fraction(0)] * d ** 3
    coords = [(i, j, k) for i in range(d) for j in range(i + (1 if anti else 0), d)
              for k in range(d)]
    values = data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                                min_size=len(coords), max_size=len(coords)))
    for (i, j, k), v in zip(coords, values):
        comps[(i * d + j) * d + k] = v
        comps[(j * d + i) * d + k] = -v if anti else v
    return Tensor(d, (COV, COV, COV), comps, space=SymplecticSpace(n))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=3))
def test_projectors_match_oracle_on_drawn_tensors(data, n):
    assert_cotorsion_matches(_drawn_tensor(data, n, anti=False))
    t = _drawn_tensor(data, n, anti=True)
    assert_torsion_matches(t)
    assert_symplectify_matches(t)
    s = _drawn_tensor(data, n, anti=False)
    s = s - cyclic_sum(s).scale(Fraction(1, 3))
    image = cotorsion_to_torsion(s.scale(-1))
    assert symplectify_torsion(image) == s
    if n <= 2:
        assert_symplectify_matches(image)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_basis_element_maps_to_itself(n):
    for labels, decompose in ((COTORSION_LABELS, decompose_cotorsion),
                              (TORSION_LABELS, decompose_torsion)):
        for label in labels:
            for element in build_basis(label, n).elements:
                result = decompose(element)
                assert result.type_set == {label}
                assert result.part(label) == element
                for other in labels:
                    if other != label:
                        assert result.part(other).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_class_predicate_matches_rank_test(n):
    rng = random.Random(7100 + n)
    space = SymplecticSpace(n)
    zero = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
    for label in ("S1", "T1", "T3"):
        labels = COTORSION_LABELS if label.startswith("S") else TORSION_LABELS
        gen = random_symmetric_tensor if label.startswith("S") else random_antisymmetric_tensor
        members = list(build_basis(label, n).elements)
        combo = zero
        for element in members:
            combo = combo + element.scale(Fraction(rng.randint(-3, 3)))
        candidates = [zero, combo, gen(rng, n), gen(rng, n)]
        for other in labels:
            for element in build_basis(other, n).elements[:3]:
                candidates.append(element)
                candidates.append(combo + element)
        for t in candidates:
            assert class_predicate(label, t) == oracle_in_span(label, t)

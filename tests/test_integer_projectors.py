"""The integer projector kernel against the Fraction projectors it replaced.

`decompose_cotorsion`, `decompose_torsion`, `symplectify_torsion` and the
S1/T1/T3 membership of `class_predicate` scale their input to ints by the
lcm D of its denominators, run one division-free kernel, and divide each
part entry once.  Past `MAX_SCALE_BITS` bits of D the kernel gets the
`Fraction` entries themselves.  The oracles in conftest are the old
Fraction projectors, written entry by entry from their formulas with no code
shared with the kernel.  Parts must agree by value and by `str`, with the
same type set and the same error messages, on both input paths, and every
entry the API hands back must be a `Fraction`.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import rationals
from fedosov.decomposition import (
    COTORSION_LABELS, TORSION_LABELS, build_basis, class_predicate, decompose_cotorsion,
    decompose_torsion, symplectify_torsion,
)
from fedosov.symplectic import COV, SymplecticSpace, Tensor

from conftest import (
    coprime_denominators, old_decompose_cotorsion, old_decompose_torsion, old_symplectify_torsion,
    random_antisymmetric_tensor, random_symmetric_tensor,
)

DECOMPOSE = {False: (decompose_cotorsion, old_decompose_cotorsion, COTORSION_LABELS),
             True: (decompose_torsion, old_decompose_torsion, TORSION_LABELS)}


def _tensor(n: int, anti: bool, values) -> Tensor:
    """The (anti)symmetric tensor whose independent entries (i <= j, or
    i < j, then k) take `values` in order."""
    d = 2 * n
    comps = [Fraction(0)] * d ** 3
    coords = [(i, j, k) for i in range(d) for j in range(i + anti, d) for k in range(d)]
    for (i, j, k), v in zip(coords, values):
        comps[(i * d + j) * d + k] = v
        comps[(j * d + i) * d + k] = -v if anti else v
    return Tensor(d, (COV, COV, COV), comps, space=SymplecticSpace(n))


def _independent(n: int, anti: bool) -> int:
    d = 2 * n
    return d * (d * (d - 1) // 2 if anti else d * (d + 1) // 2)


def coprime_tensor(n: int, anti: bool, bits: int, seed: int = 0) -> Tensor:
    """Independent entries k/q with pairwise coprime q of at least `bits` bits."""
    rng = random.Random(seed)
    return _tensor(n, anti, [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), q)
                             for q in coprime_denominators(_independent(n, anti), bits)])


def _denominator_bits(t: Tensor) -> int:
    return math.lcm(*(c.denominator for c in t.comps)).bit_length()


def _strs(t: Tensor) -> list[str]:
    return [str(c) for c in t.comps]


def assert_decomposition_matches(t: Tensor, anti: bool) -> None:
    decompose, old_decompose, labels = DECOMPOSE[anti]
    new, old = decompose(t), old_decompose(t)
    assert list(new.parts) == list(labels)
    for label in labels:
        assert new.part(label) == old.part(label), label
        assert _strs(new.part(label)) == _strs(old.part(label)), label
    assert new.type_set == old.type_set
    for label in ("T1", "T3") if anti else ("S1",):
        assert class_predicate(label, t) == (old.part(label) == t), label
        assert class_predicate(label, old.part(label)), label


def assert_symplectify_matches(t: Tensor) -> None:
    try:
        expected = old_symplectify_torsion(t)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            symplectify_torsion(t)
        assert str(got.value) == str(err)
        return
    s = symplectify_torsion(t)
    assert s == expected
    assert _strs(s) == _strs(expected)


def assert_all_match(sym: Tensor, anti: Tensor) -> None:
    assert_decomposition_matches(sym, anti=False)
    assert_decomposition_matches(anti, anti=True)
    assert_symplectify_matches(anti)
    old = old_decompose_torsion(anti)
    assert_symplectify_matches(old.part("T1") + old.part("T2"))


# -- integer, fractional and zero inputs ------------------------------------------------

@pytest.mark.parametrize("n,samples", [(1, 6), (2, 4), (3, 2), (4, 1)])
def test_seeded_integer_tensors_match(scale_bound, n, samples):
    rng = random.Random(8100 + n)
    for _ in range(samples):
        assert_all_match(random_symmetric_tensor(rng, n), random_antisymmetric_tensor(rng, n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_seeded_fractional_tensors_match(scale_bound, n):
    rng = random.Random(8200 + n)
    for _ in range(2):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(200)]
        assert_all_match(_tensor(n, False, values), _tensor(n, True, values))
    # each independent entry over its own prime: D needs every one of them
    assert_all_match(coprime_tensor(n, False, 1), coprime_tensor(n, True, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_tensors_match(scale_bound, n):
    zero = Tensor.zeros(2 * n, (COV, COV, COV), space=SymplecticSpace(n))
    assert_all_match(zero, zero)
    assert decompose_cotorsion(zero).type_set == decompose_torsion(zero).type_set == frozenset()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_basis_element_matches(scale_bound, n):
    for anti, labels in ((False, COTORSION_LABELS), (True, TORSION_LABELS)):
        for label in labels:
            for element in build_basis(label, n).elements:
                assert_decomposition_matches(element, anti)
                if anti:
                    assert_symplectify_matches(element)


@pytest.mark.parametrize("n", [1, 2])
def test_every_coordinate_unit_over_seven_matches(n):
    # one independent entry at a time, so a denominator left out of D shows
    for anti in (False, True):
        size = _independent(n, anti)
        for pos in range(size):
            unit = _tensor(n, anti, [Fraction(int(p == pos), 7) for p in range(size)])
            assert_decomposition_matches(unit, anti)
            if anti:
                assert_symplectify_matches(unit)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=3))
def test_drawn_fraction_tensors_match(data, n):
    def draw(anti):
        size = _independent(n, anti)
        return _tensor(n, anti, data.draw(st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
            min_size=size, max_size=size)))

    assert_all_match(draw(False), draw(True))


def test_shape_errors_match():
    rng = random.Random(8300)
    for n in (1, 2):
        for anti, wrong in ((False, random_antisymmetric_tensor(rng, n)),
                            (True, random_symmetric_tensor(rng, n))):
            decompose, old_decompose, _ = DECOMPOSE[anti]
            with pytest.raises(ValueError) as expected:
                old_decompose(wrong)
            with pytest.raises(ValueError) as got:
                decompose(wrong)
            assert str(got.value) == str(expected.value)
        wrong = random_symmetric_tensor(rng, n)
        with pytest.raises(ValueError) as expected:
            old_symplectify_torsion(wrong)
        with pytest.raises(ValueError) as got:
            symplectify_torsion(wrong)
        assert str(got.value) == str(expected.value)


def test_symplectify_error_names_t3_and_t4():
    # T3 alone (n = 2), T4 alone and T3 + T4 (n = 3)
    cases = [(build_basis("T3", 2).elements[0], "T3"), (build_basis("T4", 3).elements[0], "T4"),
             (build_basis("T3", 3).elements[0] + build_basis("T4", 3).elements[0], "T3+T4")]
    for t, names in cases:
        assert_symplectify_matches(t)
        with pytest.raises(ValueError, match=rf"nonzero {re.escape(names)} part$"):
            symplectify_torsion(t)


# -- inputs above the bit bound -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_above_bound_inputs_match(n):
    sym, anti = coprime_tensor(n, False, 2500, seed=n), coprime_tensor(n, True, 2500, seed=n)
    assert _denominator_bits(sym) > rationals.MAX_SCALE_BITS
    assert _denominator_bits(anti) > rationals.MAX_SCALE_BITS
    assert_all_match(sym, anti)


def test_above_bound_inputs_match_when_scaled(monkeypatch):
    # the same inputs through the int path, D of some 15,000 bits
    monkeypatch.setattr(rationals, "MAX_SCALE_BITS", 10 ** 6)
    assert_all_match(coprime_tensor(1, False, 2500), coprime_tensor(1, True, 2500))


def test_int_entries_among_unscaled_fractions_stay_fractions():
    # int entries T(e_1, e_1, e_k) next to Fractions past the bound: their
    # parts must not be divided as int / int
    t = coprime_tensor(1, False, 2500)
    t.comps[:2] = [5, -3]
    assert _denominator_bits(t) > rationals.MAX_SCALE_BITS
    expected = old_decompose_cotorsion(Tensor(t.dim, t.valence, [Fraction(c) for c in t.comps]))
    for label, part in decompose_cotorsion(t).parts.items():
        assert _strs(part) == _strs(expected.part(label)), label
        assert all(type(c) is Fraction for c in part.comps), label


# -- the scalar type of what comes back ------------------------------------------------------

def _type_pin_inputs():
    rng = random.Random(8400)
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        yield "integer", random_symmetric_tensor(rng, n), random_antisymmetric_tensor(rng, n)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(200)]
        yield "fractional", _tensor(n, False, values), _tensor(n, True, values)
        zero = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
        yield "zero", zero, zero
        ints = [rng.randint(-5, 5) for _ in range(200)]  # int entries, which the API takes
        yield "int entries", _tensor(n, False, ints), _tensor(n, True, ints)
    for n in (1, 2):
        yield "above bound", coprime_tensor(n, False, 2500), coprime_tensor(n, True, 2500)


def _t1_t2_part_times_3(t: Tensor) -> Tensor:
    """3T - C(T), in the kernel of the cyclic sum, with t's scalar type."""
    return Tensor.build(t.dim, t.valence, lambda x, y, z: 3 * t[x, y, z] - t[x, y, z]
                        - t[y, z, x] - t[z, x, y], space=t.space)


def test_every_returned_entry_is_a_fraction():
    for kind, sym, anti in _type_pin_inputs():
        results = [decompose_cotorsion(sym), decompose_torsion(anti)]
        tensors = [part for result in results for part in result.parts.values()]
        tensors.append(symplectify_torsion(_t1_t2_part_times_3(anti)))
        for t in tensors:
            assert all(type(c) is Fraction for c in t.comps), kind

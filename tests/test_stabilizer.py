"""Differential test of the sparse stabilizer equations against the unit actions.

`models._stabilizer_rows` reads the linear equations A.t = 0 on A in End(V)
off the nonzero entries of each model tensor.  The oracle here is the
construction it replaced: apply each of the d^2 unit endomorphisms as a
full `derivation_action` to every target and read row `idx` of the
equations as the `idx` entries of those d^2 results, dropping zero rows.
`_stabilizer_rows` reads each target t over its own denominator D_t, so
each of its rows must be D_t times the oracle's row of t, as ints, in the
same order, and the nullspace basis must be the same, on random sparse
models and zero models for n = 1..3 and valid random models for n = 1, 2,
each with and without aux tensors.  The transvection containment check
(every element of h0' annihilates the model data) must fail exactly when
h0' leaves the span of the oracle's stabilizer basis.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import linalg
from fedosov.models import (
    InfinitesimalModel, ModelError, _scaled, _stabilizer_rows, derivation_action,
    model_stabilizer_algebra, standard_omega_tensor, transvection_algebra,
    transvection_subalgebra,
)
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor

from conftest import old_stabilizer_rows, valid_random_model

CURVATURE, TORSION = (COV, COV, COV, CON), (COV, COV, CON)
AUX_VALENCES = ((COV, COV), (COV, COV, CON), (CON,), (COV, CON))


def dense_rows(targets) -> list[tuple[int, list[Fraction]]]:
    """(target position, row) from the d^2 unit endomorphisms applied as
    derivations to every target."""
    d = targets[0].dim
    unit_actions = []
    for a in range(d):
        for b in range(d):
            endo = [[Fraction(0)] * d for _ in range(d)]
            endo[a][b] = Fraction(1)
            unit_actions.append([derivation_action(endo, t) for t in targets])
    rows = []
    for pos, target in enumerate(targets):
        for idx in target.indices():
            row = [actions[pos][idx] for actions in unit_actions]
            if any(v != 0 for v in row):
                rows.append((pos, row))
    return rows


def sparse_tensor(rng: random.Random, space: SymplecticSpace, valence, entries: int) -> Tensor:
    comps = [Fraction(0)] * space.dim ** len(valence)
    for _ in range(entries):
        comps[rng.randrange(len(comps))] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return Tensor(space.dim, valence, comps, space=space)


def zero_model(n: int, with_aux: bool) -> InfinitesimalModel:
    space = SymplecticSpace(n)
    return InfinitesimalModel(
        space=space, curvature=Tensor.zeros(space.dim, CURVATURE, space=space),
        torsion=Tensor.zeros(space.dim, TORSION, space=space),
        aux=(standard_omega_tensor(space),) if with_aux else ())


@st.composite
def models(draw):
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    # a valid model at n = 3 spends seconds in each of the two nullspaces
    kind = draw(st.sampled_from(("zero", "sparse", "valid") if n < 3 else ("zero", "sparse")))
    with_aux = draw(st.booleans())
    if kind == "zero":
        return zero_model(n, with_aux)
    if kind == "valid":
        model = valid_random_model(rng, n)
        return model if with_aux else InfinitesimalModel(
            space=model.space, curvature=model.curvature, torsion=model.torsion, aux=())
    space = SymplecticSpace(n)
    size = draw(st.integers(0, 6))
    aux = ()
    if with_aux:
        aux = tuple(sparse_tensor(rng, space, rng.choice(AUX_VALENCES), size)
                    for _ in range(draw(st.integers(1, 2))))
    return InfinitesimalModel(space=space, curvature=sparse_tensor(rng, space, CURVATURE, size),
                              torsion=sparse_tensor(rng, space, TORSION, size), aux=aux)


def check_against_oracle(model: InfinitesimalModel):
    d = model.space.dim
    targets = [model.curvature, model.torsion, *model.aux]
    oracle = dense_rows(targets)
    assert old_stabilizer_rows(targets) == oracle
    # each target's rows come over its own denominator, as ints
    scaled = [_scaled(t) for t in targets]
    got = _stabilizer_rows(scaled)
    assert got == [[scaled[pos].den * x for x in row] for pos, row in oracle]
    assert all(type(x) is int for row in got for x in row)
    rows = [row for _, row in oracle]
    basis = model_stabilizer_algebra(model)
    assert basis == [[vec[a * d:(a + 1) * d] for a in range(d)]
                     for vec in linalg.nullspace(rows, ncols=d * d)]
    assert all(isinstance(x, Fraction) for endo in basis for row in endo for x in row)

    h0 = linalg.Echelon()
    for endo in basis:
        h0.add([x for row in endo for x in row])
    contained = all([x for row in endo for x in row] in h0
                    for endo in transvection_subalgebra(model))
    try:
        transvection_algebra(model)
        refused = False
    except ModelError as err:
        refused = str(err) == "transvection algebra is not contained in the stabilizer"
    except ValueError:  # an invalid random model can fail Jacobi afterwards
        refused = False
    assert refused == (not contained)


@settings(max_examples=40, deadline=None)
@given(model=models())
def test_sparse_rows_and_basis_match_unit_actions(model):
    check_against_oracle(model)


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("with_aux", (False, True))
def test_zero_model_matches_unit_actions(n, with_aux):
    check_against_oracle(zero_model(n, with_aux))


def test_transvection_outside_the_stabilizer_is_refused():
    # R_{e1 e2} = E_11 does not preserve omega, so h0' leaves the stabilizer.
    space = SymplecticSpace(1)
    comps = [Fraction(0)] * 16
    comps[0b0100] = Fraction(1)   # R[1,2,1,1] with 0-based flat index (0,1,0,0)
    comps[0b1000] = Fraction(-1)  # antisymmetric partner (1,0,0,0)
    model = InfinitesimalModel(space=space, curvature=Tensor(2, CURVATURE, comps, space=space),
                               torsion=Tensor.zeros(2, TORSION, space=space),
                               aux=(standard_omega_tensor(space),))
    check_against_oracle(model)
    with pytest.raises(ModelError, match="not contained in the stabilizer"):
        transvection_algebra(model)

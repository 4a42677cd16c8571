"""Differential test of the model kernels that run on ints over one denominator.

`check_model_axioms`, `model_stabilizer_algebra`, `transvection_algebra`
and `verify_model_isomorphism` read each model tensor as D times its
nonzero entries, as ints, D the lcm of their denominators
(`models._scaled`), and form `Fraction`s only for witnesses.  The oracles
are the `Fraction` paths they replaced, in `conftest.py`.  Reports, bases,
presentations and witness values must be equal, and every witness value
must be a `Fraction`, on:

* random sparse models whose curvature, torsion and aux tensors each draw
  their entries over their own denominators;
* valid models pushed forward by symplectic maps with fractional entries,
  so that R, T and the structure tensor have mixed denominators;
* a sparse and a valid model whose denominator lcm is past
  `rationals.MAX_SCALE_BITS`, which stay on the int path;
* isomorphism checks of those models against their exact push-forwards,
  perturbed ones, and the push-forwards along non-symplectic maps, with
  `change_basis` scaled and unscaled.

Four mutants must be caught: first Bianchi read over D_R in place of the
common denominator D_R D_T^2, the last target's stabilizer rows left
unscaled (its numerators alone), a derivation witness divided by D_t
alone, and an antisymmetry witness read at the larger flat of its pair.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fedosov import models, rationals
from fedosov.models import (
    InfinitesimalModel, _curvature_endos, _derivation_first_nonzero, _derivation_moves, _scaled,
    check_model_axioms, curvature_endomorphism, model_stabilizer_algebra, presentation_to_json,
    push_tensor, transvection_algebra, verify_model_isomorphism,
)
from fedosov.symplectic import SymplecticSpace, Tensor

from conftest import (
    coprime_denominators, mutant, old_check_model_axioms, old_derivation_first_nonzero,
    old_model_stabilizer_algebra, old_transvection_algebra, old_verify_model_isomorphism,
    valid_random_model,
)
from test_stabilizer import AUX_VALENCES, CURVATURE, TORSION


def fractional_symplectic_matrix(rng: random.Random, space: SymplecticSpace,
                                 den: int = 5) -> list[list[Fraction]]:
    """A product of two symplectic transvections x -> x + c omega(x, v) v
    with fractional c and v, denominators up to `den`."""
    d = space.dim
    m = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(2):
        v = [Fraction(rng.randint(-2, 2), rng.randint(1, den)) for _ in range(d)]
        v[rng.randrange(d)] = Fraction(1, rng.randint(1, den))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, den))
        pairing = [sum(space.omega[j][k] * v[k] for k in range(d)) for j in range(d)]
        t = [[int(i == j) + c * pairing[j] * v[i] for j in range(d)] for i in range(d)]
        m = [[sum(t[i][k] * m[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return m


def pushed(model: InfinitesimalModel, f) -> InfinitesimalModel:
    return InfinitesimalModel(space=model.space, curvature=push_tensor(f, model.curvature),
                              torsion=push_tensor(f, model.torsion),
                              aux=tuple(push_tensor(f, t) for t in model.aux))


def sparse_tensor(rng: random.Random, space: SymplecticSpace, valence, entries: int,
                  dens) -> Tensor:
    comps = [Fraction(0)] * space.dim ** len(valence)
    for _ in range(entries):
        comps[rng.randrange(len(comps))] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                                    rng.choice(dens))
    return Tensor(space.dim, valence, comps, space=space)


def sparse_model(rng: random.Random, n: int) -> InfinitesimalModel:
    """Each tensor draws its entries over its own denominators."""
    space = SymplecticSpace(n)
    size = rng.randint(2, 6)
    draw = [rng.sample((1, 2, 3, 4, 5, 7, 9), 2) for _ in range(4)]
    aux = tuple(sparse_tensor(rng, space, rng.choice(AUX_VALENCES), size, dens)
                for dens in draw[2:rng.randint(2, 4)])
    return InfinitesimalModel(space=space,
                              curvature=sparse_tensor(rng, space, CURVATURE, size, draw[0]),
                              torsion=sparse_tensor(rng, space, TORSION, size, draw[1]), aux=aux)


def huge_models() -> list[InfinitesimalModel]:
    """A sparse model with three coprime 1500-bit curvature denominators,
    and a valid one pushed by a transvection with a 4200-bit denominator."""
    space = SymplecticSpace(1)
    q1, q2, q3, q4 = coprime_denominators(4, 1500)
    r = [Fraction(0)] * 16
    r[0b0111], r[0b1011] = Fraction(1, q1), Fraction(-1, q1)   # R(e1,e2) e2 -> e2
    r[0b0110] = Fraction(2, q2)                                # R(e1,e2) e2 -> e1
    r[0b0001] = Fraction(-3, q3)                               # R(e1,e1) e1 -> e2
    t = [Fraction(0)] * 8
    t[0b011], t[0b101] = Fraction(1, q4), Fraction(-1, q4)
    sparse = InfinitesimalModel(space=space, curvature=Tensor(2, CURVATURE, r, space=space),
                                torsion=Tensor(2, TORSION, t, space=space),
                                aux=(models.standard_omega_tensor(space),))
    (q,) = coprime_denominators(1, 4200)
    base = valid_random_model(random.Random(5), 1)
    f = [[Fraction(1), Fraction(0)], [Fraction(1, q), Fraction(1)]]  # symplectic at n = 1
    return [sparse, pushed(base, f)]


def mixed_models() -> list[tuple[str, InfinitesimalModel]]:
    rng = random.Random(2029)
    cases = [(f"sparse-n{n}", sparse_model(rng, n)) for n in (1, 1, 1, 2, 2, 2, 2, 2)]
    for n in (1, 1, 2, 2):
        base = valid_random_model(rng, n)
        cases.append((f"valid-n{n}", pushed(base, fractional_symplectic_matrix(rng, base.space))))
    cases.extend((f"huge-{i}", model) for i, model in enumerate(huge_models()))
    return cases


@pytest.fixture(scope="module")
def cases():
    return mixed_models()


def outcome(build, *args):
    """What `build` returns, made comparable, or the type and text of what it raised."""
    try:
        result = build(*args)
    except (AssertionError, ValueError) as err:
        return type(err).__name__, str(err)
    return presentation_to_json(result) if hasattr(result, "brackets") else result


def mismatches(cases, check=check_model_axioms, stabilizer=model_stabilizer_algebra,
               transvection=transvection_algebra) -> list[str]:
    bad = []
    for label, model in cases:
        if check(model).to_json() != old_check_model_axioms(model).to_json():
            bad.append(f"{label}: report")
        if outcome(stabilizer, model) != outcome(old_model_stabilizer_algebra, model):
            bad.append(f"{label}: stabilizer")
        if outcome(transvection, model) != outcome(old_transvection_algebra, model):
            bad.append(f"{label}: transvection")
    return bad


def test_cases_have_mixed_and_huge_denominators(cases):
    dens = [[_scaled(t).den for t in (m.curvature, m.torsion, *m.aux)] for _, m in cases]
    assert sum(len(set(row) - {1}) >= 2 for row in dens) >= 8
    assert rationals.scaled_entries(cases[-1][1].curvature.comps) is None
    assert max(den.bit_length() for row in dens for den in row) > rationals.MAX_SCALE_BITS
    verdicts = [check_model_axioms(m).passed for _, m in cases]
    assert True in verdicts and False in verdicts
    assert all(type(x) is int for _, m in cases for x in _scaled(m.curvature).entries.values())


def test_reports_and_algebras_match_the_fraction_paths(cases):
    assert mismatches(cases) == []
    bases = [model_stabilizer_algebra(m) for label, m in cases if label.startswith("valid")]
    assert all(bases) and all(type(x) is Fraction for b in bases for e in b for r in e for x in r)


def test_derivation_witnesses_are_the_same_fractions(cases):
    seen = 0
    for label, model in cases:
        r = _scaled(model.curvature)
        for (i, j), ints in _curvature_endos(r).items():
            endo = curvature_endomorphism(model.curvature, i, j)
            for t in (model.curvature, model.torsion, *model.aux):
                hit = _derivation_first_nonzero(_derivation_moves(ints), r.den, _scaled(t))
                assert hit == old_derivation_first_nonzero(endo, t), label
                if hit is not None:
                    assert type(hit[1]) is Fraction
                    seen += hit[1].denominator > 1
    assert seen > 20


def isomorphism_cases(cases):
    rng = random.Random(77)
    for label, model in cases:
        space = model.space
        f = fractional_symplectic_matrix(rng, space)
        target = pushed(model, f)
        yield label, f, model, target
        moved = list(target.torsion.comps)
        moved[rng.randrange(len(moved))] += Fraction(1, 3)
        yield f"{label}/moved", f, model, InfinitesimalModel(
            space=space, curvature=target.curvature, aux=target.aux,
            torsion=Tensor(space.dim, TORSION, moved, space=space))
        scale = [[Fraction(0) if i != j else Fraction(1, 2) if i == 0 else Fraction(3)
                  for j in range(space.dim)] for i in range(space.dim)]
        yield f"{label}/not-symplectic", scale, model, model


@pytest.mark.parametrize("scaling", ("scaled", "unscaled"))
def test_isomorphism_reports_match_the_dense_difference(cases, monkeypatch, scaling):
    """`unscaled` makes `change_basis` keep the Fraction entries."""
    if scaling == "unscaled":
        monkeypatch.setattr(rationals, "MAX_SCALE_BITS", 0)
    verdicts, witnesses = set(), 0
    for label, f, source, target in isomorphism_cases(cases):
        report = verify_model_isomorphism(f, source, target)
        assert report.to_json() == old_verify_model_isomorphism(f, source, target).to_json(), label
        verdicts.add(report.passed)
        witnesses += sum(c.witness is not None and "/" in c.witness for c in report.checks)
    assert verdicts == {True, False} and witnesses > 10


MUTANTS = {
    "bianchi-over-d-r": ("check_model_axioms",
                         "f[flat] = f.get(flat, 0) + t_s.den ** 2 * value",
                         "f[flat] = f.get(flat, 0) + value"),
    "last-target-unscaled": ("_stabilizer_rows",
                             "for flat, value in target.entries.items():",
                             "for flat, value in (target.entries if target is not targets[-1] "
                             "else {f: t.comps[f].numerator for f in t.support}).items():"),
    "antisymmetry-at-larger-flat": ("_first_antisymmetry_violation",
                                    "bad.append(min(flat, other))", "bad.append(flat)"),
    "witness-over-d-t": ("_derivation_first_nonzero",
                         "Fraction(entries[flat], endo_den * target.den)",
                         "Fraction(entries[flat], target.den)"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_comparison_catches_mutants(cases, monkeypatch, name):
    target, old, new = MUTANTS[name]
    monkeypatch.setattr(models, target, mutant(models, target, old, new))
    assert mismatches(cases, check=models.check_model_axioms,
                      stabilizer=models.model_stabilizer_algebra)

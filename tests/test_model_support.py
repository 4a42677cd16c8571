"""Differential test of the model checks that read only nonzero model data.

`check_model_axioms` reads each tensor over one denominator, as ints
(`models._scaled`), forms each derivation check from
`models._derivation_scatter`, which scatters the nonzero int entries of a
tensor through the nonzero entries of an int endomorphism, and runs each
Bianchi identity only at the sorted rotations (i <= j <= k) of the nonzero
entries of F = R + T.T and G = T.R.  `nomizu_algebra` and
`transvection_algebra` re-verify their isotropy bases through the same
scatter (`models._annihilates`).  The oracles are the dense `Fraction`
checks they replaced, in `conftest.py`: `old_check_model_axioms` (every
entry of each derivation action from `old_derivation_action`, every index
triple of `old_bianchi`), `old_annihilates`, and the `Fraction` stabilizer
and transvection paths built on it.  They must agree on the report
(names, verdicts and witnesses), on the first nonzero entry of every
curvature derivation at n <= 2 (every witness value, at any n, must be a
`Fraction`), and on the algebras, for:

* seeded `valid_random_model`s at n = 1..3 and zero models;
* the five models of the seed-1 `chart-to-model` benchmark workload: the
  built-in charts at their points and the 4D product chart;
* perturbed models that fail each axiom, including a Bianchi failure at a
  late triple, one whose only nonzero F entry is a triple's third rotation,
  and one where two rotations cancel before a later failure.

Three mutants must be caught: one rotation dropped from the Bianchi
candidates, the contravariant and covariant branches of the int scatter
swapped, and the move-table builder that every slot contraction shares
(`symplectic._moves`) reading each row from its far end.  A structural
guard makes `_derivation_entries` raise and shows that the model checks
and algebras never reach it, while the public `derivation_action` still
does and still matches the oracle on chart fields.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fedosov import models, symplectic
from fedosov.charts import (
    _gamma, chart_from_json, chart_torsion, linear_type_structure, load_example, model_at_point,
    omega_tensor,
)
from fedosov.models import (
    InfinitesimalModel, _annihilates, _curvature_endos, _derivation_first_nonzero,
    _derivation_moves, _scaled, _scaled_targets, _targets, check_model_axioms,
    curvature_endomorphism, derivation_action, presentation_to_json, trivial_model,
)
from fedosov.symplectic import Tensor

from conftest import (
    PRODUCT_CHART, int_form, mutant, old_annihilates, old_check_model_axioms,
    old_derivation_action, old_derivation_first_nonzero, old_nomizu_algebra,
    old_transvection_algebra, valid_random_model,
)
from test_lazy_checks import y_chart
from test_slot_kernel import mirror_moves
from test_stabilizer import zero_model
from test_support_kernels import mutants as random_mutants, same

# The points at which the seed-1 `chart-to-model` workload takes its models.
WORKLOAD_POINTS = [
    ("example1-emended", {"x": Fraction(-1, 4), "y": Fraction(-3, 2)}),
    ("example1-emended", {"x": Fraction(-5), "y": Fraction(-2)}),
    ("example2", {"x": Fraction(1), "y": Fraction(0)}),
    ("example2", {"x": Fraction(1), "y": Fraction(4, 3)}),
    ("product", {"x": Fraction(-4), "y": Fraction(-1, 2), "u": Fraction(-1),
                 "v": Fraction(-5, 3)}),
]


def workload_models():
    for name, point in WORKLOAD_POINTS:
        if name == "product":
            chart = chart_from_json(PRODUCT_CHART)
            structure = chart.field_tensor("S")
        else:
            chart = load_example(name)
            structure = linear_type_structure(chart, chart.field_tensor("xi"))
        yield f"{name}@{point}", model_at_point(chart, structure, point)[0]


def moved(model, which: str, changes) -> InfinitesimalModel:
    """The model with `value` added to the curvature or torsion at each
    0-based (index, value) of `changes`."""
    tensor = getattr(model, which)
    comps = list(tensor.comps)
    for idx, value in changes:
        comps[symplectic._flat(tensor.dim, idx)] += Fraction(value)
    parts = {"curvature": model.curvature, "torsion": model.torsion,
             which: Tensor(tensor.dim, tensor.valence, comps, space=tensor.space)}
    return InfinitesimalModel(space=model.space, aux=model.aux, **parts)


def curvature_pair(i, j, k, l, value):
    """R_ij k^l moved by value and R_ji k^l by -value, keeping antisymmetry."""
    return [((i, j, k, l), value), ((j, i, k, l), -value)]


def constructed_cases():
    """(label, model, first Bianchi witness or None) for perturbations that
    fail the Bianchi identities where the candidates are easy to miss."""
    zero2 = trivial_model(2)
    # F nonzero at (2,0,1) only, the third rotation of (0,1,2).
    yield "third-rotation", moved(zero2, "curvature", curvature_pair(2, 0, 1, 3, 1)), "(1,2,3,4)"
    # F_012^0 = 1 and F_120^0 = -1 cancel; the first failure is at (1,2,3).
    cancel = curvature_pair(0, 1, 2, 0, 1) + curvature_pair(1, 2, 0, 0, -1)
    yield ("cancelling-rotations",
           moved(zero2, "curvature", cancel + curvature_pair(1, 2, 3, 2, 1)), "(2,3,4,3)")
    # the last triple with distinct indices at n = 3
    late = valid_random_model(random.Random(3), 3)
    yield "late-triple", moved(late, "curvature", curvature_pair(3, 4, 5, 1, 2)), "(4,5,6,2)"
    # torsion moved alone: T.T and T.R change, and T is no longer antisymmetric
    yield ("late-torsion", moved(late, "torsion", [((4, 5, 2), 1)]), None)


def all_cases():
    cases = []
    rng = random.Random(1807)
    for n in (1, 2, 3):
        for _ in range(3 if n < 3 else 1):
            model = valid_random_model(rng, n)
            cases.append((f"valid-n{n}", model))
            cases.extend((f"moved-n{n}", case) for case in random_mutants(rng, model))
    for n in (1, 2, 3):
        cases.append((f"trivial-n{n}", trivial_model(n)))
        cases.append((f"zero-n{n}", zero_model(n, with_aux=False)))
    for label, model in workload_models():
        cases.append((label, model))
        cases.extend((f"{label}/moved", case) for case in random_mutants(rng, model))
    cases.extend((label, model) for label, model, _ in constructed_cases())
    return cases


@pytest.fixture(scope="module")
def cases():
    return all_cases()


def algebra_outcome(build, model):
    """The presentation as JSON, or the type and text of what `build` raised."""
    try:
        return presentation_to_json(build(model))
    except (AssertionError, ValueError) as err:
        return type(err).__name__, str(err)


def algebra_outcomes(cases) -> list:
    """Both algebras per case, as `models` binds them when called; at n = 3
    only for the unperturbed models, since the isotropy solve of a perturbed
    one takes most of a second."""
    return [(algebra_outcome(models.nomizu_algebra, model),
             algebra_outcome(models.transvection_algebra, model))
            for label, model in cases
            if model.space.n < 3 or label.startswith(("valid", "trivial", "zero"))]


@pytest.fixture(scope="module")
def expected(cases):
    """Per case, the dense report, and the algebras from the `Fraction`
    stabilizer and closure and the dense annihilation check."""
    reports = [old_check_model_axioms(model).to_json() for _, model in cases]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(models, "nomizu_algebra", old_nomizu_algebra)
        patch.setattr(models, "transvection_algebra", old_transvection_algebra)
        algebras = algebra_outcomes(cases)
    return reports, algebras


def refuse(*args, **kwargs):
    raise AssertionError("the dense derivation kernel was called")


@pytest.fixture
def no_dense_kernel(monkeypatch):
    """`_derivation_entries` raises wherever the model code could reach it."""
    monkeypatch.setattr(symplectic, "_derivation_entries", refuse)
    monkeypatch.setattr(models, "_derivation_entries", refuse)
    return monkeypatch


def report_mismatches(cases, expected) -> list[str]:
    return [label for (label, model), report in zip(cases, expected[0])
            if check_model_axioms(model).to_json() != report]


# -- agreement with the dense checks, without the dense kernel ----------------------------

def test_reports_match_dense_checks(cases, expected, no_dense_kernel):
    assert report_mismatches(cases, expected) == []
    failed = {check["name"] for report in expected[0] for check in report if not check["pass"]}
    assert failed == {"torsion_antisymmetry", "curvature_antisymmetry", "first_bianchi",
                      "second_bianchi", "curvature_derivation_on_torsion",
                      "curvature_derivation_on_curvature", "curvature_derivation_on_aux1",
                      "curvature_derivation_on_aux2"}


def test_algebras_match_dense_annihilation(cases, expected, no_dense_kernel):
    got = algebra_outcomes(cases)
    assert got == expected[1]
    outcomes = [outcome for pair in got for outcome in pair]
    assert sum(isinstance(outcome, dict) for outcome in outcomes) > 20
    assert any(isinstance(outcome, tuple) for outcome in outcomes)


def test_constructed_bianchi_witnesses(no_dense_kernel):
    for label, model, witness in constructed_cases():
        if witness is not None:
            assert check_model_axioms(model).check("first_bianchi").witness == witness, label


def test_derivation_witnesses_are_the_same_fractions(cases, no_dense_kernel):
    """Every curvature endomorphism on every target; the dense oracle runs at
    n <= 2, and at n = 3 the report comparison covers the first witness."""
    seen = 0
    for label, model in cases:
        d = model.space.dim
        r = _scaled(model.curvature)
        for (i, j), ints in _curvature_endos(r).items():
            endo = curvature_endomorphism(model.curvature, i, j)
            for t in _targets(model):
                target = _scaled(t)
                hit = _derivation_first_nonzero(_derivation_moves(ints), r.den, target)
                if d <= 4:
                    assert hit == old_derivation_first_nonzero(endo, t), label
                if hit is not None:
                    assert type(hit[1]) is Fraction
                    seen += 1
                assert _annihilates(int_form(endo)[0], [target]) == (hit is None)
    assert seen > 100


def test_annihilation_matches_on_drawn_endomorphisms(cases, no_dense_kernel):
    rng = random.Random(18)
    verdicts = set()
    for _, model in cases[:40]:
        d = model.space.dim
        targets = _targets(model)
        for _ in range(3):
            endo = [[Fraction(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(d)]
                    for _ in range(d)]
            verdict = _annihilates(int_form(endo)[0], _scaled_targets(model))
            assert verdict == old_annihilates(endo, targets)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_derivation_action_still_uses_the_dense_kernel(cases, no_dense_kernel):
    model = cases[0][1]
    with pytest.raises(AssertionError, match="dense derivation kernel"):
        derivation_action(curvature_endomorphism(model.curvature, 0, 1), model.curvature)
    no_dense_kernel.undo()
    for chart, structure in ((y_chart(), None), (chart_from_json(PRODUCT_CHART), "S")):
        shift = chart.field_tensor(structure) if structure else None
        gamma = _gamma(chart, shift)
        d = chart.dim
        for field in (omega_tensor(chart), chart_torsion(chart, shift)):
            for i in range(d):
                endo = [[gamma[a][i][b] for b in range(d)] for a in range(d)]
                assert same(derivation_action(endo, field).comps,
                            old_derivation_action(endo, field).comps)


# -- mutants ----------------------------------------------------------------------------

MUTANTS = {
    "rotation-dropped": ("_first_cyclic_failure",
                         "for i, j, k in ((x, y, z), (y, z, x), (z, x, y)):",
                         "for i, j, k in ((x, y, z), (y, z, x)):"),
    "con-cov-swapped": ("_derivation_scatter", "on_con if kind == CON else on_cov",
                        "on_con if kind == COV else on_cov"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_comparison_catches_mutants(cases, expected, monkeypatch, name):
    target, old, new = MUTANTS[name]
    monkeypatch.setattr(models, target, mutant(models, target, old, new))
    assert report_mismatches(cases, expected)


def test_comparison_catches_mirrored_moves(cases, expected, monkeypatch):
    mirror_moves(monkeypatch)
    assert report_mismatches(cases, expected)
    assert algebra_outcomes(cases) != expected[1]

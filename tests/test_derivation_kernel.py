"""Differential test of the entry-by-entry derivation kernel against whole planes.

`symplectic._derivation_entries` forms the derivation action of an
endomorphism one entry at a time, and `charts._covariant_planes` draws each
entry of nabla_i T from it and from one partial.  The oracles here are the
constructions they replaced: `derivation_action` as one whole slot
contraction per slot merged slot by slot over whole component lists
(`conftest.old_derivation_action`, which has its own copy of the old slot
contraction and so shares no code with the kernel), and the planes
nabla_i T built with all of Gamma_i . T and d_i T first.  The new code must
agree with them by value and by printed form, since chart witnesses print
the unreduced rational function.  The comparison runs on the charts of
`test_lazy_checks`, on hypothesis-drawn Fraction models for n = 1..3, on
zero tensors and on tensors whose first slot contributes nothing.

Two mutants of the kernel's own source, the slots merged in reverse order
and endo acting untransposed on contravariant slots, must each be caught.
"""

from __future__ import annotations

import inspect
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import charts, models, symplectic
from fedosov.charts import (
    _covariant_planes, _gamma, chart_curvature, chart_torsion, omega_tensor,
)
from fedosov.linalg import is_zero_scalar
from fedosov.models import curvature_endomorphism, derivation_action
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, _contract_slot

from conftest import old_derivation_action
from test_lazy_checks import all_charts, structures, y_chart
from test_stabilizer import models as drawn_models


# -- the oracles: whole component lists ----------------------------------------------

def old_covariant_planes(chart, tensor, structure=None):
    """Each plane nabla_i T as a list, Gamma_i . T and d_i T formed in full first."""
    gamma = _gamma(chart, structure)
    d = chart.dim
    for i, coord in enumerate(chart.coords):
        partials = [value.partial(coord) for value in tensor.comps]
        connection = old_derivation_action([[gamma[a][i][b] for b in range(d)]
                                            for a in range(d)], tensor)
        yield [p if is_zero_scalar(c) else c if p.is_zero() else c + p
               for c, p in zip(connection.comps, partials)]


def same(new, old) -> bool:
    """Equal entry by entry, by value and by printed form."""
    new, old = list(new), list(old)
    return (len(new) == len(old) and all(a == b for a, b in zip(new, old))
            and [str(a) for a in new] == [str(b) for b in old])


# -- chart fields ------------------------------------------------------------------------

def chart_cases():
    """(label, chart, field, shift) for the fields the chart suites differentiate."""
    for label, chart in all_charts().items():
        for kind, structure in structures(chart):
            fields = {"omega": omega_tensor(chart), "xi": chart.field_tensor("xi"),
                      "structure": structure, "tilde_torsion": chart_torsion(chart, structure),
                      "curvature": chart_curvature(chart),
                      "tilde_curvature": chart_curvature(chart, structure)}
            for name, field in fields.items():
                for shift in (None, structure):
                    yield f"{label}/{kind}/{name}/{'tilde' if shift else 'base'}", chart, field, shift


@pytest.fixture(scope="module")
def chart_fields():
    return list(chart_cases())


def chart_mismatches(cases):
    bad = []
    for label, chart, field, shift in cases:
        planes = [list(plane) for plane in _covariant_planes(chart, field, _gamma(chart, shift))]
        expected = list(old_covariant_planes(chart, field, shift))
        if len(planes) != len(expected) or not all(map(same, planes, expected)):
            bad.append(label)
    return bad


def test_covariant_planes_match_whole_planes(chart_fields):
    assert chart_mismatches(chart_fields) == []
    assert len(chart_fields) > 100


def test_derivation_action_matches_merge_on_chart_fields(chart_fields):
    for label, chart, field, shift in chart_fields:
        gamma = _gamma(chart, shift)
        for i in range(chart.dim):
            endo = [[gamma[a][i][b] for b in range(chart.dim)] for a in range(chart.dim)]
            assert same(derivation_action(endo, field).comps,
                        old_derivation_action(endo, field).comps), (label, i)


# -- Fraction models ---------------------------------------------------------------------

def fraction_matrices(d):
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    zero_or_entry = st.one_of(st.just(Fraction(0)), entry)
    return st.lists(st.lists(zero_or_entry, min_size=d, max_size=d), min_size=d, max_size=d)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_derivation_action_matches_merge_on_models(data):
    model = data.draw(drawn_models())
    d = model.space.dim
    endos = [curvature_endomorphism(model.curvature, i, j)
             for i in range(d) for j in range(i + 1, d)]
    endos.append(data.draw(fraction_matrices(d)))
    for endo in endos:
        for target in (model.curvature, model.torsion, *model.aux):
            acted = derivation_action(endo, target)
            assert (acted.valence, acted.space) == (target.valence, target.space)
            assert same(acted.comps, old_derivation_action(endo, target).comps)


# -- edge cases -----------------------------------------------------------------------------

def edge_tensors():
    """Zero tensors, and a (cov, con) tensor whose covariant slot part vanishes."""
    space = SymplecticSpace(1)
    chart = y_chart()
    rf = chart.rf_zero()
    y = chart.omega[0][1]
    # endo has a zero first row, so the covariant part -t[0, b] * endo[0][a] is zero
    endo = [[Fraction(0), Fraction(0)], [Fraction(2), Fraction(-1)]]
    first_zero = Tensor(2, (COV, CON), [Fraction(0), Fraction(3), Fraction(0), Fraction(0)])
    return [
        ("zero", [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]],
         Tensor.zeros(2, (COV, COV, CON), space=space)),
        ("zero-rf", [[y, rf], [rf, y]], Tensor.zeros(2, (COV, CON), zero=rf)),
        ("first-slot-zero", endo, first_zero),
        ("first-slot-zero-rf", [[rf, rf], [y, y * y]],
         Tensor(2, (COV, CON), [rf, y + 1, rf, rf])),
    ]


EDGE_TENSORS = edge_tensors()


@pytest.mark.parametrize("label, endo, t", EDGE_TENSORS, ids=[case[0] for case in EDGE_TENSORS])
def test_edge_tensors_match_merge(label, endo, t):
    acted = derivation_action(endo, t)
    assert same(acted.comps, old_derivation_action(endo, t).comps)
    if label.startswith("first-slot-zero"):
        on_cov = [[-x for x in row] for row in endo]
        assert all(is_zero_scalar(c) for c in _contract_slot(t, 0, on_cov))
        assert not acted.is_zero()


# -- mutants of the kernel's source ----------------------------------------------------------

def mutant_kernel(old: str, new: str):
    """`_derivation_entries` with one source line changed, in the module's namespace."""
    source = textwrap.dedent(inspect.getsource(symplectic._derivation_entries))
    assert source.count(old) == 1
    namespace = dict(vars(symplectic))
    exec(source.replace(old, new), namespace)
    return namespace["_derivation_entries"]


MUTANTS = {
    "merge-order-reversed": ("for stride, columns in slots:",
                             "for stride, columns in reversed(slots):"),
    "on-con-untransposed": ("on_con = linalg.transpose(endo)", "on_con = endo"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_comparison_catches_kernel_mutants(chart_fields, monkeypatch, name):
    kernel = mutant_kernel(*MUTANTS[name])
    for module in (symplectic, models, charts):
        monkeypatch.setattr(module, "_derivation_entries", kernel)
    assert chart_mismatches(chart_fields)

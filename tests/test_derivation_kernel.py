"""Differential test of the entry-by-entry derivation kernel against whole planes.

`symplectic._derivation_entries` forms the derivation action of an
endomorphism one reached entry at a time, and `charts._nabla_entries`
draws each component of nabla_i T that can be nonzero from it and from one
partial; `covariant_derivative` and `_nabla_first_nonzero` read that
stream.  The oracles here are the constructions they replaced:
`derivation_action` as one whole slot contraction per slot merged slot by
slot over whole component lists (`conftest.old_derivation_action`, which
has its own copy of the old slot contraction and so shares no code with
the kernel), and the planes nabla_i T built with all of Gamma_i . T and
d_i T first.  The new code must agree with them by value and by printed
form, since chart witnesses print the unreduced rational function.  The
comparison runs on the charts of `test_lazy_checks`, on seeded swell
charts, on the flat product chart, on copies of the fields changed at
several positions so that their covariant derivatives fail there, on
hypothesis-drawn Fraction models for n = 1..3, on zero tensors and on
tensors whose first slot contributes nothing.

Two mutants of the kernel's own source, the slots merged in reverse order
and endo acting untransposed on contravariant slots, must each be caught,
and so must a mutant of the move-table builder it shares with every slot
contraction (`symplectic._moves`, each row read from its far end).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import charts, models, symplectic
from fedosov.charts import (
    _gamma, _nabla_first_nonzero, chart_curvature, chart_from_json, chart_torsion,
    covariant_derivative, omega_tensor,
)
from fedosov.models import curvature_endomorphism, derivation_action
from fedosov.rationals import parse_ratfun
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, _contract_slot, _unflat

from conftest import PRODUCT_CHART, _zero, mutant, old_derivation_action
from test_lazy_checks import all_charts, structures, y_chart
from test_slot_kernel import mirror_moves, swell_chart
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
        yield [p if _zero(c) else c if p.is_zero() else c + p
               for c, p in zip(connection.comps, partials)]


def same(new, old) -> bool:
    """Equal entry by entry, by value and by printed form."""
    new, old = list(new), list(old)
    return (len(new) == len(old) and all(a == b for a, b in zip(new, old))
            and [str(a) for a in new] == [str(b) for b in old])


# -- chart fields ------------------------------------------------------------------------

def charts_and_structures():
    """(label, chart, structure kind, structure) over every chart under test."""
    named = all_charts()
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        named[f"swell-seed{seed}"] = swell_chart(*(rng.randint(1, 3) for _ in range(3)))
    for label, chart in named.items():
        for kind, structure in structures(chart):
            yield label, chart, kind, structure
    product = chart_from_json(PRODUCT_CHART)
    yield "product", product, "S", product.field_tensor("S")


def chart_cases():
    """(label, chart, field, shift) for the fields the chart suites differentiate."""
    for label, chart, kind, structure in charts_and_structures():
        fields = {"omega": omega_tensor(chart), "structure": structure,
                  "tilde_torsion": chart_torsion(chart, structure),
                  "curvature": chart_curvature(chart),
                  "tilde_curvature": chart_curvature(chart, structure)}
        if "xi" in chart.fields:
            fields["xi"] = chart.field_tensor("xi")
        for name, field in fields.items():
            for shift in (None, structure):
                yield f"{label}/{kind}/{name}/{'tilde' if shift else 'base'}", chart, field, shift


def changed_at(chart, field, flat, coord):
    """The field with coord^2 added to its component at `flat`."""
    comps = list(field.comps)
    comps[flat] = comps[flat] + parse_ratfun(f"{coord}^2", chart.coords)
    return Tensor(field.dim, field.valence, comps)


def changed_cases():
    """Copies of the fields of `chart_cases` changed at their first, middle
    and last positions, so that their covariant derivatives fail there."""
    for label, chart, field, shift in chart_cases():
        if shift is not None and ("/tilde_curvature/" in label or "/omega/" in label):
            size = len(field.comps)
            for k, flat in enumerate((0, size // 2, size - 1)):
                yield (f"{label}/changed@{flat}", chart,
                       changed_at(chart, field, flat, chart.coords[-1 - k % chart.dim]), shift)


@pytest.fixture(scope="module")
def chart_fields():
    return list(chart_cases())


def first_nonzero(comps, dim, rank):
    for flat, value in enumerate(comps):
        if not _zero(value):
            return _unflat(dim, rank, flat), str(value)
    return None


def chart_mismatches(cases):
    """Labels where `covariant_derivative` or `_nabla_first_nonzero` differs
    from the whole planes of the oracle."""
    bad = []
    for label, chart, field, shift in cases:
        expected = [entry for plane in old_covariant_planes(chart, field, shift)
                    for entry in plane]
        got = covariant_derivative(chart, field, shift)
        hit = _nabla_first_nonzero(chart, field, _gamma(chart, shift))
        rank = len(field.valence) + 1
        if (not same(got.comps, expected)
                or (hit and (hit[0], str(hit[1])))
                != first_nonzero(expected, chart.dim, rank)):
            bad.append(label)
    return bad


def test_covariant_planes_match_whole_planes(chart_fields):
    assert chart_mismatches(chart_fields) == []
    assert len(chart_fields) > 100


def test_changed_fields_fail_where_the_whole_planes_do():
    cases = list(changed_cases())
    assert chart_mismatches(cases) == []
    # the changes move the first failure across planes and positions
    hits = {_nabla_first_nonzero(chart, field, _gamma(chart, shift))[0]
            for _, chart, field, shift in cases}
    assert len(cases) > 50
    assert len({idx[0] for idx in hits}) > 1 and len(hits) > 12


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
        assert all(_zero(c) for c in _contract_slot(t, 0, on_cov))
        assert not acted.is_zero()


# -- mutants of the kernel's source ----------------------------------------------------------

MUTANTS = {
    "merge-order-reversed": ("for stride, gather, _ in slots:",
                             "for stride, gather, _ in reversed(slots):"),
    "on-con-untransposed": ("(rows, cols) if kind == CON", "(cols, rows) if kind == CON"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_comparison_catches_kernel_mutants(chart_fields, monkeypatch, name):
    kernel = mutant(symplectic, "_derivation_entries", *MUTANTS[name])
    for module in (symplectic, models, charts):
        monkeypatch.setattr(module, "_derivation_entries", kernel)
    assert chart_mismatches(chart_fields)


def test_comparison_catches_mirrored_moves(chart_fields, monkeypatch):
    mirror_moves(monkeypatch)
    assert chart_mismatches(chart_fields)

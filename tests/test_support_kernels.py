"""Differential tests of the kernels that read only the nonzero entries of their input.

`Tensor.support` (the nonzero positions, found once and kept) and the
`is_zero` and `first_nonzero` read off it must equal a dense scan, and no
module may write into a built tensor's `comps`, which would leave the
kept support stale; `symplectic._derivation_entries` sums only the
entries of the derivation action that the support of t reaches through a
nonzero entry of the endomorphism; `charts._partial_planes` takes no
partial of a zero component; the derivation and Bianchi checks of
`check_model_axioms` read only the nonzero model entries;
`Tensor.first_symmetry_violation`
and `Tensor.__eq__` compare entries instead of testing a difference for
zero.  Each must agree with the construction it replaced, from
`conftest.py`, which shares no code with it:

* the derivation action entry by entry with `old_derivation_action`, by
  value, by type and by printed form (chart witnesses print the unreduced
  rational function), on seeded zero, sparse and dense tensors of `Fraction`
  and `RationalFunction` entries under zero, sparse and dense endomorphisms;
* the covariant derivative and the gradient with an oracle that
  differentiates every entry (`test_lazy_checks.full_nabla`);
* the model report (check names, verdicts and witnesses) with the old
  symmetry, derivation and `Tensor.__getitem__` Bianchi loops
  (`old_check_model_axioms`), on `valid_random_model` and on mutants of it
  that fail each Bianchi check;
* the symmetry witness and tensor equality with subtract-then-test.
"""

from __future__ import annotations

import ast
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from fedosov.charts import covariant_derivative, gradient, linear_type_structure, omega_tensor
from fedosov.models import InfinitesimalModel, check_model_axioms
from fedosov.models import derivation_action
from fedosov.rationals import RationalFunction, parse_ratfun
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, _flat

from conftest import (
    _zero, old_check_model_axioms, old_derivation_action, old_symmetry_violation,
    random_rational_function, valid_random_model,
)
from test_lazy_checks import full_nabla, y_chart
from test_slot_kernel import swell_chart

VALENCES = [(), (COV,), (CON,), (COV, CON), (CON, COV), (COV, COV, CON), (COV, CON, CON)]
DENSITY = {"zero": 0.0, "sparse": 0.15, "dense": 1.0}


def same(new, old) -> bool:
    """Equal entry by entry: by value, by type and by printed form."""
    new, old = list(new), list(old)
    return (len(new) == len(old) and all(a == b for a, b in zip(new, old))
            and [type(a) for a in new] == [type(b) for b in old]
            and [str(a) for a in new] == [str(b) for b in old])


def scalars(kind: str, variables=("x", "y")):
    """(zero, draw) for Fraction or RationalFunction entries; draw(rng) is nonzero."""
    if kind == "fraction":
        def draw(rng):
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))
        return Fraction(0), draw

    def draw(rng):
        value = random_rational_function(rng)
        while value.is_zero():
            value = random_rational_function(rng)
        return value.with_variables(variables)
    return RationalFunction.constant(0, variables), draw


def seeded_entries(rng, count: int, density: str, kind: str, variables=("x", "y")) -> list:
    zero, draw = scalars(kind, variables)
    return [draw(rng) if rng.random() < DENSITY[density] else zero for _ in range(count)]


# -- the support of a tensor ---------------------------------------------------------------

def drawn_tensors():
    """Zero, sparse and dense tensors of Fraction, int and RationalFunction
    entries, and `Tensor.zeros` of each scalar type."""
    rng = random.Random("support")
    for kind in ("fraction", "int", "ratfun"):
        for d, valence in [(2, ()), (2, (CON,)), (4, (COV, CON)), (2, (COV, COV, CON)),
                           (4, (COV, COV, COV))]:
            size = d ** len(valence)
            for density in DENSITY:
                for _ in range(2):
                    if kind == "int":
                        comps = [rng.randint(-3, 3) if rng.random() < DENSITY[density] else 0
                                 for _ in range(size)]
                    else:
                        comps = seeded_entries(rng, size, density, kind)
                    yield Tensor(d, valence, comps)
            zero = {"fraction": Fraction(0), "int": 0}.get(kind, scalars("ratfun")[0])
            yield Tensor.zeros(d, valence, zero=zero)


def test_support_matches_dense_scan():
    kinds = set()
    zeros = 0
    for t in drawn_tensors():
        nonzero = [flat for flat, value in enumerate(t.comps) if not _zero(value)]
        support = t.support
        assert support == tuple(nonzero), t.comps
        assert t.support is support
        assert t.is_zero() == (not nonzero)
        first = next(((idx, t[idx]) for idx in t.indices() if not _zero(t[idx])), None)
        assert t.first_nonzero() == first
        if first is not None:
            assert t.first_nonzero()[1] is first[1]
        kinds.add(type(t.comps[0]))
        zeros += not nonzero
    assert kinds == {Fraction, int, RationalFunction} and zeros > 15


MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
            "__setitem__", "__delitem__", "__iadd__", "__imul__"}


def comps_writes(source: str) -> list[int]:
    """Lines that write into `<expr>.comps`: an (augmented) assignment to or
    `del` of a subscript of it, or a call of a mutating list method on it."""
    def is_comps(node):
        return isinstance(node, ast.Attribute) and node.attr == "comps"

    def targets(node):
        if isinstance(node, (ast.Assign, ast.Delete)):
            found = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            found = [node.target]
        else:
            return []
        flat = []
        while found:
            target = found.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                found.extend(target.elts)
            elif isinstance(target, ast.Starred):
                found.append(target.value)
            else:
                flat.append(target)
        return flat

    lines = []
    for node in ast.walk(ast.parse(source)):
        if any(isinstance(t, ast.Subscript) and is_comps(t.value) for t in targets(node)):
            lines.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS and is_comps(node.func.value)):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_writes_into_a_built_tensor():
    package = pathlib.Path(__file__).parent.parent / "src" / "fedosov"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    writes = {path.name: comps_writes(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_comps_write_guard_sees_each_form():
    forms = ["t.comps[0] = x", "t.comps[0] += x", "a, t.comps[1] = x, y", "del t.comps[0]",
             "t.comps[0]: int = x", "t.comps.append(x)", "run.r.comps.sort()",
             "t.comps.__setitem__(0, x)"]
    assert [comps_writes(form) for form in forms] == [[1]] * len(forms)
    assert comps_writes("comps[0] = x\nx = t.comps[0]\nt.comps.index(x)\nc = list(t.comps)") == []


# -- the derivation kernel ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["fraction", "ratfun"])
@pytest.mark.parametrize("tensor_density", list(DENSITY))
@pytest.mark.parametrize("endo_density", list(DENSITY))
def test_derivation_action_matches_old_action(kind, tensor_density, endo_density):
    rng = random.Random(f"{kind}:{tensor_density}:{endo_density}")
    checked = 0
    for d in (2, 4):
        space = SymplecticSpace(d // 2)
        for valence in VALENCES:
            if kind == "ratfun" and d == 4 and len(valence) > 1:
                continue  # the dense rational-function oracle alone takes seconds
            for _ in range(3):
                t = Tensor(d, valence, seeded_entries(rng, d ** len(valence), tensor_density,
                                                      kind), space=space)
                endo_kind = kind if rng.random() < 0.7 else "fraction"
                entries = seeded_entries(rng, d * d, endo_density, endo_kind)
                endo = [entries[a * d:(a + 1) * d] for a in range(d)]
                acted, expected = derivation_action(endo, t), old_derivation_action(endo, t)
                assert (acted.valence, acted.space) == (t.valence, t.space)
                assert same(acted.comps, expected.comps), (d, valence, t.comps, endo)
                checked += 1
    assert checked == 3 * (2 * len(VALENCES) - 4 * (kind == "ratfun"))


# -- partials only where the field is nonzero ------------------------------------------

def chart_fields():
    for chart in (y_chart(), swell_chart()):
        structure = linear_type_structure(chart, chart.field_tensor("xi"))
        yield chart, omega_tensor(chart), None
        yield chart, chart.field_tensor("xi"), structure
        yield chart, structure, structure
        rng = random.Random(len(chart.coords))
        for valence, density in itertools.product([(COV,), (COV, CON), (COV, COV, CON)],
                                                  ["sparse", "dense"]):
            if density == "dense" and len(valence) == 3 and chart.dim == 4:
                continue  # the oracle alone takes seconds
            comps = seeded_entries(rng, chart.dim ** len(valence), density, "ratfun",
                                   chart.coords)
            field = Tensor(chart.dim, valence, comps)
            yield chart, field, None
            yield chart, field, structure


def test_covariant_derivative_matches_partial_on_every_entry():
    count = 0
    for chart, field, shift in chart_fields():
        assert same(covariant_derivative(chart, field, shift).comps,
                    full_nabla(chart, field, shift).comps), (chart.coords, field.valence)
        count += 1
    assert count == 2 * (3 + 3 * 2 * 2) - 2


def test_gradient_matches_partial_on_every_entry():
    for chart, field, _ in chart_fields():
        expected = [value.partial(coord) for coord in chart.coords for value in field.comps]
        assert same(gradient(chart, field).comps, expected)


# -- the model checks ---------------------------------------------------------------------

def mutants(rng, model):
    """Copies of the model with one curvature or torsion entry pair moved,
    antisymmetrically in the first two slots, and one moved alone."""
    d = model.space.dim
    for which in ("curvature", "torsion"):
        for pair in (True, True, False):
            tensor = getattr(model, which)
            comps = list(tensor.comps)
            idx = [rng.randrange(d) for _ in tensor.valence]
            idx[1] = (idx[0] + 1 + rng.randrange(d - 1)) % d
            c = Fraction(rng.choice([-2, -1, 1, 2]))
            comps[_flat(d, idx)] += c
            if pair:
                idx[0], idx[1] = idx[1], idx[0]
                comps[_flat(d, idx)] -= c
            changed = Tensor(d, tensor.valence, comps, space=tensor.space)
            parts = {"curvature": model.curvature, "torsion": model.torsion, which: changed}
            yield InfinitesimalModel(space=model.space, aux=model.aux, **parts)


def test_model_checks_match_old_loops():
    rng = random.Random(13)
    failed = set()
    cases = 0
    for n in (1, 2, 3):
        for _ in range(4 if n < 3 else 2):
            model = valid_random_model(rng, n)
            for case in (model, *mutants(rng, model)):
                got = check_model_axioms(case).to_json()
                assert got == old_check_model_axioms(case).to_json()
                failed.update(check["name"] for check in got if not check["pass"])
                cases += 1
    assert cases == 10 * 7
    assert {"first_bianchi", "second_bianchi", "torsion_antisymmetry",
            "curvature_antisymmetry"} <= failed


# -- symmetry and equality without a difference -------------------------------------------

def symmetric_like(rng, d, valence, kind, anti, density):
    """A tensor (anti)symmetric in slots 0, 1, with one entry moved at random."""
    zero, draw = scalars(kind)
    t = Tensor(d, valence, [zero] * d ** len(valence))
    comps = list(t.comps)
    for idx in t.indices():
        if idx[0] <= idx[1] and rng.random() < DENSITY[density]:
            value = zero if anti and idx[0] == idx[1] else draw(rng)
            comps[_flat(d, idx)] = value
            swapped = (idx[1], idx[0]) + idx[2:]
            comps[_flat(d, swapped)] = -value if anti else value
    if rng.random() < 0.7:
        comps[rng.randrange(len(comps))] = draw(rng)
    return Tensor(d, valence, comps)


@pytest.mark.parametrize("kind", ["fraction", "ratfun"])
def test_symmetry_violation_matches_subtract_then_test(kind):
    rng = random.Random(kind)
    failures = 0
    for d, valence in [(2, (COV, COV)), (4, (COV, COV, CON)), (2, (COV, COV, COV, CON)),
                       (4, (COV, COV, COV))]:
        for _ in range(6):
            for anti in (False, True):
                t = symmetric_like(rng, d, valence, kind, anti, rng.choice(["sparse", "dense"]))
                for a, b in itertools.combinations(range(len(valence)), 2):
                    for flag in (False, True):
                        expected = old_symmetry_violation(t, a, b, flag)
                        assert t.first_symmetry_violation(a, b, anti=flag) == expected
                        failures += expected is not None
    assert failures > 50


def test_equality_matches_subtract_then_test():
    rng = random.Random(5)
    x = ("x", "y")
    # equal values in different unreduced forms: (x^2 - 1)/((x - 1)(y + 1)) = (x + 1)/(y + 1)
    long = parse_ratfun("(x^2 - 1)/((x - 1)*(y + 1))", x)
    short = parse_ratfun("(x + 1)/(y + 1)", x)
    assert str(long) != str(short)
    for kind in ("fraction", "ratfun"):
        for _ in range(20):
            comps = seeded_entries(rng, 16, rng.choice(["sparse", "dense"]), kind)
            t = Tensor(4, (COV, CON), comps)
            others = [Tensor(4, (COV, CON), list(comps))]
            moved = list(comps)
            moved[rng.randrange(16)] = scalars(kind)[1](rng)
            others.append(Tensor(4, (COV, CON), moved))
            if kind == "ratfun":
                others.append(Tensor(4, (COV, CON), [c * long for c in comps]))
                t_short = Tensor(4, (COV, CON), [c * short for c in comps])
                assert t_short == others[-1]
            for other in others:
                expected = all(_zero(a - b) for a, b in zip(t.comps, other.comps))
                assert (t == other) == expected
                assert (other == t) == expected

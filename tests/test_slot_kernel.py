"""Differential tests of the slot-contraction kernel against index definitions.

Every tensor action built on `symplectic._contract_slot` is compared with
an oracle written out from its index formula: the d^r push-forward sum, the
per-entry derivation sum, the per-entry lowering and raising sums, the
per-entry interior product with a vector, and the per-entry covariant
derivative with interleaved connection terms.  Constant
tensors must agree exactly, component by component; chart fields are
compared by value, since the order of additions changes how an unreduced
rational function is written.

The kernel itself scatters each nonzero entry through a matrix row; it is
compared with the dense column sum it replaced (`conftest.old_contract_slot`)
by printed form and by type, on every slot of seeded `Fraction`, `int` and
`RationalFunction` tensors, and a mutant that sums each entry's terms in
decreasing order must be caught.  Every slot contraction in `symplectic`
and `models` builds its tables with `symplectic._moves` and scatters with
`symplectic._scatter`: a structural test keeps it so, and a mutant of the
shared builder must be caught here, by the model checks
(`test_model_support`) and by the chart derivatives
(`test_derivation_kernel`).

One test counts the polynomial products (all of them, and those of two
factors with two or more terms each), content passes, partials and exact
divisions, and the rational-function negations and sums, of one
`verify-chart --suite all` on the benchmark's seed-1 swell chart, so that
undoing the sharing of chart quantities or of denominator products, or
forming a difference through a negated copy, fails here.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import json
import pathlib
import random
import textwrap
from fractions import Fraction

import pytest

from fedosov import cli, linalg, models, symplectic
from fedosov.charts import (
    chart_curvature, chart_from_json, chart_torsion, covariant_derivative,
    linear_type_structure, load_example, omega_tensor,
)
from fedosov.models import derivation_action, push_tensor
from fedosov.rationals import Polynomial, RationalFunction, parse_ratfun
from fedosov.symplectic import (
    COV, CON, SymplecticSpace, Tensor, _contract_slot, change_basis, cotorsion_lower,
    cotorsion_raise, insert_vector, torsion_lower, torsion_raise,
)

from conftest import _zero, mutant, old_contract_slot, work_counts
from test_linalg import module_calls

VALENCES = [(COV, COV), (COV, COV, CON), (COV, COV, COV), (COV, COV, COV, CON)]
MAX_NONZERO = 24  # keeps the d^r oracle cheap at n = 3, valence (1,3)


def random_scalar(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_tensor(rng, n, valence):
    space = SymplecticSpace(n)
    size = space.dim ** len(valence)
    comps = [Fraction(0)] * size
    for flat in rng.sample(range(size), min(size, MAX_NONZERO)):
        comps[flat] = random_scalar(rng)
    return Tensor(space.dim, valence, comps, space=space)


def random_matrix(rng, d):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]


def random_invertible(rng, d):
    while True:
        m = random_matrix(rng, d)
        if linalg.det(m) != 0:
            return m


def random_omega(rng, space):
    """A nonstandard symplectic form M^T omega M."""
    m = random_invertible(rng, space.dim)
    return linalg.matmul(linalg.matmul(linalg.transpose(m), [list(r) for r in space.omega]), m)


# -- oracles -----------------------------------------------------------------------

def oracle_push(f, f_inv, t):
    """(f_* t)[idx] = sum over all source indices, one factor per slot."""
    sources = [(src, t[src]) for src in t.indices() if t[src] != 0]
    comps = []
    for idx in t.indices():
        total = Fraction(0)
        for src, value in sources:
            for slot, kind in enumerate(t.valence):
                value *= (f[idx[slot]][src[slot]] if kind == CON
                          else f_inv[src[slot]][idx[slot]])
            total += value
        comps.append(total)
    return comps


def oracle_derivation(a, t):
    """(A.t)[idx] = sum_slots sum_m (A[idx_s][m] or -A[m][idx_s]) t[idx with m at s]."""
    d = t.dim
    comps = []
    for idx in t.indices():
        total = Fraction(0)
        for slot, kind in enumerate(t.valence):
            for m in range(d):
                src = idx[:slot] + (m,) + idx[slot + 1:]
                coeff = a[idx[slot]][m] if kind == CON else -a[m][idx[slot]]
                total += coeff * t[src]
        comps.append(total)
    return comps


def oracle_lowering(t, matrix, formula):
    d = t.dim
    return [sum((formula(t, matrix, i, j, k, m) for m in range(d)), Fraction(0))
            for i, j, k in itertools.product(range(d), repeat=3)]


# One term of each sum; the first three indices name the output entry and
# the last one is summed over.
def torsion_lower_term(t, w, i, j, k, l):
    return t[i, j, l] * w[l][k]


def torsion_raise_term(t, inv, i, j, l, k):
    return t[i, j, k] * inv[k][l]


def cotorsion_lower_term(t, w, i, j, k, l):
    return t[k, i, l] * w[l][j]


def cotorsion_raise_term(t, inv, k, i, l, j):
    return t[i, j, k] * inv[j][l]


def oracle_insert(t, slot, vec, zero=Fraction(0)):
    """out[rest] = sum_l t[rest with l at the slot] * vec[l], per entry."""
    def entry(*rest):
        return sum((t[rest[:slot] + (l,) + rest[slot:]] * vec[l] for l in range(t.dim)), zero)

    return Tensor.build(t.dim, t.valence[:slot] + t.valence[slot + 1:], entry)


def oracle_covariant_derivative(chart, tensor, structure=None):
    """nabla_i T[rest] = d_i T[rest] + per-slot connection terms, per entry."""
    gamma = (chart.christoffel if structure is None else
             [[[chart.christoffel[k][i][j] - structure[i, j, k] for j in range(chart.dim)]
               for i in range(chart.dim)] for k in range(chart.dim)])
    d = chart.dim

    def entry(i, *rest):
        total = tensor[rest].partial(chart.coords[i])
        for slot, kind in enumerate(tensor.valence):
            for m in range(d):
                src = rest[:slot] + (m,) + rest[slot + 1:]
                coeff = (gamma[rest[slot]][i][m] if kind == CON
                         else -gamma[m][i][rest[slot]])
                total = total + coeff * tensor[src]
        return total

    return Tensor.build(d, (COV,) + tensor.valence, entry)


# -- constant tensors: exact equality -----------------------------------------------

CASES = [(n, valence) for n in (1, 2, 3) for valence in VALENCES]


@pytest.mark.parametrize("n,valence", CASES)
def test_change_basis_and_push_tensor_match_push_sum(n, valence):
    rng = random.Random(f"push:{n}:{valence}")
    t = random_tensor(rng, n, valence)
    f = random_invertible(rng, t.dim)
    f_inv = linalg.inverse(f)
    expected = oracle_push(f, f_inv, t)
    assert push_tensor(f, t).comps == expected
    assert push_tensor(f, t, f_inv).comps == expected
    assert change_basis(t, f_inv, f).comps == expected
    assert change_basis(t, f_inv).comps == expected


@pytest.mark.parametrize("n,valence", CASES)
def test_derivation_action_matches_entry_sum(n, valence):
    rng = random.Random(f"derivation:{n}:{valence}")
    t = random_tensor(rng, n, valence)
    a = random_matrix(rng, t.dim)
    assert derivation_action(a, t).comps == oracle_derivation(a, t)


@pytest.mark.parametrize("n,valence", CASES)
def test_insert_vector_matches_entry_sum(n, valence):
    rng = random.Random(f"insert:{n}:{valence}")
    t = random_tensor(rng, n, valence)
    vec = [random_scalar(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(t.dim)]
    for slot in range(len(valence)):
        out = insert_vector(t, slot, vec)
        expected = oracle_insert(t, slot, vec)
        assert (out.valence, out.space, out.comps) == (expected.valence, t.space, expected.comps)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lowering_and_raising_match_entry_sums(n):
    rng = random.Random(f"lowering:{n}")
    space = SymplecticSpace(n)
    s = random_tensor(rng, n, (COV, COV, CON))
    a = Tensor.build(space.dim, (COV, COV, CON),
                     lambda i, j, k: s[i, j, k] - s[j, i, k], space=space)
    c = random_tensor(rng, n, (COV, COV, COV))
    for omega in (space.omega, random_omega(rng, space)):
        inv = linalg.inverse(omega)
        assert torsion_lower(a, omega).comps == oracle_lowering(a, omega, torsion_lower_term)
        assert cotorsion_lower(s, omega).comps == oracle_lowering(s, omega, cotorsion_lower_term)
        assert torsion_raise(c, omega).comps == oracle_lowering(c, inv, torsion_raise_term)
        assert cotorsion_raise(c, omega).comps == oracle_lowering(c, inv, cotorsion_raise_term)


# -- chart fields: equality by value -------------------------------------------------

def swell_json(a=1, b=1, c=1) -> dict:
    """The chart file of omega = dx^dy/q + du^dv/u^2, q = a x^2 + b y^2 + c,
    with its split symplectic connection and xi = d_y + u d_v, written as
    the benchmark's `chart-swell-4d` workload writes it."""
    q = f"({a}*x^2 + {b}*y^2 + {c})"
    gx, gy = f"-{a}*x/{q}", f"-{b}*y/{q}"
    return {"coords": ["x", "y", "u", "v"],
            "omega": {"1,2": f"1/{q}", "3,4": "1/u^2"},
            "christoffel": {"1,1,1": gx, "2,1,2": gx, "2,2,1": gx,
                            "1,1,2": gy, "1,2,1": gy, "2,2,2": gy, "3,3,3": "-2/u"},
            "fields": {"xi": {"valence": ["con"], "components": {"2": "1", "4": "u"}}}}


def swell_chart(a=1, b=1, c=1):
    return chart_from_json(swell_json(a, b, c))


# Parent-commit counts in one `verify-chart --suite all` on the seed-1
# benchmark chart: for the first three, where every sum, product, partial
# and power ran the content pass and every partial was formed again at each
# reader; for the next three, where a difference was a sum with a negated
# copy and the normalization divided by every one-term denominator; for
# the products of two factors of two or more terms each, where every
# product of two denominators was formed again and equal parsed
# denominators were separate objects (`Polynomial.__mul__` took 802 there).
SHARING_PARENT = {"Polynomial.__mul__": 1061, "Polynomial.content": 448,
                  "Polynomial.partial": 294, "Polynomial.try_exact_div": 382,
                  "RationalFunction.__neg__": 586, "RationalFunction.__add__": 810,
                  "products of two sums": 208}
SHARING_BOUNDS = {"Polynomial.__mul__": 507, "Polynomial.content": 13,
                  "Polynomial.partial": 176, "Polynomial.try_exact_div": 335,
                  "RationalFunction.__neg__": 96, "RationalFunction.__add__": 374,
                  "products of two sums": 44}


SHARING_CODES = {getattr(owner, method).__code__: f"{owner.__name__}.{method}"
                 for owner, method in ((Polynomial, "__mul__"), (Polynomial, "content"),
                                       (Polynomial, "partial"), (Polynomial, "try_exact_div"),
                                       (RationalFunction, "__neg__"),
                                       (RationalFunction, "__add__"))}


def is_product_of_two_sums(frame) -> bool:
    """A `Polynomial.__mul__` call whose two factors have two or more terms each."""
    self, other = frame.f_locals["self"], frame.f_locals["other"]
    return isinstance(other, Polynomial) and len(self.terms) > 1 and len(other.terms) > 1


def test_swell_verification_forms_each_quantity_once(tmp_path, capsys):
    # a = b = 1, c = 2 is the chart of the benchmark's seed 1
    path = tmp_path / "swell.json"
    path.write_text(json.dumps(swell_json(1, 1, 2)), encoding="utf-8")

    def verify():
        assert cli.main(["verify-chart", str(path), "--suite", "all"]) == 1

    counts = work_counts(verify, SHARING_CODES, {
        "products of two sums": (Polynomial.__mul__.__code__, is_product_of_two_sums)})
    capsys.readouterr()
    over = {name: counts[name] for name, bound in SHARING_BOUNDS.items() if counts[name] > bound}
    assert not over, (f"counts {over} passed their bounds {SHARING_BOUNDS}; the parent "
                      f"commit of the sharing took {SHARING_PARENT}")


@pytest.mark.parametrize("name", ["example1", "example1-emended", "example2", "swell-4d"])
def test_covariant_derivative_matches_entry_formula(name):
    chart = swell_chart() if name == "swell-4d" else load_example(name)
    xi = chart.field_tensor("xi")
    structure = linear_type_structure(chart, xi)
    fields = [omega_tensor(chart), xi, structure, chart_torsion(chart, structure)]
    if name != "swell-4d":  # the 4D curvature oracle alone takes seconds
        fields += [chart_curvature(chart), chart_curvature(chart, structure)]
    for field in fields:
        for shift in (None, structure):
            assert (covariant_derivative(chart, field, shift)
                    == oracle_covariant_derivative(chart, field, shift))


@pytest.mark.parametrize("name", ["example1-emended", "example2", "swell-4d"])
def test_insert_vector_on_chart_fields_matches_entry_sum(name):
    chart = swell_chart() if name == "swell-4d" else load_example(name)
    xi = chart.field_tensor("xi")
    structure = linear_type_structure(chart, xi)
    for field in (omega_tensor(chart), structure, chart_curvature(chart, structure)):
        for slot in range(len(field.valence)):
            assert (insert_vector(field, slot, xi.comps)
                    == oracle_insert(field, slot, xi.comps, chart.rf_zero()))


# -- the scatter kernel against the dense column sum -----------------------------------

RF_COORDS = ("x", "y")
RF_POOL = ["1/x", "1/x", "-1/x", "y", "1/y", "x/(y + 1)", "1/(x + 1)", "x^2 - y"]
ONES = {"fraction": Fraction(1), "int": 1, "ratfun": parse_ratfun("1", RF_COORDS)}


def contraction_scalars(rng, kind):
    """A draw of the given kind, zero about half the time."""
    if kind == "ratfun":
        text = rng.choice(RF_POOL) if rng.random() < 0.5 else "0"
        return parse_ratfun(text, RF_COORDS)
    value = rng.randint(-3, 3) if rng.random() < 0.5 else 0
    return value if kind == "int" else Fraction(value, rng.randint(1, 3))


def order_case():
    """A (cov) RationalFunction tensor whose column sum prints differently
    when its terms are summed in decreasing order: 1/(x + 1) + 1/(x + 1)
    shares a denominator, 1/y + 1/(x + 1) does not."""
    t = Tensor(4, (COV,), [parse_ratfun(text, RF_COORDS)
                           for text in ("1/(x + 1)", "1/(x + 1)", "1/y", "0")])
    ones = [[parse_ratfun("1", RF_COORDS)] for _ in range(4)]
    forward = (t.comps[0] + t.comps[1]) + t.comps[2]
    backward = (t.comps[2] + t.comps[1]) + t.comps[0]
    assert forward == backward and str(forward) != str(backward)
    return "order", t, 0, ones


def contraction_cases():
    """(label, tensor, slot, matrix) over every slot of seeded tensors, with
    d x 1 and d x d matrices, a matrix with zero rows, zero tensors and
    entries that cancel."""
    rng = random.Random("scatter")
    for kind in ("fraction", "int", "ratfun"):
        for d, valence in ((2, (COV,)), (2, (CON, COV)), (4, (COV, CON)), (2, (COV, COV, CON)),
                           (4, (COV, COV, CON))):
            zero = ONES[kind] * 0
            tensors = {"seeded": Tensor(d, valence, [contraction_scalars(rng, kind)
                                                     for _ in range(d ** len(valence))]),
                       "zero": Tensor(d, valence, [zero] * d ** len(valence))}
            matrices = {
                "column": [[contraction_scalars(rng, kind)] for _ in range(d)],
                "square": [[contraction_scalars(rng, kind) for _ in range(d)] for _ in range(d)],
                "zero-rows": [[contraction_scalars(rng, kind) if l == d - 1 else zero
                               for _ in range(d)] for l in range(d)],
            }
            for (tname, t), (mname, m) in itertools.product(tensors.items(), matrices.items()):
                for slot in range(len(valence)):
                    yield f"{kind}/{d}/{valence}/{tname}/{mname}/{slot}", t, slot, m
        # t[0] * 1 + t[1] * -1 cancels at every entry of the output
        one = ONES[kind]
        value = parse_ratfun("1/x", RF_COORDS) if kind == "ratfun" else one * 3
        yield (f"{kind}/cancel", Tensor(2, (COV, CON), [value] * 4), 0,
               [[one, one], [-one, -one]])
    yield order_case()


CONTRACTION_CASES = list(contraction_cases())


def contraction_mismatches(cases):
    bad = []
    for label, t, slot, matrix in cases:
        got = symplectic._contract_slot(t, slot, matrix)
        want = old_contract_slot(t, slot, matrix)
        if ([str(x) for x in got] != [str(x) for x in want]
                or list(map(type, got)) != list(map(type, want)) or got != want):
            bad.append(label)
    return bad


def test_scatter_contraction_matches_column_sum():
    assert contraction_mismatches(CONTRACTION_CASES) == []
    assert len(CONTRACTION_CASES) > 150
    # the cases contain entries that sum to zero from nonzero terms
    cancel = [case for case in CONTRACTION_CASES if case[0].endswith("/cancel")]
    assert all(all(_zero(x) for x in _contract_slot(t, slot, m))
               for _, t, slot, m in cancel) and len(cancel) == 3


def test_comparison_catches_decreasing_summation(monkeypatch):
    monkeypatch.setattr(symplectic, "_contract_slot", mutant(
        symplectic, "_contract_slot", "for flat in t.support}",
        "for flat in reversed(t.support)}"))
    assert "order" in contraction_mismatches(CONTRACTION_CASES)


def mirror_moves(monkeypatch):
    """Bind `_moves` in `symplectic` and `models` to the shared move-table
    builder with each row read from its far end, so that every term lands
    in the mirrored column."""
    moves = mutant(symplectic, "_moves", "for a, x in enumerate(row)",
                   "for a, x in enumerate(reversed(row))")
    for module in (symplectic, models):
        monkeypatch.setattr(module, "_moves", moves)


def test_comparison_catches_mirrored_moves(monkeypatch):
    mirror_moves(monkeypatch)
    bad = contraction_mismatches(CONTRACTION_CASES)
    assert {label.split("/")[0] for label in bad} == {"fraction", "int", "ratfun"}


def slot_kernel_sites(module) -> tuple[set[str], set[str]]:
    """The functions of `module` that build a move table, a filtered
    comprehension of (offset, factor) pairs whose offset is computed, and
    those that read a slot value off a flat position, `flat // stride % d`.
    A nested function counts for the function around it too."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    builders, slot_readers = set(), set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, (ast.ListComp, ast.GeneratorExp))
                    and isinstance(node.elt, ast.Tuple) and isinstance(node.elt.elts[0], ast.BinOp)
                    and any(generator.ifs for generator in node.generators)):
                builders.add(func.name)
            left = getattr(node, "left", None)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(left, ast.BinOp) and isinstance(left.op, ast.FloorDiv)):
                slot_readers.add(func.name)
    return builders, slot_readers


def test_slots_contract_in_one_kernel():
    """`_moves` is the one move-table builder and `_scatter` the one scatter
    loop of `symplectic` and `models`.  Besides `_scatter`, only the lazy
    gather of `_derivation_entries` (its column sums and the walk over the
    positions its input reaches), the stabilizer's equations (A -> A.t, the
    transpose problem) and the cyclic-sum kernel read a slot value off a
    flat position, so a hand-rolled table or scatter put back into a
    contraction fails here."""
    sites = [slot_kernel_sites(module) for module in (symplectic, models)]
    assert set.union(*(builders for builders, _ in sites)) == {"_moves"}
    assert set.union(*(readers for _, readers in sites)) == {
        "_scatter", "_derivation_entries", "_first_cyclic_failure", "_stabilizer_rows"}
    calls = {**module_calls(symplectic), **module_calls(models)}
    for name in ("_contract_slot", "_changed_comps", "_derivation_scatter"):
        assert "_scatter" in calls[name], name
    for name in ("_contract_slot", "_changed_comps", "_derivation_entries", "_derivation_moves"):
        assert "_moves" in calls[name], name
    # one loop, on scaled ints or on the entries as they are
    changed = next(node for node in ast.walk(ast.parse(textwrap.dedent(
        inspect.getsource(symplectic._changed_comps)))) if isinstance(node, ast.FunctionDef))
    assert sum(isinstance(node, ast.For) for node in ast.walk(changed)) == 1

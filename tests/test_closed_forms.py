"""Closed forms of the chart and linear-type modules against the generic solves they replaced.

`integrability_check` reads the Frobenius form of d beta on pairs of kernel
fields, `symplectic_basis_matrix` keeps every projection, `model_at_point`
inverts the basis through the form, and `metric_obstruction` decides from
b = omega_p(., xi) alone.  The oracles in `conftest` are the old code: Lie
brackets of divided spanning fields, the independence filter,
`linalg.inverse` and the nullspace-and-determinant solve.  The inputs are
the built-in examples, the chart files in `data/charts/`, the 4D swell
charts, the product chart and seeded draws, among them xi in the kernel of
a degenerate omega_p at d = 4 and d = 6 and kernel distributions whose
first failing pair is not (1,2).
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from fedosov import charts, lineartype, linalg
from fedosov.charts import (
    chart_from_json, evaluate_matrix, evaluate_tensor, linear_type_structure, load_chart_file,
    load_example, make_chart, model_at_point, symplectic_basis_matrix,
)
from fedosov.lineartype import NotLinearTypeError, integrability_check, metric_obstruction
from fedosov.rationals import PoleError, parse_ratfun
from fedosov.symplectic import COV, CON, Tensor

from conftest import (
    PRODUCT_CHART, old_integrability_check, old_metric_obstruction, old_model_at_point,
    old_symplectic_basis_matrix,
)
from test_slot_kernel import swell_chart

CHART_FILES = sorted((pathlib.Path(__file__).parent / "data" / "charts").glob("*.json"))
EXAMPLES = ["example1", "example1-emended", "example2"]


def named_charts():
    """(name, chart) for the examples, the chart files and the swell charts."""
    for name in EXAMPLES:
        yield name, load_example(name)
    for path in CHART_FILES:
        yield path.stem, load_chart_file(path)
    for a, b, c in ((1, 1, 1), (2, 1, 3), (3, 3, 2)):
        yield f"swell-{a}{b}{c}", swell_chart(a, b, c)


def random_polynomial(rng: random.Random, coords, terms: int = 2) -> str:
    """A small polynomial in a few of the coordinates, as text; never zero."""
    parts = [str(rng.randint(1, 3))]
    for _ in range(terms):
        var = rng.choice(coords)
        parts.append(f"{rng.choice((-2, -1, 1, 2))}*{var}^{rng.randint(1, 2)}")
    return " + ".join(parts)


# -- integrability ------------------------------------------------------------------

def test_integrability_matches_brackets_on_chart_fields():
    rng = random.Random("integrability:charts")
    seen = 0
    for name, chart in named_charts():
        fields = [chart.field_tensor("xi")]
        for _ in range(2):
            fields.append(Tensor(chart.dim, (CON,), [
                parse_ratfun(random_polynomial(rng, chart.coords) if rng.random() < 0.7 else "0",
                             chart.coords) for _ in range(chart.dim)]))
        for xi in fields:
            assert integrability_check(chart, xi) == old_integrability_check(chart, xi), name
            seen += 1
    assert seen == 3 * (len(EXAMPLES) + len(CHART_FILES) + 3)


def darboux_chart_with_beta(coords, beta):
    """A chart with the standard constant omega and xi = omega^-1 beta, so
    that omega(., xi) = beta."""
    d = len(coords)
    n = d // 2
    xi = [-beta[k + n] for k in range(n)] + [beta[k] for k in range(n)]
    chart = make_chart(coords, {(i, i + n): 1 for i in range(n)}, {})
    return chart, Tensor(d, (CON,), xi)


def drawn_kernel(rng: random.Random, d: int):
    """beta = f dg, integrable; or f dg + x_p dx_q, whose first failing pair
    of spanning fields lies past (1,2) when p and q are late coordinates."""
    coords = tuple(f"x{i}" for i in range(d))
    used = rng.sample(coords, rng.randint(1, d - 1))
    f = parse_ratfun(random_polynomial(rng, used, 1), coords)
    g = parse_ratfun(random_polynomial(rng, used, 2), coords)
    beta = [f * g.partial(c) for c in coords]
    if rng.random() < 0.5:
        p, q = rng.sample(range(d // 2 if rng.random() < 0.7 else 0, d), 2)
        beta[q] = beta[q] + parse_ratfun(coords[p], coords)
    return darboux_chart_with_beta(coords, beta)


def test_integrability_matches_brackets_on_drawn_kernels():
    rng = random.Random("integrability:kernels")
    witnesses = []
    for d in (4, 4, 6) * 16:
        chart, xi = drawn_kernel(rng, d)
        check = integrability_check(chart, xi)
        assert check == old_integrability_check(chart, xi), chart.coords
        witnesses.append(check.witness)
    # both verdicts, and failures at (1,2) and past it
    failing = {w for w in witnesses if w is not None}
    assert None in witnesses
    assert "bracket of spanning fields 1,2 leaves the kernel" in failing
    assert len(failing) >= 3


def test_integrability_of_a_nonclosed_integrable_form():
    # beta = x2 dx1 has d beta != 0 but an integrable kernel, so each term
    # of the cyclic sum must carry its sign; beta = dx1 + x4 dx5 fails only
    # on the pair of spanning fields 4,5.
    coords = tuple(f"x{i}" for i in range(6))
    for beta, witness in ((["0", "x2", "0", "0", "0", "0"], None),
                          (["0", "1", "0", "0", "0", "x4"],
                           "bracket of spanning fields 4,5 leaves the kernel")):
        chart, xi = darboux_chart_with_beta(coords, [parse_ratfun(t, coords) for t in beta])
        check = integrability_check(chart, xi)
        assert check.witness == witness
        assert check == old_integrability_check(chart, xi)


def test_integrability_in_dimension_two_takes_no_partial(monkeypatch):
    chart = load_example("example2")

    def refuse(*args):
        raise AssertionError("a partial was taken")

    monkeypatch.setattr(charts, "_partial", refuse)
    assert integrability_check(chart, chart.field_tensor("xi")).passed


# -- the symplectic basis and its inverse ------------------------------------------

def drawn_form(rng: random.Random, d: int, rank: int, dense: bool = True):
    """(P^T B P, P) for B the standard form of the given rank, padded with
    zeros, and P an invertible integer matrix, or a permutation matrix when
    not `dense`."""
    b = [[Fraction(0)] * d for _ in range(d)]
    for i in range(rank // 2):
        b[i][i + rank // 2], b[i + rank // 2][i] = Fraction(1), Fraction(-1)
    if dense:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            p[i][i] += 5  # diagonally dominant
    else:
        order = rng.sample(range(d), d)
        p = [[Fraction(int(order[i] == j)) for j in range(d)] for i in range(d)]
    return linalg.matmul(linalg.matmul(linalg.transpose(p), b), p), p


def test_symplectic_basis_matches_filtered_projection():
    rng = random.Random("basis")
    outcomes = set()
    for d in (2, 4, 6) * 40:
        omega_p, _ = drawn_form(rng, d, rng.choice((d, d, d - 2)))
        try:
            expected = old_symplectic_basis_matrix(omega_p)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                symplectic_basis_matrix(omega_p)
            outcomes.add("degenerate")
            continue
        assert symplectic_basis_matrix(omega_p) == expected
        outcomes.add("basis")
    assert outcomes == {"basis", "degenerate"}


def chart_points(chart):
    """Three rational points: x and y as given, any other coordinate x + its position."""
    for base in ({"x": Fraction(1), "y": Fraction(0)}, {"x": Fraction(2), "y": Fraction(-1, 3)},
                 {"x": Fraction(-3, 2), "y": Fraction(5)}):
        yield {c: base.get(c, base["x"] + i) for i, c in enumerate(chart.coords)}


def model_cases():
    for name, chart in named_charts():
        if "S" in chart.fields:
            structure = chart.field_tensor("S")
        else:
            structure = linear_type_structure(chart, chart.field_tensor("xi"))
        yield pytest.param(chart, structure, id=name)
    product = chart_from_json(PRODUCT_CHART)
    yield pytest.param(product, product.field_tensor("S"), id="product")


MODEL_CASES = list(model_cases())


@pytest.mark.parametrize("chart, structure", MODEL_CASES)
def test_model_at_point_matches_inverse(chart, structure):
    compared = 0
    for point in chart_points(chart):
        try:
            expected = old_model_at_point(chart, structure, point)
        except (PoleError, ValueError) as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                model_at_point(chart, structure, point)
            continue
        model, basis = model_at_point(chart, structure, point)
        assert basis == expected[1]
        assert model.curvature.comps == expected[0].curvature.comps
        assert model.torsion.comps == expected[0].torsion.comps
        assert [t.comps for t in model.aux] == [t.comps for t in expected[0].aux]
        compared += 1
    assert compared


# -- the metric obstruction ------------------------------------------------------------

def linear_type_at(omega_p, xi) -> Tensor:
    d = len(xi)
    omega_xi = [sum(w * x for w, x in zip(row, xi)) for row in omega_p]
    return Tensor.build(d, (COV, COV, CON),
                        lambda i, j, k: omega_p[i][j] * xi[k] - (omega_xi[j] if k == i else 0))


def drawn_obstruction(rng: random.Random, d: int, kind: str):
    """(S, omega_p) with S linear type for a random xi, for xi in the kernel
    of a degenerate omega_p, perturbed by one entry, or zero.  At d = 6 the
    kernel point is a coordinate vector of a permuted block form: the
    solve's determinant took over 90 s on a dense one."""
    if kind == "kernel":
        omega_p, p = drawn_form(rng, d, d - 2, dense=d < 6)
        # P^-1 sends the zero block of B onto the kernel of P^T B P
        p_inv = linalg.inverse(p)
        a, b = rng.randint(1, 3), rng.randint(-2, 2) if d < 6 else 0
        xi = [a * p_inv[k][d - 1] + b * p_inv[k][d - 2] for k in range(d)]
    else:
        omega_p, _ = drawn_form(rng, d, d)
        xi = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]
    s = linear_type_at(omega_p, xi)
    if kind == "perturbed":
        s.comps[rng.randrange(d ** 3)] += 1
    elif kind == "zero":
        s = Tensor.zeros(d, (COV, COV, CON))
    return s, omega_p


def check_obstruction(s_point, omega_p):
    """The same verdict as the solve, or the same error."""
    try:
        expected = old_metric_obstruction(s_point, omega_p)
    except NotLinearTypeError as err:
        with pytest.raises(NotLinearTypeError, match=re.escape(str(err))):
            metric_obstruction(s_point, omega_p)
        return None
    verdict = metric_obstruction(s_point, omega_p)
    assert verdict == expected
    return verdict.solution_dimension


# The solve takes seconds per d = 6 kernel point, so there is one of them.
DRAWS = ([(d, kind) for d in (2, 4) for kind in ("random", "kernel", "perturbed", "zero")] * 4
         + [(6, "random"), (6, "perturbed"), (6, "zero"), (6, "kernel")])


def test_obstruction_matches_solve_on_drawn_points():
    rng = random.Random("obstruction")
    dimensions = set()
    for d, kind in DRAWS:
        dimensions.add((d, check_obstruction(*drawn_obstruction(rng, d, kind))))
    # every branch: no solution, xi in the kernel, not linear type, zero S
    assert {(4, 0), (4, 6), (6, 0), (6, 15), (4, None), (4, 10)} <= dimensions


@pytest.mark.parametrize("chart, structure", MODEL_CASES)
def test_obstruction_matches_solve_on_charts(chart, structure):
    for point in chart_points(chart):
        try:
            s_point = evaluate_tensor(structure, point)
            omega_p = evaluate_matrix(chart.omega, point)
        except PoleError:
            continue
        check_obstruction(s_point, omega_p)


# An 8-coordinate chart whose omega degenerates at x6 = 0 with xi in its
# kernel: the solve's determinant has 28 parameters and ran for minutes.
DEGENERATE_8D = {
    "coords": [f"x{i}" for i in range(8)],
    "omega": {"1,2": "1", "3,4": "1", "5,6": "1", "7,8": "x6"},
    "fields": {"xi": {"valence": ["con"], "components": {"7": "1"}}},
}


def test_obstruction_at_a_degenerate_8d_point_is_prompt(tmp_path):
    path = tmp_path / "degenerate_8d.json"
    path.write_text(json.dumps(DEGENERATE_8D), encoding="utf-8")
    point = ",".join(f"x{i}={0 if i == 6 else 1}" for i in range(8))
    result = subprocess.run(
        [sys.executable, "-m", "fedosov.cli", "--json", "obstruction", str(path), "--at", point],
        capture_output=True, text=True, env=os.environ, timeout=5)
    assert result.returncode == 0, result.stderr
    artifacts = json.loads(result.stdout)["artifacts"]
    assert artifacts["compatible_solution_dimension"] == 28
    assert artifacts["obstructed"] is True


def test_closed_forms_call_no_generic_solve():
    tops = [top for module in (charts, lineartype)
            for top in ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8")).body]
    closed = {"metric_obstruction", "integrability_check", "model_at_point",
              "symplectic_basis_matrix"}
    called = {top.name: {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                         for node in ast.walk(top) if isinstance(node, ast.Call)}
              for top in tops if isinstance(top, ast.FunctionDef) and top.name in closed}
    assert set(called) == closed
    for name, calls in called.items():
        assert not calls & {"nullspace", "det", "inverse", "Echelon", "lie_bracket"}, name

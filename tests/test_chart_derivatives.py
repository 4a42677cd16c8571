"""Differential tests of the chart derivative kernel and the closed-form xi.

`charts.gradient` is the only coordinate derivative in `charts`, and
`metric_obstruction` reads the linear-type vector off S in closed form.
The oracles here are the code they replaced: the hand-written partial
loops of `omega_is_closed`, `chart_curvature`, `covariant_derivative`,
`lie_bracket`, `lie_derivative_omega` and the Hamiltonian checks, the
per-entry linear-type form, and the d^3 x d `linalg.solve` that recovered
xi.  Every function that kept its summation order must agree entry by
entry in value and in printed form, so every witness stays byte-identical;
`lie_bracket` now sums through `insert_vector` and is compared by value.
The charts are the built-in examples, the chart files in `data/charts/`,
the 4D swell chart and hypothesis-drawn 4D charts.
"""

from __future__ import annotations

import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import linalg
from fedosov.charts import (
    ChartRun, chart_curvature, chart_torsion, covariant_derivative, lie_bracket,
    linear_type_structure, load_chart_file, load_example, make_chart, omega_is_closed,
    omega_tensor,
)
from fedosov.lineartype import (
    NotLinearTypeError, hamiltonian_oneform, lie_derivative_omega, linear_type_checks,
    metric_obstruction, pairing_with,
)
from fedosov.rationals import Polynomial, RationalFunction, parse_ratfun
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, insert_vector

from conftest import _zero, old_derivation_action
from test_slot_kernel import swell_chart

CHART_FILES = sorted((pathlib.Path(__file__).parent / "data" / "charts").glob("*.json"))


# -- oracles: the partial loops and the solve that were replaced ---------------------

def oracle_omega_is_closed(chart):
    w = chart.omega
    for i, j, k in itertools.combinations(range(chart.dim), 3):
        total = (w[j][k].partial(chart.coords[i])
                 + w[k][i].partial(chart.coords[j])
                 + w[i][j].partial(chart.coords[k]))
        if not total.is_zero():
            return False, (i, j, k)
    return True, None


def _gamma(chart, structure):
    d = chart.dim
    if structure is None:
        return chart.christoffel
    return [[[chart.christoffel[k][i][j] - structure[i, j, k] for j in range(d)]
             for i in range(d)] for k in range(d)]


def oracle_chart_curvature(chart, structure=None):
    gamma = _gamma(chart, structure)
    d = chart.dim
    coords = chart.coords

    def entry(i, j, k, l):
        total = (-gamma[l][j][k].partial(coords[i])
                 + gamma[l][i][k].partial(coords[j]))
        for m in range(d):
            if not gamma[m][j][k].is_zero():
                total = total - gamma[m][j][k] * gamma[l][i][m]
            if not gamma[m][i][k].is_zero():
                total = total + gamma[m][i][k] * gamma[l][j][m]
        return total

    return Tensor.build(d, (COV, COV, COV, CON), entry)


def oracle_covariant_derivative(chart, tensor, structure=None):
    gamma = _gamma(chart, structure)
    d = chart.dim
    comps = []
    for i, coord in enumerate(chart.coords):
        connection = old_derivation_action([[gamma[a][i][b] for b in range(d)]
                                            for a in range(d)], tensor)
        comps.extend(p if _zero(c) else c if p.is_zero() else c + p
                     for c, p in zip(connection.comps,
                                     (value.partial(coord) for value in tensor.comps)))
    return Tensor(d, (COV,) + tensor.valence, comps)


def oracle_lie_bracket(chart, x, y):
    coords = chart.coords

    def entry(k):
        total = chart.rf_zero()
        for i in range(chart.dim):
            if not x[(i,)].is_zero():
                total = total + x[(i,)] * y[(k,)].partial(coords[i])
            if not y[(i,)].is_zero():
                total = total - y[(i,)] * x[(k,)].partial(coords[i])
        return total

    return Tensor.build(chart.dim, (CON,), entry)


def oracle_lie_derivative_omega(chart, xi):
    coords = chart.coords
    w = chart.omega

    def entry(i, j):
        total = chart.rf_zero()
        for m in range(chart.dim):
            if not xi[(m,)].is_zero():
                total = total + xi[(m,)] * w[i][j].partial(coords[m])
            total = total + w[m][j] * xi[(m,)].partial(coords[i])
            total = total + w[i][m] * xi[(m,)].partial(coords[j])
        return total

    return Tensor.build(chart.dim, (COV, COV), entry)


def oracle_linear_type_structure(chart, xi):
    omega_xi = pairing_with(chart, xi)

    def entry(i, j, k):
        total = chart.omega[i][j] * xi[(k,)]
        if k == i:
            total = total - omega_xi[j]
        return total

    return Tensor.build(chart.dim, (COV, COV, CON), entry)


def oracle_hamiltonian(chart, xi, candidate=None):
    """(closed, witness, candidate matches) from the i < j loop."""
    d = chart.dim
    coords = chart.coords
    alpha = insert_vector(omega_tensor(chart), 0, xi.comps)
    witness = next(((i, j) for i in range(d) for j in range(i + 1, d)
                    if not (alpha[(j,)].partial(coords[i])
                            - alpha[(i,)].partial(coords[j])).is_zero()), None)
    matches = None
    if candidate is not None:
        candidate = candidate.with_variables(coords)
        matches = all((candidate.partial(coords[j]) - alpha[(j,)]).is_zero()
                      for j in range(d))
    return witness is None, witness, matches


def oracle_linear_type_vector(s_point, omega_p):
    """xi from the d^3 x d solve, for a nonzero S (the metric half of
    `metric_obstruction` reads only S, not xi)."""
    d = s_point.dim
    rows, rhs = [], []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                row = []
                for c in range(d):
                    coeff = Fraction(0)
                    if k == c:
                        coeff += omega_p[i][j]
                    if k == i:
                        coeff -= omega_p[j][c]
                    row.append(coeff)
                rows.append(row)
                rhs.append(s_point[i, j, k])
    xi = linalg.solve(rows, rhs)
    if xi is None:
        raise NotLinearTypeError("structure tensor is not of linear type")
    residual_ok = all(
        sum(r * x for r, x in zip(row, xi)) == b for row, b in zip(rows, rhs))
    if not residual_ok or all(x == 0 for x in xi):
        raise NotLinearTypeError("structure tensor is not of linear type")
    return xi


# -- comparisons ---------------------------------------------------------------------

def assert_identical(got: Tensor, want: Tensor):
    """Equal values and the same unreduced form, hence the same printed witness."""
    assert got.valence == want.valence
    assert got == want
    assert [str(c) for c in got.comps] == [str(c) for c in want.comps]


def check_chart(chart, xi, other=None, candidate=None, *, derived_fields=True):
    """All kernel users against their oracles; `derived_fields` adds nabla
    of the structure, its torsion and both curvatures to nabla of omega, xi."""
    assert omega_is_closed(chart) == oracle_omega_is_closed(chart)
    assert_identical(linear_type_structure(chart, xi), oracle_linear_type_structure(chart, xi))
    structure = linear_type_structure(chart, xi)
    fields = [omega_tensor(chart), xi]
    if derived_fields:
        fields += [structure, chart_torsion(chart, structure)]
    for shift in (None, structure):
        r = chart_curvature(chart, shift)
        assert_identical(r, oracle_chart_curvature(chart, shift))
        if derived_fields:
            fields.append(r)
    for field in fields:
        for shift in (None, structure):
            assert_identical(covariant_derivative(chart, field, shift),
                             oracle_covariant_derivative(chart, field, shift))
    assert_identical(lie_derivative_omega(chart, xi), oracle_lie_derivative_omega(chart, xi))
    if other is not None:
        assert lie_bracket(chart, xi, other) == oracle_lie_bracket(chart, xi, other)
        assert lie_bracket(chart, other, xi) == oracle_lie_bracket(chart, other, xi)
    ham = hamiltonian_oneform(chart, xi, candidate)
    assert (ham.closed, ham.closedness_witness, ham.candidate_matches) == \
        oracle_hamiltonian(chart, xi, candidate)


def coordinate_field(chart, a, scale="1"):
    return Tensor(chart.dim, (CON,), [parse_ratfun(scale if k == a else "0", chart.coords)
                                      for k in range(chart.dim)])


def order_chart():
    """A variant of the swell chart on which the order of the two products
    summed into the mirrored curvature entry R[j,i,k,l] (-q before +p) shows
    in its printed form: R[2,1,2,1] prints with a degree-11 denominator,
    and with a degree-7 one when +p comes first."""
    coords = ("x", "y", "u", "v")
    q = "(x^2 + y^2 + 1)"
    gx = parse_ratfun(f"-x/{q}", coords)
    gy = parse_ratfun(f"-y/{q}", coords)
    return make_chart(
        coords,
        {(0, 1): parse_ratfun(f"1/{q}", coords), (2, 3): parse_ratfun("1/u^2", coords)},
        {(1, 0, 1): gx, (0, 0, 1): gy, (1, 1, 1): gy,
         (0, 1, 1): parse_ratfun("1/(y + 1)", coords)},
        fields={"xi": Tensor(4, (CON,), [parse_ratfun(text, coords)
                                         for text in ("0", "1", "0", "u")])})


NAMED_CHARTS = ["example1", "example1-emended", "example2", "swell-4d",
                *(path.name for path in CHART_FILES)]


def named_chart(name):
    if name == "swell-4d":
        return swell_chart()
    if name.endswith(".json"):
        return load_chart_file(pathlib.Path(__file__).parent / "data" / "charts" / name)
    return load_example(name)


@pytest.mark.parametrize("name", NAMED_CHARTS)
def test_chart_calculus_matches_partial_loops(name):
    chart = named_chart(name)
    xi = chart.field_tensor("xi")
    other = coordinate_field(chart, 0, chart.coords[-1])
    coords = chart.coords
    for candidate in (None, parse_ratfun(f"{coords[0]}*{coords[1]}", coords)):
        check_chart(chart, xi, other, candidate)


# -- the summation order of the mirrored curvature entry ------------------------------

ORDER_WITNESS = (
    "component (1,2,1) = (x^9 + x^8*y + 4*x^7*y^2 + 3*x^6*y^3 + 6*x^5*y^4 + 3*x^4*y^5 + "
    "4*x^3*y^6 + x^2*y^7 + x*y^8 + x^8 + 3*x^6*y^2 + 3*x^4*y^4 + x^2*y^6 + 4*x^7 + 4*x^6*y + "
    "12*x^5*y^2 + 9*x^4*y^3 + 12*x^3*y^4 + 6*x^2*y^5 + 4*x*y^6 + y^7 + 4*x^6 + 9*x^4*y^2 + "
    "6*x^2*y^4 + y^6 + 6*x^5 + 6*x^4*y + 12*x^3*y^2 + 9*x^2*y^3 + 6*x*y^4 + 3*y^5 + 6*x^4 + "
    "9*x^2*y^2 + 3*y^4 + 4*x^3 + 4*x^2*y + 4*x*y^2 + 3*y^3 + 4*x^2 + 3*y^2 + x + y + "
    "1)/(x^10*y + 5*x^8*y^3 + 10*x^6*y^5 + 10*x^4*y^7 + 5*x^2*y^9 + y^11 + x^10 + 5*x^8*y^2 +"
    " 10*x^6*y^4 + 10*x^4*y^6 + 5*x^2*y^8 + y^10 + 5*x^8*y + 20*x^6*y^3 + 30*x^4*y^5 + "
    "20*x^2*y^7 + 5*y^9 + 5*x^8 + 20*x^6*y^2 + 30*x^4*y^4 + 20*x^2*y^6 + 5*y^8 + 10*x^6*y + "
    "30*x^4*y^3 + 30*x^2*y^5 + 10*y^7 + 10*x^6 + 30*x^4*y^2 + 30*x^2*y^4 + 10*y^6 + 10*x^4*y "
    "+ 20*x^2*y^3 + 10*y^5 + 10*x^4 + 20*x^2*y^2 + 10*y^4 + 5*x^2*y + 5*y^3 + 5*x^2 + 5*y^2 +"
    " y + 1)")


def test_mirrored_curvature_entry_keeps_its_summation_order():
    # R[j,i,k,l] sums -q before +p for each m; with +p first, R[2,1,2,1] and
    # so this witness print over (y + 1)(x^2 + y^2 + 1)^3, not ^5
    chart = order_chart()
    xi = chart.field_tensor("xi")
    for shift in (None, linear_type_structure(chart, xi)):
        assert_identical(chart_curvature(chart, shift), oracle_chart_curvature(chart, shift))
    checks = {check.name: check for check in linear_type_checks(ChartRun(chart, xi=xi))}
    assert checks["curvature_xi_slot_symmetry"].witness == ORDER_WITNESS


def test_hamiltonian_candidate_that_matches():
    # omega = dx^dy, xi = d/dy: alpha = omega(xi, .) = -dx = dH for H = -x.
    coords = ("x", "y")
    chart = make_chart(coords, {(0, 1): parse_ratfun("1", coords)}, {})
    xi = coordinate_field(chart, 1)
    for text, matches in (("-x", True), ("-x + 3", True), ("x", False), ("-x*y", False)):
        candidate = parse_ratfun(text, coords)
        ham = hamiltonian_oneform(chart, xi, candidate)
        assert ham.candidate_matches is matches
        assert oracle_hamiltonian(chart, xi, candidate)[2] is matches


# -- hypothesis-drawn 4D charts ------------------------------------------------------

COORDS = ("x", "y", "u", "v")
DENOMINATORS = ("1", "1", "1 + x^2", "u", "1 + y*v")


def random_entry(rng):
    """A small polynomial in x, y, u, v, over one of a few denominators."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exp = tuple(rng.choice((0, 0, 1, 2)) for _ in COORDS)
        terms[exp] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
    num = RationalFunction(Polynomial(COORDS, terms))
    return num / parse_ratfun(rng.choice(DENOMINATORS), COORDS)


@st.composite
def charts_4d(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    pairs = list(itertools.combinations(range(4), 2))
    omega = {pair: random_entry(rng) for pair in rng.sample(pairs, draw(st.integers(1, 4)))}
    gamma = {tuple(rng.randrange(4) for _ in range(3)): random_entry(rng)
             for _ in range(draw(st.integers(0, 4)))}
    chart = make_chart(COORDS, omega, gamma)
    zero = chart.rf_zero()

    def field():
        comps = [zero] * 4
        for a in rng.sample(range(4), rng.randint(1, 3)):
            comps[a] = random_entry(rng)
        return Tensor(4, (CON,), comps)

    candidate = random_entry(rng) if draw(st.booleans()) else None
    return chart, field(), field(), candidate


@settings(max_examples=25, deadline=None, derandomize=True)
@given(drawn=charts_4d())
def test_drawn_4d_charts_match_partial_loops(drawn):
    chart, xi, other, candidate = drawn
    check_chart(chart, xi, other, candidate, derived_fields=False)


@settings(max_examples=300, deadline=None)
@given(drawn=charts_4d())
def test_drawn_4d_first_derivatives_match_partial_loops(drawn):
    # The cheap first-order checks on many more charts: a summation order
    # that changes how an unreduced entry prints shows on only a few.
    chart, xi, other, candidate = drawn
    assert omega_is_closed(chart) == oracle_omega_is_closed(chart)
    assert_identical(lie_derivative_omega(chart, xi), oracle_lie_derivative_omega(chart, xi))
    assert lie_bracket(chart, xi, other) == oracle_lie_bracket(chart, xi, other)
    ham = hamiltonian_oneform(chart, xi, candidate)
    assert (ham.closed, ham.closedness_witness, ham.candidate_matches) == \
        oracle_hamiltonian(chart, xi, candidate)


# -- the closed-form xi against the solve --------------------------------------------

def linear_type_at(omega_p, xi):
    """S[i,j,k] = omega_ij xi^k - delta_ki sum_m omega_jm xi^m, entry by entry."""
    d = len(xi)
    return Tensor.build(d, (COV, COV, CON), lambda i, j, k: (
        omega_p[i][j] * xi[k]
        - (sum(omega_p[j][m] * xi[m] for m in range(d)) if k == i else 0)))


def draw_omega(rng, n, kind):
    d = 2 * n
    omega = [[Fraction(0)] * d for _ in range(d)]
    if kind == "standard":
        return [list(row) for row in SymplecticSpace(n).omega]
    if kind == "random":
        pairs = list(itertools.combinations(range(d), 2))
    elif kind == "degenerate":  # rank 2: only omega_ab and omega_ba
        pairs = [tuple(sorted(rng.sample(range(d), 2)))]
    else:
        pairs = []
    for i, j in pairs:
        omega[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        omega[j][i] = -omega[i][j]
    return omega


def draw_structure(rng, omega_p, kind):
    d = len(omega_p)
    if kind == "random":
        comps = [Fraction(0)] * d ** 3
        for flat in rng.sample(range(d ** 3), rng.randint(1, 6)):
            comps[flat] = Fraction(rng.randint(-3, 3))
        return Tensor(d, (COV, COV, CON), comps)
    xi = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
    s = linear_type_at(omega_p, xi)
    if kind == "perturbed":
        comps = list(s.comps)
        comps[rng.randrange(d ** 3)] += rng.choice((-1, 1))
        s = Tensor(d, s.valence, comps)
    return s


def check_obstruction(s_point, omega_p):
    """Same xi, or the same error; a zero S is a degenerate verdict with no xi."""
    try:
        verdict = metric_obstruction(s_point, omega_p)
    except NotLinearTypeError as err:
        verdict = err
    if s_point.is_zero():
        assert (verdict.degenerate_input, verdict.obstructed, verdict.xi) == (True, False, None)
        return
    try:
        xi = oracle_linear_type_vector(s_point, omega_p)
    except NotLinearTypeError as err:
        assert isinstance(verdict, NotLinearTypeError) and str(verdict) == str(err)
        return
    assert not isinstance(verdict, NotLinearTypeError), verdict
    assert not verdict.degenerate_input
    assert verdict.xi == xi
    assert all(type(x) is Fraction for x in verdict.xi)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2), seed=st.integers(0, 2 ** 32),
       omega_kind=st.sampled_from(("standard", "random", "degenerate", "zero")),
       s_kind=st.sampled_from(("linear", "perturbed", "random")))
def test_closed_form_xi_matches_solve(n, seed, omega_kind, s_kind):
    rng = random.Random(seed)
    omega_p = draw_omega(rng, n, omega_kind)
    check_obstruction(draw_structure(rng, omega_p, s_kind), omega_p)


@pytest.mark.parametrize("omega_kind", ("standard", "random", "degenerate", "zero"))
def test_closed_form_xi_on_fixed_draws(omega_kind):
    rng = random.Random(f"obstruction:{omega_kind}")
    for n in (1, 2):
        omega_p = draw_omega(rng, n, omega_kind)
        for s_kind in ("linear", "perturbed", "random"):
            check_obstruction(draw_structure(rng, omega_p, s_kind), omega_p)
        check_obstruction(Tensor.zeros(2 * n, (COV, COV, CON)), omega_p)


def test_zero_omega_with_nonzero_structure_is_not_linear_type():
    s_point = Tensor.zeros(2, (COV, COV, CON))
    s_point.comps[0] = Fraction(1)
    with pytest.raises(NotLinearTypeError, match="not of linear type"):
        metric_obstruction(s_point, [[Fraction(0)] * 2 for _ in range(2)])

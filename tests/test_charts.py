import random
from fractions import Fraction

import pytest

from fedosov.charts import (
    ChartFormatError,
    chart_curvature, chart_from_json, chart_to_json, chart_torsion,
    covariant_derivative, emend_chart_signs, evaluate_matrix, evaluate_tensor,
    lie_bracket, linear_type_structure, load_example, make_chart,
    model_at_point, omega_is_closed, omega_tensor, symplectic_basis_matrix,
    verify_chart_structure,
)
from fedosov.lineartype import (
    NotLinearTypeError, hamiltonian_oneform, lie_derivative_omega, metric_obstruction,
    xi_perp_field,
)
from fedosov.models import check_model_axioms, transvection_subalgebra
from fedosov.decomposition import decompose_cotorsion
from fedosov.rationals import PoleError, parse_ratfun
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, cotorsion_lower
from fedosov import charts, linalg
from conftest import chart_suite, old_matmul

ORIGIN = {"x": Fraction(1), "y": Fraction(0)}


def rf(chart, text):
    return parse_ratfun(text, chart.coords)


def flat_chart():
    """Standard constant omega, zero connection, xi = d/dy."""
    coords = ("x", "y")
    one = parse_ratfun("1", coords)
    return make_chart(coords, {(0, 1): one}, {},
                      fields={"xi": Tensor(2, (CON,),
                                           [parse_ratfun("0", coords), one])})


def test_load_examples():
    c1 = load_example(1)
    assert str(c1.christoffel[0][0][0]) == "(-4/3)/(x)"
    assert str(c1.christoffel[1][0][1]) == "(2/3)/(x)"
    assert str(c1.christoffel[1][1][0]) == "(-2/3)/(x)"
    c2 = load_example(2)
    assert str(c2.christoffel[0][0][0]) == "(-2)/(x)"
    nonzero = [(k, i, j) for k in range(2) for i in range(2) for j in range(2)
               if not c2.christoffel[k][i][j].is_zero()]
    assert nonzero == [(0, 0, 0)]
    assert c2.omega[0][1] == rf(c2, "1/x^2")
    assert c2.omega[1][0] == rf(c2, "-1/x^2")


def test_omega_pairs_load_when_both_key_orders_agree():
    # a pair given under both key orders must satisfy omega_ji = -omega_ij,
    # an explicit zero included, whichever order comes first
    coords = ("x", "y")
    w, zero = parse_ratfun("1/x^2", coords), parse_ratfun("0", coords)
    for value in (w, zero):
        for entries in ({(0, 1): value, (1, 0): -value}, {(1, 0): -value, (0, 1): value}):
            chart = make_chart(coords, entries, {})
            assert chart.omega[0][1] == value and chart.omega[1][0] == -value
    for entries in ({(0, 1): zero, (1, 0): -w}, {(1, 0): -w, (0, 1): zero},
                    {(0, 1): w, (1, 0): w}, {(1, 0): w, (0, 1): w}):
        with pytest.raises(ChartFormatError, match=r"^conflicting omega entries at \(1,2\)$"):
            make_chart(coords, entries, {})


def test_chart_structure_checks():
    for chart in (load_example(1), load_example(2), flat_chart()):
        report = verify_chart_structure(chart)
        assert report.passed


def test_degenerate_omega_carries_kernel_witness():
    coords = ("x", "y", "u", "v")
    chart = make_chart(coords, {(0, 1): parse_ratfun("1/x", coords)}, {})
    report = verify_chart_structure(chart)
    assert report.check("omega_closed").passed
    check = report.check("omega_nondegenerate")
    assert not check.passed
    assert check.witness == "omega(v, .) = 0 for v = (0, 0, 1, 0)"


def test_torsion_symmetric_connection_is_zero():
    assert chart_torsion(load_example(2)).is_zero()
    assert chart_torsion(flat_chart()).is_zero()


def test_torsion_of_printed_example1():
    t = chart_torsion(load_example(1))
    assert t[0, 1, 1] == rf(load_example(1), "4/(3*x)")
    assert not t.is_zero()


def test_flat_curvature_zero():
    assert chart_curvature(flat_chart()).is_zero()


def test_example2_tilde_curvature_values():
    chart = load_example(2)
    xi = chart.field_tensor("xi")
    s = linear_type_structure(chart, xi)
    r = chart_curvature(chart, s)
    # R(d1,d2)d1 = (2/x^2) d2 and R(d1,d2)d2 = 0
    assert r[0, 1, 0, 1] == rf(chart, "2/x^2")
    assert r[0, 1, 0, 0].is_zero()
    assert r[0, 1, 1, 0].is_zero()
    assert r[0, 1, 1, 1].is_zero()


def test_example1_emended_tilde_curvature_vanishes():
    chart = load_example("example1-emended")
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    assert chart_curvature(chart, s).is_zero()


def test_covariant_derivative_of_constant_scalar():
    chart = load_example(2)
    scalar = Tensor(2, (), [rf(chart, "7")])
    assert covariant_derivative(chart, scalar).is_zero()


def test_covariant_derivative_of_omega_example2():
    chart = load_example(2)
    assert covariant_derivative(chart, omega_tensor(chart)).is_zero()


def test_nabla_xi_equals_linear_form_example2():
    chart = load_example(2)
    xi = chart.field_tensor("xi")
    nabla = covariant_derivative(chart, xi)
    for i in range(2):
        omega_xi = sum((chart.omega[i][m] * xi[(m,)] for m in range(2)), Fraction(0))
        for k in range(2):
            assert (nabla[i, k] - omega_xi * xi[(k,)]).is_zero()


def test_emendation_is_unique_and_matches_fixture():
    # the sign search over example 1 finds exactly the shipped emended chart
    assert (chart_to_json(emend_chart_signs(load_example(1)))
            == chart_to_json(load_example("example1-emended")))


def test_emendation_fails_when_no_variant_works():
    # a connection whose sign flips can never make omega parallel
    coords = ("x", "y")
    chart = make_chart(coords, {(0, 1): parse_ratfun("1/(3*x^2)", coords)},
                       {(0, 0, 0): parse_ratfun("1/x", coords)})
    with pytest.raises(ValueError):
        emend_chart_signs(chart)


def test_verify_as_example2_passes():
    chart = load_example(2)
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    assert chart_suite(chart, s).passed


def test_verify_as_flat_chart_with_zero_structure():
    chart = flat_chart()
    zero_s = Tensor.zeros(2, (COV, COV, CON),
                          zero=chart.rf_zero())
    assert chart_suite(chart, zero_s).passed


def test_verify_as_example1_verbatim_fails_with_witnesses():
    chart = load_example(1)
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    report = chart_suite(chart, s)
    assert not report.passed
    assert not report.check("torsion_zero").passed
    assert not report.check("nabla_omega_zero").passed
    for c in report.checks:
        if not c.passed:
            assert c.witness and "component" in c.witness


def test_verify_as_example1_emended_passes():
    chart = load_example("example1-emended")
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    assert chart_suite(chart, s).passed


def test_mutated_xi_breaks_as_conditions():
    chart = load_example(2)
    wrong_xi = Tensor(2, (CON,), [chart.rf_zero(), rf(chart, "1")])  # d/dy instead of x d/dy
    s = linear_type_structure(chart, wrong_xi)
    report = chart_suite(chart, s)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and all(c.witness for c in failing)


def test_linear_type_suite_example2_passes():
    chart = load_example(2)
    assert chart_suite(chart, xi=chart.field_tensor("xi")).passed


def test_linear_type_suite_example1_emended_passes():
    chart = load_example("example1-emended")
    assert chart_suite(chart, xi=chart.field_tensor("xi")).passed


def test_linear_type_suite_accepts_supplied_transversal():
    chart = load_example(2)
    xi = chart.field_tensor("xi")
    # omega(d/dx, xi) = 1/x, so x * d/dx is a valid transversal
    perp = Tensor(2, (CON,), [rf(chart, "x"), chart.rf_zero()])
    report = chart_suite(chart, xi=xi, xi_perp=perp)
    assert report.passed


def test_linear_type_suite_rejects_unnormalized_transversal():
    chart = load_example(2)
    xi = chart.field_tensor("xi")
    bad = Tensor(2, (CON,), [rf(chart, "1"), chart.rf_zero()])  # pairing 1/x, not 1
    with pytest.raises(ValueError):
        chart_suite(chart, xi=xi, xi_perp=bad)


@pytest.mark.parametrize("texts", [["x", "0", "1"], ["x"]])
def test_linear_type_suite_rejects_transversal_of_wrong_dimension(texts):
    chart = load_example(2)
    perp = Tensor(len(texts), (CON,), [rf(chart, text) for text in texts])
    with pytest.raises(ValueError, match=f"^the transversal field must have 2 components, "
                                         f"got {len(texts)}$"):
        chart_suite(chart, xi=chart.field_tensor("xi"), xi_perp=perp)


def test_linear_type_suite_rejects_zero_xi():
    chart = flat_chart()
    zero_xi = Tensor.zeros(2, (CON,), zero=chart.rf_zero())
    with pytest.raises(ValueError):
        chart_suite(chart, xi=zero_xi)


def test_linear_type_suite_detects_scaled_omega_mismatch():
    # scale omega by 2 while keeping the same Gamma: parallelism survives but
    # the structure built from xi changes, so some check must fail
    base = load_example(2)
    chart = make_chart(base.coords,
                       {(0, 1): base.omega[0][1].__mul__(2)},
                       {(0, 0, 0): base.christoffel[0][0][0]},
                       fields=base.fields)
    report = chart_suite(chart, xi=chart.field_tensor("xi"))
    assert not report.passed


def test_linear_type_structure_zero_xi():
    chart = flat_chart()
    zero_xi = Tensor.zeros(2, (CON,), zero=chart.rf_zero())
    assert linear_type_structure(chart, zero_xi).is_zero()


def test_linear_type_structure_classifies_as_s1_pointwise():
    chart = load_example("example1-emended")
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    model, basis = model_at_point(chart, s, ORIGIN)
    lowered = cotorsion_lower(model.aux[1])
    result = decompose_cotorsion(lowered)
    assert result.type_set == {"S1"}


def test_lowered_structure_symmetric_in_function_field():
    for which in ("example1-emended", 2):
        chart = load_example(which)
        s = linear_type_structure(chart, chart.field_tensor("xi"))
        lowered = cotorsion_lower(s, omega=chart.omega)
        assert lowered.is_symmetric_in(0, 1)


def test_lie_bracket_of_coordinate_fields():
    chart = flat_chart()
    dx = Tensor(2, (CON,), [rf(chart, "1"), chart.rf_zero()])
    dy = Tensor(2, (CON,), [chart.rf_zero(), rf(chart, "1")])
    assert lie_bracket(chart, dx, dy).is_zero()


def test_lie_bracket_known_value():
    chart = flat_chart()
    x_dx = Tensor(2, (CON,), [rf(chart, "x"), chart.rf_zero()])
    dx = Tensor(2, (CON,), [rf(chart, "1"), chart.rf_zero()])
    bracket = lie_bracket(chart, dx, x_dx)  # [d/dx, x d/dx] = d/dx
    assert bracket[(0,)] == rf(chart, "1")
    assert bracket[(1,)].is_zero()


def test_flow_of_xi_preserves_omega_example2():
    chart = load_example(2)
    assert lie_derivative_omega(chart, chart.field_tensor("xi")).is_zero()


def test_xi_geodesic_example2():
    chart = load_example(2)
    xi = chart.field_tensor("xi")
    nabla = covariant_derivative(chart, xi)
    for k in range(2):
        value = sum((xi[(i,)] * nabla[i, k] for i in range(2)), Fraction(0))
        assert value == 0 or value.is_zero()


def test_xi_perp_normalization():
    chart = load_example(2)
    xi = chart.field_tensor("xi")
    perp = xi_perp_field(chart, xi)
    pairing = sum((perp[(a,)] * sum((chart.omega[a][m] * xi[(m,)]
                                     for m in range(2)), Fraction(0))
                   for a in range(2)), Fraction(0))
    assert pairing == 1


def test_hamiltonian_oneform_example1():
    chart = load_example("example1-emended")
    ham = hamiltonian_oneform(chart, chart.field_tensor("xi"))
    assert ham.oneform[(0,)] == rf(chart, "-1/(3*x)")
    assert ham.oneform[(1,)].is_zero()
    assert ham.closed


def test_hamiltonian_zero_field():
    chart = flat_chart()
    zero_xi = Tensor.zeros(2, (CON,), zero=chart.rf_zero())
    ham = hamiltonian_oneform(chart, zero_xi)
    assert ham.oneform.is_zero() and ham.closed


def test_hamiltonian_wrong_candidate_detected():
    chart = load_example("example1-emended")
    ham = hamiltonian_oneform(chart, chart.field_tensor("xi"),
                              candidate=rf(chart, "x"))
    assert ham.candidate_matches is False


def test_metric_obstruction_linear_type_n1():
    space = SymplecticSpace(1)
    xi = [Fraction(1), Fraction(0)]

    def entry(i, j, k):
        value = space.omega[i][j] * xi[k]
        value -= sum(space.omega[j][m] * xi[m] for m in range(2)) * (1 if k == i else 0)
        return value

    s = Tensor.build(2, (COV, COV, CON), entry, space=space)
    verdict = metric_obstruction(s, [list(r) for r in space.omega])
    assert verdict.obstructed
    assert verdict.xi == xi
    assert verdict.solution_dimension == 0


def test_metric_obstruction_zero_structure_degenerate():
    space = SymplecticSpace(1)
    zero = Tensor.zeros(2, (COV, COV, CON), space=space)
    verdict = metric_obstruction(zero, [list(r) for r in space.omega])
    assert not verdict.obstructed
    assert verdict.degenerate_input


def test_metric_obstruction_rejects_non_linear_type():
    space = SymplecticSpace(1)
    comps = [Fraction(0)] * 8
    comps[0] = Fraction(1)  # S(e1,e1) = e1 is not of linear type
    s = Tensor(2, (COV, COV, CON), comps, space=space)
    with pytest.raises(NotLinearTypeError):
        metric_obstruction(s, [list(r) for r in space.omega])


def test_metric_obstruction_example2_at_point():
    chart = load_example(2)
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    verdict = metric_obstruction(evaluate_tensor(s, ORIGIN),
                                 evaluate_matrix(chart.omega, ORIGIN))
    assert verdict.obstructed


def test_symplectic_basis_matrix_on_scaled_form():
    omega_p = [[Fraction(0), Fraction(1, 3)], [Fraction(-1, 3), Fraction(0)]]
    m = symplectic_basis_matrix(omega_p)
    product = old_matmul(old_matmul(linalg.transpose(m), omega_p), m)
    assert product == [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]


def test_symplectic_basis_matrix_n2_random():
    rng = random.Random(15)
    for _ in range(10):
        while True:
            entries = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
            omega_p = [[entries[i][j] - entries[j][i] for j in range(4)] for i in range(4)]
            if linalg.det(omega_p) != 0:
                break
        m = symplectic_basis_matrix(omega_p)
        product = old_matmul(old_matmul(linalg.transpose(m), omega_p), m)
        space = SymplecticSpace(2)
        assert product == [list(r) for r in space.omega]


def test_model_at_point_examples():
    c2 = load_example(2)
    s2 = linear_type_structure(c2, c2.field_tensor("xi"))
    model2, basis2 = model_at_point(c2, s2, ORIGIN)
    assert check_model_axioms(model2).passed
    assert len(transvection_subalgebra(model2)) == 1

    c1 = load_example("example1-emended")
    s1 = linear_type_structure(c1, c1.field_tensor("xi"))
    model1, basis1 = model_at_point(c1, s1, ORIGIN)
    assert check_model_axioms(model1).passed
    assert model1.curvature.is_zero()


def test_model_at_point_trivial_chart():
    chart = flat_chart()
    zero_s = Tensor.zeros(2, (COV, COV, CON), zero=chart.rf_zero())
    model, basis = model_at_point(chart, zero_s, ORIGIN)
    assert model.curvature.is_zero() and model.torsion.is_zero()
    assert check_model_axioms(model).passed


def test_model_at_point_rejects_pole():
    chart = load_example(2)
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    with pytest.raises(PoleError):
        model_at_point(chart, s, {"x": Fraction(0), "y": Fraction(0)})


def test_model_at_point_requires_full_point():
    chart = load_example(2)
    s = linear_type_structure(chart, chart.field_tensor("xi"))
    with pytest.raises(ValueError):
        model_at_point(chart, s, {"x": Fraction(1)})


def test_chart_json_round_trip():
    chart = load_example(1)
    data = chart_to_json(chart)
    again = chart_from_json(data)
    assert again.coords == chart.coords
    for i in range(2):
        for j in range(2):
            assert again.omega[i][j] == chart.omega[i][j]
            for k in range(2):
                assert again.christoffel[k][i][j] == chart.christoffel[k][i][j]
    assert again.field_tensor("xi")[(1,)] == chart.field_tensor("xi")[(1,)]


def test_chart_format_errors():
    with pytest.raises(ChartFormatError):
        chart_from_json({"coords": ["x"]})
    with pytest.raises(ChartFormatError):
        chart_from_json({"coords": ["x", "y"], "omega": {"1": "1"}})
    with pytest.raises(ChartFormatError):
        chart_from_json({"coords": ["x", "y"], "omega": {"1,2": "1/(q)"}})
    with pytest.raises(ChartFormatError):
        chart_from_json({"coords": ["x", "y"], "omega": {"1,1": "x"}})


def test_omega_closedness_detects_failure():
    # a non-closed form in dimension 4: omega(1,2) depends on the third coordinate
    coords = ("x", "y", "z", "w")
    chart = make_chart(
        coords,
        {(0, 1): parse_ratfun("z", coords), (2, 3): parse_ratfun("1", coords)},
        {})
    ok, witness = omega_is_closed(chart)
    assert not ok and witness == (0, 1, 2)


def flat_chart_4d():
    """Constant standard omega on R^4 with coordinates (q1, q2, p1, p2)."""
    coords = ("q1", "q2", "p1", "p2")
    one = parse_ratfun("1", coords)
    return make_chart(coords, {(0, 2): one, (1, 3): one}, {})


def test_flat_4d_chart_as_conditions_with_zero_structure():
    chart = flat_chart_4d()
    zero_s = Tensor.zeros(4, (COV, COV, CON), zero=chart.rf_zero())
    assert verify_chart_structure(chart).passed
    assert chart_suite(chart, zero_s).passed


def test_integrability_check_positive_4d():
    # xi = q1 d/dp1 + q2 d/dp2: the kernel of omega(., xi) is the tangent
    # distribution of the level sets of (q1^2 + q2^2)/2, hence integrable
    from fedosov.lineartype import integrability_check
    chart = flat_chart_4d()
    xi = Tensor(4, (CON,), [chart.rf_zero(), chart.rf_zero(),
                            rf(chart, "q1"), rf(chart, "q2")])
    check = integrability_check(chart, xi)
    assert check.passed


def test_integrability_check_detects_contact_distribution():
    # xi = -d/dq1 - q2 d/dp1 pairs to the contact form -q2 dq1 + dp1, whose
    # kernel is a standard non-integrable distribution
    from fedosov.lineartype import integrability_check
    chart = flat_chart_4d()
    minus_one = parse_ratfun("-1", chart.coords)
    xi = Tensor(4, (CON,), [minus_one, chart.rf_zero(),
                            rf(chart, "-q2"), chart.rf_zero()])
    check = integrability_check(chart, xi)
    assert not check.passed
    assert check.witness


def test_fedosov_chart_with_quadratic_denominators():
    # omega = dx^dy / (x^2+y^2+1) with the unique torsion-free connection of
    # the form Gamma^1_{1,.}: parallel omega and zero torsion hold exactly,
    # while the curvature is not parallel (S = 0), which must be reported
    # with a witness; exercises growth control in the rational arithmetic
    coords = ("x", "y")
    u = "(x^2 + y^2 + 1)"
    chart = make_chart(
        coords,
        {(0, 1): parse_ratfun(f"1/{u}", coords)},
        {(0, 0, 0): parse_ratfun(f"-2*x/{u}", coords),
         (0, 0, 1): parse_ratfun(f"-2*y/{u}", coords),
         (0, 1, 0): parse_ratfun(f"-2*y/{u}", coords)})
    zero_s = Tensor.zeros(2, (COV, COV, CON), zero=chart.rf_zero())
    report = chart_suite(chart, zero_s)
    assert report.check("nabla_omega_zero").passed
    assert report.check("torsion_zero").passed
    curvature_check = report.check("tilde_nabla_base_curvature_zero")
    assert not curvature_check.passed and curvature_check.witness
    # the curvature value itself: R(d1,d2)d2 has dx-component (6y^2-2x^2-2)/u^2
    r = chart_curvature(chart)
    assert r[0, 1, 1, 0] == parse_ratfun(f"(6*y^2 - 2*x^2 - 2)/({u}^2)", coords)


def test_parallel_structure_iff_parallel_xi():
    # for linear-type structures on charts whose shifted connection keeps
    # omega parallel, S is parallel exactly when xi is.  The hypothesis is
    # essential: the verbatim half-plane chart has parallel S but
    # non-parallel xi, and a Christoffel mutation gives the reverse --
    # in both cases the shifted connection fails to preserve omega.
    import copy
    from fedosov.charts import _load_fixture

    charts = [load_example(2), load_example("example1-emended"), load_example(1)]
    base = _load_fixture("example2.json")
    for section, key, value in (("christoffel", "1,1,1", "-3/x"),
                                ("omega", "1,2", "2/x^2"),
                                ("fields", None, None)):
        data = copy.deepcopy(base)
        if section == "fields":
            data["fields"]["xi"]["components"]["2"] = "x^2"
        else:
            data[section][key] = value
        charts.append(chart_from_json(data))

    equivalences_checked = 0
    for chart in charts:
        xi = chart.field_tensor("xi")
        s = linear_type_structure(chart, xi)
        if not covariant_derivative(chart, omega_tensor(chart), s).is_zero():
            continue
        s_parallel = covariant_derivative(chart, s, s).is_zero()
        xi_parallel = covariant_derivative(chart, xi, s).is_zero()
        assert s_parallel == xi_parallel
        equivalences_checked += 1
    assert equivalences_checked >= 2

    # counterexample without the hypothesis: the verbatim chart separates
    # the two conditions
    verbatim = load_example(1)
    xi = verbatim.field_tensor("xi")
    s = linear_type_structure(verbatim, xi)
    assert covariant_derivative(verbatim, s, s).is_zero()
    assert not covariant_derivative(verbatim, xi, s).is_zero()
    assert not covariant_derivative(verbatim, omega_tensor(verbatim), s).is_zero()


def test_linear_derivative_form_implies_curvature_kills_xi():
    # on every chart passing the Fedosov prechecks and the covariant
    # derivative identity for xi, the curvature must annihilate xi; scanned
    # over the worked charts and all single-component mutations
    import copy
    from fedosov.charts import _load_fixture

    charts = [load_example(2), load_example("example1-emended")]
    base = _load_fixture("example2.json")
    mutations = [
        ("christoffel", "1,1,1", "-3/x"), ("christoffel", "2,1,2", "1/x"),
        ("christoffel", "1,2,2", "x"), ("omega", "1,2", "2/x^2"),
    ]
    for section, key, value in mutations:
        data = copy.deepcopy(base)
        data[section][key] = value
        charts.append(chart_from_json(data))

    implication_checked = 0
    for chart in charts:
        xi = chart.field_tensor("xi")
        report = chart_suite(chart, xi=xi)
        prerequisites = all(report.check(name).passed for name in
                            ("nabla_omega_zero", "torsion_zero",
                             "nabla_xi_linear_form"))
        if prerequisites:
            assert report.check("curvature_kills_xi").passed
            implication_checked += 1
    assert implication_checked >= 2  # both worked charts qualify


def test_charts_keeps_the_names_the_benchmark_reads():
    # perfbench/worker.py:107-116 and perfbench/workloads.py:133,218-219 read
    # these from `fedosov.charts`.  Tier-1 collects only tests/, so without
    # this check a missing name would first show as a failed benchmark run.
    for name in ("EXAMPLE_FILES", "load_example", "load_chart_file", "linear_type_structure",
                 "chart_curvature", "covariant_derivative"):
        assert hasattr(charts, name), name

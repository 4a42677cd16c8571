"""Acceptance suite: every criterion is exact (tolerance zero).

Each test prints one `ACCEPTANCE <k>: PASS ...` line on success (visible
with `pytest -s` or in failure reports); the assertions themselves are the
gate.
"""

import copy
import itertools
import random
from fractions import Fraction
from math import comb

from fedosov import linalg
from fedosov.charts import (
    _load_fixture, chart_curvature, chart_from_json, chart_torsion,
    covariant_derivative, emend_chart_signs, evaluate_matrix, evaluate_tensor,
    linear_type_structure, load_example, model_at_point, omega_tensor, verify_chart_structure,
)
from fedosov.lineartype import metric_obstruction
from fedosov.decomposition import (
    COTORSION_LABELS, TORSION_LABELS,
    ambient_dimension, build_basis, class_predicate, closed_form_dimension,
    cotorsion_to_torsion, decompose_cotorsion, decompose_torsion,
    dimension_table, expected_dimension, submodule_dimension,
    symplectify_torsion, threeform_basis, _s1_generator, _t1_generator,
    _vectorize,
)
from fedosov.models import (
    bianchi_classify, check_model_axioms, model_stabilizer_algebra,
    nomizu_algebra, transvection_algebra, transvection_subalgebra,
)
from fedosov.symplectic import (
    COV, SymplecticSpace, Tensor, contract_s13, contract_t12,
    contract_t13, cyclic_sum,
)
from conftest import (
    chart_suite, oracle_s13, oracle_t12, random_antisymmetric_tensor, random_symmetric_tensor,
)

ORIGIN = {"x": Fraction(1), "y": Fraction(0)}


def _report(k: int, message: str):
    print(f"ACCEPTANCE {k}: PASS - {message}")


def test_criterion_1_dimension_formulas():
    closed_form_validity = {
        "S1": 1, "S2": 1, "S3": 1, "T1": 1, "T2": 1, "T3": 2, "T4": 3,
    }
    for n in range(1, 5):
        for label in ("S1", "S2", "S3", "T1", "T2", "T3", "T4"):
            computed = submodule_dimension(label, n)
            assert computed == expected_dimension(label, n)
            if n >= closed_form_validity[label]:
                assert computed == closed_form_dimension(label, n)
    # per-space sums equal the independently computed ambient dimensions
    for n in (1, 3, 4):
        assert sum(submodule_dimension(lab, n) for lab in COTORSION_LABELS) \
            == ambient_dimension("cotorsion", n) == 2 * n * comb(2 * n + 1, 2)
        assert sum(submodule_dimension(lab, n) for lab in TORSION_LABELS) \
            == ambient_dimension("torsion", n) == 2 * n * comb(2 * n, 2)
    # the n=2 discrepancy: the stated T1+T2+T4 sum misses the ambient dimension
    stated = int(closed_form_dimension("T1", 2) + closed_form_dimension("T2", 2)
                 + max(closed_form_dimension("T4", 2), 0))
    assert stated == 20 and ambient_dimension("torsion", 2) == 24
    rows = dimension_table(2)
    assert any("T1+T2+T4" in note for note in rows[1].notes)
    # exact ranks establishing which classes span at n=2

    def joint_rank(labels):
        vecs = []
        for label in labels:
            vecs.extend(_vectorize(t, "torsion") for t in build_basis(label, 2).elements)
        return linalg.rank(vecs)

    assert joint_rank(("T1", "T2", "T4")) == 20
    assert joint_rank(("T1", "T2", "T3")) == 24
    assert joint_rank(("T1", "T2", "T3", "T4")) == 24
    _report(1, "closed-form dimensions for n=1..4, ambient sums for n=1,3,4, "
               "n=2 discrepancy detected with exact ranks (20 vs 24)")


def test_criterion_2_direct_sum_and_idempotence():
    rng = random.Random(20240810)
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for _ in range(100):
            s = random_symmetric_tensor(rng, n)
            result = decompose_cotorsion(s)
            total = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
            for label in COTORSION_LABELS:
                part = result.part(label)
                total = total + part
                if not part.is_zero():
                    assert class_predicate(label, part)
                again = decompose_cotorsion(part)
                assert again.part(label) == part
                assert all(again.part(o).is_zero()
                           for o in COTORSION_LABELS if o != label)
            assert total == s

            t = random_antisymmetric_tensor(rng, n)
            result = decompose_torsion(t)
            total = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
            for label in TORSION_LABELS:
                part = result.part(label)
                total = total + part
                if not part.is_zero():
                    assert class_predicate(label, part)
                again = decompose_torsion(part)
                assert again.part(label) == part
                assert all(again.part(o).is_zero()
                           for o in TORSION_LABELS if o != label)
            assert total == t
    _report(2, "100 pseudorandom tensors per space per n in {1,2,3}: exact "
               "reassembly, class predicates, idempotence")


def test_criterion_3_contraction_closed_forms():
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for u in range(space.dim):
            s = _s1_generator(space, u)
            got = contract_s13(s)
            assert got == oracle_s13(s)
            assert got == [(2 * n + 1) * space.omega[u][z] for z in range(space.dim)]
            t = _t1_generator(space, u)
            got = contract_t12(t)
            assert got == oracle_t12(t)
            assert got == [(2 * n + 1) * space.omega[z][u] for z in range(space.dim)]
    _report(3, "s13 on S1 generators = (2n+1) omega(U,.), t12 on T1 generators "
               "= (2n+1) omega(.,U), exhaustive over basis U for n=1,2,3, "
               "against brute-force summation")


def test_criterion_4_class_mapping_and_symplectification():
    for n in (1, 2, 3):
        for element in build_basis("S1", n).elements:
            assert decompose_torsion(cotorsion_to_torsion(element)).type_set == {"T1"}
        for element in build_basis("S2", n).elements:
            assert decompose_torsion(cotorsion_to_torsion(element)).type_set == {"T2"}
        for element in build_basis("S3", n).elements:
            assert cotorsion_to_torsion(element).is_zero()

    rng = random.Random(42)
    n = 2
    space = SymplecticSpace(n)
    elements = (list(build_basis("T1", n).elements)
                + list(build_basis("T2", n).elements))
    for _ in range(100):
        t = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
        for e in elements:
            c = Fraction(rng.randint(-9, 9))
            if c:
                t = t + e.scale(c)
        s = symplectify_torsion(t)
        assert s.is_symmetric_in(0, 1)
        assert cotorsion_to_torsion(s.scale(-1)) == t
    _report(4, "antisymmetrization maps S1->T1, S2->T2, S3->0 exhaustively for "
               "n=1,2,3; symplectification round trip exact on 100 pseudorandom "
               "T1+T2 elements at n=2")


def test_criterion_5_subspace_sum_identities():
    from fedosov.decomposition import _coordinates, _tensor_from_vec

    for n in (2, 3):
        dim = 2 * n
        space = SymplecticSpace(n)
        coords = _coordinates(dim, "torsion")

        def span_vecs(labels):
            vecs = []
            for label in labels:
                vecs.extend(_vectorize(t, "torsion")
                            for t in build_basis(label, n).elements)
            return vecs

        def kernel_vecs(condition):
            rows = []
            for pos in range(len(coords)):
                vec = [Fraction(0)] * len(coords)
                vec[pos] = Fraction(1)
                tensor = _tensor_from_vec(vec, "torsion", space)
                rows.append(condition(tensor))
            return linalg.nullspace(linalg.transpose(rows), ncols=len(coords))

        def spans_equal(a, b):
            ra, rb = linalg.rank(a), linalg.rank(b)
            return ra == rb == linalg.rank(a + b)

        assert spans_equal(span_vecs(("T1", "T2")),
                           kernel_vecs(lambda t: list(cyclic_sum(t).comps)))
        assert spans_equal(span_vecs(("T2", "T4", "W")),
                           kernel_vecs(contract_t12))
        assert spans_equal(span_vecs(("T3", "T4")),
                           [_vectorize(t, "torsion") for t in threeform_basis(n)])
        assert spans_equal(span_vecs(("T2", "T4")),
                           kernel_vecs(lambda t: contract_t12(t) + contract_t13(t)))
    _report(5, "all four subspace-sum identities hold as exact span equalities "
               "for n=2,3")


def test_criterion_6_example2_end_to_end():
    chart = load_example(2)
    xi = chart.field_tensor("xi")
    structure = linear_type_structure(chart, xi)

    assert verify_chart_structure(chart).passed
    assert chart_suite(chart, structure).passed
    assert chart_suite(chart, xi=xi).passed

    # curvature values of the shifted connection: R(xi,eta)eta = -2 xi and
    # R(xi,eta)xi = 0 with eta = x d/dx + y d/dy
    from fedosov.rationals import parse_ratfun
    r = chart_curvature(chart, structure)
    eta = [parse_ratfun("x", chart.coords), parse_ratfun("y", chart.coords)]
    xiv = [xi[(0,)], xi[(1,)]]

    def r_pair_on(zvec):
        out = []
        for l in range(2):
            total = chart.rf_zero()
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        total = total + xiv[i] * eta[j] * zvec[k] * r[i, j, k, l]
            out.append(total)
        return out

    on_eta = r_pair_on(eta)
    assert all((a + 2 * b).is_zero() for a, b in zip(on_eta, xiv))
    assert all(v.is_zero() for v in r_pair_on(xiv))

    verdict = metric_obstruction(evaluate_tensor(structure, ORIGIN),
                                 evaluate_matrix(chart.omega, ORIGIN))
    assert verdict.obstructed

    model, _ = model_at_point(chart, structure, ORIGIN)
    algebra = transvection_algebra(model)
    assert algebra.dim == 3
    result = bianchi_classify(algebra)
    assert result.tag == "VI"
    assert result.parameters == frozenset((Fraction(2), Fraction(1, 2)))
    _report(6, "worked half-plane chart: full suite passes, curvature values "
               "reproduced, metric obstruction at (1,0), Bianchi VI with "
               "parameter set {2, 1/2}")


def test_criterion_7_example1_end_to_end():
    verbatim = load_example(1)
    xi = verbatim.field_tensor("xi")
    structure = linear_type_structure(verbatim, xi)
    verbatim_report = chart_suite(verbatim, structure)
    assert not verbatim_report.passed
    failed = {c.name: c for c in verbatim_report.checks if not c.passed}
    assert "torsion_zero" in failed and "nabla_omega_zero" in failed
    for check in failed.values():
        assert check.witness and "component" in check.witness

    # the sign search over the 8 candidates finds exactly one repair
    emended = emend_chart_signs(verbatim)
    entries = [(k, i, j) for k in range(2) for i in range(2) for j in range(2)
               if not verbatim.christoffel[k][i][j].is_zero()]
    winners = 0
    for signs in itertools.product((1, -1), repeat=len(entries)):
        from fedosov.charts import make_chart
        candidate = make_chart(
            verbatim.coords,
            {(0, 1): verbatim.omega[0][1]},
            {(k, i, j): (verbatim.christoffel[k][i][j] if s == 1
                         else -verbatim.christoffel[k][i][j])
             for (k, i, j), s in zip(entries, signs)},
            fields=verbatim.fields)
        if chart_torsion(candidate).is_zero() and \
                covariant_derivative(candidate, omega_tensor(candidate)).is_zero():
            winners += 1
    assert winners == 1

    xi_e = emended.field_tensor("xi")
    structure_e = linear_type_structure(emended, xi_e)
    assert chart_torsion(emended).is_zero()
    assert covariant_derivative(emended, omega_tensor(emended)).is_zero()
    assert chart_suite(emended, structure_e).passed
    assert chart_suite(emended, xi=xi_e).passed
    assert chart_curvature(emended, structure_e).is_zero()
    _report(7, "emended chart (unique among 8 sign patterns) passes T=0, "
               "parallel omega, the full suite, and has flat shifted "
               "curvature; verbatim failures reported with components")


def test_criterion_8_model_pipeline():
    for which in ("example1-emended", 2):
        chart = load_example(which)
        xi = chart.field_tensor("xi")
        structure = linear_type_structure(chart, xi)
        model, _ = model_at_point(chart, structure, ORIGIN)
        assert check_model_axioms(model).passed
        algebra = nomizu_algebra(model)  # construction verifies Jacobi exactly
        assert algebra.first_jacobi_failure() is None

    chart2 = load_example(2)
    structure2 = linear_type_structure(chart2, chart2.field_tensor("xi"))
    model2, _ = model_at_point(chart2, structure2, ORIGIN)
    h0p = transvection_subalgebra(model2)
    assert len(h0p) == 1
    h0 = model_stabilizer_algebra(model2)
    h0_rows = [[x for row in e for x in row] for e in h0]
    flat = [x for row in h0p[0] for x in row]
    assert linalg.rank(h0_rows) == linalg.rank(h0_rows + [flat])
    _report(8, "models at (1,0) for both charts pass all axioms, Nomizu "
               "Jacobi verified, transvection isotropy of the second chart "
               "is 1-dimensional inside the stabilizer")


MUTATIONS = [
    ("christoffel[1,1,1] = -3/x", lambda d: d["christoffel"].__setitem__("1,1,1", "-3/x")),
    ("christoffel[1,1,1] = 2/x", lambda d: d["christoffel"].__setitem__("1,1,1", "2/x")),
    ("christoffel[2,1,2] = 1/x", lambda d: d["christoffel"].__setitem__("2,1,2", "1/x")),
    ("christoffel[2,2,1] = -1/x", lambda d: d["christoffel"].__setitem__("2,2,1", "-1/x")),
    ("christoffel[1,2,2] = x", lambda d: d["christoffel"].__setitem__("1,2,2", "x")),
    ("omega[1,2] = 2/x^2", lambda d: d["omega"].__setitem__("1,2", "2/x^2")),
    ("omega[1,2] = 1/x^3", lambda d: d["omega"].__setitem__("1,2", "1/x^3")),
    ("xi[2] = x^2", lambda d: d["fields"]["xi"]["components"].__setitem__("2", "x^2")),
    ("xi[1] = 1", lambda d: d["fields"]["xi"]["components"].__setitem__("1", "1")),
    ("christoffel[1,1,1] = -2/x^2", lambda d: d["christoffel"].__setitem__("1,1,1", "-2/x^2")),
]


def test_criterion_9_mutation_sensitivity():
    base = _load_fixture("example2.json")
    for name, mutate in MUTATIONS:
        data = copy.deepcopy(base)
        mutate(data)
        chart = chart_from_json(data)
        xi = chart.field_tensor("xi")
        structure = linear_type_structure(chart, xi)
        failures = []
        for report in (verify_chart_structure(chart),
                       chart_suite(chart, structure),
                       chart_suite(chart, xi=xi)):
            failures.extend(c for c in report.checks if not c.passed)
        assert failures, f"mutation {name} was not detected"
        assert all(c.witness for c in failures), \
            f"mutation {name} produced a failure without a witness"
    _report(9, "all 10 single-component mutations of the worked chart are "
               "detected by named checks with concrete witnesses")

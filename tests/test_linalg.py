import ast
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import linalg, models, rationals
from fedosov.charts import chart_from_json, model_at_point
from fedosov.decomposition import (
    cotorsion_to_torsion, decompose_cotorsion, decompose_torsion, symplectify_torsion,
)
from fedosov.models import (
    InfinitesimalModel, bianchi_classify, check_model_axioms, model_from_json,
    model_stabilizer_algebra, nomizu_algebra, presentation_from_json, presentation_to_json,
    push_tensor, transvection_algebra, transvection_subalgebra, trivial_model,
    verify_model_isomorphism,
)
from fedosov.rationals import RationalFunction, parse_ratfun
from fedosov.symplectic import cyclic_sum
from conftest import (
    PRODUCT_CHART, OldEchelon, _zero, old_matmul, old_rref, random_antisymmetric_tensor,
    random_rational_function, random_symmetric_tensor, random_symplectic_matrix, rref_solve,
    sympy_solve_columns, work_counts,
)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_identity():
    m = frac_matrix([[1, 0], [0, 1]])
    reduced, pivots = linalg.rref(m)
    assert reduced == m and pivots == [0, 1]


def test_rank_and_nullspace():
    m = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(m) == 2
    basis = linalg.nullspace(m)
    assert len(basis) == 1
    for row in m:
        assert sum(a * b for a, b in zip(row, basis[0])) == 0


def test_nullspace_of_empty_conditions():
    basis = linalg.nullspace([], ncols=3)
    assert len(basis) == 3


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if linalg.det(m) == 0:
            continue
        inv = linalg.inverse(m)
        assert old_matmul(m, inv) == [[Fraction(1) if i == j else Fraction(0)
                                       for j in range(n)] for i in range(n)]


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        linalg.inverse(frac_matrix([[1, 1], [1, 1]]))


def test_det_known_values():
    assert linalg.det(frac_matrix([[2, 0], [0, 3]])) == 6
    assert linalg.det(frac_matrix([[0, 1], [1, 0]])) == -1
    assert linalg.det(frac_matrix([[1, 2], [2, 4]])) == 0


def test_det_of_symmetric_parameter_matrices_matches_sympy():
    # the metric obstruction decides whether such a determinant vanishes
    import sympy

    from fedosov.rationals import Polynomial, RationalFunction

    params = ("t1", "t2", "t3")
    symbols = sympy.symbols(params)
    rng = random.Random(31)
    for trial in range(12):
        n = rng.randint(2, 4)
        coeffs = {}
        for i in range(n):
            for j in range(i, n):
                coeffs[i, j] = coeffs[j, i] = [rng.randint(-2, 2) if rng.random() < 0.6 else 0
                                               for _ in params]
        if trial % 4 == 0:  # a repeated row: the determinant is the zero polynomial
            for j in range(n):
                coeffs[1, j] = coeffs[j, 1] = coeffs[0, j]
        ours = linalg.det([[RationalFunction(Polynomial(params, {
            tuple(int(r == s) for s in range(3)): Fraction(c)
            for r, c in enumerate(coeffs[i, j])})) for j in range(n)] for i in range(n)])
        expected = sympy.Matrix(n, n, lambda i, j: sum(
            c * x for c, x in zip(coeffs[i, j], symbols))).det()
        ours_sym = (sympy.sympify(str(ours.num).replace("^", "**"))
                    / sympy.sympify(str(ours.den).replace("^", "**")))
        assert sympy.cancel(ours_sym - expected) == 0
        assert ours.is_zero() == (sympy.expand(expected) == 0)


def test_det_matches_permutation_expansion():
    rng = random.Random(9)
    import itertools
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        expected = Fraction(0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            for s in range(n):
                if seen[s]:
                    continue
                length, pos = 0, s
                while not seen[pos]:
                    seen[pos] = True
                    pos = perm[pos]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            term = Fraction(sign)
            for i in range(n):
                term *= m[i][perm[i]]
            expected += term
        assert linalg.det(m) == expected


def test_generic_field_elimination_with_rational_functions():
    x = parse_ratfun("x", ("x",))
    one = parse_ratfun("1", ("x",))
    m = [[x, one], [one, x]]
    d = linalg.det(m)
    assert d == parse_ratfun("x^2 - 1", ("x",))
    inv = linalg.inverse(m)
    prod = old_matmul(m, inv)
    assert prod[0][0] == 1 and prod[1][1] == 1
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def test_rank_over_function_field():
    rng = random.Random(4)
    f = random_rational_function(rng)
    g = random_rational_function(rng)
    while g.is_zero():
        g = random_rational_function(rng)
    # second row is a function-field multiple of the first
    row1 = [g, g * f]
    row2 = [g * g, g * g * f]
    assert linalg.rank([row1, row2]) == 1


# -- incremental echelon ---------------------------------------------------------------

SMALL = st.integers(min_value=-3, max_value=3).map(Fraction)


@st.composite
def vector_sequences(draw):
    """Small-integer vectors mixed with zeros, repeats, multiples and sums of earlier ones."""
    dim = draw(st.integers(min_value=1, max_value=5))
    vecs = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(("fresh", "zero", "repeat", "multiple", "sum")
                                    if vecs else ("fresh", "zero")))
        if kind == "fresh":
            vec = draw(st.lists(SMALL, min_size=dim, max_size=dim))
        elif kind == "zero":
            vec = [Fraction(0)] * dim
        elif kind == "repeat":
            vec = list(draw(st.sampled_from(vecs)))
        elif kind == "multiple":
            scale = draw(st.sampled_from((Fraction(-2), Fraction(1, 2), Fraction(3, 5))))
            vec = [scale * x for x in draw(st.sampled_from(vecs))]
        else:
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            vec = [x + y for x, y in zip(a, b)]
        vecs.append(vec)
    return vecs


@settings(max_examples=200, deadline=None)
@given(vecs=vector_sequences())
def test_echelon_agrees_with_rank(vecs):
    echelon = linalg.Echelon()
    kept = []
    for vec in vecs:
        grows = linalg.rank(kept + [vec]) > linalg.rank(kept)
        assert (vec in echelon) is not grows
        added = echelon.add(vec)
        assert added is grows
        if added:
            kept.append(vec)
        assert vec in echelon
    greedy = []
    for vec in vecs:
        if linalg.rank(greedy + [vec]) > len(greedy):
            greedy.append(vec)
    assert kept == greedy


def _coords_by_solve(rows, vec):
    """Coordinates over independent rows by one fresh sympy solve per vector."""
    if not rows:
        return None if any(v != 0 for v in vec) else []
    try:
        return sympy_solve_columns(rows, vec)
    except ValueError:  # sympy's NonInvertibleMatrixError: vec is outside the span
        return None


@settings(max_examples=200, deadline=None)
@given(vecs=vector_sequences(), probe=st.lists(SMALL, min_size=5, max_size=5))
def test_coordinates_agree_with_solve(vecs, probe):
    echelon = linalg.Echelon()
    basis = [vec for vec in vecs if echelon.add(vec)]
    coords = linalg.Coordinates(basis)
    dim = len(vecs[0]) if vecs else 3
    for vec in [*vecs, probe[:dim], [Fraction(0)] * dim]:
        expected = _coords_by_solve(basis, vec)
        assert coords(vec) == expected
        if expected is not None:
            assert all(isinstance(x, Fraction) for x in coords(vec))


# -- the integer elimination kernel against the field loops it replaced ---------------

HUGE = 2 ** (rationals.MAX_SCALE_BITS + 3) + 1  # one such denominator passes MAX_SCALE_BITS


def drawn_entry(rng, kind):
    if rng.random() < 0.4:
        return 0 if kind == "int" else Fraction(0)
    n = rng.randint(-6, 6)
    return n if kind == "int" else Fraction(n, rng.randint(1, 6))


def drawn_matrix(rng, kind, rows=None, cols=None):
    """Seeded matrix of `kind` int, frac or huge (int or frac entries and one
    denominator above MAX_SCALE_BITS): sparse, often rank-deficient (a
    product through fewer columns), with zero, duplicate and negated rows."""
    rows = rng.randint(0, 8) if rows is None else rows
    cols = rng.randint(0, 10) if cols is None else cols
    base = rng.choice(("int", "frac")) if kind == "huge" else kind
    if rows and cols and rng.random() < 0.4:
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[drawn_entry(rng, base) for _ in range(k)] for _ in range(rows)]
        right = [[drawn_entry(rng, base) for _ in range(cols)] for _ in range(k)]
        m = [[sum((left[i][t] * right[t][j] for t in range(k)), 0 if base == "int" else
                  Fraction(0)) for j in range(cols)] for i in range(rows)]
    else:
        m = [[drawn_entry(rng, base) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 2) if rows > 1 else 0):
        i, j = rng.sample(range(rows), 2)
        m[i] = rng.choice((list(m[j]), [-x for x in m[j]], [x * 0 for x in m[j]]))
    if kind == "huge" and rows and cols:
        m[rng.randrange(rows)][rng.randrange(cols)] = Fraction(rng.choice((-5, 3, 7)), HUGE)
    return m


def as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def assert_fractions(rows):
    assert all(type(c) is Fraction for row in rows for c in row)


def drawn_matrices(seed, count=60):
    rng = random.Random(seed)
    for t in range(count):
        yield drawn_matrix(rng, ("int", "frac", "huge")[t % 3])


def with_old_rref(fn, *args, **kwargs):
    """`fn` run with `linalg.rref` swapped for the field-loop oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "rref", old_rref)
        return fn(*args, **kwargs)


@pytest.mark.parametrize("seed", range(4))
def test_rref_matches_the_field_loops(seed, scale_bound):
    for m in drawn_matrices(seed):
        reduced, pivots = linalg.rref(m)
        assert (reduced, pivots) == old_rref(as_fractions(m))
        assert_fractions(reduced)
        assert linalg.rank(m) == len(pivots)


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_and_solve_match_the_field_loops(seed, scale_bound):
    rng = random.Random(100 + seed)
    for m in drawn_matrices(seed):
        ncols = len(m[0]) if m else rng.randint(0, 10)
        basis = linalg.nullspace(m, ncols=ncols)
        assert basis == with_old_rref(linalg.nullspace, as_fractions(m), ncols=ncols)
        assert_fractions(basis)
        if not m:
            continue
        # a consistent right-hand side, then an arbitrary one
        x = [drawn_entry(rng, "frac") for _ in range(ncols)]
        for rhs in ([sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m],
                    [drawn_entry(rng, "int") for _ in m]):
            solution = rref_solve(m, rhs)
            assert solution == with_old_rref(rref_solve, as_fractions(m),
                                             [Fraction(v) for v in rhs])
            if solution is not None:
                assert_fractions([solution])


@pytest.mark.parametrize("seed", range(4))
def test_inverse_matches_the_field_loops(seed, scale_bound):
    rng = random.Random(200 + seed)
    for t in range(60):
        n = rng.randint(0, 7)
        m = drawn_matrix(rng, ("int", "frac", "huge")[t % 3], n, n)
        try:
            expected = with_old_rref(linalg.inverse, as_fractions(m))
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                linalg.inverse(m)
            continue
        inv = linalg.inverse(m)
        assert inv == expected
        assert_fractions(inv)


@pytest.mark.parametrize("seed", range(4))
def test_coordinates_match_the_field_loops(seed, scale_bound):
    rng = random.Random(300 + seed)
    for m in drawn_matrices(seed, 40):
        span = OldEchelon()
        basis = [row for row in as_fractions(m) if span.add(row)]
        if not basis:
            continue
        coords = linalg.Coordinates(basis)
        expected = with_old_rref(linalg.Coordinates, basis)
        weights = [drawn_entry(rng, "frac") for _ in basis]
        inside = [sum((w * b[j] for w, b in zip(weights, basis)), Fraction(0))
                  for j in range(len(basis[0]))]
        outside = [drawn_entry(rng, "frac") for _ in basis[0]]
        for vec in (*basis, inside, outside):
            assert coords(vec) == expected(vec)
            assert (coords(vec) is None) is (vec not in span)
            if coords(vec) is not None:
                assert_fractions([coords(vec)])


def drawn_vector(rng, kind, dim):
    if kind == "ratfun":
        return [random_rational_function(rng) if rng.random() < 0.6 else
                RationalFunction.constant(0, ("x", "y")) for _ in range(dim)]
    vec = [drawn_entry(rng, "int" if kind == "int" else "frac") for _ in range(dim)]
    if kind == "huge":
        vec[rng.randrange(dim)] = Fraction(rng.choice((-5, 3, 7)), HUGE)
    return vec


@pytest.mark.parametrize("kinds", [("int",), ("frac",), ("int", "frac", "huge"),
                                   ("int", "frac", "huge", "ratfun")], ids="-".join)
@pytest.mark.parametrize("seed", range(3))
def test_echelon_matches_the_field_loops(kinds, seed, scale_bound):
    """Greedy bases and span tests equal the field loops' over every mix of
    vector kinds: repeats, multiples and sums of earlier vectors included."""
    rng = random.Random(500 + seed)
    small = "ratfun" in kinds  # elimination over Q(x, y) swells without a gcd
    for _ in range(25):
        dim = rng.randint(1, 4 if small else 7)
        echelon, oracle = linalg.Echelon(), OldEchelon()
        vecs = []
        for _ in range(rng.randint(0, 6 if small else 12)):
            choice = rng.random()
            if vecs and choice < 0.3:
                scale = rng.choice((-2, 3, Fraction(-1, 3)))
                vec = [x * scale for x in rng.choice(vecs)]
            elif len(vecs) > 1 and choice < 0.5:
                u, v = rng.sample(vecs, 2)
                vec = [x + y * rng.randint(-2, 2) for x, y in zip(u, v)]
            else:
                vec = drawn_vector(rng, rng.choice(kinds), dim)
            vecs.append(vec)
            exact = [Fraction(x) if type(x) is int else x for x in vec]
            probe = drawn_vector(rng, rng.choice(kinds), dim)
            probe_exact = [Fraction(x) if type(x) is int else x for x in probe]
            assert (probe in echelon) is (probe_exact in oracle)
            assert (vec in echelon) is (exact in oracle)
            assert echelon.add(vec) is oracle.add(exact)
            assert vec in echelon


def test_rational_function_input_takes_the_field_loops():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        m = [drawn_vector(rng, "ratfun", cols) for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            m[1] = [x * m[0][0] for x in m[0]]
        reduced, pivots = linalg.rref(m)
        assert (reduced, pivots) == old_rref(m)
        assert all(type(c) is RationalFunction for row in reduced[:len(pivots)] for c in row)


def shuffled_pivot_matrix(rng, kinds):
    """Rows with leading columns in random order, each of a kind drawn from
    `kinds`, with sums of multiples of earlier rows mixed in.  The forward
    pass keeps the leading columns as its pivots, out of column order, and
    drops the dependent rows."""
    small = "ratfun" in kinds
    cols = rng.randint(2, 4 if small else 8)
    leads = rng.sample(range(cols), rng.randint(1, min(cols, 3 if small else 6)))
    rows = []
    for lead in leads:
        kind = rng.choice(kinds)
        row = drawn_vector(rng, kind, cols)
        while _zero(row[lead]):
            row[lead] = drawn_vector(rng, kind, 1)[0]
        rows.append([x * 0 for x in row[:lead]] + row[lead:])
        if rng.random() < 0.5:
            u, v = rng.choice(rows), rng.choice(rows)
            a, b = rng.choice((-2, 1, 3)), rng.choice((-1, 2))
            rows.append([x * a + y * b for x, y in zip(u, v)])
    return rows, leads


@pytest.mark.parametrize("kinds", [("int",), ("int", "frac", "huge"), ("ratfun",)],
                         ids="-".join)
@pytest.mark.parametrize("seed", range(2))
def test_back_pass_matches_the_field_loops(kinds, seed, scale_bound):
    """Integer and field rows mix in both passes; `rref` still equals the field
    loops' reduced form, with its trailing zero rows."""
    rng = random.Random(600 + seed)
    for _ in range(12 if "ratfun" in kinds else 60):
        m, leads = shuffled_pivot_matrix(rng, kinds)
        forward = linalg.Echelon()
        for row in m:
            forward.add(row)
        assert [pivot for pivot, _, _ in forward._rows] == leads
        reduced, pivots = linalg.rref(m)
        assert pivots == sorted(leads) and linalg.rank(m) == len(leads)
        if "ratfun" in kinds:
            assert (reduced, pivots) == old_rref(m)
            assert all(type(c) is RationalFunction for row in reduced[:len(pivots)] for c in row)
        else:
            assert (reduced, pivots) == old_rref(as_fractions(m))
            assert_fractions(reduced)


def module_calls(module) -> dict[str, list[str]]:
    """{function: the names it calls, once per call site} for each top-level
    function and method of `module`, read off its source."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions.update((f"{node.name}.{func.name}", func) for func in node.body
                             if isinstance(func, ast.FunctionDef))
    return {name: [getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                   for node in ast.walk(func) if isinstance(node, ast.Call)]
            for name, func in functions.items()}


def test_one_fraction_free_elimination():
    """`Echelon` is the only code in `linalg` that eliminates with gcds."""
    assert {name for name, calls in module_calls(linalg).items()
            if "gcd" in calls} == {"Echelon._reduce", "Echelon.add"}


def test_each_lie_basis_element_is_scaled_once():
    """In `models`, `_scaled_ints` scales each model tensor (`_scaled`), each
    stabilizer element (`_stabilizer`) and a presentation's constants
    (`first_jacobi_failure`), one call site each; a Lie basis element keeps
    that int form up to `_algebra_from_parts`, and the closure's elements
    are never made `Fraction`s on the way there."""
    calls = module_calls(models)
    assert sorted(name for name, called in calls.items() for callee in called
                  if callee == "_scaled_ints") == [
        "LieAlgebraPresentation.first_jacobi_failure", "_scaled", "_stabilizer"]
    assert "_endo_ints" not in calls
    for name in ("_stabilizer", "_closure", "_annihilates", "nomizu_algebra",
                 "transvection_algebra"):
        assert not {"Fraction", "divided", "_fractions", "model_stabilizer_algebra",
                    "transvection_subalgebra"} & set(calls[name]), name
    assert "_stabilizer" in calls["nomizu_algebra"]
    assert "_closure" in calls["transvection_algebra"]


def test_each_model_tensor_is_scaled_once_per_entry_point(monkeypatch):
    """Each public entry point of `models` scales each model tensor it reads
    to ints once (`_scaled`) and hands the scaled form on: at the parent
    commit `transvection_algebra` scaled the curvature three times and the
    torsion twice, and `nomizu_algebra` each of them twice."""
    model = product_model()
    tensors = [model.curvature, model.torsion, *model.aux]
    scaled = []
    kernel = models._scaled

    def counted(t):
        scaled.append(t)
        return kernel(t)

    monkeypatch.setattr(models, "_scaled", counted)
    every = [1] * len(tensors)
    unit = [[Fraction(int(i == j)) for j in range(model.space.dim)]
            for i in range(model.space.dim)]
    for entry, expected in (
            (check_model_axioms, every), (model_stabilizer_algebra, every),
            (nomizu_algebra, every), (transvection_algebra, every),
            (transvection_subalgebra, [1] + [0] * (len(tensors) - 1)),
            (lambda m: verify_model_isomorphism(unit, m, m), every)):
        scaled.clear()
        entry(model)
        assert [sum(s is t for s in scaled) for t in tensors] == expected, entry
        assert len(scaled) == sum(expected), entry


FRACTION_CODES = {Fraction.__new__.__code__: "Fraction.__new__",
                  Fraction._mul.__code__: "Fraction._mul",
                  Fraction._div.__code__: "Fraction._div"}
# `product_pipeline`, before the integer elimination kernel, and all Python
# calls before a zero polynomial or rational function was falsy
ELIMINATION_PARENT = {"Fraction.__new__": 5382, "Fraction._mul": 1356, "Fraction._div": 608,
                      "Python calls": 17442}
ELIMINATION_BOUNDS = {"Fraction.__new__": 1253, "Fraction._mul": 364, "Fraction._div": 8,
                      "Python calls": 16148}
# `check-model` and `transvection` on one product-chart model, before the
# model kernels read their data as ints over one denominator
MODEL_PARENT = {"Fraction.__new__": 466, "Fraction._mul": 52, "Fraction._div": 0}
MODEL_BOUNDS = {"Fraction.__new__": 21, "Fraction._mul": 0, "Fraction._div": 0}
# `nomizu` and `transvection` on one product-chart model and `bianchi` on the
# 3-dimensional Nomizu algebra of the second fixture model, before the
# algebra kernels read their brackets off sparse ints
ALGEBRA_PARENT = {"Fraction.__new__": 408, "Fraction._mul": 46, "Fraction._div": 5}
ALGEBRA_BOUNDS = {"Fraction.__new__": 99, "Fraction._mul": 13, "Fraction._div": 5}
# `decompose_cotorsion`, `decompose_torsion` and `symplectify_torsion` on one
# seeded n = 4 triple, before `rationals.divided` formed each distinct value once
CLASSES_PARENT = {"Fraction.__new__": 2618, "Fraction._mul": 0, "Fraction._div": 0}
CLASSES_BOUNDS = {"Fraction.__new__": 381, "Fraction._mul": 0, "Fraction._div": 0}
# `nomizu_algebra(trivial_model(3))` written to JSON and read back, before the
# presentation kept only its nonzero constants, and all Python calls
PRESENTATION_CODES = {Fraction.__bool__.__code__: "Fraction.__bool__",
                      Fraction.__new__.__code__: "Fraction.__new__"}
PRESENTATION_PARENT = {"Fraction.__bool__": 46395, "Fraction.__new__": 4180,
                       "Python calls": 86869}
PRESENTATION_BOUNDS = {"Fraction.__bool__": 3042, "Fraction.__new__": 428,
                       "Python calls": 14373}

# `nomizu_algebra(trivial_model(4))` and `transvection_algebra` on one
# product-chart model, while each Lie basis element was scaled to ints three
# times (a `Fraction` matrix rescaled by `_annihilates`, `Coordinates` and
# `_endo_ints`), and all Python calls
BASIS_CODES = {**FRACTION_CODES, Fraction.denominator.fget.__code__: "Fraction.denominator"}
BASIS_PARENT = {"Fraction.__new__": 516, "Fraction._mul": 0, "Fraction._div": 0,
                "Fraction.denominator": 21008, "Python calls": 51016}
BASIS_BOUNDS = {"Fraction.__new__": 513, "Fraction._mul": 0, "Fraction._div": 0,
                "Fraction.denominator": 9204, "Python calls": 28032}


def product_model() -> InfinitesimalModel:
    chart = chart_from_json(PRODUCT_CHART)
    point = {"x": Fraction(2), "y": Fraction(-1, 3), "u": Fraction(5, 7), "v": Fraction(3)}
    return model_at_point(chart, chart.field_tensor("S"), point)[0]


def product_pipeline():
    """One product-chart model and the calls of its `chart-to-model` steps."""
    model = product_model()
    nomizu_algebra(model)
    transvection_subalgebra(model)
    f = random_symplectic_matrix(random.Random(1), model.space)
    pushed = InfinitesimalModel(space=model.space, curvature=push_tensor(f, model.curvature),
                                torsion=push_tensor(f, model.torsion),
                                aux=tuple(push_tensor(f, t) for t in model.aux))
    assert verify_model_isomorphism(f, model, pushed).passed


def test_product_pipeline_forms_few_fractions():
    counts = work_counts(product_pipeline, FRACTION_CODES)
    over = {name: counts[name] for name, bound in ELIMINATION_BOUNDS.items()
            if counts[name] > bound}
    assert not over, (f"counts {over} passed their bounds {ELIMINATION_BOUNDS}; before the "
                      f"integer elimination kernel (the Python calls: before the truth-test "
                      f"zero test) the pipeline took {ELIMINATION_PARENT}")


def test_model_steps_form_few_fractions():
    model = product_model()

    def steps():
        assert check_model_axioms(model).passed
        transvection_algebra(model)

    counts = work_counts(steps, FRACTION_CODES)
    over = {name: counts[name] for name, bound in MODEL_BOUNDS.items() if counts[name] > bound}
    assert not over, (f"counts {over} passed their bounds {MODEL_BOUNDS}; before the "
                      f"one-denominator model kernels the steps took {MODEL_PARENT}")


def test_algebra_steps_form_few_fractions():
    model = product_model()
    path = pathlib.Path(__file__).parent / "data" / "models" / "example2_x1_y0.json"
    small = nomizu_algebra(model_from_json(json.loads(path.read_text(encoding="utf-8"))))
    assert small.dim == 3

    def steps():
        nomizu_algebra(model)
        transvection_algebra(model)
        bianchi_classify(small)

    counts = work_counts(steps, FRACTION_CODES)
    over = {name: counts[name] for name, bound in ALGEBRA_BOUNDS.items() if counts[name] > bound}
    assert not over, (f"counts {over} passed their bounds {ALGEBRA_BOUNDS}; before the "
                      f"sparse int algebra kernels the steps took {ALGEBRA_PARENT}")


def test_classes_pass_forms_few_fractions():
    # the triple of one `classes-n4` item: S, an antisymmetric tensor, and
    # the torsion A(-(S - C(S)/3)) in T1 + T2
    rng = random.Random(4)
    sym = random_symmetric_tensor(rng, 4, 5)
    anti = random_antisymmetric_tensor(rng, 4, 5)
    torsion = cotorsion_to_torsion(-(sym - cyclic_sum(sym).scale(Fraction(1, 3))))

    def steps():
        decompose_cotorsion(sym)
        decompose_torsion(anti)
        symplectify_torsion(torsion)

    counts = work_counts(steps, FRACTION_CODES)
    over = {name: counts[name] for name, bound in CLASSES_BOUNDS.items() if counts[name] > bound}
    assert not over, (f"counts {over} passed their bounds {CLASSES_BOUNDS}; before `divided` "
                      f"formed each distinct value once the pass took {CLASSES_PARENT}")


def test_presentation_round_trip_keeps_to_the_nonzero_constants():
    def steps():
        presentation_from_json(presentation_to_json(nomizu_algebra(trivial_model(3))))

    counts = work_counts(steps, PRESENTATION_CODES)
    over = {name: counts[name] for name, bound in PRESENTATION_BOUNDS.items()
            if counts[name] > bound}
    assert not over, (f"counts {over} passed their bounds {PRESENTATION_BOUNDS}; with dense "
                      f"dim^3 constants the steps took {PRESENTATION_PARENT}")


def test_lie_bases_are_scaled_once():
    trivial, product = trivial_model(4), product_model()

    def steps():
        nomizu_algebra(trivial)
        transvection_algebra(product)

    counts = work_counts(steps, BASIS_CODES)
    over = {name: counts[name] for name, bound in BASIS_BOUNDS.items() if counts[name] > bound}
    assert not over, (f"counts {over} passed their bounds {BASIS_BOUNDS}; with each basis "
                      f"element scaled three times the steps took {BASIS_PARENT}")

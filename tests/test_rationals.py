import ast
import json
import pathlib
import random
from fractions import Fraction

import pytest

from fedosov import rationals
from fedosov.rationals import (
    ParseError, PoleError, Polynomial, RationalFunction, parse_ratfun,
)
from conftest import old_parse_ratfun, random_rational_function


def rf(text, variables=("x", "y")):
    return parse_ratfun(text, variables)


def test_zero_constant_is_zero():
    assert parse_ratfun("0").is_zero()
    assert RationalFunction.constant(0).is_zero()


def test_syntactic_cancellation_is_zero():
    assert rf("(x*y - y*x)/x").is_zero()


def test_sum_of_chart_terms_is_nonzero():
    value = rf("-2/(3*x^3)") + rf("2/(9*x^3)")
    assert not value.is_zero()
    assert value == rf("-4/(9*x^3)")


def test_truth_value_is_the_zero_test():
    # like an int or a Fraction, a polynomial or rational function is falsy
    # exactly when it is zero
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    polynomials = [Polynomial.constant(0), Polynomial.constant(0, ("x", "y")), x - x,
                   x * y - y * x, Polynomial.constant(Fraction(-2, 3), ("x",)), x, x + y]
    functions = [rf("0"), RationalFunction.constant(0), rf("(x*y - y*x)/x"), rf("5"),
                 rf("1/x"), rf("x", ("x",)) - rf("x", ("x", "y")),
                 rf("x", ("x",)) + rf("y", ("y",)), rf("-2/(3*x^3)") + rf("2/(9*x^3)")]
    rng = random.Random(38)
    for _ in range(100):
        a = random_rational_function(rng, nvars=rng.randint(1, 2))
        b = random_rational_function(rng, nvars=rng.randint(1, 2))
        functions += [a, a - a, a - b, a * b, a + b - b]
        polynomials += [a.num, a.den, a.num - a.num, a.num * b.den - b.num * a.den]
    for value in polynomials + functions:
        assert bool(value) is not value.is_zero(), value
    for values in (polynomials, functions):
        assert {bool(value) for value in values} == {False, True}


def test_partial_quotient_rule_example():
    assert rf("1/(3*x^2)").partial("x") == rf("-2/(3*x^3)")


def test_partial_independent_variable():
    assert rf("x").partial("y").is_zero()


def test_partial_product():
    assert rf("x*y").partial("x") == rf("y")


def test_partial_unknown_variable_errors():
    with pytest.raises(ValueError):
        parse_ratfun("1/(3*x^2)", ("x",)).partial("z")


def test_eval_direct_substitution():
    assert rf("1/(3*x^2)").evaluate({"x": Fraction(1), "y": Fraction(0)}) == Fraction(1, 3)
    assert rf("-4/(3*x)").evaluate({"x": Fraction(2), "y": Fraction(0)}) == Fraction(-2, 3)


def test_eval_pole():
    with pytest.raises(PoleError):
        rf("1/x").evaluate({"x": Fraction(0), "y": Fraction(0)})


def test_eval_requires_all_variables():
    with pytest.raises(ValueError):
        rf("x + y").evaluate({"x": Fraction(1)})


def test_equality_by_cross_multiplication():
    # same value, different representations
    a = RationalFunction(Polynomial(("x",), {(1,): Fraction(2)}),
                         Polynomial(("x",), {(2,): Fraction(2)}))
    b = rf("1/x", ("x",))
    assert a == b


def test_quotient_rule_is_exact():
    rng = random.Random(11)
    for _ in range(50):
        f = random_rational_function(rng)
        g = random_rational_function(rng)
        if g.is_zero():
            continue
        q = f / g
        lhs = q.partial("x")
        rhs = (f.partial("x") * g - f * g.partial("x")) / (g * g)
        assert lhs == rhs


def test_mixed_partials_commute():
    rng = random.Random(5)
    for _ in range(100):
        f = random_rational_function(rng)
        assert f.partial("x").partial("y") == f.partial("y").partial("x")


def test_field_axioms_on_random_triples():
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_rational_function(rng)
        b = random_rational_function(rng)
        c = random_rational_function(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert (b / a) * a == b
            assert a * (1 / a) == 1


def test_power_and_negative_power():
    f = rf("x", ("x",))
    assert f ** 3 == rf("x^3", ("x",))
    assert f ** -2 == rf("1/(x^2)", ("x",))


def test_parser_rejects_unknown_variable():
    with pytest.raises(ParseError):
        parse_ratfun("q + 1", ("x", "y"))


def test_parser_reports_position():
    with pytest.raises(ParseError) as err:
        parse_ratfun("1 + $", ("x",))
    assert "column 5" in str(err.value)


def test_parser_rejects_zero_exponent():
    with pytest.raises(ParseError):
        parse_ratfun("x^0", ("x",))


@pytest.mark.parametrize("text, accepted", [
    ("(x+y+1)^43", True),     # C(45, 2) = 990 terms
    ("(x+y+1)^44", False),    # C(46, 2) = 1035 terms
    ("x^1000", True), ("x^1001", False),
    ("1/(x+y)^999", True), ("1/(x+y)^1000", False),
    ("(x+y+1)^3000", False),
])
def test_parser_power_term_budget(text, accepted):
    if accepted:
        parse_ratfun(text, ("x", "y"))
    else:
        with pytest.raises(ParseError, match="over the budget of 1000 terms"):
            parse_ratfun(text, ("x", "y"))


def test_parser_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_ratfun("x 1", ("x",))


def test_parser_division_by_zero_literal():
    with pytest.raises(ParseError):
        parse_ratfun("1/0")


def test_precedence():
    assert parse_ratfun("2 + 3 * 4").constant_value() == 14
    assert parse_ratfun("-2^2").constant_value() == -4
    assert parse_ratfun("12/3/2").constant_value() == 2
    assert parse_ratfun("2*x^2", ("x",)) == rf("2*(x^2)", ("x",))


def test_str_round_trip():
    rng = random.Random(17)
    for _ in range(100):
        f = random_rational_function(rng)
        again = parse_ratfun(str(f), ("x", "y"))
        assert f == again


def test_polynomial_divmod_exactness():
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    p = (x + y) * (x - y)
    q = p.try_exact_div(x + y)
    assert q is not None and q == (x - y)
    assert (x * x + Polynomial.constant(1, ("x",))).try_exact_div(x) is None


def test_denominator_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial.variable("x"), Polynomial.constant(0, ("x",)))


# -- atoms over the chart's coordinates, against the parser that aligned them ---------

DATA = pathlib.Path(__file__).parent / "data" / "charts"
FIXTURES = pathlib.Path(rationals.__file__).parent / "data"


def chart_texts() -> set[tuple[tuple[str, ...], str]]:
    """(coordinates, text) of every entry of the built-in and test-data charts."""
    found = set()
    for path in [*FIXTURES.glob("*.json"), *DATA.glob("*.json")]:
        chart = json.loads(path.read_text(encoding="utf-8"))
        if "coords" not in chart:
            continue
        coords = tuple(chart["coords"])
        tables = [chart.get("omega", {}), chart.get("christoffel", {})]
        tables += [field.get("components", {}) for field in chart.get("fields", {}).values()]
        found.update((coords, str(text)) for table in tables for text in table.values())
    return found


def random_expression(rng: random.Random, names, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return str(rng.randint(0, 4)) if rng.random() < 0.4 else rng.choice(names)
    if roll < 0.4:
        return f"-{random_expression(rng, names, depth + 1)}"
    if roll < 0.5:
        return f"({random_expression(rng, names, depth + 1)})^{rng.randint(1, 3)}"
    op = rng.choice("+-*/")
    return (f"({random_expression(rng, names, depth + 1)}){op}"
            f"({random_expression(rng, names, depth + 1)})")


def parsed(parse, text, variables):
    """What `parse` gives, as text, or the type and text of what it raised."""
    try:
        value = parse(text, variables)
    except (ValueError, ZeroDivisionError) as err:
        return type(err).__name__, str(err)
    return str(value.num), str(value.den), value.variables


def test_chart_entries_parse_as_with_aligned_atoms():
    texts = chart_texts()
    assert len(texts) > 20
    for coords, text in texts:
        assert parsed(parse_ratfun, text, coords) == parsed(old_parse_ratfun, text, coords), text


def test_random_expressions_parse_as_with_aligned_atoms():
    rng = random.Random(30)
    names = ["x", "y", "u", "v"]
    outcomes = set()
    for _ in range(1500):
        coords = tuple(rng.sample(names, rng.randint(2, 4)))
        text = random_expression(rng, names)
        for variables in (coords, None):
            new = parsed(parse_ratfun, text, variables)
            assert new == parsed(old_parse_ratfun, text, variables), (text, variables)
            outcomes.add(new[0] if len(new) == 2 else "value")
    assert outcomes == {"value", "ParseError"}
    for text in ("x/(y-y)", "x +", "2*)", "x^0", "w", "(x^40000)*x^40000"):
        for variables in (("x", "y"), None):
            assert parsed(parse_ratfun, text, variables) == parsed(old_parse_ratfun, text,
                                                                   variables), text


# -- one zero test --------------------------------------------------------------------------

SCALAR_TYPES = {"int", "Fraction", "Polynomial", "RationalFunction"}


def is_zero_test(node) -> bool:
    """`not v`, `v == 0`, `v != 0`, `v.is_zero()`, `is_zero_scalar(v)`, or
    `all`/`any` over one of them."""
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.Not)
    if isinstance(node, ast.Compare):
        return (len(node.ops) == 1 and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value == 0)
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name in ("is_zero", "is_zero_scalar") or (
            name in ("all", "any") and len(node.args) == 1
            and isinstance(node.args[0], ast.GeneratorExp) and is_zero_test(node.args[0].elt))
    return False


def reads_type(node) -> bool:
    """Whether an expression reads a type: `type(...)`, `isinstance(...)` or a
    scalar type's name."""
    return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("type", "isinstance")
               or isinstance(n, ast.Name) and n.id in SCALAR_TYPES for n in ast.walk(node))


def zero_test_sites() -> tuple[set[str], set[str]]:
    """The modules of the package that name `is_zero_scalar`, and the
    functions with a conditional that picks a zero test by the scalar's
    type: its condition reads a type and an arm is a zero test, or its two
    arms test one value for zero in two ways (`x if c else not f(x)`, or
    two zero tests).  An arm of an `if` statement is a value it returns."""
    named, switched = set(), set()
    for path in sorted(pathlib.Path(rationals.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(getattr(n, "id", getattr(n, "attr", getattr(n, "name", None))) == "is_zero_scalar"
               for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))):
            named.add(path.stem)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.IfExp):
                    arms = [node.body, node.orelse]
                elif isinstance(node, ast.If):
                    arms = [stmt.value for stmt in node.body if isinstance(stmt, ast.Return)]
                else:
                    continue
                tested = [arm for arm in arms if is_zero_test(arm)]
                names = {arm.id for arm in arms if isinstance(arm, ast.Name)}
                if tested and (reads_type(node.test) or len(tested) == 2 or any(
                        isinstance(n, ast.Name) and n.id in names
                        for arm in tested for n in ast.walk(arm))):
                    switched.add(f"{path.stem}.{func.name}")
    return named, switched


def test_zero_tests_are_truth_tests():
    # every scalar is falsy exactly when it is zero, so no zero test switches
    # on the scalar's type; `linalg.is_zero_scalar` stays only as a truth test
    # behind linalg's own entry tests
    named, switched = zero_test_sites()
    assert named == {"linalg"}
    assert switched == set()
    source = pathlib.Path(rationals.__file__).with_name("linalg.py").read_text(encoding="utf-8")
    func = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "is_zero_scalar")
    assert ast.unparse(func.body[-1]) == "return not x"

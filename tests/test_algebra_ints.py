"""Differential test of the Lie-algebra and change-of-basis kernels on sparse ints.

`nomizu_algebra`, `transvection_algebra` and `transvection_subalgebra` read
their brackets off int data (`models._algebra_from_parts`, `_commutator`,
`linalg.Coordinates._ints`), each element A of h kept as (den A as int rows,
den) from the stabilizer (`models._stabilizer`) or the closure
(`models._closure`) on; `LieAlgebraPresentation` keeps only the
nonzero constants of each pair i < j and checks the Jacobi identity on them
as ints over one denominator, and refuses labels and subspaces that would
not round-trip through JSON; `presentation_from_json` checks that a pair
given under both orders agrees; `bianchi_classify` reads each bracket and
the Killing form off the constants; and `change_basis` contracts the
nonzero entries of a constant tensor as {flat: int}, slot by slot.  The
oracles are the dense `Fraction` paths they replaced, in `conftest.py`.
Presentations (their JSON, key order included, and their brackets),
bases, Bianchi types, tensors and every error text must be equal, on:

* `valid_random_model` for n = 1..3, and those models pushed by symplectic
  maps with fractional entries;
* the fixture models in `tests/data/models`, the product-chart model and
  trivial models, `trivial_model(n)` for n <= 6 against the dense
  constants and their JSON writer;
* sparse random models, which fail their axioms, for the `ModelError`
  paths, and bases of End(V) that are not closed under commutators;
* stabilizer and closure bases whose elements lie over several
  denominators greater than 1, in their int form, the closures of the
  failing models also on the trivial model;
* seeded 3-dimensional Lie algebras of every Bianchi type in random bases;
* seeded constants of dimension 3 to 6, for the antisymmetry (now the
  reader's disagreement) and Jacobi errors, many with several failing
  triples.

Neither the algebras nor the JSON round trip form the dense view
`structure_constants`.  Eight mutants must be caught: the sign of [X, A]
flipped, the den of an element dropped from its coordinate in `in_h` or
from the division of its [X, A] column, AB - BA swapped,
the torsion sign in [X, Y] flipped, a covariant slot contracted with the
inverse transposed, and the Jacobi triples read out of order (the last
failing triple, or each triple keyed by its descending rotation).
"""

from __future__ import annotations

import ast
import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from fedosov import linalg, models, symplectic
from fedosov.models import (
    InfinitesimalModel, LieAlgebraPresentation, _scaled, _scaled_targets, bianchi_classify,
    model_from_json, model_stabilizer_algebra, nomizu_algebra, presentation_from_json,
    presentation_to_json, transvection_algebra, transvection_subalgebra, trivial_model,
)
from fedosov.rationals import RationalFunction
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, change_basis

from conftest import (
    coprime_denominators, dense_presentation_json, int_form, mutant, old_algebra_constants,
    old_algebra_from_parts, old_bianchi_classify, old_bracket, old_change_basis,
    old_model_stabilizer_algebra, old_nomizu_algebra, old_presentation_failure,
    old_presentation_to_json, old_reader_failure, old_transvection_algebra,
    old_transvection_subalgebra, random_rational_function, random_symplectic_matrix,
    sparse_brackets, valid_random_model,
)
from test_linalg import product_model
from test_model_ints import fractional_symplectic_matrix, pushed, sparse_model

DATA = pathlib.Path(__file__).parent / "data"


def stabilizer_ints(model):
    """`models._stabilizer` on the scaled data of `model`."""
    return models._stabilizer(_scaled_targets(model))


def closure_ints(model):
    """`models._closure` on the scaled curvature of `model`."""
    return models._closure(_scaled(model.curvature))


def algebra_on(model, h_basis, h_name):
    """`models._algebra_from_parts` on the scaled data of `model`."""
    return models._algebra_from_parts(_scaled_targets(model), h_basis, h_name)


def outcome(build, *args):
    """What `build` returns, made comparable, or the type and text of what it raised."""
    try:
        result = build(*args)
    except ValueError as err:
        return type(err).__name__, str(err)
    return presentation_to_json(result) if hasattr(result, "brackets") else result


def closure_model(rng: random.Random, count: int) -> InfinitesimalModel:
    """A model over R^4 whose nonzero curvature endomorphisms R(e1, e_j),
    j = 2..count + 1, are sparse random matrices with fractional entries:
    their Lie closure takes several rounds."""
    space = SymplecticSpace(2)
    d = space.dim
    comps = [Fraction(0)] * d ** 4
    for j in range(1, count + 1):
        for k, l in itertools.product(range(d), repeat=2):
            if rng.random() < 0.3:
                value = Fraction(rng.choice((-1, 1, 2)), rng.choice((1, 2, 3)))
                comps[((0 * d + j) * d + k) * d + l] = value
                comps[((j * d + 0) * d + k) * d + l] = -value
    zero = trivial_model(2)
    return InfinitesimalModel(space=space, curvature=Tensor(d, zero.curvature.valence, comps,
                                                            space=space),
                              torsion=zero.torsion, aux=zero.aux)


def algebra_cases():
    rng = random.Random(2030)
    cases = []
    for n in (1, 1, 2, 2, 2, 3):
        model = valid_random_model(rng, n)
        cases.append((f"valid-n{n}", model))
        f = fractional_symplectic_matrix(rng, model.space)
        cases.append((f"pushed-n{n}", pushed(model, f)))
    for path in sorted((DATA / "models").glob("*.json")):
        cases.append((path.stem, model_from_json(json.loads(path.read_text(encoding="utf-8")))))
    cases.append(("product", product_model()))
    cases += [(f"trivial-n{n}", trivial_model(n)) for n in (1, 2)]
    cases += [(f"sparse-n{n}", sparse_model(rng, n)) for n in (1, 1, 2, 2, 2, 2)]
    cases += [(f"closure-{count}", closure_model(rng, count)) for count in (2, 2, 3)]
    return cases


@pytest.fixture(scope="module")
def cases():
    return algebra_cases()


def mismatches(cases) -> list[str]:
    bad = []
    for label, model in cases:
        if outcome(nomizu_algebra, model) != outcome(old_nomizu_algebra, model):
            bad.append(f"{label}: nomizu")
        if outcome(transvection_algebra, model) != outcome(old_transvection_algebra, model):
            bad.append(f"{label}: transvection")
        if transvection_subalgebra(model) != old_transvection_subalgebra(model):
            bad.append(f"{label}: closure")
    return bad


def test_algebras_match_the_fraction_paths(cases):
    assert mismatches(cases) == []
    errors = {outcome(build, model)[1] for _, model in cases
              for build in (nomizu_algebra, transvection_algebra)
              if isinstance(outcome(build, model), tuple)}
    assert errors == {"curvature endomorphism lies outside the isotropy algebra; "
                      "the model does not satisfy its axioms",
                      "transvection algebra is not contained in the stabilizer"}
    dims = {built["dim"] for _, model in cases
            if isinstance(built := outcome(nomizu_algebra, model), dict)}
    assert max(dims) >= 27
    closures = [transvection_subalgebra(model) for _, model in cases]
    assert all(type(x) is Fraction for basis in closures for e in basis for row in e for x in row)
    assert max(map(len, closures)) >= 4


def test_unclosed_bases_fail_as_the_fraction_path():
    rng = random.Random(31)
    model = valid_random_model(rng, 1)
    seen = set()
    for _ in range(12):
        h = [[[Fraction(rng.choice((0, 0, 1, -2)), rng.choice((1, 3))) for _ in range(2)]
              for _ in range(2)] for _ in range(rng.randint(1, 3))]
        if linalg.rank([[x for row in e for x in row] for e in h]) < len(h):
            continue
        result = outcome(algebra_on, model, [int_form(e) for e in h], "h")
        assert result == outcome(old_algebra_from_parts, model, h, "h")
        seen.add(result[1] if isinstance(result, tuple) else "built")
    assert "isotropy algebra is not closed under commutators" in seen
    # a closed h: the Lie closure of two sparse matrices acting on V, whose
    # brackets [A, X] = A X with T = R = 0 give the Lie algebra h + V
    h = old_transvection_subalgebra(closure_model(rng, 2))
    assert len(h) >= 4
    model = trivial_model(2)
    built = outcome(algebra_on, model, [int_form(e) for e in h], "h")
    assert built == outcome(old_algebra_from_parts, model, h, "h")
    assert built["dim"] == 4 + len(h)


def int_basis_mismatches(cases) -> list[str]:
    """Each case's stabilizer and Lie closure, in the int form (den A as int
    rows, den) that `models._stabilizer` and `models._closure` hand to
    `_algebra_from_parts`, against the `Fraction` oracles: the bases, and
    V + h built on each (or the error it raises).  The closure of a
    `closure_model`, which fails its axioms, is also built on the trivial
    model, where h + V is a Lie algebra."""
    bad = []
    for label, model in cases:
        for ints, public, oracle in (
                (stabilizer_ints, model_stabilizer_algebra, old_model_stabilizer_algebra),
                (closure_ints, transvection_subalgebra, old_transvection_subalgebra)):
            h, expected = ints(model), oracle(model)
            matrices = [[[Fraction(x, den) for x in row] for row in rows] for rows, den in h]
            if public(model) != expected or matrices != expected:
                bad.append(f"{label}: {public.__name__}")
            on = [model, trivial_model(model.space.n)][:1 + label.startswith("closure")]
            if any(outcome(algebra_on, base, h, "h")
                   != outcome(old_algebra_from_parts, base, expected, "h") for base in on):
                bad.append(f"{label}: {ints.__name__} algebra")
    return bad


def test_int_bases_match_the_fraction_paths(cases):
    """The cases include bases over several denominators greater than 1, so
    that each coordinate in `in_h` must take its element's den, and each
    [X, A] column must be divided by it."""
    assert int_basis_mismatches(cases) == []
    kinds = (stabilizer_ints, closure_ints)
    spread = [(label, ints) for label, model in cases for ints in kinds
              if len({den for _, den in ints(model)} - {1}) >= 2]
    assert len(spread) >= 8 and {ints for _, ints in spread} == set(kinds)
    built = [outcome(algebra_on, trivial_model(2), closure_ints(model), "h")
             for label, model in cases if label.startswith("closure")]
    assert len(built) == 3 and all(isinstance(p, dict) for p in built)


def test_closure_brackets_each_pair_once(cases, monkeypatch):
    formed = []
    kernel = models._commutator

    def counted(a, b):
        formed.append(1)
        return kernel(a, b)

    monkeypatch.setattr(models, "_commutator", counted)
    saved = 0
    for label, model in cases:
        formed.clear()
        oracle_pairs: list = []
        basis = transvection_subalgebra(model)
        assert basis == old_transvection_subalgebra(model, oracle_pairs), label
        # every pair of the closure, each in the round after its later element came
        assert len(formed) == len(basis) * (len(basis) - 1) // 2 == len(set(oracle_pairs))
        saved += len(oracle_pairs) - len(formed)
    assert saved > 50


# -- presentations --------------------------------------------------------------------------

def drawn_constants(rng: random.Random, dim: int):
    """Antisymmetric constants, sparse, with fractional entries; a few have
    one entry broken."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j in itertools.combinations(range(dim), 2):
        for k in range(dim):
            if rng.random() < 0.3:
                c[i][j][k] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 1, 2, 5)))
                c[j][i][k] = -c[i][j][k]
    if rng.random() < 0.25:
        i, j, k = (rng.randrange(dim) for _ in range(3))
        c[i][j][k] += 1
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def presentation_outcome(c):
    """The presentation the reader builds from every entry of c, or the
    text it raised."""
    try:
        return presentation_from_json(dense_presentation_json(c))
    except ValueError as err:
        return str(err)


def jacobi_failures(c, dim) -> int:
    """How many triples fail, from single-triple presentations of the oracle."""
    count = 0
    for triple in itertools.combinations(range(dim), 3):
        sub = tuple(tuple(tuple(c[a][b][k] for k in triple) for b in triple) for a in triple)
        count += old_presentation_failure(sub, 3) is not None
    return count


def presentation_mismatches() -> list[int]:
    rng = random.Random(32)
    bad = []
    for case in range(120):
        dim = rng.randint(3, 6)
        c = drawn_constants(rng, dim)
        result = presentation_outcome(c)
        if (result if isinstance(result, str) else None) != old_reader_failure(c):
            bad.append(case)
    return bad


def sparse_vector(rng: random.Random, dim: int) -> list[Fraction]:
    return [Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 2, 5)))
            if rng.random() < 3 / dim else Fraction(0) for _ in range(dim)]


def test_presentation_checks_match_the_dense_scans():
    assert presentation_mismatches() == []
    rng = random.Random(32)
    texts, several, built = set(), 0, 0
    for _ in range(120):
        dim = rng.randint(3, 6)
        c = drawn_constants(rng, dim)
        text = old_presentation_failure(c, dim)
        texts.add(text and text.split(" ")[0])
        several += text is not None and text.startswith("Jacobi") and jacobi_failures(c, dim) > 1
        if text is None:
            p = presentation_outcome(c)
            expected = old_presentation_to_json(c, p.basis_labels, {})
            assert json.dumps(presentation_to_json(p)) == json.dumps(expected)
            x, y = sparse_vector(rng, dim), sparse_vector(rng, dim)
            assert p.bracket(x, y) == old_bracket(c, dim, x, y)
            assert p.structure_constants == c
            built += 1
    assert texts == {None, "structure", "Jacobi"} and several > 20 and built > 10


def test_presentation_rejects_brackets_off_their_range():
    one = {2: Fraction(1)}
    for brackets in ({(1, 0): one}, {(0, 3): one}, {(1, 1): one}, {(-1, 2): one},
                     {(0, 1): {3: Fraction(1)}}, {(0, 1): {-1: Fraction(1)}},
                     {(0, 1): {2: Fraction(0)}}, {(0, 1): {}}):
        (i, j), = brackets
        with pytest.raises(ValueError, match=rf"^bracket \({i + 1},{j + 1}\) is not a pair i < j "
                                             r"of nonzero constants at indices 1\.\.3$"):
            LieAlgebraPresentation(dim=3, basis_labels=("a", "b", "c"), brackets=brackets)


def test_presentation_brackets_are_read_only():
    given = {(0, 1): {2: Fraction(1)}}
    p = LieAlgebraPresentation(dim=3, basis_labels=("a", "b", "c"), brackets=given)
    given[0, 2], given[0, 1][0] = {1: Fraction(1)}, Fraction(1)  # would fail the Jacobi identity
    assert p.brackets == {(0, 1): {2: Fraction(1)}} and p.first_jacobi_failure() is None
    with pytest.raises(TypeError):
        p.brackets[0, 2] = {1: Fraction(1)}
    with pytest.raises(TypeError):
        p.brackets[0, 1][0] = Fraction(1)


def test_constructed_presentations_round_trip_through_json():
    """Whatever the constructor accepts, the writer writes and the reader
    reads back to an equal presentation; labels and subspaces it cannot
    write so are refused with the reader's texts."""
    rng = random.Random(35)
    empty = LieAlgebraPresentation(dim=0, basis_labels=(), brackets={}, subspaces={"h": ()})
    assert presentation_from_json(presentation_to_json(empty)) == empty
    built, refused = 0, set()
    for _ in range(200):
        dim = rng.randint(1, 5)
        labels = tuple(f"x{i}" for i in range(dim + rng.choice((0, 0, 0, -1, 1))))
        subspaces = {name: tuple(rng.randint(-1, dim) if rng.random() < 0.05
                                 else rng.randrange(dim) for _ in range(rng.randint(0, dim)))
                     for name in ("V", "h")[:rng.randint(0, 2)]}
        c = drawn_constants(rng, dim)
        try:
            p = LieAlgebraPresentation(dim=dim, basis_labels=labels, brackets=sparse_brackets(c),
                                       subspaces=subspaces)
        except ValueError as err:
            refused.add(str(err).split(" ")[1 if str(err)[0].isdigit() else 0])
            continue
        assert presentation_from_json(json.loads(json.dumps(presentation_to_json(p)))) == p
        built += 1
    assert built > 40 and refused == {"basis", "'subspaces'", "Jacobi"}
    for labels, subspaces, text in ((("a",), {"V": (0, 1)}, "1 basis labels for dimension 2"),
                                    (("a", "b"), {"V": (5, -1)}, "'subspaces' must map names "
                                                                 "to lists of indices 1..2"),
                                    (("a", "b"), {"V": (True,)}, "'subspaces' must map names "
                                                                 "to lists of indices 1..2")):
        with pytest.raises(ValueError) as err:
            LieAlgebraPresentation(dim=2, basis_labels=labels, brackets={}, subspaces=subspaces)
        assert str(err.value) == text


def test_presentation_subspaces_are_read_only():
    given = {"V": [0, 1]}
    p = LieAlgebraPresentation(dim=2, basis_labels=("a", "b"), brackets={}, subspaces=given)
    given["V"].append(7)
    given["h"] = (9,)
    assert p.subspaces == {"V": (0, 1)}
    with pytest.raises(TypeError):
        p.subspaces["h"] = (9,)


def test_reader_rejects_brackets_that_disagree():
    heisenberg = {"[1,2]": {"3": "1"}, "[2,1]": {"3": "-1"}}
    for other in ({"3": "-1"}, {"3": "-2/2", "2": "0"}):  # a zero constant is no constant
        data = {"dim": 3, "structure_constants": {**heisenberg, "[2,1]": other}}
        assert presentation_from_json(data).brackets == {(0, 1): {2: Fraction(1)}}
    for other in ({"3": "1"}, {"3": "-1", "1": "2"}, {}):
        data = {"dim": 3, "structure_constants": {**heisenberg, "[2,1]": other}}
        with pytest.raises(ValueError, match=r"^brackets '\[1,2\]' and '\[2,1\]' disagree$"):
            presentation_from_json(data)


def dense_oracle_models():
    rng = random.Random(36)
    return ([(f"trivial-n{n}", trivial_model(n)) for n in range(1, 7)]
            + [(f"valid-n{n}", valid_random_model(rng, n)) for n in (1, 2, 2, 3)])


def test_algebras_match_the_dense_constants():
    """Each algebra's JSON, key order included, is the dense writer's on the
    oracle's constants, reads back to an equal presentation, and brackets
    as the dense constants do; the dense view is formed only when read."""
    rng = random.Random(37)
    for label, model in dense_oracle_models():
        for build, h in ((nomizu_algebra, old_model_stabilizer_algebra(model)),
                         (transvection_algebra, old_transvection_subalgebra(model))):
            p = build(model)
            c = old_algebra_constants(model, h)
            expected = old_presentation_to_json(c, p.basis_labels, p.subspaces)
            assert json.dumps(presentation_to_json(p)) == json.dumps(expected), label
            again = presentation_from_json(expected)
            assert again == p, label
            for _ in range(3):
                x, y = sparse_vector(rng, p.dim), sparse_vector(rng, p.dim)
                assert p.bracket(x, y) == old_bracket(c, p.dim, x, y), label
            assert "structure_constants" not in p.__dict__ | again.__dict__, label
            assert p.structure_constants == tuple(tuple(map(tuple, plane)) for plane in c)


def test_algebras_never_form_the_dense_view(cases):
    for label, model in cases:
        for build in (nomizu_algebra, transvection_algebra):
            try:
                p = build(model)
            except ValueError:
                continue
            again = presentation_from_json(presentation_to_json(p))
            assert "structure_constants" not in p.__dict__ | again.__dict__, label


def bianchi_normal_forms() -> dict[str, dict]:
    return {"I": {}, "II": {(0, 1): (0, 0, 1)}, "III": {(0, 2): (1, 0, 0)},
            "IV": {(0, 1): (0, 1, 0), (0, 2): (0, 1, 1)},
            "V": {(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)},
            "VI": {(0, 1): (0, 1, 0), (0, 2): (0, 0, 2)},
            "VI0": {(0, 1): (0, 1, 0), (0, 2): (0, 0, -1)},
            "VIsqrt": {(0, 1): (0, 1, 1), (0, 2): (0, 1, 0)},
            "VII": {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0)},
            "VIII": {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)},
            "IX": {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (2, 0): (0, 1, 0)}}


def in_basis(brackets: dict, p) -> LieAlgebraPresentation:
    """The algebra of `brackets` in the basis f_i = sum_a p[a][i] e_a."""
    c = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (i, j), vec in brackets.items():
        for k, v in enumerate(vec):
            c[i][j][k], c[j][i][k] = Fraction(v), -Fraction(v)
    q = linalg.inverse(p)
    new = [[[sum((p[a][i] * p[b][j] * c[a][b][k] * q[l][k]
                  for a in range(3) for b in range(3) for k in range(3)), Fraction(0))
             for l in range(3)] for j in range(3)] for i in range(3)]
    return LieAlgebraPresentation(dim=3, basis_labels=("f1", "f2", "f3"),
                                  brackets=sparse_brackets(new))


def bianchi_cases():
    rng = random.Random(33)
    cases = []
    for tag, brackets in bianchi_normal_forms().items():
        for _ in range(4):
            while True:
                p = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(3)]
                     for _ in range(3)]
                if linalg.rank(p) == 3:
                    break
            cases.append((tag, in_basis(brackets, p)))
    for path in sorted((DATA / "algebras").glob("*.json")):
        algebra = presentation_from_json(json.loads(path.read_text(encoding="utf-8")))
        if algebra.dim == 3:
            cases.append((path.stem, algebra))
    return cases


def test_bianchi_matches_the_dense_tree():
    tags = set()
    for label, algebra in bianchi_cases():
        result = bianchi_classify(algebra)
        assert result == old_bianchi_classify(algebra), label
        tags.add(result.tag)
    assert tags == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"}
    wrong = nomizu_algebra(trivial_model(1))
    assert outcome(bianchi_classify, wrong) == outcome(old_bianchi_classify, wrong)


# -- change of basis ------------------------------------------------------------------------

VALENCES = [(COV, COV, COV, CON), (COV, COV, CON), (COV, COV), (CON,), (CON, COV), ()]


def drawn_tensor(rng: random.Random, space, valence, density: float, dens=(1, 2, 3)):
    comps = [Fraction(rng.randint(-3, 3), rng.choice(dens)) if rng.random() < density
             else Fraction(0) for _ in range(space.dim ** len(valence))]
    return Tensor(space.dim, valence, comps, space=space)


def general_matrix(rng: random.Random, d: int) -> list[list[Fraction]]:
    while True:
        m = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 5))) for _ in range(d)]
             for _ in range(d)]
        if linalg.rank(m) == d:
            return m


def change_cases():
    rng = random.Random(34)
    (q,) = coprime_denominators(1, 4200)
    for t in range(36):
        space = SymplecticSpace(rng.randint(1, 2))
        valence = VALENCES[t % len(VALENCES)]
        tensor = drawn_tensor(rng, space, valence, rng.choice((0.0, 0.1, 0.5, 1.0)))
        maps = [fractional_symplectic_matrix(rng, space), general_matrix(rng, space.dim),
                random_symplectic_matrix(rng, space)]
        if t % 6 == 0:  # a map with a denominator past the int path
            d = space.dim
            maps.append([[Fraction(int(i == j)) + (Fraction(1, q) if (i, j) == (d - 1, 0) else 0)
                          for j in range(d)] for i in range(d)])
        for m in maps:
            yield tensor, m


def test_change_basis_matches_the_slot_loops(scale_bound):
    for tensor, m in change_cases():
        minv = linalg.inverse(m)
        out = change_basis(tensor, m, minv)
        assert out.comps == old_change_basis(tensor, m, minv).comps
        assert all(type(x) is Fraction for x in out.comps)
        assert out.support == tuple(f for f, x in enumerate(out.comps) if x != 0)
        assert change_basis(tensor, m).comps == out.comps


def test_change_basis_of_rational_functions_keeps_their_zeros():
    rng = random.Random(35)
    space = SymplecticSpace(1)
    zero = RationalFunction.constant(0, ("x", "y"))
    for valence in ((COV, CON), (COV, COV, CON)):
        comps = [random_rational_function(rng)
                 if rng.random() < 0.5 else zero for _ in range(2 ** len(valence))]
        for tensor in (Tensor(2, valence, comps, space=space),
                       Tensor(2, valence, [zero] * len(comps), space=space)):
            m = fractional_symplectic_matrix(rng, space)
            out = change_basis(tensor, m)
            assert out.comps == old_change_basis(tensor, m, linalg.inverse(m)).comps
            assert all(type(x) is RationalFunction for x in out.comps)


# -- mutants -----------------------------------------------------------------------------------

def change_mismatches() -> int:
    return sum(change_basis(t, m).comps != old_change_basis(t, m, linalg.inverse(m)).comps
               for t, m in change_cases())


MUTANTS = {
    "negation-dropped": (models, "_algebra_from_parts", "{l: -row[j] for l, row in",
                         "{l: row[j] for l, row in", mismatches),
    "coordinate-den-dropped": (models, "_algebra_from_parts", "s * dens[a]", "s",
                               int_basis_mismatches),
    "column-division-dropped": (models, "_algebra_from_parts", "divided(column.values(), den)",
                                "column.values()", int_basis_mismatches),
    "commutator-swapped": (models, "_commutator", "((a, b, 1), (b, a, -1))",
                           "((a, b, -1), (b, a, 1))", mismatches),
    "torsion-sign": (models, "_algebra_from_parts", "Fraction(-value, t.den)",
                     "Fraction(value, t.den)", mismatches),
    "cov-with-inverse": (symplectic, "_changed_comps", "on_cov if kind == COV else on_con",
                         "on_con", lambda _: change_mismatches()),
    "jacobi-last-triple": (models, "_first_cyclic_failure", "min(bad)", "max(bad)",
                           lambda _: presentation_mismatches()),
    "jacobi-descending-triple": (models, "_first_cyclic_failure", "if i <= j <= k:",
                                 "if i >= j >= k:", lambda _: presentation_mismatches()),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_comparisons_catch_mutants(cases, monkeypatch, name):
    module, target, old, new, compare = MUTANTS[name]
    monkeypatch.setattr(module, target, mutant(module, target, old, new))
    assert compare(cases)


# -- structure ---------------------------------------------------------------------------------

def test_curvature_endomorphism_has_no_caller_in_the_package():
    """The public `curvature_endomorphism` reads every entry through
    `Tensor.__getitem__`; the package reads the nonzero endomorphisms off the
    scaled curvature (`models._curvature_endos`)."""
    package = pathlib.Path(models.__file__).parent
    callers = [path.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call)
               and "curvature_endomorphism" in (getattr(node.func, "id", None),
                                                getattr(node.func, "attr", None))]
    assert callers == []

import ast
import pathlib
import random
from fractions import Fraction

import pytest

from fedosov import linalg, symplectic
from fedosov.rationals import _scaled_ints
from fedosov.symplectic import (
    COV, CON, SymplecticSpace, Tensor, _flat, _index_of_key, _unflat,
    change_basis, contract_s13, contract_t12, contract_t13,
    cotorsion_lower, cotorsion_raise, cyclic_sum, first_symplectic_defect, is_symplectic_matrix,
    musical_flat, musical_sharp, tensor_from_json, tensor_to_json,
    torsion_lower, torsion_raise,
)
from conftest import (
    old_change_basis, old_symplectic_defect, random_antisymmetric_tensor,
    random_symmetric_tensor, random_tensor, random_symplectic_matrix, random_vector,
)


def unit(dim, i):
    v = [Fraction(0)] * dim
    v[i] = Fraction(1)
    return v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_omega_standard_pairings(n):
    space = SymplecticSpace(n)
    for i in range(space.dim):
        for j in range(space.dim):
            assert space.omega[i][j] == -space.omega[j][i]
    for i in range(n):
        assert space.omega[i][i + n] == 1


def test_omega_determinant_is_one():
    from fedosov import linalg
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        assert linalg.det([list(r) for r in space.omega]) == 1


def test_flat_of_first_basis_vector():
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        covector = musical_flat(space, unit(space.dim, 0))
        expected = [Fraction(0)] * space.dim
        expected[n] = Fraction(1)
        assert covector == expected


def test_flat_of_zero():
    space = SymplecticSpace(2)
    assert musical_flat(space, [Fraction(0)] * 4) == [Fraction(0)] * 4


def test_flat_sharp_round_trip_on_random_vectors():
    rng = random.Random(101)
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for _ in range(50):
            v = random_vector(rng, space.dim)
            assert musical_sharp(space, musical_flat(space, v)) == v
        for i in range(space.dim):
            e = unit(space.dim, i)
            assert musical_sharp(space, musical_flat(space, e)) == e


def test_torsion_lower_single_component_example():
    # n = 1: T(e1, e2) = e1 gives the (0,3) component T(e1,e2,e2) = omega(e1,e2) = 1
    space = SymplecticSpace(1)
    t = Tensor.zeros(2, (COV, COV, CON), space=space)
    comps = list(t.comps)
    comps[(0 * 2 + 1) * 2 + 0] = Fraction(1)   # T(e1,e2) = e1
    comps[(1 * 2 + 0) * 2 + 0] = Fraction(-1)  # antisymmetry
    t = Tensor(2, (COV, COV, CON), comps, space=space)
    lowered = torsion_lower(t)
    assert lowered[0, 1, 1] == 1
    assert lowered[1, 0, 1] == -1
    assert lowered[0, 1, 0] == 0


def test_torsion_lower_zero():
    space = SymplecticSpace(2)
    z = Tensor.zeros(4, (COV, COV, CON), space=space)
    assert torsion_lower(z).is_zero()


def test_torsion_round_trips():
    rng = random.Random(55)
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for _ in range(34):
            low = random_antisymmetric_tensor(rng, n)
            raised = torsion_raise(low)
            assert torsion_lower(raised) == low
            # and the other composition order
            assert torsion_raise(torsion_lower(raised)) == raised


def test_torsion_lower_rejects_symmetric_part():
    space = SymplecticSpace(1)
    t = Tensor.zeros(2, (COV, COV, CON), space=space)
    comps = list(t.comps)
    comps[0] = Fraction(1)  # T(e1,e1) = e1 breaks antisymmetry
    t = Tensor(2, (COV, COV, CON), comps, space=space)
    with pytest.raises(ValueError):
        torsion_lower(t)


def test_cotorsion_round_trips():
    rng = random.Random(56)
    for n in (1, 2, 3):
        for _ in range(34):
            low = random_symmetric_tensor(rng, n)
            raised = cotorsion_raise(low)
            assert cotorsion_lower(raised) == low


def test_cotorsion_lower_of_linear_type_is_symmetric():
    # S_X Y = omega(X,Y) xi - omega(Y,xi) X with xi = e1, n = 1
    space = SymplecticSpace(1)
    xi = unit(2, 0)

    def entry(i, j, k):
        value = space.omega[i][j] * xi[k]
        value -= sum(space.omega[j][m] * xi[m] for m in range(2)) * (1 if k == i else 0)
        return value

    s = Tensor.build(2, (COV, COV, CON), entry, space=space)
    lowered = cotorsion_lower(s)
    assert lowered.is_symmetric_in(0, 1)
    # spot value: S(X,Y,Z) = omega(S_Z X, Y); S_{e2} e1 = -e1 so S(e1,e2,e2) = omega(-e1,e2) = -1
    assert lowered[0, 1, 1] == -1


def test_raised_cotorsion_endomorphisms_in_symplectic_algebra():
    rng = random.Random(77)
    for n in (1, 2):
        space = SymplecticSpace(n)
        d = space.dim
        for _ in range(10):
            low = random_symmetric_tensor(rng, n)
            s = cotorsion_raise(low)
            for z in range(d):
                for x in range(d):
                    for y in range(d):
                        lhs = sum(s[z, x, l] * space.omega[l][y] for l in range(d))
                        rhs = sum(space.omega[x][l] * s[z, y, l] for l in range(d))
                        assert lhs + rhs == 0


def test_contract_s13_requires_symmetry():
    rng = random.Random(1)
    bad = random_antisymmetric_tensor(rng, 1)
    with pytest.raises(ValueError):
        contract_s13(bad)


def test_contract_t12_t13_require_antisymmetry():
    rng = random.Random(2)
    bad = random_symmetric_tensor(rng, 1)
    with pytest.raises(ValueError):
        contract_t12(bad)
    with pytest.raises(ValueError):
        contract_t13(bad)


def test_contractions_on_zero():
    space = SymplecticSpace(2)
    z = Tensor.zeros(4, (COV, COV, COV), space=space)
    assert contract_s13(z) == [Fraction(0)] * 4
    assert contract_t12(z) == [Fraction(0)] * 4
    assert contract_t13(z) == [Fraction(0)] * 4


def test_cyclic_sum_of_symmetric_tensor_is_three_times():
    space = SymplecticSpace(1)
    comps = [Fraction(1)] * 8
    t = Tensor(2, (COV, COV, COV), comps, space=space)
    assert cyclic_sum(t) == t.scale(Fraction(3))


def test_cyclic_sum_single_entry():
    space = SymplecticSpace(2)
    t = Tensor.zeros(4, (COV, COV, COV), space=space)
    comps = list(t.comps)
    comps[(0 * 4 + 1) * 4 + 2] = Fraction(1)
    t = Tensor(4, (COV, COV, COV), comps, space=space)
    out = cyclic_sum(t)
    expected = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    for idx in out.indices():
        assert out[idx] == (1 if idx in expected else 0)


def test_symmetry_flags_exhaustive():
    rng = random.Random(8)
    sym = random_symmetric_tensor(rng, 2)
    assert sym.is_symmetric_in(0, 1)
    assert not sym.is_antisymmetric_in(0, 1) or sym.is_zero()
    alt = random_antisymmetric_tensor(rng, 2)
    assert alt.is_antisymmetric_in(0, 1)


def test_change_basis_preserves_pairing_values():
    rng = random.Random(31)
    space = SymplecticSpace(2)
    m = random_symplectic_matrix(rng, space)
    assert is_symplectic_matrix(space, m)
    omega_tensor = Tensor.build(space.dim, (COV, COV),
                                lambda i, j: space.omega[i][j], space=space)
    transformed = change_basis(omega_tensor, m)
    assert transformed == omega_tensor


def test_change_basis_round_trip():
    rng = random.Random(32)
    space = SymplecticSpace(2)
    from fedosov import linalg
    m = random_symplectic_matrix(rng, space)
    m_inv = linalg.inverse(m)
    t = random_tensor(rng, 2, (COV, COV, CON))
    there = change_basis(t, m)
    back = change_basis(there, m_inv)
    assert back == t


def test_non_symplectic_matrix_detected():
    space = SymplecticSpace(1)
    m = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert not is_symplectic_matrix(space, m)


WRONG_SHAPES = {
    "3x2": [[1, 0], [0, 1], [0, 0]],
    "2x3": [[1, 0, 0], [0, 1, 0]],
    "1x1": [[1]],
}


@pytest.mark.parametrize("shape", WRONG_SHAPES)
def test_matrices_of_the_wrong_shape_are_rejected(shape):
    # before, the symplectic check passed the 3x2 and 2x3 maps and raised
    # IndexError on the 1x1 one, and a change of basis by the 1x1 map left
    # a 2-dimensional tensor as it was
    space = SymplecticSpace(1)
    m = [[Fraction(x) for x in row] for row in WRONG_SHAPES[shape]]
    message = f"the linear map is {shape}, not 2x2"
    with pytest.raises(ValueError, match=message):
        is_symplectic_matrix(space, m)
    with pytest.raises(ValueError, match=message):
        first_symplectic_defect(space, m)
    rng = random.Random(shape)
    for valence in ((COV, COV), (CON,), (COV, CON)):
        with pytest.raises(ValueError, match=message):
            change_basis(random_tensor(rng, 1, valence), m)


@pytest.mark.parametrize("valence", [(COV, COV), (CON,), (COV, CON)])
def test_change_basis_rejects_a_singular_matrix(valence):
    t = random_tensor(random.Random(33), 1, valence)
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(ValueError, match="matrix is singular"):
        change_basis(t, singular)


def drawn_maps(rng: random.Random, space: SymplecticSpace) -> list[list[list[Fraction]]]:
    """A seeded symplectic map M D, for D = diag(a, 1/a) with fractional a,
    so that its entries are not all ints, M D with one entry moved (which
    may stay symplectic) and 2 M D (which never does)."""
    n = space.n
    scale = [Fraction(rng.choice((-2, 3)), rng.choice((1, 5, 7))) for _ in range(n)]
    diagonal = scale + [1 / a for a in scale]
    m = [[x * a for x, a in zip(row, diagonal)]
         for row in random_symplectic_matrix(rng, space)]
    moved = [list(row) for row in m]
    moved[rng.randrange(space.dim)][rng.randrange(space.dim)] += Fraction(rng.randint(1, 3), 7)
    return [m, moved, [[2 * x for x in row] for row in m]]


def sparse_tensor(rng: random.Random, n: int, valence) -> Tensor:
    t = random_tensor(rng, n, valence)
    return Tensor(t.dim, valence, [x if rng.random() < 0.4 else Fraction(0) for x in t.comps],
                  space=t.space)


@pytest.mark.parametrize("seed", range(4))
def test_symplectic_defect_matches_the_dense_product(seed, scale_bound, monkeypatch):
    # the oracle multiplies M^T omega M out in Fraction loops; the check
    # forms it as one change of basis, on ints or, past MAX_SCALE_BITS, in
    # the field loop of `_changed_comps`
    dens = []
    kernel = symplectic._changed_comps

    def spied(*args):
        entries, den = kernel(*args)
        dens.append(den)
        return entries, den

    monkeypatch.setattr(symplectic, "_changed_comps", spied)
    rng = random.Random(400 + seed)
    defects = 0
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for m in drawn_maps(rng, space):
            dens.clear()
            defect = first_symplectic_defect(space, m)
            assert defect == old_symplectic_defect(space, m)
            assert [den is not None for den in dens] == [scale_bound == "scaled"]
            assert is_symplectic_matrix(space, m) is (defect is None)
            defects += defect is not None
    assert defects >= 3


@pytest.mark.parametrize("seed", range(4))
def test_first_changed_difference_matches_the_dense_change(seed, scale_bound):
    # the reader behind the isomorphism and symplectic checks, against the
    # first nonzero entry of the dense difference of the Fraction-loop change
    rng = random.Random(410 + seed)
    for n in (1, 2):
        space = SymplecticSpace(n)
        for m in drawn_maps(rng, space):
            m_inv = linalg.inverse(m)
            for valence in ((COV, COV), (CON,), (COV, COV, CON), (COV, CON, COV)):
                t = sparse_tensor(rng, n, valence)
                changed = old_change_basis(t, m, m_inv)
                moved = list(changed.comps)
                moved[rng.randrange(len(moved))] += Fraction(1, rng.randint(1, 4))
                for target in (changed, Tensor(t.dim, valence, moved),
                               sparse_tensor(rng, n, valence)):
                    ints, den = _scaled_ints([target.comps[flat] for flat in target.support])
                    wanted = dict(zip(target.support, ints))
                    assert (symplectic._first_changed_difference(t, m, m_inv, wanted, den)
                            == (changed - target).first_nonzero())


def test_tensor_json_round_trip():
    rng = random.Random(44)
    space = SymplecticSpace(2)
    t = random_antisymmetric_tensor(rng, 2)
    data = tensor_to_json(t)
    assert data["n"] == 2
    assert data["valence"] == ["cov", "cov", "cov"]
    again = tensor_from_json(data, space=space)
    assert again == t
    # a scalar's one component has the empty key
    scalar = Tensor(4, (), [Fraction(3)])
    assert tensor_from_json(tensor_to_json(scalar)) == scalar


def test_tensor_json_sparse_means_zero():
    data = {"n": 1, "valence": ["cov", "cov", "cov"],
            "components": {"1,2,2": "-4/3"}}
    t = tensor_from_json(data)
    assert t[0, 1, 1] == Fraction(-4, 3)
    assert t[1, 0, 1] == 0


def test_tensor_json_bad_index_rejected():
    with pytest.raises(ValueError):
        tensor_from_json({"n": 1, "valence": ["cov"], "components": {"5": "1"}})


def _first_violation_by_definition(t, a, b, anti):
    for idx in t.indices():
        swapped = list(idx)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        other = t[tuple(swapped)]
        if (t[idx] + other if anti else t[idx] - other) != 0:
            return idx
    return None


def test_symmetry_scan_and_cyclic_sum_match_index_definitions():
    # the scans visit only one index of each swapped pair, and cyclic_sum
    # reads flat positions; both must agree with the per-index definitions
    rng = random.Random(45)
    for n in (1, 2):
        for valence in ((COV, COV, COV), (COV, COV, COV, CON)):
            for base in (random_symmetric_tensor, random_antisymmetric_tensor):
                t3 = base(rng, n)
                d = t3.dim
                # T(i,j,k,l) = t3(i,j,k) (l+1) keeps the symmetry in slots (1,2)
                comps = list(t3.comps) if len(valence) == 3 else [
                    t3.comps[flat // d] * (flat % d + 1) for flat in range(d ** 4)]
                for _ in range(2):
                    comps[rng.randrange(len(comps))] += rng.choice((0, 1))
                t = Tensor(d, valence, comps, space=t3.space)
                for a in range(len(valence)):
                    for b in range(len(valence)):
                        for anti in (False, True):
                            expected = _first_violation_by_definition(t, a, b, anti)
                            assert t.first_symmetry_violation(a, b, anti=anti) == expected
                            checker = t.is_antisymmetric_in if anti else t.is_symmetric_in
                            assert checker(a, b) == (expected is None)
                if len(valence) == 3:
                    assert cyclic_sum(t) == Tensor.build(
                        t.dim, valence, lambda i, j, k: t[i, j, k] + t[j, k, i] + t[k, i, j])


# -- the multi-index codec ------------------------------------------------------------------

def test_flat_inverts_unflat():
    for dim, rank in ((1, 0), (2, 3), (3, 4), (4, 2)):
        for flat in range(dim ** rank):
            assert _flat(dim, _unflat(dim, rank, flat)) == flat


def test_index_keys_parse_to_zero_based_tuples():
    assert _index_of_key("1,2", 2) == (0, 1)
    assert _index_of_key("01,3", 2) == (0, 2)
    assert _index_of_key("", 0) == ()
    assert _index_of_key("0,5", 2) == (-1, 4)  # the range is the reader's to check
    for key, rank in (("1,2", 3), ("1,2", 1), ("", 1), ("a,2", 2), ("1,,2", 3), ("1;2", 2)):
        assert _index_of_key(key, rank) is None


def package_functions():
    """(`module.function` or `module.Class.method`, node) for each top-level
    function and method of the package."""
    for path in sorted(pathlib.Path(symplectic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{method.name}", method


def codec_sites() -> tuple[set[str], set[str]]:
    """The top-level functions and methods of the package that fold a flat
    position over an index sequence (`x = x * dim + i`), and those that
    read a comma-joined key (a comprehension of `int(...)` over a
    `.split(",")`).  A nested function counts for the function around it."""
    folds, key_parses = set(), set()
    for name, func in package_functions():
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.BinOp)
                    and isinstance(node.value.op, ast.Add)
                    and isinstance(node.value.left, ast.BinOp)
                    and isinstance(node.value.left.op, ast.Mult)
                    and isinstance(node.value.left.left, ast.Name)
                    and node.value.left.left.id == node.targets[0].id):
                folds.add(name)
            if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)) and any(
                    isinstance(gen.iter, ast.Call) and isinstance(gen.iter.func, ast.Attribute)
                    and gen.iter.func.attr == "split" and gen.iter.args
                    and isinstance(gen.iter.args[0], ast.Constant)
                    and gen.iter.args[0].value == "," for gen in node.generators) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "int" for call in ast.walk(node.elt)):
                key_parses.add(name)
    return folds, key_parses


def test_indices_convert_in_one_codec():
    # `_flat` is the one generic index-to-flat conversion, and one parser
    # reads the index keys of tensor, model and chart files; the "[i,j]"
    # bracket keys of a presentation file are another format, parsed in place
    folds, key_parses = codec_sites()
    assert folds == {"symplectic._flat"}
    assert key_parses == {"symplectic._index_of_key", "models.presentation_from_json"}


def callers() -> dict[str, set[str]]:
    """{called name: the top-level functions and methods of the package
    that call it}, a nested function counting for the function around it;
    `linalg.inverse(...)` and `inverse(...)` both count as calls of `inverse`."""
    found: dict[str, set[str]] = {}
    for name, func in package_functions():
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                called = node.func.attr if isinstance(node.func, ast.Attribute) else (
                    node.func.id if isinstance(node.func, ast.Name) else None)
                found.setdefault(called, set()).add(name)
    return found


ELIMINATION = {"Echelon", "rref", "rank", "nullspace", "inverse", "Coordinates", "det",
               "transpose"}


def test_matrices_act_in_one_kernel():
    # `linalg` keeps elimination only (and `is_zero_scalar`, the entry test
    # behind it); a matrix acts on a tensor, M^T omega M included, through
    # `_changed_comps`, whose first difference from a target one reader
    # finds for the isomorphism check, the symplectic-map check and the
    # standard-form assertion of `model_at_point`
    package = pathlib.Path(symplectic.__file__).parent
    tree = ast.parse((package / "linalg.py").read_text(encoding="utf-8"))
    public = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert public == ELIMINATION | {"is_zero_scalar"}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = node.attr if isinstance(node, ast.Attribute) else (
                node.name if isinstance(node, ast.alias) else None)
            assert named not in {"matmul", "solve"}, f"{path.name}:{node.lineno} names {named}"
    calls = callers()
    assert calls["_changed_comps"] == {"symplectic.change_basis",
                                       "symplectic._first_changed_difference"}
    assert calls["_first_changed_difference"] == {"symplectic._pullback_defect",
                                                  "models.verify_model_isomorphism"}
    assert calls["_pullback_defect"] == {"symplectic.first_symplectic_defect",
                                         "charts.model_at_point"}

import ast
import pathlib
import random
from fractions import Fraction

import pytest

from fedosov import symplectic
from fedosov.symplectic import (
    COV, CON, SymplecticSpace, Tensor, _flat, _index_of_key, _unflat,
    change_basis, contract_s13, contract_t12, contract_t13,
    cotorsion_lower, cotorsion_raise, cyclic_sum, is_symplectic_matrix,
    musical_flat, musical_sharp, tensor_from_json, tensor_to_json,
    torsion_lower, torsion_raise,
)
from conftest import (
    random_antisymmetric_tensor, random_symmetric_tensor, random_tensor,
    random_symplectic_matrix, random_vector,
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


def codec_sites() -> tuple[set[str], set[str]]:
    """The top-level functions and methods of the package that fold a flat
    position over an index sequence (`x = x * dim + i`), and those that
    read a comma-joined key (a comprehension of `int(...)` over a
    `.split(",")`).  A nested function counts for the function around it."""
    folds, key_parses = set(), set()
    for path in sorted(pathlib.Path(symplectic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                      if isinstance(cls, ast.ClassDef)
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
        for name, func in functions:
            for node in ast.walk(func):
                if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, ast.BinOp)
                        and isinstance(node.value.op, ast.Add)
                        and isinstance(node.value.left, ast.BinOp)
                        and isinstance(node.value.left.op, ast.Mult)
                        and isinstance(node.value.left.left, ast.Name)
                        and node.value.left.left.id == node.targets[0].id):
                    folds.add(f"{path.stem}.{name}")
                if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)) and any(
                        isinstance(gen.iter, ast.Call) and isinstance(gen.iter.func, ast.Attribute)
                        and gen.iter.func.attr == "split" and gen.iter.args
                        and isinstance(gen.iter.args[0], ast.Constant)
                        and gen.iter.args[0].value == "," for gen in node.generators) and any(
                        isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "int" for call in ast.walk(node.elt)):
                    key_parses.add(f"{path.stem}.{name}")
    return folds, key_parses


def test_indices_convert_in_one_codec():
    # `_flat` is the one generic index-to-flat conversion, and one parser
    # reads the index keys of tensor, model and chart files; the "[i,j]"
    # bracket keys of a presentation file are another format, parsed in place
    folds, key_parses = codec_sites()
    assert folds == {"symplectic._flat"}
    assert key_parses == {"symplectic._index_of_key", "models.presentation_from_json"}

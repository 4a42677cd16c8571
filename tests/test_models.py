import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov import linalg
from fedosov.models import (
    InfinitesimalModel, LieAlgebraPresentation,
    bianchi_classify, check_model_axioms, derivation_action,
    model_from_json, model_from_pair, model_stabilizer_algebra, model_to_json,
    nomizu_algebra, pair_from_model, presentation_from_json,
    presentation_to_json, push_tensor, standard_omega_tensor,
    transvection_algebra, transvection_subalgebra, trivial_model,
    verify_model_isomorphism,
)
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, is_symplectic_matrix
from conftest import (
    dense_presentation_json, matvec, random_structure_tensor, random_symplectic_matrix,
    sparse_brackets, valid_random_model,
)


def model_from_structure(rng, n, bound=2) -> InfinitesimalModel:
    """Shift the flat pair by a *generic* structure tensor.

    The result satisfies the antisymmetries but generically none of the
    deeper axioms; fine for round-trip and nullspace tests, not a valid
    model (use `valid_random_model` for those).
    """
    space = SymplecticSpace(n)
    s = random_structure_tensor(rng, n, bound)
    zero_r = Tensor.zeros(space.dim, (COV, COV, COV, CON), space=space)
    zero_t = Tensor.zeros(space.dim, (COV, COV, CON), space=space)
    r_tilde, t_tilde = model_from_pair(zero_r, zero_t, s)
    return InfinitesimalModel(space=space, curvature=r_tilde, torsion=t_tilde,
                              aux=(standard_omega_tensor(space),))


def presentation(brackets, dim=3):
    zero = Fraction(0)
    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        for k, v in enumerate(vec):
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return LieAlgebraPresentation(
        dim=dim, basis_labels=tuple(f"b{i + 1}" for i in range(dim)),
        brackets=sparse_brackets(c))


def test_trivial_model_passes_axioms():
    report = check_model_axioms(trivial_model(1))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "first_bianchi" in names and "second_bianchi" in names


def test_axiom_failure_carries_witness():
    model = trivial_model(1)
    comps = list(model.torsion.comps)
    comps[0] = Fraction(1)  # breaks antisymmetry at (1,1)
    bad = InfinitesimalModel(space=model.space,
                             curvature=model.curvature,
                             torsion=Tensor(2, (COV, COV, CON), comps, space=model.space),
                             aux=model.aux)
    report = check_model_axioms(bad)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing and failing[0].witness


def test_asymmetric_torsion_perturbation_breaks_axioms():
    # perturb a valid n=2 model's torsion in one component: the first Bianchi
    # sum or a derivation condition must fail
    rng = random.Random(12)
    model = valid_random_model(rng, 2)
    assert check_model_axioms(model).passed
    comps = list(model.torsion.comps)
    comps[(0 * 4 + 1) * 4 + 2] += Fraction(1)
    perturbed = InfinitesimalModel(
        space=model.space, curvature=model.curvature,
        torsion=Tensor(4, (COV, COV, CON), comps, space=model.space),
        aux=model.aux)
    report = check_model_axioms(perturbed)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert all(c.witness for c in failing)


def test_model_from_pair_with_zero_structure():
    space = SymplecticSpace(1)
    rng = random.Random(7)
    s = Tensor.zeros(2, (COV, COV, CON), space=space)
    r = Tensor.zeros(2, (COV, COV, COV, CON), space=space)
    t = Tensor.zeros(2, (COV, COV, CON), space=space)
    r2, t2 = model_from_pair(r, t, s)
    assert r2.is_zero() and t2.is_zero()


def test_model_pair_round_trip_random():
    rng = random.Random(99)
    for n in (1, 2):
        space = SymplecticSpace(n)
        for _ in range(50):
            s = random_structure_tensor(rng, n)
            # random antisymmetric torsion and (1,2)-antisymmetric curvature
            t = Tensor.build(space.dim, (COV, COV, CON),
                             lambda i, j, k: Fraction(rng.randint(-3, 3)))
            t = Tensor.build(space.dim, (COV, COV, CON),
                             lambda i, j, k: t[i, j, k] - t[j, i, k], space=space)
            r = Tensor.build(space.dim, (COV, COV, COV, CON),
                             lambda i, j, k, l: Fraction(rng.randint(-3, 3)))
            r = Tensor.build(space.dim, (COV, COV, COV, CON),
                             lambda i, j, k, l: r[i, j, k, l] - r[j, i, k, l],
                             space=space)
            r_tilde, t_tilde = model_from_pair(r, t, s)
            r_back, t_back = pair_from_model(r_tilde, t_tilde, s)
            assert r_back == r and t_back == t


def test_linear_type_structure_from_pair_produces_valid_model():
    # S of linear type with xi = e1 on the flat base: the shifted pair must
    # satisfy all model axioms
    space = SymplecticSpace(1)
    xi = [Fraction(1), Fraction(0)]

    def entry(i, j, k):
        value = space.omega[i][j] * xi[k]
        value -= sum(space.omega[j][m] * xi[m] for m in range(2)) * (1 if k == i else 0)
        return value

    s = Tensor.build(2, (COV, COV, CON), entry, space=space)
    zero_r = Tensor.zeros(2, (COV, COV, COV, CON), space=space)
    zero_t = Tensor.zeros(2, (COV, COV, CON), space=space)
    r_tilde, t_tilde = model_from_pair(zero_r, zero_t, s)
    model = InfinitesimalModel(space=space, curvature=r_tilde, torsion=t_tilde,
                               aux=(standard_omega_tensor(space), s))
    assert check_model_axioms(model).passed
    r_back, t_back = pair_from_model(r_tilde, t_tilde, s)
    assert r_back.is_zero() and t_back.is_zero()


def test_isomorphism_identity():
    model = trivial_model(1)
    f = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    report = verify_model_isomorphism(f, model, model)
    assert report.passed
    assert report.check("map_is_symplectic").passed


def test_isomorphism_rejects_non_symplectic_map():
    model = trivial_model(1)
    f = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
    report = verify_model_isomorphism(f, model, model)
    assert not report.passed
    assert not report.check("aux1_pushforward").passed  # omega is not preserved
    assert report.check("map_is_symplectic").witness == "(f^T omega f - omega) at (1,2) is 1"
    # the inverse direction reaches the same verdict
    back = verify_model_isomorphism(linalg.inverse(f), model, model)
    assert not back.passed
    assert not back.check("aux1_pushforward").passed


def test_isomorphism_rejects_singular_map():
    model = trivial_model(1)
    f = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    with pytest.raises(ValueError):
        verify_model_isomorphism(f, model, model)


NON_SQUARE_MAPS = {
    "2x3": [[1, 0, 0], [0, 1, 0]],
    "3x2": [[1, 0], [0, 1], [0, 0]],
    "1x1": [[1]],
    "3x3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
}


@pytest.mark.parametrize("shape", NON_SQUARE_MAPS)
def test_maps_of_the_wrong_shape_are_rejected(shape):
    # before, a 2x3 map passed all five checks on a 2D model, a 1x1 map
    # raised IndexError and a 3x3 map a component-count error
    model = trivial_model(1)
    f = [[Fraction(x) for x in row] for row in NON_SQUARE_MAPS[shape]]
    message = f"the linear map is {shape}, not 2x2"
    with pytest.raises(ValueError, match=message):
        verify_model_isomorphism(f, model, model)
    for t in (model.curvature, model.torsion, *model.aux):
        with pytest.raises(ValueError, match=message):
            push_tensor(f, t)
    if shape[0] != shape[2]:
        with pytest.raises(ValueError, match="matrix is not square"):
            linalg.inverse(f)


def test_ragged_map_is_rejected():
    model = trivial_model(1)
    f = [[Fraction(1), Fraction(0)], [Fraction(1)]]
    with pytest.raises(ValueError, match="the linear map is 2x1/2, not 2x2"):
        verify_model_isomorphism(f, model, model)
    with pytest.raises(ValueError, match="matrix is not square"):
        linalg.inverse(f)


def test_isomorphism_between_generator_models_via_explicit_map():
    # two torsion-only models built from the T1 generating formula, one from
    # U = e1 and one from its image under an explicit symplectic swap map;
    # the map itself realizes the isomorphism
    from fedosov.symplectic import torsion_raise

    space = SymplecticSpace(2)
    # swap e1 <-> e2 and e3 <-> e4: block-permutation, preserves omega
    f = [[Fraction(0)] * 4 for _ in range(4)]
    f[1][0] = f[0][1] = Fraction(1)
    f[3][2] = f[2][3] = Fraction(1)
    assert is_symplectic_matrix(space, f)

    def t1_model(u_index):
        from fedosov.decomposition import _t1_generator
        lowered = _t1_generator(space, u_index)
        torsion = torsion_raise(lowered)
        return InfinitesimalModel(
            space=space,
            curvature=Tensor.zeros(4, (COV, COV, COV, CON), space=space),
            torsion=torsion, aux=(standard_omega_tensor(space),))

    source = t1_model(0)      # built from U = e1
    target = t1_model(1)      # built from U = f(e1) = e2
    report = verify_model_isomorphism(f, source, target)
    assert report.passed


def test_isomorphism_equivariance_of_pushed_model():
    rng = random.Random(13)
    for _ in range(10):
        model = model_from_structure(rng, 1)
        f = random_symplectic_matrix(rng, model.space)
        pushed = InfinitesimalModel(
            space=model.space,
            curvature=push_tensor(f, model.curvature),
            torsion=push_tensor(f, model.torsion),
            aux=tuple(push_tensor(f, t) for t in model.aux))
        report = verify_model_isomorphism(f, model, pushed)
        assert report.passed
        # inverse direction agrees
        back = verify_model_isomorphism(linalg.inverse(f), pushed, model)
        assert back.passed


def test_nomizu_trivial_model():
    algebra = nomizu_algebra(trivial_model(1))
    assert algebra.dim == 5  # R^2 + sp(1)
    assert algebra.subspaces["V"] == (0, 1)
    assert len(algebra.subspaces["h0"]) == 3
    assert algebra.first_jacobi_failure() is None


def test_stabilizer_inside_symplectic_algebra():
    rng = random.Random(23)
    for _ in range(5):
        model = model_from_structure(rng, 1)
        space = model.space
        for endo in model_stabilizer_algebra(model):
            for x in range(2):
                for y in range(2):
                    lhs = sum(space.omega[a][y] * endo[a][x] for a in range(2))
                    rhs = sum(space.omega[x][a] * endo[a][y] for a in range(2))
                    assert lhs + rhs == 0


def test_stabilizer_drops_for_generic_curvature():
    rng = random.Random(31)
    model = model_from_structure(rng, 1)
    full = 3  # dim sp(1)
    if model.curvature.is_zero():
        pytest.skip("random structure produced flat curvature")
    assert len(model_stabilizer_algebra(model)) < full


def test_transvection_zero_curvature():
    rng = random.Random(3)
    space = SymplecticSpace(1)
    t = Tensor.build(2, (COV, COV, CON),
                     lambda i, j, k: Fraction(1) if (i, j) == (0, 1) and k == 0
                     else (Fraction(-1) if (i, j) == (1, 0) and k == 0 else Fraction(0)),
                     space=space)
    model = InfinitesimalModel(
        space=space,
        curvature=Tensor.zeros(2, (COV, COV, COV, CON), space=space),
        torsion=t, aux=())
    assert transvection_subalgebra(model) == []
    algebra = transvection_algebra(model)
    assert algebra.dim == 2
    # bracket [e1, e2] = -T(e1,e2) = -e1
    assert algebra.brackets == {(0, 1): {0: -1}}


def test_transvection_contained_in_stabilizer_for_random_models():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.choice((1, 2))
        model = valid_random_model(rng, n)
        h0 = model_stabilizer_algebra(model)
        h0_rows = [[x for row in e for x in row] for e in h0]
        for endo in transvection_subalgebra(model):
            flat = [x for row in endo for x in row]
            if h0_rows:
                assert linalg.rank(h0_rows) == linalg.rank(h0_rows + [flat])
            else:
                assert all(v == 0 for v in flat)


def test_nomizu_structure_constants_transport_under_isomorphism():
    # push a model through a symplectic map and check the induced map on
    # V + h0 carries structure constants to structure constants
    rng = random.Random(61)
    model = valid_random_model(rng, 1)
    f = random_symplectic_matrix(rng, model.space)
    pushed = InfinitesimalModel(
        space=model.space,
        curvature=push_tensor(f, model.curvature),
        torsion=push_tensor(f, model.torsion),
        aux=tuple(push_tensor(f, t) for t in model.aux))
    assert verify_model_isomorphism(f, model, pushed).passed

    a1 = nomizu_algebra(model)
    a2 = nomizu_algebra(pushed)
    d = model.space.dim
    h1 = model_stabilizer_algebra(model)
    h2 = model_stabilizer_algebra(pushed)
    assert len(h1) == len(h2)

    f_inv = linalg.inverse(f)
    # the induced map: f on V, A -> f A f^{-1} on h0, expressed over h2
    h2_rows = [[x for row in e for x in row] for e in h2]

    def induced(vec):
        out_v = matvec(f, vec[:d])
        out_h = [Fraction(0)] * len(h2)
        for a, c in enumerate(vec[d:]):
            if c == 0:
                continue
            conj = linalg.matmul(linalg.matmul(f, h1[a]), f_inv)
            flat = [x for row in conj for x in row]
            coords = linalg.solve(linalg.transpose(h2_rows), flat)
            assert coords is not None
            out_h = [x + c * y for x, y in zip(out_h, coords)]
        return out_v + out_h

    unit = [[Fraction(1) if i == j else Fraction(0) for i in range(a1.dim)]
            for j in range(a1.dim)]
    for i in range(a1.dim):
        for j in range(a1.dim):
            lhs = induced(a1.bracket(unit[i], unit[j]))
            rhs = a2.bracket(induced(unit[i]), induced(unit[j]))
            assert lhs == rhs


def test_presentation_rejects_jacobi_failure():
    with pytest.raises(ValueError):
        # [b1,b2] = b3, [b1,b3] = b1, [b2,b3] = b2 fails Jacobi
        presentation({(0, 1): (0, 0, 1), (0, 2): (1, 0, 0), (1, 2): (0, 1, 0)})


def _dense_jacobi_failure(c, dim):
    """The Jacobi scan on dense brackets of unit vectors (the old path)."""
    def bracket(x, y):
        out = [Fraction(0)] * dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                for k in range(dim):
                    out[k] += xi * yj * c[i][j][k]
        return out

    unit = [[Fraction(int(a == b)) for a in range(dim)] for b in range(dim)]
    for i, j, k in itertools.combinations(range(dim), 3):
        total = [Fraction(0)] * dim
        for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
            total = [x + y for x, y in zip(total, bracket(unit[a], c[b][cc]))]
        if any(total):
            return (i + 1, j + 1, k + 1)
    return None


def _first_antisymmetry_failure(c, dim):
    return next(((i + 1, j + 1) for i in range(dim) for j in range(dim)
                 if any(c[i][j][k] != -c[j][i][k] for k in range(dim))), None)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_presentation_checks_match_dense_scans(data):
    """Given every entry of dense constants, both orders of each pair, the
    reader rejects the first pair that is not antisymmetric, and the
    presentation then the first triple that fails the Jacobi identity."""
    dim = data.draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, Fraction(1, 2)))
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                c[i][j][k] = Fraction(data.draw(entry))
                c[j][i][k] = -c[i][j][k]
    if data.draw(st.booleans()):  # break antisymmetry in one entry
        i, j, k = (data.draw(st.integers(0, dim - 1)) for _ in range(3))
        c[i][j][k] += 1
    bad_pair = _first_antisymmetry_failure(c, dim)
    bad_triple = _dense_jacobi_failure(c, dim)
    if bad_pair is not None:
        i, j = bad_pair
        message = (f"bad bracket key '[{i},{i}]'" if i == j
                   else f"brackets '[{i},{j}]' and '[{j},{i}]' disagree")
    elif bad_triple is not None:
        message = f"Jacobi identity fails on basis triple {bad_triple}"
    else:
        presentation_from_json(dense_presentation_json(c))
        return
    with pytest.raises(ValueError) as err:
        presentation_from_json(dense_presentation_json(c))
    assert str(err.value) == message


def test_presentation_json_round_trip():
    alg = presentation({(0, 1): (0, 3, 1), (2, 0): (0, 2, 0)})
    data = presentation_to_json(alg)
    again = presentation_from_json(data)
    assert again.brackets == alg.brackets
    assert again.basis_labels == alg.basis_labels
    # a pair may also be given under both orders, when they agree
    data["structure_constants"]["[2,1]"] = {"2": "-3", "3": "-1"}
    assert presentation_from_json(data).brackets == alg.brackets


def test_model_json_round_trip():
    rng = random.Random(5)
    model = model_from_structure(rng, 1)
    again = model_from_json(model_to_json(model))
    assert again.curvature == model.curvature
    assert again.torsion == model.torsion
    assert len(again.aux) == len(model.aux)


# -- Bianchi classification ------------------------------------------------------------

def test_bianchi_abelian():
    assert bianchi_classify(presentation({})).tag == "I"


def test_bianchi_heisenberg():
    assert bianchi_classify(presentation({(0, 1): (0, 0, 1)})).tag == "II"


def test_bianchi_type_iii():
    # [b1,b3] = b1 only: 1-dimensional non-central derived algebra
    assert bianchi_classify(presentation({(0, 2): (1, 0, 0)})).tag == "III"


def test_bianchi_type_iv_and_v():
    # V: ad is the identity on the derived algebra
    five = presentation({(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)})
    assert bianchi_classify(five).tag == "V"
    # IV: a Jordan block
    four = presentation({(0, 1): (0, 1, 0), (0, 2): (0, 1, 1)})
    assert bianchi_classify(four).tag == "IV"


def test_bianchi_type_vi_parameters():
    # eigenvalues 1 and 2 on the derived algebra
    alg = presentation({(0, 1): (0, 1, 0), (0, 2): (0, 0, 2)})
    result = bianchi_classify(alg)
    assert result.tag == "VI"
    assert result.parameters == frozenset((Fraction(2), Fraction(1, 2)))
    assert result.invariant == Fraction(9, 2)


def test_bianchi_type_vi_unimodular():
    alg = presentation({(0, 1): (0, 1, 0), (0, 2): (0, 0, -1)})
    result = bianchi_classify(alg)
    assert result.tag == "VI"
    assert result.parameters == frozenset((Fraction(-1),))
    assert "unimodular" in result.notes


def test_bianchi_type_vii():
    # rotation-like adjoint action: complex eigenvalues
    alg = presentation({(0, 1): (0, 0, 1), (0, 2): (0, -1, 0)})
    result = bianchi_classify(alg)
    assert result.tag == "VII"


def test_bianchi_semisimple():
    sl2 = presentation({(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})
    assert bianchi_classify(sl2).tag == "VIII"
    so3 = presentation({(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (2, 0): (0, 1, 0)})
    assert bianchi_classify(so3).tag == "IX"


def test_bianchi_parameters_invariant_under_bracket_scaling():
    # rescaling the bracket rescales the adjoint action, leaving the
    # eigenvalue ratio and the classification unchanged
    alg = presentation({(0, 1): (0, 3, 1), (2, 0): (0, 2, 0)})
    scaled = presentation({(0, 1): (0, 9, 3), (2, 0): (0, 6, 0)})
    a, b = bianchi_classify(alg), bianchi_classify(scaled)
    assert a.tag == b.tag == "VI"
    assert a.parameters == b.parameters == frozenset((Fraction(2), Fraction(1, 2)))
    assert a.invariant == b.invariant


def test_bianchi_rejects_wrong_dimension():
    small = LieAlgebraPresentation(dim=2, basis_labels=("a", "b"), brackets={})
    with pytest.raises(ValueError):
        bianchi_classify(small)


def test_derivation_action_on_omega_detects_non_symplectic():
    space = SymplecticSpace(1)
    omega = standard_omega_tensor(space)
    diagonal = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    acted = derivation_action(diagonal, omega)
    assert not acted.is_zero()  # identity is not in sp
    symplectic_gen = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert derivation_action(symplectic_gen, omega).is_zero()

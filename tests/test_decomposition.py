import random
from fractions import Fraction

import pytest

from fedosov import linalg
from fedosov.decomposition import (
    COTORSION_LABELS, SUBMODULE_LABELS, TORSION_LABELS,
    ambient_dimension, build_basis, class_predicate, closed_form_dimension,
    cotorsion_to_torsion, covector_contraction, covector_to_cotorsion,
    decompose_cotorsion, decompose_torsion, dimension_table,
    expected_dimension, omega_wedge, omega_wedge_section_scale,
    submodule_dimension, symplectify_torsion, threeform_basis,
    _s1_generator, _t1_generator, _t3_generator, _vectorize,
)
from fedosov.symplectic import (
    COV, SymplecticSpace, Tensor, contract_s13, contract_t12,
    contract_t13, cyclic_sum, musical_flat,
)
from conftest import (
    oracle_s13, oracle_t12, oracle_t13,
    random_antisymmetric_tensor, random_symmetric_tensor, sympy_solve_columns,
)


def unit(dim, i):
    v = [Fraction(0)] * dim
    v[i] = Fraction(1)
    return v


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_cardinalities_match_corrected_closed_forms(n):
    for label in SUBMODULE_LABELS:
        assert len(build_basis(label, n).elements) == expected_dimension(label, n)


def test_specific_dimensions():
    assert len(build_basis("S1", 2).elements) == 4
    assert len(build_basis("S2", 1).elements) == 0
    assert len(build_basis("T4", 3).elements) == 14
    assert submodule_dimension("T1", 1) == 2 == ambient_dimension("torsion", 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_direct_sums_have_full_rank(n):
    for kind, labels in (("cotorsion", COTORSION_LABELS), ("torsion", TORSION_LABELS)):
        vecs = []
        for label in labels:
            vecs.extend(_vectorize(t, kind) for t in build_basis(label, n).elements)
        assert len(vecs) == ambient_dimension(kind, n)
        assert linalg.rank(vecs) == ambient_dimension(kind, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_elements_satisfy_predicates(n):
    for label in SUBMODULE_LABELS:
        for element in build_basis(label, n).elements:
            assert class_predicate(label, element)


def test_decompose_zero_has_empty_type_set():
    space = SymplecticSpace(2)
    zero = Tensor.zeros(4, (COV, COV, COV), space=space)
    assert decompose_cotorsion(zero).type_set == frozenset()
    assert decompose_torsion(zero).type_set == frozenset()


@pytest.mark.parametrize("n", [1, 2])
def test_decompose_basis_element_returns_itself(n):
    for label in COTORSION_LABELS:
        for element in build_basis(label, n).elements[:2]:
            result = decompose_cotorsion(element)
            assert result.type_set == ({label} if not element.is_zero() else set())
            assert result.part(label) == element
    for label in TORSION_LABELS:
        for element in build_basis(label, n).elements[:2]:
            result = decompose_torsion(element)
            assert result.type_set <= {label}
            assert result.part(label) == element


def test_decompose_reassembles_and_is_idempotent():
    rng = random.Random(90)
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for _ in range(5):
            s = random_symmetric_tensor(rng, n)
            result = decompose_cotorsion(s)
            total = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
            for label in COTORSION_LABELS:
                part = result.part(label)
                assert class_predicate(label, part) or part.is_zero()
                total = total + part
                again = decompose_cotorsion(part)
                assert again.part(label) == part
                for other in COTORSION_LABELS:
                    if other != label:
                        assert again.part(other).is_zero()
            assert total == s

            t = random_antisymmetric_tensor(rng, n)
            result = decompose_torsion(t)
            total = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
            for label in TORSION_LABELS:
                total = total + result.part(label)
            assert total == t


def test_decompose_rejects_wrong_symmetry():
    rng = random.Random(3)
    with pytest.raises(ValueError):
        decompose_cotorsion(random_antisymmetric_tensor(rng, 2))
    with pytest.raises(ValueError):
        decompose_torsion(random_symmetric_tensor(rng, 2))


def test_decomposition_against_sympy_oracle():
    rng = random.Random(404)
    cases = [("cotorsion", 2, COTORSION_LABELS, random_symmetric_tensor,
              decompose_cotorsion, 3),
             ("torsion", 2, TORSION_LABELS, random_antisymmetric_tensor,
              decompose_torsion, 3),
             ("torsion", 3, TORSION_LABELS, random_antisymmetric_tensor,
              decompose_torsion, 1)]
    for kind, n, labels, gen, decomp, samples in cases:
        columns = []
        owners = []
        for label in labels:
            for element in build_basis(label, n).elements:
                columns.append(_vectorize(element, kind))
                owners.append(label)
        for _ in range(samples):
            t = gen(rng, n)
            coeffs = sympy_solve_columns(columns, _vectorize(t, kind))
            result = decomp(t)
            space = SymplecticSpace(n)
            all_elements = [e for lab in labels for e in build_basis(lab, n).elements]
            for label in labels:
                expected = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
                for c, owner, element in zip(coeffs, owners, all_elements):
                    if owner == label and c != 0:
                        expected = expected + element.scale(c)
                assert result.part(label) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_s13_closed_form_on_s1_generators(n):
    space = SymplecticSpace(n)
    for u in range(space.dim):
        s = _s1_generator(space, u)
        got = contract_s13(s)
        brute = oracle_s13(s)
        assert got == brute
        expected = [(2 * n + 1) * space.omega[u][z] for z in range(space.dim)]
        assert got == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_t12_closed_form_on_t1_generators(n):
    space = SymplecticSpace(n)
    for u in range(space.dim):
        t = _t1_generator(space, u)
        got = contract_t12(t)
        assert got == oracle_t12(t)
        expected = [(2 * n + 1) * space.omega[z][u] for z in range(space.dim)]
        assert got == expected


@pytest.mark.parametrize("n", [2, 3])
def test_s13_vanishes_on_s2_and_t12_on_t2_t4(n):
    for element in build_basis("S2", n).elements:
        assert all(v == 0 for v in contract_s13(element))
        assert cyclic_sum(element).is_zero()
    for label in ("T2", "T4"):
        for element in build_basis(label, n).elements:
            assert all(v == 0 for v in contract_t12(element))
    for element in build_basis("T4", n).elements:
        assert element.is_antisymmetric_in(1, 2)


def test_contractions_match_oracles_on_random_tensors():
    rng = random.Random(313)
    for n in (1, 2, 3):
        for _ in range(10):
            s = random_symmetric_tensor(rng, n)
            assert contract_s13(s) == oracle_s13(s)
            t = random_antisymmetric_tensor(rng, n)
            assert contract_t12(t) == oracle_t12(t)
            assert contract_t13(t) == oracle_t13(t)


@pytest.mark.parametrize("n", [2, 3])
def test_cotorsion_to_torsion_class_mapping(n):
    for element in build_basis("S1", n).elements:
        image = cotorsion_to_torsion(element)
        assert decompose_torsion(image).type_set == {"T1"}
    for element in build_basis("S2", n).elements:
        image = cotorsion_to_torsion(element)
        assert decompose_torsion(image).type_set == {"T2"}
    for element in build_basis("S3", n).elements:
        assert cotorsion_to_torsion(element).is_zero()


def test_cotorsion_to_torsion_zero():
    space = SymplecticSpace(2)
    zero = Tensor.zeros(4, (COV, COV, COV), space=space)
    assert cotorsion_to_torsion(zero).is_zero()


def test_s1_generator_maps_to_t1_generator():
    # the antisymmetrization of the S1 generator built from U is exactly the
    # T1 generator built from the same U
    for n in (1, 2):
        space = SymplecticSpace(n)
        for u in range(space.dim):
            assert cotorsion_to_torsion(_s1_generator(space, u)) == _t1_generator(space, u)


def test_embedding_image_lies_in_s1_and_traces_back():
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for i in range(space.dim):
            u_star = musical_flat(space, unit(space.dim, i))
            s = covector_to_cotorsion(space, u_star)
            assert class_predicate("S1", s)
            assert contract_s13(s) == [-v for v in u_star]


def test_omega_wedge_equals_t3_generator():
    for n in (1, 2, 3):
        space = SymplecticSpace(n)
        for u in range(space.dim):
            u_star = musical_flat(space, unit(space.dim, u))
            assert omega_wedge(space, u_star) == _t3_generator(space, u)


@pytest.mark.parametrize("n", [2, 3])
def test_covector_contraction_section_identity(n):
    space = SymplecticSpace(n)
    scale = omega_wedge_section_scale(n)
    assert scale == 3 * (n - 1)
    for i in range(space.dim):
        u_star = unit(space.dim, i)
        wedge = omega_wedge(space, u_star)
        assert covector_contraction(wedge) == [scale * v for v in u_star]


def test_section_identity_rejected_for_n1():
    with pytest.raises(ValueError):
        omega_wedge_section_scale(1)


def test_all_structural_maps_send_zero_to_zero():
    space = SymplecticSpace(2)
    zero3 = Tensor.zeros(4, (COV, COV, COV), space=space)
    zero_covector = [Fraction(0)] * 4
    assert cotorsion_to_torsion(zero3).is_zero()
    assert cyclic_sum(zero3).is_zero()
    assert all(v == 0 for v in covector_contraction(zero3))
    assert all(v == 0 for v in contract_s13(zero3))
    assert omega_wedge(space, zero_covector).is_zero()
    assert covector_to_cotorsion(space, zero_covector).is_zero()


def test_t1_generator_equivariant_under_symplectic_maps():
    # pushing the generator built from U along a symplectic map gives the
    # generator built from the image of U
    import random as _random
    from fedosov.models import push_tensor
    from conftest import random_symplectic_matrix
    from fedosov.decomposition import _t1_generator, _s1_generator

    rng = _random.Random(88)
    for n in (1, 2):
        space = SymplecticSpace(n)
        f = random_symplectic_matrix(rng, space)
        for u in range(space.dim):
            fu = [f[i][u] for i in range(space.dim)]

            def generator_from_vector(gen, vec):
                acc = Tensor.zeros(space.dim, (COV, COV, COV), space=space)
                for idx, coeff in enumerate(vec):
                    if coeff:
                        acc = acc + gen(space, idx).scale(coeff)
                return acc

            pushed = push_tensor(f, _t1_generator(space, u))
            assert pushed == generator_from_vector(_t1_generator, fu)
            pushed_s = push_tensor(f, _s1_generator(space, u))
            assert pushed_s == generator_from_vector(_s1_generator, fu)


def test_cyclic_symmetrization_of_symmetric_is_triple():
    rng = random.Random(6)
    basis = build_basis("S3", 2)
    for element in basis.elements[:5]:
        assert cyclic_sum(element) == element.scale(Fraction(3))


@pytest.mark.parametrize("n", [1, 2])
def test_symplectify_round_trip(n):
    rng = random.Random(71)
    space = SymplecticSpace(n)
    elements = (list(build_basis("T1", n).elements)
                + list(build_basis("T2", n).elements))
    for _ in range(10):
        t = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
        for e in elements:
            c = Fraction(rng.randint(-4, 4))
            if c:
                t = t + e.scale(c)
        s = symplectify_torsion(t)
        assert s.is_symmetric_in(0, 1)
        assert cotorsion_to_torsion(s.scale(-1)) == t
        # least-structured: no totally symmetric component
        assert decompose_cotorsion(s).part("S3").is_zero()


def test_symplectify_round_trip_n3():
    rng = random.Random(72)
    n = 3
    space = SymplecticSpace(n)
    elements = (list(build_basis("T1", n).elements)
                + list(build_basis("T2", n).elements))
    for _ in range(2):
        t = Tensor.zeros(2 * n, (COV, COV, COV), space=space)
        for e in elements:
            c = Fraction(rng.randint(-3, 3))
            if c:
                t = t + e.scale(c)
        s = symplectify_torsion(t)
        assert cotorsion_to_torsion(s.scale(-1)) == t


def test_symplectify_zero():
    space = SymplecticSpace(2)
    zero = Tensor.zeros(4, (COV, COV, COV), space=space)
    assert symplectify_torsion(zero).is_zero()


def test_symplectify_rejects_threeform_directions():
    for label in ("T3", "T4"):
        for n in (2, 3):
            basis = build_basis(label, n)
            if not basis.elements:
                continue
            with pytest.raises(ValueError):
                symplectify_torsion(basis.elements[0])
            break


@pytest.mark.parametrize("n", [2, 3])
def test_subspace_sum_identities(n):
    """The four span identities tying the classes to kernel conditions."""
    kind = "torsion"
    dim = 2 * n

    def span_vecs(labels):
        vecs = []
        for label in labels:
            vecs.extend(_vectorize(t, kind) for t in build_basis(label, n).elements)
        return vecs

    def kernel_vecs(condition):
        # condition maps a torsion-like tensor to a list of scalars
        from fedosov.decomposition import _coordinates, _tensor_from_vec
        coords = _coordinates(dim, kind)
        space = SymplecticSpace(n)
        rows = []
        for pos in range(len(coords)):
            vec = [Fraction(0)] * len(coords)
            vec[pos] = Fraction(1)
            tensor = _tensor_from_vec(vec, kind, space)
            rows.append(condition(tensor))
        return linalg.nullspace(linalg.transpose(rows), ncols=len(coords))

    def spans_equal(a, b):
        ra, rb = linalg.rank(a), linalg.rank(b)
        return ra == rb == linalg.rank(a + b)

    # kernel of full antisymmetrization = T1 + T2
    assert spans_equal(span_vecs(("T1", "T2")),
                       kernel_vecs(lambda t: list(cyclic_sum(t).comps)))
    # kernel of t12 = T2 + T4 + W
    assert spans_equal(span_vecs(("T2", "T4", "W")),
                       kernel_vecs(lambda t: contract_t12(t)))
    # totally antisymmetric subspace = T3 + T4
    assert spans_equal(span_vecs(("T3", "T4")),
                       [_vectorize(t, kind) for t in threeform_basis(n)])
    # kernel of t12 and t13 = T2 + T4
    assert spans_equal(span_vecs(("T2", "T4")),
                       kernel_vecs(lambda t: contract_t12(t) + contract_t13(t)))


def test_decomposition_is_linear():
    rng = random.Random(500)
    for n in (1, 2):
        a = random_antisymmetric_tensor(rng, n)
        b = random_antisymmetric_tensor(rng, n)
        ca, cb = Fraction(3, 2), Fraction(-7)
        combo = a.scale(ca) + b.scale(cb)
        parts_a = decompose_torsion(a).parts
        parts_b = decompose_torsion(b).parts
        parts_c = decompose_torsion(combo).parts
        for label in TORSION_LABELS:
            assert parts_c[label] == parts_a[label].scale(ca) + parts_b[label].scale(cb)


def test_decomposition_commutes_with_symplectic_pushforward():
    # the classes are invariant under the symplectic group, so decomposing a
    # pushed tensor must give the pushed parts
    from fedosov.models import push_tensor
    from conftest import random_symplectic_matrix

    rng = random.Random(501)
    for n in (1, 2):
        space = SymplecticSpace(n)
        f = random_symplectic_matrix(rng, space)
        t = random_antisymmetric_tensor(rng, n)
        pushed = push_tensor(f, t)
        parts = decompose_torsion(t).parts
        pushed_parts = decompose_torsion(pushed).parts
        for label in TORSION_LABELS:
            assert pushed_parts[label] == push_tensor(f, parts[label])
        s = random_symmetric_tensor(rng, n)
        parts = decompose_cotorsion(s).parts
        pushed_parts = decompose_cotorsion(push_tensor(f, s)).parts
        for label in COTORSION_LABELS:
            assert pushed_parts[label] == push_tensor(f, parts[label])


def test_w_has_nonzero_t13():
    for n in (2, 3):
        for element in build_basis("W", n).elements:
            assert any(v != 0 for v in contract_t13(element))
            assert all(v == 0 for v in contract_t12(element))


def test_dimension_table_notes():
    rows = dimension_table(2)
    assert rows[0].computed["T1"] == 2
    assert any("T1 alone" in note for note in rows[0].notes)
    assert any("T1+T2+T4" in note for note in rows[1].notes)
    # sums match ambient at every n
    for row in rows:
        assert sum(row.computed[k] for k in COTORSION_LABELS) == row.ambient_cotorsion
        assert sum(row.computed[k] for k in TORSION_LABELS) == row.ambient_torsion


def test_closed_form_values():
    assert closed_form_dimension("S2", 2) == 16
    assert closed_form_dimension("S3", 2) == 20
    assert closed_form_dimension("T4", 3) == 14
    assert closed_form_dimension("T4", 1) == -2  # nonsensical below n=3, clamped elsewhere
    assert expected_dimension("T4", 1) == 0

"""Shared helpers: seeded generators and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
contraction oracles are brute-force double sums written from the index
definitions, the linear-solve oracle goes through sympy, and the
derivation-action oracle is the whole-list construction that the lazy
kernel replaced, with its own slot contraction, the projector oracles
are the Fraction projectors that the integer kernel replaced, written
entry by entry from their formulas, the symmetry and Bianchi oracles
are the subtract-then-test and `Tensor.__getitem__` loops that the model
checks replaced, the model-report and annihilation oracles are the dense
checks that every entry of each derivation action and every index triple
went through before the model checks read only the nonzero data, the
stabilizer-row, stabilizer, transvection and isomorphism oracles are the
`Fraction` paths that the one-denominator int kernels of `models`
replaced, and the change-of-basis and evaluation oracles are the Fraction
loops that the scaled-integer kernels replaced.  The integrability, symplectic-basis,
model-at-point and metric-obstruction oracles are the Lie brackets of
spanning fields, the independence filter, the matrix inverse and the
nullspace-and-determinant solve that the closed forms of the chart and
linear-type modules replaced.  The elimination oracles `old_rref`, `OldEchelon` and
`old_matmul` are the field loops over `Fraction`s that the integer
elimination kernel of `linalg` replaced for rational input.  The algebra
oracles (`OldCoordinates`, `old_commutator`, `old_transvection_subalgebra`,
`old_presentation_failure`, `old_algebra_from_parts`, `old_nomizu_algebra`,
`old_bianchi_classify`) are the dense `Fraction` paths that the sparse int
kernels of the Nomizu, transvection and Bianchi steps replaced;
`old_algebra_constants` keeps their dense constants c[i][j][k], which
`old_presentation_to_json` writes and `old_bracket` reads as the dense
presentation did, `sparse_brackets` turns them into the `brackets` of a
`LieAlgebraPresentation`, and `dense_presentation_json` writes every entry
of them, both orders of each pair, for the reader; `int_form` turns a
`Fraction` matrix into the (den A as int rows, den) form the int algebra
kernels take; and
`old_parse_ratfun` is the parser that built each atom over its own
variables and aligned them operation by operation.  `chart_suite` runs
the chart suites of one `ChartRun` into one report.  Two helpers serve the
other modules' tests: `mutant` rebuilds a function from its source with
one text replaced, for the mutants the oracle comparisons must catch, and
`work_counts` counts the calls of code objects in one run, for the work
budgets.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import math
import random
import sys
import textwrap
from fractions import Fraction

import pytest

from fedosov import linalg, rationals
from fedosov.charts import (
    Chart, ChartRun, _curvature, _linear_type, _torsion, evaluate_matrix, evaluate_tensor,
    lie_bracket, tilde_christoffel,
)
from fedosov.decomposition import DecompositionResult
from fedosov.lineartype import (
    NotLinearTypeError, ObstructionVerdict, linear_type_checks, pairing_with,
)
from fedosov.models import InfinitesimalModel, standard_omega_tensor
from fedosov.rationals import PoleError, Polynomial, RationalFunction, ScaledPoint
from fedosov.reporting import Check, Report
from fedosov.symplectic import COV, CON, SymplecticSpace, Tensor, change_basis, insert_vector

# The 4D product of the second worked chart with itself, with the block sum
# `S` of its linear-type structures; its shifted curvature is zero.
PRODUCT_CHART = {
    "coords": ["x", "y", "u", "v"],
    "omega": {"1,2": "1/x^2", "3,4": "1/u^2"},
    "christoffel": {"1,1,1": "-2/x", "3,3,3": "-2/u"},
    "fields": {"S": {"valence": ["cov", "cov", "con"],
                     "components": {"1,1,1": "-1/x", "1,2,2": "1/x", "2,1,2": "-2/x",
                                    "3,3,3": "-1/u", "3,4,4": "1/u", "4,3,4": "-2/u"}}},
}


def mutant(module, name: str, old: str, new: str):
    """`module.<name>` rebuilt from its source with the one occurrence of
    `old` replaced by `new`, in a copy of the module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, f"{old!r} does not occur exactly once in {name}"
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return namespace[name]


def work_counts(run, codes: dict, when: dict | None = None) -> dict[str, int]:
    """The calls of each code object in `codes` ({code: name}) and all
    Python calls ("Python calls") of one call of `run`, after a first call
    has filled the caches.  `when` maps further names to (code, test), the
    code one of `codes`: a call of it counts under the name too when
    `test(frame)` holds, its arguments read off `frame.f_locals`.  The garbage collector is off
    while counting: the callbacks it runs (one is hypothesis's) would count
    as calls wherever a collection happened."""
    run()
    when = when or {}
    counts = dict.fromkeys([*codes.values(), *when, "Python calls"], 0)

    def profile(frame, event, arg):
        if event == "call":
            counts["Python calls"] += 1
            code = frame.f_code
            if code in codes:
                counts[codes[code]] += 1
                for name, (target, test) in when.items():
                    if code is target and test(frame):
                        counts[name] += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return counts


@pytest.fixture(params=["scaled", "unscaled"])
def scale_bound(request, monkeypatch):
    """Runs a test as it is and again with every input left unscaled."""
    if request.param == "unscaled":
        monkeypatch.setattr(rationals, "MAX_SCALE_BITS", 0)
    return request.param


def chart_suite(chart, structure=None, xi=None, xi_perp=None) -> Report:
    """The Fedosov base checks, then the linear-type suite of `xi` when it is
    given, or else the parallelism suite of `structure`."""
    run = ChartRun(chart, structure, xi)
    suite = run.parallelism_checks() if xi is None else linear_type_checks(run, xi_perp)
    return Report(title="chart suites", checks=run.base_checks() + suite)


def random_symmetric_tensor(rng: random.Random, n: int, bound: int = 9) -> Tensor:
    """Random (0,3)-tensor symmetric in the first two slots."""
    space = SymplecticSpace(n)
    d = space.dim
    comps = [Fraction(0)] * d ** 3
    for i in range(d):
        for j in range(i, d):
            for k in range(d):
                v = Fraction(rng.randint(-bound, bound))
                comps[(i * d + j) * d + k] = v
                comps[(j * d + i) * d + k] = v
    return Tensor(d, (COV, COV, COV), comps, space=space)


def random_antisymmetric_tensor(rng: random.Random, n: int, bound: int = 9) -> Tensor:
    """Random (0,3)-tensor antisymmetric in the first two slots."""
    space = SymplecticSpace(n)
    d = space.dim
    comps = [Fraction(0)] * d ** 3
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                v = Fraction(rng.randint(-bound, bound))
                comps[(i * d + j) * d + k] = v
                comps[(j * d + i) * d + k] = -v
    return Tensor(d, (COV, COV, COV), comps, space=space)


def random_tensor(rng: random.Random, n: int, valence, bound: int = 5) -> Tensor:
    space = SymplecticSpace(n)
    return Tensor(space.dim, valence,
                  [Fraction(rng.randint(-bound, bound))
                   for _ in range(space.dim ** len(valence))],
                  space=space)


def random_structure_tensor(rng: random.Random, n: int, bound: int = 3) -> Tensor:
    """Random (1,2)-tensor used as a connection-difference tensor."""
    return random_tensor(rng, n, (COV, COV, CON), bound)


def random_vector(rng: random.Random, dim: int, bound: int = 9) -> list[Fraction]:
    return [Fraction(rng.randint(-bound, bound)) for _ in range(dim)]


def random_rational_function(rng: random.Random, nvars: int = 2,
                             max_terms: int = 3, bound: int = 4) -> RationalFunction:
    """Small random rational function in <= 2 variables, nonzero denominator."""
    variables = ("x", "y")[:nvars]

    def random_poly(allow_zero: bool) -> Polynomial:
        terms = {}
        for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
            exp = tuple(rng.randint(0, 2) for _ in variables)
            coeff = Fraction(rng.randint(-bound, bound))
            if coeff:
                terms[exp] = terms.get(exp, Fraction(0)) + coeff
        return Polynomial(variables, terms)

    num = random_poly(allow_zero=True)
    den = random_poly(allow_zero=False)
    while den.is_zero():
        den = random_poly(allow_zero=False)
    return RationalFunction(num, den)


def linear_type_tensor(space: SymplecticSpace, xi) -> Tensor:
    """S_X Y = omega(X,Y) xi - omega(Y,xi) X on a constant space."""
    d = space.dim

    def entry(i, j, k):
        value = space.omega[i][j] * xi[k]
        value -= sum(space.omega[j][m] * xi[m] for m in range(d)) * (1 if k == i else 0)
        return value

    return Tensor.build(d, (COV, COV, CON), entry, space=space)


def valid_random_model(rng: random.Random, n: int):
    """A pseudorandom model that provably satisfies the model axioms.

    Generic structure tensors essentially never do (the axioms cut out a
    measure-zero set), so this samples the linear-type family (machine-
    verified valid for every xi) or the trivial model and randomizes by a
    symplectic pushforward.
    """
    from fedosov.models import (InfinitesimalModel, check_model_axioms,
                                model_from_pair, push_tensor,
                                standard_omega_tensor)

    space = SymplecticSpace(n)
    d = space.dim
    if rng.random() < 0.2:
        base = InfinitesimalModel(
            space=space,
            curvature=Tensor.zeros(d, (COV, COV, COV, CON), space=space),
            torsion=Tensor.zeros(d, (COV, COV, CON), space=space),
            aux=(standard_omega_tensor(space),))
    else:
        xi = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        if all(x == 0 for x in xi):
            xi[rng.randrange(d)] = Fraction(1)
        s = linear_type_tensor(space, xi)
        zero_r = Tensor.zeros(d, (COV, COV, COV, CON), space=space)
        zero_t = Tensor.zeros(d, (COV, COV, CON), space=space)
        r_tilde, t_tilde = model_from_pair(zero_r, zero_t, s)
        base = InfinitesimalModel(space=space, curvature=r_tilde,
                                  torsion=t_tilde,
                                  aux=(standard_omega_tensor(space), s))
    f = random_symplectic_matrix(rng, space)
    model = InfinitesimalModel(
        space=space,
        curvature=push_tensor(f, base.curvature),
        torsion=push_tensor(f, base.torsion),
        aux=tuple(push_tensor(f, t) for t in base.aux))
    report = check_model_axioms(model)
    if not report.passed:
        raise AssertionError("valid_random_model produced an invalid model")
    return model


def random_symplectic_matrix(rng: random.Random, space: SymplecticSpace,
                             transvections: int = 3) -> list[list[Fraction]]:
    """Product of random symplectic transvections x -> x + c omega(x, v) v."""
    d = space.dim
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
    for _ in range(transvections):
        v = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        if all(x == 0 for x in v):
            v[rng.randrange(d)] = Fraction(1)
        c = Fraction(rng.randint(-2, 2))
        # columns of the transvection: e_j + c omega(e_j, v) v
        t = [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        for j in range(d):
            pairing = sum(space.omega[j][k] * v[k] for k in range(d))
            for i in range(d):
                t[i][j] += c * pairing * v[i]
        m = [[sum(t[i][k] * m[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return m


# -- brute-force oracles -------------------------------------------------------------

def oracle_s13(t: Tensor) -> list[Fraction]:
    """Direct double-sum evaluation of the symmetric-pair trace."""
    n = t.dim // 2
    out = []
    for z in range(t.dim):
        total = Fraction(0)
        for i in range(n):
            total += t[i, z, i + n] - t[i + n, z, i]
        out.append(total)
    return out


def oracle_t12(t: Tensor) -> list[Fraction]:
    n = t.dim // 2
    return [sum((t[i, i + n, z] for i in range(n)), Fraction(0)) for z in range(t.dim)]


def oracle_t13(t: Tensor) -> list[Fraction]:
    n = t.dim // 2
    out = []
    for y in range(t.dim):
        total = Fraction(0)
        for i in range(n):
            total += t[i, y, i + n] - t[i + n, y, i]
        out.append(total)
    return out


def _zero(x) -> bool:
    return x == 0 if isinstance(x, (int, Fraction)) else x.is_zero()


def old_contract_slot(t: Tensor, slot: int, matrix) -> list:
    """out[..., a, ...] = sum_l t[..., l, ...] * matrix[l][a] over all entries,
    l increasing, zero terms skipped, starting from the first nonzero term."""
    d = t.dim
    stride = d ** (len(t.valence) - 1 - slot)
    comps = t.comps
    sample = comps[0]
    zero = Fraction(0) if isinstance(sample, (int, Fraction)) else sample - sample
    columns = [[(l * stride, row[a]) for l, row in enumerate(matrix) if not _zero(row[a])]
               for a in range(len(matrix[0]))]
    out = []
    for block in range(0, len(comps), d * stride):
        for column in columns:
            for base in range(block, block + stride):
                total = None
                for offset, factor in column:
                    value = comps[base + offset]
                    if _zero(value):
                        continue
                    term = value * factor
                    total = term if total is None else total + term
                out.append(zero if total is None else total)
    return out


def old_derivation_action(endo, t: Tensor) -> Tensor:
    """The derivation action of `endo` (output index first) on t: one whole
    slot contraction per slot, merged slot by slot over all entries from
    Fraction(0).  A zero t is returned as a copy."""
    if all(_zero(c) for c in t.comps):
        return Tensor(t.dim, t.valence, list(t.comps), space=t.space)
    on_con = [list(column) for column in zip(*endo)]
    on_cov = [[-x for x in row] for row in endo]
    comps = [Fraction(0)] * len(t.comps)
    for slot, kind in enumerate(t.valence):
        part = old_contract_slot(t, slot, on_con if kind == CON else on_cov)
        comps = [b if _zero(a) else a if _zero(b) else a + b for a, b in zip(comps, part)]
    return Tensor(t.dim, t.valence, comps, space=t.space)


def old_symmetry_violation(t: Tensor, a: int, b: int, anti: bool):
    """First multi-index, in `indices()` order, where t[idx] -/+ t[idx with
    slots a, b swapped] is nonzero, found by subtracting (adding) and testing."""
    for idx in t.indices():
        swapped = list(idx)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        other = t[tuple(swapped)]
        if not _zero(t[idx] + other if anti else t[idx] - other):
            return idx
    return None


def old_bianchi(model) -> tuple[tuple | None, tuple | None]:
    """The first failing (i, j, k, l) of the first Bianchi identity and
    (i, j, k, w, l) of the second, or None: the loops `check_model_axioms`
    ran before it read flat offsets, every m read through `Tensor.__getitem__`."""
    d = model.space.dim
    r, t = model.curvature, model.torsion
    first_bad = None
    for i, j, k in itertools.combinations_with_replacement(range(d), 3):
        for l in range(d):
            total = Fraction(0)
            for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                total += r[x, y, z, l]
                for m in range(d):
                    if t[x, y, m] != 0:
                        total += t[x, y, m] * t[m, z, l]
            if total != 0:
                first_bad = (i, j, k, l)
                break
        if first_bad:
            break
    second_bad = None
    for i, j, k in itertools.combinations_with_replacement(range(d), 3):
        for w in range(d):
            for l in range(d):
                total = Fraction(0)
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m in range(d):
                        if t[x, y, m] != 0:
                            total += t[x, y, m] * r[m, z, w, l]
                if total != 0:
                    second_bad = (i, j, k, w, l)
                    break
            if second_bad:
                break
        if second_bad:
            break
    return first_bad, second_bad


def old_derivation_first_nonzero(endo, t: Tensor):
    """First (multi-index, value) of `old_derivation_action(endo, t)` with a
    nonzero value, scanned over every entry, or None."""
    acted = old_derivation_action(endo, t)
    for idx in acted.indices():
        if not _zero(acted[idx]):
            return idx, acted[idx]
    return None


def old_check_model_axioms(model):
    """The model report from the dense loops: subtract-then-test symmetry,
    every entry of each derivation action, and `old_bianchi`."""
    from fedosov.models import curvature_endomorphism
    from fedosov.reporting import Check, Report, index_witness

    d = model.space.dim
    r, t = model.curvature, model.torsion
    checks = []
    for name, tensor in (("torsion_antisymmetry", t), ("curvature_antisymmetry", r)):
        bad = old_symmetry_violation(tensor, 0, 1, anti=True)
        checks.append(Check(name, bad is None, None if bad is None else index_witness(bad)))

    def derivation(name, target):
        for i, j in itertools.combinations(range(d), 2):
            hit = old_derivation_first_nonzero(curvature_endomorphism(r, i, j), target)
            if hit is not None:
                return Check(name, False, f"R(e{i + 1},e{j + 1}) acting at "
                                          f"{index_witness(hit[0])} gives {hit[1]}")
        return Check(name, True, None)

    checks.append(derivation("curvature_derivation_on_torsion", t))
    checks.append(derivation("curvature_derivation_on_curvature", r))
    for name, bad in zip(("first_bianchi", "second_bianchi"), old_bianchi(model)):
        checks.append(Check(name, bad is None, None if bad is None else index_witness(bad)))
    for pos, aux in enumerate(model.aux):
        checks.append(derivation(f"curvature_derivation_on_aux{pos + 1}", aux))
    return Report(title="infinitesimal model axioms", checks=checks)


def old_annihilates(endo, targets) -> bool:
    """`models._annihilates` from whole derivation actions: every entry of
    endo acting on each tensor of `targets` is zero."""
    return all(old_derivation_first_nonzero(endo, t) is None for t in targets)


def int_form(endo) -> tuple[list[list[int]], int]:
    """A rational matrix A as (den A as int rows, den), den the lcm of its
    denominators: the form in which `models._algebra_from_parts` takes each
    element of h and `models._annihilates` its int rows.  Tests that hand
    those kernels `Fraction` matrices convert them here."""
    den = math.lcm(*(Fraction(x).denominator for row in endo for x in row))
    return [[int(x * den) for x in row] for row in endo], den


# -- the Fraction model paths that the one-denominator int kernels replaced ----------

def old_stabilizer_rows(targets) -> list[tuple[int, list[Fraction]]]:
    """(target position, row) for the equations A.t = 0 read off the nonzero
    `Fraction` entries of each tensor of `targets`, densified to d^2
    `Fraction`s; zero rows are dropped."""
    rows = []
    for pos, t in enumerate(targets):
        d, rank = t.dim, len(t.valence)
        equations: dict[int, dict[int, Fraction]] = {}
        for flat in t.support:
            value = t.comps[flat]
            for slot, kind in enumerate(t.valence):
                stride = d ** (rank - 1 - slot)
                c = flat // stride % d
                base = flat - c * stride
                for e in range(d):
                    row = equations.setdefault(base + e * stride, {})
                    unknown = e * d + c if kind == CON else c * d + e
                    row[unknown] = row.get(unknown, Fraction(0)) + (value if kind == CON
                                                                    else -value)
        for flat in sorted(equations):
            dense = [Fraction(0)] * (d * d)
            for unknown, coeff in equations[flat].items():
                dense[unknown] = coeff
            if any(dense):
                rows.append((pos, dense))
    return rows


def old_model_stabilizer_algebra(model) -> list[list[list[Fraction]]]:
    """The nullspace of the `Fraction` rows, each element re-verified by
    `old_annihilates`."""
    d = model.space.dim
    targets = [model.curvature, model.torsion, *model.aux]
    basis = []
    for vec in linalg.nullspace([row for _, row in old_stabilizer_rows(targets)], ncols=d * d):
        endo = [vec[a * d:(a + 1) * d] for a in range(d)]
        if not old_annihilates(endo, targets):
            raise AssertionError("stabilizer candidate fails to annihilate model data")
        basis.append(endo)
    return basis


def old_transvection_algebra(model):
    """`transvection_algebra` from `old_transvection_subalgebra`, with the
    containment checked by `old_annihilates` and the presentation built by
    `old_algebra_from_parts`."""
    from fedosov.models import ModelError

    h0p = old_transvection_subalgebra(model)
    targets = [model.curvature, model.torsion, *model.aux]
    if not all(old_annihilates(endo, targets) for endo in h0p):
        raise ModelError("transvection algebra is not contained in the stabilizer")
    return old_algebra_from_parts(model, h0p, "h0")


def old_verify_model_isomorphism(f, source, target) -> Report:
    """The isomorphism report from whole push-forwards: the first nonzero
    entry of the dense difference `push_tensor(f, a) - b` per tensor."""
    from fedosov.models import push_tensor
    from fedosov.reporting import index_witness
    from fedosov.symplectic import first_symplectic_defect

    f_inv = linalg.inverse(f)
    checks = []

    def push_check(name, a, b):
        diff = (push_tensor(f, a, f_inv) - b).first_nonzero()
        checks.append(Check(name, diff is None, None if diff is None else
                            f"component {index_witness(diff[0])} differs by {diff[1]}"))

    push_check("curvature_pushforward", source.curvature, target.curvature)
    push_check("torsion_pushforward", source.torsion, target.torsion)
    for pos, (a, b) in enumerate(zip(source.aux, target.aux)):
        if a.valence != b.valence:
            checks.append(Check(f"aux{pos + 1}_pushforward", False,
                                "auxiliary tensors have different valences"))
            continue
        push_check(f"aux{pos + 1}_pushforward", a, b)
    defect = first_symplectic_defect(source.space, f)
    checks.append(Check("map_is_symplectic", defect is None, None if defect is None else
                        f"(f^T omega f - omega) at {index_witness(defect[0])} is {defect[1]}"))
    return Report(title="model isomorphism", checks=checks)


def coprime_denominators(count: int, bits: int) -> list[int]:
    """`count` pairwise coprime ints of at least `bits` bits: the smallest
    power of each of the first `count` primes that is that large."""
    powers, primes = [], []
    for c in itertools.count(2):
        if len(primes) == count:
            return powers
        if all(c % p for p in primes if p * p <= c):
            primes.append(c)
            power = c
            while power.bit_length() < bits:
                power *= c
            powers.append(power)


# -- the Fraction projectors that the integer kernel replaced ------------------------

def _old_omega(n: int, a: int, b: int) -> int:
    """omega(e_a, e_b) for the standard form."""
    return 1 if b == a + n else -1 if a == b + n else 0


def _old_build(t: Tensor, fn) -> Tensor:
    return Tensor.build(t.dim, (COV, COV, COV), fn, space=t.space)


def _old_cyclic(t: Tensor) -> Tensor:
    return _old_build(t, lambda x, y, z: t[x, y, z] + t[y, z, x] + t[z, x, y])


def _old_require_shape(t: Tensor, anti: bool) -> None:
    if t.valence != (COV, COV, COV):
        raise ValueError("expected a (0,3)-tensor")
    for x, y, z in t.indices():
        if (t[x, y, z] + t[y, x, z] if anti else t[x, y, z] - t[y, x, z]) != 0:
            raise ValueError(
                f"tensor is not {'anti' if anti else ''}symmetric in slots (1,2); "
                f"first violation at {(x + 1, y + 1, z + 1)}")


def _old_result(parts: dict) -> DecompositionResult:
    return DecompositionResult(parts=parts, type_set=frozenset(
        label for label, part in parts.items() if not part.is_zero()))


def old_decompose_cotorsion(t: Tensor) -> DecompositionResult:
    """S3 = C(S)/3, S1 = (omega(Z,Y) u(X) + omega(Z,X) u(Y))/(2n+1) for
    u = -s13(S), S2 = S - S1 - S3, all in Fraction arithmetic."""
    _old_require_shape(t, anti=False)
    n = t.dim // 2
    u = [-v for v in oracle_s13(t)]
    s1 = _old_build(t, lambda x, y, z: (_old_omega(n, z, y) * u[x] + _old_omega(n, z, x) * u[y])
                    / (2 * n + 1))
    cyc = _old_cyclic(t)
    s3 = _old_build(t, lambda x, y, z: cyc[x, y, z] / 3)
    return _old_result({"S1": s1, "S2": _old_build(t, lambda *i: t[i] - s1[i] - s3[i]),
                        "S3": s3})


def old_decompose_torsion(t: Tensor) -> DecompositionResult:
    """alt = C(T)/3, T3 = omega ^ (c(alt)/(3(n-1))) with c the covector
    contraction (0 at n = 1), T4 = alt - T3, R = T - alt, v = t12(R)/(2n+1),
    T1 = 2 omega(X,Y) v(Z) + omega(X,Z) v(Y) - omega(Y,Z) v(X), T2 = R - T1."""
    _old_require_shape(t, anti=True)
    n = t.dim // 2
    cyc = _old_cyclic(t)
    alt = _old_build(t, lambda x, y, z: cyc[x, y, z] / 3)
    if n == 1:
        t3 = _old_build(t, lambda *i: Fraction(0))
    else:
        w = [sum((alt[i, i + n, z] + alt[z, i, i + n] + alt[i + n, z, i] for i in range(n)),
                 Fraction(0)) / (3 * (n - 1)) for z in range(t.dim)]
        t3 = _old_build(t, lambda x, y, z: _old_omega(n, x, y) * w[z]
                        + _old_omega(n, y, z) * w[x] + _old_omega(n, z, x) * w[y])
    rest = _old_build(t, lambda *i: t[i] - alt[i])
    v = [c / (2 * n + 1) for c in oracle_t12(rest)]
    t1 = _old_build(t, lambda x, y, z: 2 * _old_omega(n, x, y) * v[z]
                    + _old_omega(n, x, z) * v[y] - _old_omega(n, y, z) * v[x])
    return _old_result({"T1": t1, "T2": _old_build(t, lambda *i: rest[i] - t1[i]), "T3": t3,
                        "T4": _old_build(t, lambda *i: alt[i] - t3[i])})


def old_symplectify_torsion(t: Tensor) -> Tensor:
    """S = (T(X,Z,Y) + T(Y,Z,X))/3 when C(T) = 0, checked by A(-S) = T;
    otherwise ValueError naming the nonzero T3/T4 parts."""
    _old_require_shape(t, anti=True)
    if not _old_cyclic(t).is_zero():
        type_set = old_decompose_torsion(t).type_set
        outside = [label for label in ("T3", "T4") if label in type_set]
        raise ValueError(
            f"no symmetric solution: torsion has nonzero {'+'.join(outside)} part")
    s = _old_build(t, lambda x, y, z: (t[x, z, y] + t[y, z, x]) / 3)
    if _old_build(t, lambda x, y, z: s[x, z, y] - s[y, z, x]) != t:
        raise AssertionError("symplectification round trip failed")
    return s


def sympy_solve_columns(columns: list[list[Fraction]], rhs: list[Fraction]):
    """Independent exact solve of (columns as matrix columns) x = rhs via sympy."""
    import sympy

    matrix = sympy.Matrix([[sympy.Rational(columns[c][r]) for c in range(len(columns))]
                           for r in range(len(rhs))])
    vector = sympy.Matrix([sympy.Rational(v) for v in rhs])
    solution = matrix.solve(vector)
    return [Fraction(int(v.p), int(v.q)) for v in solution]


def matvec(matrix, vec) -> list[Fraction]:
    """Matrix times column vector, exact."""
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in matrix]


# -- the Fraction loops that the scaled-integer kernels replaced ---------------------

def old_change_basis(t: Tensor, m, minv) -> Tensor:
    """One `old_contract_slot` per slot on the entries as they are: covariant
    slots with m, contravariant ones with minv transposed."""
    minv_t = [list(col) for col in zip(*minv)]
    current = t
    for slot, kind in enumerate(t.valence):
        current = Tensor(t.dim, t.valence,
                         old_contract_slot(current, slot, m if kind == COV else minv_t),
                         space=t.space)
    return current


class OldParser(rationals._Parser):
    """The parser with each atom over its own variables: a constant over
    (), an identifier over (name,)."""

    def atom(self) -> RationalFunction:
        tok = self._peek()
        if tok is None or tok[0] not in ("int", "ident"):
            return super().atom()  # a parenthesis, or an error
        kind, chunk, line, col = tok
        self.pos += 1
        if kind == "int":
            return RationalFunction.constant(int(chunk))
        if self.variables is not None and chunk not in self.variables:
            raise rationals.ParseError(f"unknown variable {chunk!r}", line, col)
        return RationalFunction.variable(chunk)


def old_parse_ratfun(text: str, variables=None) -> RationalFunction:
    """`parse_ratfun` through `OldParser`, the value then re-embedded over
    `variables` by `with_variables`."""
    variables = tuple(variables) if variables is not None else None
    value = OldParser(text, variables).parse()
    return value if variables is None else value.with_variables(variables)


def old_polynomial_evaluate(p: Polynomial, point) -> Fraction:
    """sum c prod Fraction(point[v]) ** e, term by term."""
    missing = [v for v in p.variables if v not in point]
    if missing:
        raise ValueError(f"unassigned variables: {missing}")
    total = Fraction(0)
    values = [Fraction(point[v]) for v in p.variables]
    for exp, c in p.exponent_terms().items():
        term = c
        for v, e in zip(values, exp):
            if e:
                term *= v ** e
        total += term
    return total


def old_ratfun_evaluate(f: RationalFunction, point) -> Fraction:
    den = old_polynomial_evaluate(f.den, point)
    if den == 0:
        raise PoleError("denominator vanishes at "
                        + ", ".join(f"{var}={value}" for var, value in point.items()))
    return old_polynomial_evaluate(f.num, point) / den


# -- the generic solves that the closed forms of the chart modules replaced ---------

def old_integrability_check(chart: Chart, xi: Tensor) -> Check:
    """omega([X,Y], xi) = 0 for a spanning set of the kernel distribution of
    omega(., xi); the spanning fields are d_j - (beta_j / beta_a) d_a for a
    pivot index a with beta_a nonzero.  In dimension 2 the kernel is a line
    and there is nothing to bracket."""
    d = chart.dim
    beta = pairing_with(chart, xi)
    pivot = next((a for a in range(d) if not beta[a].is_zero()), None)
    if pivot is None:
        return Check("xi_kernel_integrable", False, "vector field vanishes identically")
    one = RationalFunction.constant(1, chart.coords)
    spanning = []
    for j in range(d):
        if j == pivot:
            continue
        ratio = beta[j] / beta[pivot]
        spanning.append(Tensor.build(
            d, (CON,),
            lambda k, j=j, ratio=ratio: (one if k == j
                                         else (-ratio if k == pivot else chart.rf_zero()))))
    for a in range(len(spanning)):
        for b in range(a + 1, len(spanning)):
            bracket = lie_bracket(chart, spanning[a], spanning[b])
            if not insert_vector(bracket, 0, beta).is_zero():
                return Check("xi_kernel_integrable", False,
                             f"bracket of spanning fields {a + 1},{b + 1} leaves the kernel")
    return Check("xi_kernel_integrable", True, None)


def old_symplectic_basis_matrix(omega_p: list[list[Fraction]]) -> list[list[Fraction]]:
    """Columns form a basis in which the form becomes the standard one.

    Iterative hyperbolic-pair extraction: pick u, find w with omega(u,w) = 1
    after rescaling, project the rest onto the symplectic complement with
    P(v) = v - omega(v,w) u + omega(v,u) w, and recurse.
    """
    dim = len(omega_p)
    omega_t = Tensor(dim, (COV, COV), [x for row in omega_p for x in row])

    def pairing(u, v):
        return insert_vector(insert_vector(omega_t, 1, v), 0, u).comps[0]

    working = [[Fraction(1) if i == j else Fraction(0) for i in range(dim)]
               for j in range(dim)]
    us, ws = [], []
    while working:
        u = working[0]
        partner = next((w for w in working[1:] if pairing(u, w) != 0), None)
        if partner is None:
            raise ValueError("the evaluated form is degenerate at this point")
        scale = pairing(u, partner)
        w = [x / scale for x in partner]
        us.append(u)
        ws.append(w)
        # The projections lie in the (dim - 2k)-dimensional complement, so
        # the greedy independent subset has at most that many vectors.
        span = linalg.Echelon()
        projected = []
        for v in working:
            if v is u or v is partner:
                continue
            vw, vu = pairing(v, w), pairing(v, u)
            pv = [a - vw * b + vu * c for a, b, c in zip(v, u, w)]
            if span.add(pv):
                projected.append(pv)
        working = projected
    columns = us + ws
    return [[columns[c][r] for c in range(dim)] for r in range(dim)]


def old_model_at_point(chart: Chart, structure: Tensor, point: dict):
    """Evaluate the shifted connection's data at a point into a model.

    Returns (model, basis_matrix): the model lives over the standard
    symplectic space reached by the returned change of basis, and its aux
    list is (omega, structure tensor).  Raises `PoleError` at poles.
    """
    point = {k: Fraction(v) for k, v in point.items()}
    missing = [c for c in chart.coords if c not in point]
    if missing:
        raise ValueError(f"point does not assign coordinates {missing}")
    point = ScaledPoint(point)
    omega_p = evaluate_matrix(chart.omega, point)
    gamma = tilde_christoffel(chart, structure)
    tilde_r = evaluate_tensor(_curvature(chart, gamma), point)
    tilde_t = evaluate_tensor(_torsion(chart, gamma), point)
    s_p = evaluate_tensor(structure, point)

    m = old_symplectic_basis_matrix(omega_p)
    m_inv = linalg.inverse(m)
    n = chart.n
    space = SymplecticSpace(n)
    product = linalg.matmul(linalg.matmul(linalg.transpose(m), omega_p), m)
    if any(product[i][j] != space.omega[i][j] for i in range(2 * n) for j in range(2 * n)):
        raise AssertionError("change of basis failed to reach the standard form")

    def standardize(t: Tensor) -> Tensor:
        out = change_basis(t, m, m_inv)
        return Tensor(out.dim, out.valence, out.comps, space=space)

    model = InfinitesimalModel(
        space=space,
        curvature=standardize(tilde_r),
        torsion=standardize(tilde_t),
        aux=(standard_omega_tensor(space), standardize(s_p)),
    )
    return model, m


def old_metric_obstruction(s_point: Tensor, omega_p: list[list[Fraction]]):
    """Decide whether any nondegenerate symmetric bilinear form is annihilated.

    First reads the linear-type vector xi off S in closed form (omega_p is
    antisymmetric).  Tracing S_X Y = omega(X,Y) xi - omega(Y,xi) X over X
    gives omega(e_j, xi) = -sum_a S[a,j,a] / (d+1); any entry omega_ij != 0
    then gives xi^k = (S[i,j,k] + delta_ki omega(e_j, xi)) / omega_ij.  S is
    of linear type exactly when it equals the linear-type form of that xi;
    otherwise (also when omega_p is zero) `NotLinearTypeError` is raised.

    Then builds the exact solution space of g(S_X Y, Z) + g(Y, S_X Z) = 0
    over symmetric matrices, and tests whether the determinant of the
    generic solution is the zero polynomial in the solution parameters.  A
    zero structure tensor is reported as a degenerate precondition (any
    metric works) rather than an obstruction.
    """
    if s_point.valence != (COV, COV, CON):
        raise ValueError("expected a pointwise (1,2) structure tensor")
    d = s_point.dim

    if s_point.is_zero():
        return ObstructionVerdict(obstructed=False, degenerate_input=True,
                                  xi=None, solution_dimension=d * (d + 1) // 2)

    pivot = next(((i, j) for i in range(d) for j in range(d) if omega_p[i][j] != 0), None)
    if pivot is None:
        raise NotLinearTypeError("structure tensor is not of linear type")
    i, j = pivot
    omega_j_xi = -Fraction(sum(s_point[a, j, a] for a in range(d)), d + 1)
    xi = [Fraction(s_point[i, j, k] + (omega_j_xi if k == i else 0)) / omega_p[i][j]
          for k in range(d)]
    if _linear_type(omega_p, xi) != s_point:
        raise NotLinearTypeError("structure tensor is not of linear type")

    unknowns = [(a, b) for a in range(d) for b in range(a, d)]
    position = {pair: pos for pos, pair in enumerate(unknowns)}

    def add(row, a, b, value):
        row[position[(min(a, b), max(a, b))]] += value

    grows = []
    for i in range(d):
        for j in range(d):
            for k in range(j, d):
                row = [Fraction(0)] * len(unknowns)
                for m in range(d):
                    if s_point[i, j, m] != 0:
                        add(row, m, k, s_point[i, j, m])
                    if s_point[i, k, m] != 0:
                        add(row, j, m, s_point[i, k, m])
                if any(v != 0 for v in row):
                    grows.append(row)
    solutions = linalg.nullspace(grows, ncols=len(unknowns))
    if not solutions:
        return ObstructionVerdict(obstructed=True, degenerate_input=False,
                                  xi=xi, solution_dimension=0)

    # The determinant of the generic solution is the zero polynomial in the
    # parameters exactly when it is zero in their rational function field.
    params = [f"t{r + 1}" for r in range(len(solutions))]
    entries = [[Polynomial.constant(0, params) for _ in range(d)] for _ in range(d)]
    for r, sol in enumerate(solutions):
        exp = tuple(1 if s == r else 0 for s in range(len(solutions)))
        for (a, b), value in zip(unknowns, sol):
            if value == 0:
                continue
            mono = Polynomial(params, {exp: value})
            entries[a][b] = entries[a][b] + mono
            if a != b:
                entries[b][a] = entries[b][a] + mono
    determinant = linalg.det([[RationalFunction(e) for e in row] for row in entries])
    return ObstructionVerdict(obstructed=_zero(determinant),
                              degenerate_input=False, xi=xi,
                              solution_dimension=len(solutions))


# -- the Fraction loops that the integer elimination of linalg replaced --------------

def old_rref(matrix):
    """Reduced row echelon form by field elimination; (rows, pivot columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not _zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        if not (isinstance(inv, (int, Fraction)) and inv == 1):
            rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i == r:
                continue
            factor = rows[i][c]
            if _zero(factor):
                continue
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


class OldEchelon:
    """Forward row echelon form with unit pivots, reduced in field arithmetic."""

    def __init__(self):
        self._rows = []

    def _reduce(self, vec):
        vec = list(vec)
        for pivot, row in self._rows:
            factor = vec[pivot]
            if not _zero(factor):
                for c, x in row:
                    vec[c] = vec[c] - factor * x
        return vec

    def add(self, vec) -> bool:
        vec = self._reduce(vec)
        pivot = next((i for i, x in enumerate(vec) if not _zero(x)), None)
        if pivot is None:
            return False
        inv = vec[pivot]
        self._rows.append((pivot, [(i, x / inv) for i, x in enumerate(vec)
                                   if not _zero(x)]))
        return True

    def __contains__(self, vec) -> bool:
        return all(_zero(x) for x in self._reduce(vec))


def old_matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


# -- the Fraction algebra paths that the sparse int kernels of `models` replaced -----

class OldCoordinates:
    """Coordinates over fixed independent vectors from one `rref` of [b | I],
    read and re-checked in `Fraction` arithmetic."""

    def __init__(self, basis):
        m = len(basis)
        width = len(basis[0]) if basis else 0
        one, zero = Fraction(1), Fraction(0)
        reduced, pivots = linalg.rref([list(b) + [one if j == i else zero for j in range(m)]
                                       for i, b in enumerate(basis)])
        self._pivot_rows = [(p, [(i, x) for i, x in enumerate(row[width:]) if x != 0])
                            for p, row in zip(pivots, reduced) if p < width]
        self._basis = [[(i, x) for i, x in enumerate(b) if x != 0] for b in basis]

    def __call__(self, vec):
        coords = [Fraction(0)] * len(self._basis)
        for pivot, row in self._pivot_rows:
            y = vec[pivot]
            if y != 0:
                for a, x in row:
                    coords[a] += y * x
        combined = [Fraction(0)] * len(vec)
        for c, entries in zip(coords, self._basis):
            if c != 0:
                for pos, x in entries:
                    combined[pos] += c * x
        return coords if combined == list(vec) else None


def old_commutator(a, b):
    """AB - BA in `Fraction`s, summing only the nonzero products."""
    d = len(a)
    out = [[Fraction(0)] * d for _ in range(d)]
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        y_rows = [[(j, v) for j, v in enumerate(row) if v != 0] for row in y]
        for out_row, x_row in zip(out, x):
            for m, xm in enumerate(x_row):
                if xm != 0:
                    xm = sign * xm
                    for j, v in y_rows[m]:
                        out_row[j] += xm * v
    return out


def old_curvature_endomorphism(r: Tensor, i: int, j: int):
    d = r.dim
    return [[r[i, j, k, l] for k in range(d)] for l in range(d)]


def old_transvection_subalgebra(model, counter=None):
    """The Lie closure with every pair of the basis bracketed in every round;
    `counter`, a list, gets one entry per commutator formed."""
    from fedosov.models import ModelError

    d = model.space.dim
    basis: list = []
    span = OldEchelon()

    def try_add(endo) -> bool:
        added = span.add([x for row in endo for x in row])
        if added:
            basis.append(endo)
        return added

    for i in range(d):
        for j in range(i + 1, d):
            try_add(old_curvature_endomorphism(model.curvature, i, j))
    limit = d * d
    for _ in range(limit + 1):
        added = False
        snapshot = list(basis)
        for a in range(len(snapshot)):
            for b in range(a + 1, len(snapshot)):
                if counter is not None:
                    counter.append((a, b))
                if try_add(old_commutator(snapshot[a], snapshot[b])):
                    added = True
        if not added:
            return basis
        if len(basis) > limit:
            raise ModelError("Lie closure exceeded the dimension of End(V)")
    raise ModelError("Lie closure did not stabilize inside End(V)")


def old_presentation_failure(c, dim) -> str | None:
    """The `ValueError` text of the checks `LieAlgebraPresentation` ran on
    dense `Fraction` constants, or None: antisymmetry over every pair i <= j,
    then the Jacobi sum of each triple in `combinations` order."""
    for i in range(dim):
        for j in range(i, dim):
            if any((x or y) and x != -y for x, y in zip(c[i][j], c[j][i])):
                return f"structure constants not antisymmetric at ({i + 1},{j + 1})"
    nonzero = [[[(k, x) for k, x in enumerate(row) if x != 0] for row in plane] for plane in c]
    for i, j, k in itertools.combinations(range(dim), 3):
        total: dict = {}
        for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in nonzero[b][cc]:
                for m, y in nonzero[a][l]:
                    total[m] = total.get(m, 0) + x * y
        if any(v != 0 for v in total.values()):
            return f"Jacobi identity fails on basis triple {(i + 1, j + 1, k + 1)}"
    return None


def sparse_brackets(c) -> dict:
    """The `brackets` of dense constants c[i][j][k]: {(i, j): {k: c[i][j][k]}}
    for i < j over the nonzero constants; c[j][i] is not read."""
    return {(i, j): row for i, j in itertools.combinations(range(len(c)), 2)
            if (row := {k: x for k, x in enumerate(c[i][j]) if x})}


def dense_presentation_json(c) -> dict:
    """`presentation_from_json` input that gives every entry of the dense
    constants c: [i,j] then [j,i] for each pair i < j, and [i,i], wherever
    an entry of the pair is nonzero, in the pair order (i <= j) of the
    antisymmetry scan of `old_presentation_failure`."""
    constants = {}
    for i, j in itertools.combinations_with_replacement(range(len(c)), 2):
        if any(c[i][j]) or any(c[j][i]):
            for a, b in ((i, j), (j, i))[:1 + (i < j)]:
                constants[f"[{a + 1},{b + 1}]"] = {str(k + 1): str(x)
                                                   for k, x in enumerate(c[a][b]) if x}
    return {"dim": len(c), "structure_constants": constants}


def old_reader_failure(c) -> str | None:
    """What `presentation_from_json(dense_presentation_json(c))` must raise:
    the text of `old_presentation_failure`, with its first pair that is not
    antisymmetric named as the reader names it."""
    text = old_presentation_failure(c, len(c))
    if text is None or not text.startswith("structure"):
        return text
    i, j = text[text.index("(") + 1:-1].split(",")
    if i == j:
        return f"bad bracket key '[{i},{i}]'"
    return f"brackets '[{i},{j}]' and '[{j},{i}]' disagree"


def old_presentation_to_json(c, labels, subspaces) -> dict:
    """The JSON of the dense constants c, written by scanning every pair i < j."""
    dim = len(c)
    constants = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            row = {str(k + 1): str(x) for k, x in enumerate(c[i][j]) if x != 0}
            if row:
                constants[f"[{i + 1},{j + 1}]"] = row
    return {"dim": dim, "basis_labels": list(labels), "structure_constants": constants,
            "subspaces": {name: [i + 1 for i in idx] for name, idx in subspaces.items()}}


def old_algebra_constants(model, h_basis):
    """The dense constants of V + h from `Fraction` brackets: torsion and
    curvature read through `Tensor.__getitem__`, coordinates by
    `OldCoordinates`, checked by `old_presentation_failure`."""
    from fedosov.models import ModelError

    d = model.space.dim
    coords_in_h = OldCoordinates([[x for row in e for x in row] for e in h_basis])
    m = len(h_basis)
    dim = d + m
    zero = Fraction(0)
    c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]

    def set_bracket(i, j, vec):
        c[i][j] = list(vec)
        c[j][i] = [-v for v in vec]

    for i in range(d):
        for j in range(i + 1, d):
            vec = [zero] * dim
            for k in range(d):
                vec[k] = -model.torsion[i, j, k]
            r_flat = [x for row in old_curvature_endomorphism(model.curvature, i, j) for x in row]
            if any(v != 0 for v in r_flat):
                coords = coords_in_h(r_flat)
                if coords is None:
                    raise ModelError(
                        "curvature endomorphism lies outside the isotropy algebra; "
                        "the model does not satisfy its axioms")
                for a, value in enumerate(coords):
                    vec[d + a] = value
            set_bracket(i, j, vec)
    for a, endo in enumerate(h_basis):
        for j in range(d):
            vec = [zero] * dim
            for l in range(d):
                vec[l] = endo[l][j]
            set_bracket(d + a, j, vec)
    for a in range(m):
        for b in range(a + 1, m):
            coords = coords_in_h([x for row in old_commutator(h_basis[a], h_basis[b])
                                  for x in row])
            if coords is None:
                raise ModelError("isotropy algebra is not closed under commutators")
            vec = [zero] * dim
            for pos, value in enumerate(coords):
                vec[d + pos] = value
            set_bracket(d + a, d + b, vec)
    failure = old_presentation_failure(c, dim)
    if failure is not None:
        raise ValueError(failure)
    return c


def old_algebra_from_parts(model, h_basis, h_name):
    """The presentation of `old_algebra_constants`."""
    from fedosov.models import LieAlgebraPresentation

    d, m = model.space.dim, len(h_basis)
    labels = tuple(f"e{i + 1}" for i in range(d)) + tuple(f"A{a + 1}" for a in range(m))
    brackets = sparse_brackets(old_algebra_constants(model, h_basis))
    return LieAlgebraPresentation(
        dim=d + m, basis_labels=labels, brackets=brackets,
        subspaces={"V": tuple(range(d)), h_name: tuple(range(d, d + m))})


def old_nomizu_algebra(model):
    return old_algebra_from_parts(model, old_model_stabilizer_algebra(model), "h0")


def old_bracket(c, dim, x, y):
    out = [Fraction(0)] * dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi != 0 and yj != 0:
                for k in range(dim):
                    if c[i][j][k] != 0:
                        out[k] += xi * yj * c[i][j][k]
    return out


def old_bianchi_classify(p):
    """The Bianchi decision tree on brackets of unit vectors, the Killing form
    as traces of products of adjoint matrices."""
    from fedosov.models import BianchiType, ModelError, _fraction_sqrt

    if p.dim != 3:
        raise ValueError("Bianchi classification needs a 3-dimensional algebra")
    c = p.structure_constants

    def bracket(x, y):
        return old_bracket(c, 3, x, y)

    unit = [[Fraction(1) if a == b else Fraction(0) for a in range(3)] for b in range(3)]
    brackets = {(i, j): bracket(unit[i], unit[j]) for i in range(3) for j in range(i + 1, 3)}
    derived = OldEchelon()
    derived_rows = [vec for vec in brackets.values() if derived.add(vec)]
    dd = len(derived_rows)
    if dd == 0:
        return BianchiType(tag="I")
    if dd == 3:
        ad = [[[c[i][j][k] for j in range(3)] for k in range(3)] for i in range(3)]
        killing = [[sum((old_matmul(ad[i], ad[j])[k][k] for k in range(3)), Fraction(0))
                     for j in range(3)] for i in range(3)]
        neg = [[-x for x in row] for row in killing]
        minors = [linalg.det([row[:k] for row in neg[:k]]) for k in (1, 2, 3)]
        return BianchiType(tag="IX" if all(m > 0 for m in minors) else "VIII")
    if dd == 1:
        u = derived_rows[0]
        central = all(all(v == 0 for v in bracket(u, unit[i])) for i in range(3))
        return BianchiType(tag="II" if central else "III")
    u, v = derived_rows
    if any(x != 0 for x in bracket(u, v)):
        raise ModelError("derived algebra of a 3-dimensional solvable algebra must be abelian")
    complement = next(e for e in unit if e not in derived)
    coords_in_derived = OldCoordinates(derived_rows)
    cu = coords_in_derived(bracket(complement, u))
    cv = coords_in_derived(bracket(complement, v))
    if cu is None or cv is None:
        raise ModelError("adjoint action does not preserve the derived algebra")
    a_matrix = [[cu[0], cv[0]], [cu[1], cv[1]]]
    trace = a_matrix[0][0] + a_matrix[1][1]
    determinant = a_matrix[0][0] * a_matrix[1][1] - a_matrix[0][1] * a_matrix[1][0]
    if determinant == 0:
        raise ModelError("adjoint action on a 2-dimensional derived algebra is singular")
    invariant = trace * trace / determinant
    unimodular = " (unimodular)" if trace == 0 else ""
    discriminant = trace * trace - 4 * determinant
    if discriminant == 0:
        scalar = (a_matrix[0][1] == 0 and a_matrix[1][0] == 0
                  and a_matrix[0][0] == a_matrix[1][1])
        return BianchiType(tag="V" if scalar else "IV", invariant=invariant)
    if discriminant > 0:
        root = _fraction_sqrt(discriminant)
        params = None
        if root is not None:
            lam1, lam2 = (trace + root) / 2, (trace - root) / 2
            params = frozenset((lam1 / lam2, lam2 / lam1))
        return BianchiType(tag="VI", parameters=params, invariant=invariant,
                           notes="real distinct adjoint eigenvalues" + unimodular)
    return BianchiType(tag="VII", parameters=None, invariant=invariant,
                       notes="complex adjoint eigenvalues" + unimodular)

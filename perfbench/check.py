"""Known-answer checks, written without the package under test.

Each `check_*` function takes the plain outputs one item produced and
returns a list of mismatch descriptions (empty when the item is correct).
The class predicates follow the index definitions: S2 has zero cyclic sum
and zero s13 trace, S3 is totally symmetric, T2 has zero cyclic sum and
zero t12 trace, T4 is totally antisymmetric with zero t12 trace, and the
generated classes S1, T1, T3 are exact spans of their generators.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from .inputs import antisymmetrize, cyclic_sum, flat, omega_matrix

# -- decomposition -----------------------------------------------------------------


def _index_triples(d: int):
    return [(x, y, z) for x in range(d) for y in range(d) for z in range(d)]


def symmetric_in(d: int, t: list, a: int, b: int, anti: bool = False) -> bool:
    sign = -1 if anti else 1
    for idx in _index_triples(d):
        swapped = list(idx)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        if t[flat(d, *idx)] != sign * t[flat(d, *swapped)]:
            return False
    return True


def s13_trace(n: int, t: list) -> list:
    """s13(S)(z) = sum_i S(e_i, z, e_{i+n}) - S(e_{i+n}, z, e_i)."""
    d = 2 * n
    return [sum(t[flat(d, i, z, i + n)] - t[flat(d, i + n, z, i)] for i in range(n))
            for z in range(d)]


def t12_trace(n: int, t: list) -> list:
    """t12(T)(z) = sum_i T(e_i, e_{i+n}, z)."""
    d = 2 * n
    return [sum(t[flat(d, i, i + n, z)] for i in range(n)) for z in range(d)]


def _s1_generators(n: int) -> list[list]:
    """E_k(x,y,z) = omega(z,x) [y = k] + omega(z,y) [x = k]."""
    d = 2 * n
    w = omega_matrix(n)
    return [[w[z][x] * (y == k) + w[z][y] * (x == k) for x, y, z in _index_triples(d)]
            for k in range(d)]


def _t3_generators(n: int) -> list[list]:
    """(omega ^ e_k)(x,y,z) = omega(x,y)[z = k] + omega(y,z)[x = k] + omega(z,x)[y = k]."""
    d = 2 * n
    w = omega_matrix(n)
    return [[w[x][y] * (z == k) + w[y][z] * (x == k) + w[z][x] * (y == k)
             for x, y, z in _index_triples(d)] for k in range(d)]


class Span:
    """Exact row-echelon basis of a list of vectors, for membership tests."""

    def __init__(self, vectors: list[list]):
        self.rows: list[tuple[int, list]] = []
        for v in vectors:
            self._insert(v)

    def _reduce(self, v: list) -> list:
        v = list(v)
        for pivot, row in self.rows:
            if v[pivot]:
                c = v[pivot] / row[pivot]
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def _insert(self, v: list) -> None:
        r = self._reduce(v)
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is not None:
            self.rows.append((pivot, r))

    def contains(self, v: list) -> bool:
        return not any(self._reduce(v))


@lru_cache(maxsize=None)
def _spans(n: int) -> dict[str, Span]:
    d = 2 * n
    s1 = _s1_generators(n)
    return {"S1": Span(s1),
            "T1": Span([antisymmetrize(d, g) for g in s1]),
            "T3": Span(_t3_generators(n))}


def in_class(label: str, n: int, t: list) -> bool:
    d = 2 * n
    if label.startswith("S") and not symmetric_in(d, t, 0, 1):
        return False
    if label.startswith("T") and not symmetric_in(d, t, 0, 1, anti=True):
        return False
    if label in ("S1", "T1", "T3"):
        return _spans(n)[label].contains(t)
    if label == "S2":
        return not any(cyclic_sum(d, t)) and not any(s13_trace(n, t))
    if label == "S3":
        return symmetric_in(d, t, 1, 2)
    if label == "T2":
        return not any(cyclic_sum(d, t)) and not any(t12_trace(n, t))
    if label == "T4":
        return symmetric_in(d, t, 1, 2, anti=True) and not any(t12_trace(n, t))
    raise ValueError(f"unknown class {label!r}")


def check_decomposition(n: int, tensor: list, parts: dict, type_set: list,
                        labels: tuple[str, ...]) -> list[str]:
    problems = []
    if sorted(parts) != sorted(labels):
        return [f"parts {sorted(parts)} != classes {sorted(labels)}"]
    total = [sum(column) for column in zip(*(parts[label] for label in labels))]
    if total != list(tensor):
        problems.append("parts do not sum to the input")
    for label in labels:
        if not in_class(label, n, parts[label]):
            problems.append(f"part {label} is not in class {label}")
    nonzero = sorted(label for label in labels if any(parts[label]))
    if sorted(type_set) != nonzero:
        problems.append(f"type set {sorted(type_set)} != nonzero parts {nonzero}")
    return problems


def check_classes_item(case: dict, out: dict) -> list[str]:
    n = case["n"]
    d = 2 * n
    problems = []
    problems += ["cotorsion: " + p for p in check_decomposition(
        n, case["sym"], out["cotorsion_parts"], out["cotorsion_types"], ("S1", "S2", "S3"))]
    third = Fraction(1, 3)
    if out["cotorsion_parts"].get("S3") != [third * c for c in cyclic_sum(d, case["sym"])]:
        problems.append("cotorsion: S3 part is not C(S)/3")
    problems += ["torsion: " + p for p in check_decomposition(
        n, case["anti"], out["torsion_parts"], out["torsion_types"],
        ("T1", "T2", "T3", "T4"))]
    s = out["symplectified"]
    if s != case["sym_no_s3"]:
        problems.append("symplectify: result is not the S1+S2 preimage")
    if antisymmetrize(d, [-v for v in s]) != case["torsion"]:
        problems.append("symplectify: A(-S) != T")
    return problems


# -- CLI reports ----------------------------------------------------------------------


def parse_report(rc: int, text: str) -> tuple[dict | None, str | None]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None, f"exit {rc} with non-JSON output"
    return payload, None


def failing(payload: dict) -> list[str]:
    return [c["name"] for c in payload["checks"] if not c["pass"]]


def check_verdicts(rc: int, text: str, expect_rc: int, expect_failing: set,
                   expect_passing: set = frozenset()) -> list[str]:
    payload, err = parse_report(rc, text)
    if err:
        return [err]
    problems = []
    if rc != expect_rc:
        problems.append(f"exit code {rc}, expected {expect_rc}")
    failed = set(failing(payload))
    if failed != set(expect_failing):
        problems.append(f"failing checks {sorted(failed)}, expected {sorted(expect_failing)}")
    names = {c["name"] for c in payload["checks"]}
    missing = set(expect_passing) - names
    if missing:
        problems.append(f"checks missing from the report: {sorted(missing)}")
    for c in payload["checks"]:
        if not c["pass"] and not c["witness"]:
            problems.append(f"{c['name']} failed without a witness")
    return problems


# Swell charts: the base connection is Fedosov by construction, and the
# linear-type structure of xi = d_y + u d_v is not parallel.
# The failing parallelism components are recomputed with sympy in
# perfbench/tests/test_perfbench.py.
SWELL_PASSING = frozenset({
    "omega_closed", "omega_nondegenerate", "nabla_omega_zero", "torsion_zero",
    "tilde_nabla_omega_zero", "curvature_last_pair_symmetry",
})
SWELL_FAILING = frozenset({
    "tilde_nabla_structure_zero", "tilde_nabla_base_curvature_zero",
    "tilde_nabla_tilde_curvature_zero", "tilde_nabla_tilde_torsion_zero",
    "tilde_nabla_xi_zero", "nabla_xi_linear_form", "curvature_kills_xi",
    "curvature_xi_slot_symmetry", "curvature_cyclic_xi_identity",
    "curvature_xi_proportionality", "curvature_xi_rank_one",
    "curvature_leafwise_flatness", "xi_geodesic", "xi_flow_preserves_omega",
    "xi_kernel_integrable", "hamiltonian_oneform_closed",
})


def check_swell_item(out: dict) -> list[str]:
    rc, text = out["verify"]
    return check_verdicts(rc, text, 1, SWELL_FAILING, SWELL_PASSING)


# The printed first chart fails torsion-freeness and parallel omega (its
# torsion T^2_12 = 4/(3x) and nabla_1 omega_12 = -4/(9x^3)); the emended
# chart and the second chart pass every check.
EXAMPLE1_FAILING = frozenset({
    "nabla_omega_zero", "torsion_zero", "tilde_nabla_omega_zero",
    "tilde_nabla_xi_zero", "nabla_xi_linear_form",
})

# Per chart: omega_12 (and omega_34) as functions of the point, the
# dimensions of the Nomizu and transvection algebras, the Bianchi class of
# each 3-dimensional one, and the metric obstruction verdict.  A
# homogeneous structure has isomorphic models at every point, so these
# hold at every seeded point.
MODEL_EXPECT = {
    "example1-emended": {
        "omega": lambda p: {(0, 1): 1 / (3 * p["x"] ** 2)},
        "dims": {"nomizu": 3, "transvection": 2},
        "bianchi": {"nomizu": ("III", None)},
        "obstructed": True,
    },
    "example2": {
        "omega": lambda p: {(0, 1): 1 / p["x"] ** 2},
        "dims": {"nomizu": 3, "transvection": 3},
        "bianchi": {"nomizu": ("VI", ["1/2", "2"]),
                    "transvection": ("VI", ["1/2", "2"])},
        "obstructed": True,
    },
    "product": {
        "omega": lambda p: {(0, 1): 1 / p["x"] ** 2, (2, 3): 1 / p["u"] ** 2},
        "dims": {"nomizu": 6, "transvection": 6},
        "bianchi": {},
        "obstructed": None,  # not of linear type: the obstruction does not apply
    },
}


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(row) for row in zip(*a)]


def is_symplectic_basis(columns: list[list[Fraction]], omega_p: list[list[Fraction]]) -> bool:
    """B^T omega_p B is the standard form."""
    n = len(columns) // 2
    return _matmul(_matmul(_transpose(columns), omega_p), columns) == omega_matrix(n)


def omega_at(chart: str, point: dict[str, Fraction]) -> list[list[Fraction]]:
    d = len(point)
    w = [[Fraction(0)] * d for _ in range(d)]
    for (i, j), value in MODEL_EXPECT[chart]["omega"](point).items():
        w[i][j] = value
        w[j][i] = -value
    return w


def check_model_point(chart: str, point: dict, f: list, out: dict) -> list[str]:
    """Outputs of one point of the chart-to-model pipeline."""
    expect = MODEL_EXPECT[chart]
    problems = []
    payload, err = parse_report(*out["model-at-point"])
    if err:
        return ["model-at-point: " + err]
    if out["model-at-point"][0] != 0 or failing(payload):
        problems.append(f"model-at-point: failing checks {failing(payload)}")
    basis = [[Fraction(v) for v in row] for row in payload["artifacts"]["basis_columns"]]
    if not is_symplectic_basis(basis, omega_at(chart, point)):
        problems.append("model-at-point: basis is not symplectic for omega at the point")
    if expect["obstructed"] is not None:
        payload, err = parse_report(*out["obstruction"])
        if err:
            problems.append("obstruction: " + err)
        elif payload["artifacts"]["obstructed"] is not expect["obstructed"]:
            problems.append(f"obstruction: obstructed={payload['artifacts']['obstructed']}")
    problems += ["check-model: " + p for p in check_verdicts(*out["check-model"], 0, set())]
    for kind, dim in expect["dims"].items():
        payload, err = parse_report(*out[kind])
        if err or out[kind][0] != 0:
            problems.append(f"{kind}: exit {out[kind][0]} {err or ''}")
            continue
        got = payload["artifacts"]["presentation"]["dim"]
        if got != dim:
            problems.append(f"{kind}: algebra dimension {got}, expected {dim}")
    if set(out["bianchi"]) != set(expect["bianchi"]):
        problems.append(f"bianchi ran on {sorted(out['bianchi'])}, "
                        f"expected {sorted(expect['bianchi'])}")
    for kind, (tag, params) in expect["bianchi"].items():
        if kind not in out["bianchi"]:
            continue
        payload, err = parse_report(*out["bianchi"][kind])
        if err:
            problems.append(f"bianchi {kind}: {err}")
            continue
        art = payload["artifacts"]
        if art.get("type") != tag or art.get("parameters") != params:
            problems.append(f"bianchi {kind}: {art.get('type')} {art.get('parameters')}, "
                            f"expected {tag} {params}")
    if not is_symplectic_basis(f, omega_matrix(len(f) // 2)):
        problems.append("isomorphism: the generated map is not symplectic")
    iso = out["isomorphism"]
    if not iso or not all(c["pass"] for c in iso):
        problems.append(f"isomorphism: failing checks "
                        f"{[c['name'] for c in iso if not c['pass']]}")
    return problems

"""Seeded input generators.

Everything here is plain data (Fractions, lists, JSON-ready dicts) built
from `random.Random` seeded with a string, so the same seed gives
byte-identical inputs on every interpreter.  Nothing imports the package
under test: the expected answers the checker compares against are
computed by this module's own index formulas.
"""

from __future__ import annotations

import random
from fractions import Fraction

# -- (0,3)-tensors over the standard symplectic space --------------------------


def omega_matrix(n: int) -> list[list[Fraction]]:
    """Standard form: omega(e_i, e_{i+n}) = 1 for i < n."""
    d = 2 * n
    w = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        w[i][i + n] = Fraction(1)
        w[i + n][i] = Fraction(-1)
    return w


def flat(d: int, x: int, y: int, z: int) -> int:
    return (x * d + y) * d + z


def random_symmetric(rng: random.Random, d: int, bound: int) -> list[Fraction]:
    """(0,3)-tensor symmetric in slots 1 and 2, integer entries in [-bound, bound]."""
    comps = [Fraction(0)] * d ** 3
    for x in range(d):
        for y in range(x, d):
            for z in range(d):
                v = Fraction(rng.randint(-bound, bound))
                comps[flat(d, x, y, z)] = v
                comps[flat(d, y, x, z)] = v
    return comps


def random_antisymmetric(rng: random.Random, d: int, bound: int) -> list[Fraction]:
    """(0,3)-tensor antisymmetric in slots 1 and 2."""
    comps = [Fraction(0)] * d ** 3
    for x in range(d):
        for y in range(x + 1, d):
            for z in range(d):
                v = Fraction(rng.randint(-bound, bound))
                comps[flat(d, x, y, z)] = v
                comps[flat(d, y, x, z)] = -v
    return comps


def cyclic_sum(d: int, t: list) -> list:
    """C(A)(x,y,z) = A(x,y,z) + A(y,z,x) + A(z,x,y)."""
    return [t[flat(d, x, y, z)] + t[flat(d, y, z, x)] + t[flat(d, z, x, y)]
            for x in range(d) for y in range(d) for z in range(d)]


def antisymmetrize(d: int, s: list) -> list:
    """A(S)(x,y,z) = S(y,z,x) - S(x,z,y), the cotorsion-to-torsion map."""
    return [s[flat(d, y, z, x)] - s[flat(d, x, z, y)]
            for x in range(d) for y in range(d) for z in range(d)]


def tensor_case(rng: random.Random, n: int, bound: int = 5) -> dict:
    """One classes item: S, an antisymmetric tensor, and S with its S3 part removed.

    The totally symmetric (S3) part of a tensor symmetric in (1,2) is
    C(S)/3, because S1 + S2 is exactly the kernel of the cyclic sum.  So
    `sym_no_s3` = S - C(S)/3 lies in S1 + S2, and `torsion` = A(-sym_no_s3)
    lies in T1 + T2 with `sym_no_s3` as its unique S1 + S2 preimage.
    """
    d = 2 * n
    sym = random_symmetric(rng, d, bound)
    anti = random_antisymmetric(rng, d, bound)
    third = Fraction(1, 3)
    sym_no_s3 = [s - third * c for s, c in zip(sym, cyclic_sum(d, sym))]
    torsion = antisymmetrize(d, [-v for v in sym_no_s3])
    return {"n": n, "sym": sym, "anti": anti,
            "sym_no_s3": sym_no_s3, "torsion": torsion}


# -- charts ---------------------------------------------------------------------


def swell_chart(rng: random.Random) -> dict:
    """A 4D chart and its parameters.

    omega = dx^dy/q + du^dv/u^2 with q = a x^2 + b y^2 + c.  The
    connection is the split symplectic one: on the (x, y) block
    Gamma^1_11 = Gamma^2_12 = Gamma^2_21 = -q_x/(2q) and
    Gamma^1_12 = Gamma^1_21 = Gamma^2_22 = -q_y/(2q); on the (u, v) block
    Gamma^3_33 = -2/u.  It is torsion-free with parallel omega for every
    positive a, b, c; the vector field xi = d_y + u d_v makes the
    linear-type structure non-parallel.  Only a, b, c are seeded: scaling
    xi's components changes the cost of a chart by up to 14%, a, b, c in
    1..3 by about 5%.
    """
    a, b, c = (rng.randint(1, 3) for _ in range(3))
    q = f"({a}*x^2 + {b}*y^2 + {c})"
    gx = f"-{a}*x/{q}"
    gy = f"-{b}*y/{q}"
    chart = {
        "coords": ["x", "y", "u", "v"],
        "omega": {"1,2": f"1/{q}", "3,4": "1/u^2"},
        "christoffel": {"1,1,1": gx, "2,1,2": gx, "2,2,1": gx,
                        "1,1,2": gy, "1,2,1": gy, "2,2,2": gy,
                        "3,3,3": "-2/u"},
        "fields": {"xi": {"valence": ["con"], "components": {"2": "1", "4": "u"}}},
    }
    return {"chart": chart, "params": {"a": a, "b": b, "c": c}}


def product_chart() -> dict:
    """The 4D product of the second worked chart with itself.

    `S` is the block sum of that chart's linear-type structure
    S_X Y = omega(X,Y) xi - omega(Y,xi) X for xi = x d_y (and u d_v on
    the second block).
    """
    return {
        "coords": ["x", "y", "u", "v"],
        "omega": {"1,2": "1/x^2", "3,4": "1/u^2"},
        "christoffel": {"1,1,1": "-2/x", "3,3,3": "-2/u"},
        "fields": {"S": {"valence": ["cov", "cov", "con"],
                         "components": {"1,1,1": "-1/x", "1,2,2": "1/x",
                                        "2,1,2": "-2/x", "3,3,3": "-1/u",
                                        "3,4,4": "1/u", "4,3,4": "-2/u"}}},
    }


def rational_point(rng: random.Random, coords: list[str],
                   nonzero: tuple[str, ...]) -> dict[str, Fraction]:
    """Small rationals; the coordinates in `nonzero` (the poles) avoid 0."""
    point = {}
    for name in coords:
        value = Fraction(0)
        while value == 0:
            value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if name not in nonzero:
                break
        point[name] = value
    return point


def point_text(point: dict[str, Fraction]) -> str:
    return ",".join(f"{k}={v}" for k, v in point.items())


def symplectic_matrix(rng: random.Random, n: int, factors: int = 3) -> list[list[Fraction]]:
    """Product of transvections x -> x + c omega(v, x) v with small integer v, c = +-1."""
    d = 2 * n
    w = omega_matrix(n)
    f = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(factors):
        v = [Fraction(0)] * d
        while not any(v):
            v = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        c = rng.choice((-1, 1))
        wv = [sum(v[a] * w[a][b] for a in range(d)) for b in range(d)]
        step = [[Fraction(int(i == j)) + c * v[i] * wv[j] for j in range(d)]
                for i in range(d)]
        f = [[sum(step[i][k] * f[k][j] for k in range(d)) for j in range(d)]
             for i in range(d)]
    return f


# -- workload inputs -------------------------------------------------------------

CLASSES_N = 4
CLASSES_ITEMS = 1
SWELL_ITEMS = 1

FIXTURE_POLES = ("x",)
PRODUCT_POLES = ("x", "u")


def classes_inputs(seed: int) -> dict:
    rng = random.Random(f"classes-n4:{seed}")
    return {"cases": [tensor_case(rng, CLASSES_N) for _ in range(CLASSES_ITEMS)]}


def swell_inputs(seed: int) -> dict:
    rng = random.Random(f"chart-swell-4d:{seed}")
    return {"charts": [swell_chart(rng) for _ in range(SWELL_ITEMS)]}


def chart_to_model_inputs(seed: int) -> dict:
    """Per chart: the points to extract models at and one symplectic matrix per point."""
    rng = random.Random(f"chart-to-model:{seed}")
    xy = ["x", "y"]
    xyuv = ["x", "y", "u", "v"]
    e1_points = [rational_point(rng, xy, FIXTURE_POLES) for _ in range(2)]
    e2_points = [{"x": Fraction(1), "y": Fraction(0)},
                 rational_point(rng, xy, FIXTURE_POLES)]
    prod_points = [rational_point(rng, xyuv, PRODUCT_POLES)]
    charts = [
        {"chart": "example1", "points": []},
        {"chart": "example1-emended", "points": e1_points},
        {"chart": "example2", "points": e2_points},
        {"chart": "product", "points": prod_points},
    ]
    for entry in charts:
        n = 2 if entry["chart"] == "product" else 1
        entry["maps"] = [symplectic_matrix(rng, n) for _ in entry["points"]]
    return {"charts": charts, "product": product_chart()}


GENERATORS = {
    "classes-n4": classes_inputs,
    "chart-swell-4d": swell_inputs,
    "chart-to-model": chart_to_model_inputs,
}


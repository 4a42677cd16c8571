"""Symbolic coordinate-chart calculus over exact rational function fields.

A chart is a single coordinate patch with a symplectic 2-form, Christoffel
symbols and optional named tensor fields, all with rational-function
entries.  Verification happens in the function field (generic-point
semantics): a check passes when the relevant expression is the zero
rational function, so poles such as {x = 0} are excluded implicitly and
pointwise operations reject pole points explicitly.

Index conventions (all 0-based in code, 1-based in files and witnesses):

* christoffel[k][i][j] is the coefficient of d_k in the covariant
  derivative of d_j along d_i.
* The curvature sign is R(X,Y)Z = nabla_{[X,Y]} Z - nabla_X nabla_Y Z
  + nabla_Y nabla_X Z -- note this is the OPPOSITE of the most common
  textbook convention; for coordinate fields the bracket term drops.
* The covariant differential adds its derivative slot FIRST:
  (nabla T)(X; ...) = (nabla_X T)(...).  `gradient(chart, t)` puts the
  coordinate partials d_i t in the same first slot.  `_partial` is the
  only place in this module that differentiates, and it takes no
  partial of a zero.  Lie brackets, and the Lie derivative and the
  Hamiltonian checks of `lineartype`, read partials off the planes d_i t
  of `_partial_planes`; the covariant derivative, the closedness of omega
  and the curvature's d Gamma, which need single entries, call `_partial`
  themselves.  The checks that nabla T vanishes draw nabla T one entry at
  a time, plane nabla_i T after plane, visiting only the positions where
  a component can be nonzero, and stop at the first nonzero component.

A connection shifted by a structure tensor S uses Gamma' = Gamma - S.  A
linear-type structure is S_X Y = omega(X,Y) xi - omega(Y,xi) X, written
once in `_linear_type` for chart fields and for evaluated points alike;
its identity suite, the integrability and Hamiltonian checks of xi and the
metric obstruction live in `lineartype`.  The suites run on one `ChartRun`
per verification, which keeps the fields that two readers share, Gamma'
and the base curvature R; the shifted curvature and torsion have one
reader each and are not kept.
The built-in example charts are loaded from packaged fixture files; the
first one ships verbatim (where its printed signs fail the checks) plus an
emended variant found by exhaustive search over the sign patterns.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from . import linalg
from .models import InfinitesimalModel, standard_omega_tensor
from .rationals import RationalFunction, ScaledPoint, parse_ratfun
from .reporting import Check, Report, index_witness
from .symplectic import (
    COV, CON, MAX_N, MAX_RANK, MAX_TENSORS, SymplecticSpace, Tensor, _derivation_entries, _flat,
    _index_of_key, _unflat, change_basis, insert_vector, tensor_to_json,
)


class ChartFormatError(ValueError):
    """Malformed chart input (bad keys, non-antisymmetric omega, parse errors)."""


@dataclass(frozen=True)
class Chart:
    """One coordinate patch with exact rational-function data."""

    coords: tuple[str, ...]
    omega: tuple          # [i][j] RationalFunction, antisymmetric
    christoffel: tuple    # [k][i][j] RationalFunction
    fields: dict = field(default_factory=dict)
    excluded_locus: str = ""

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def n(self) -> int:
        return len(self.coords) // 2

    def rf_zero(self) -> RationalFunction:
        return RationalFunction.constant(0, self.coords)

    def field_tensor(self, name: str) -> Tensor:
        if name not in self.fields:
            raise KeyError(f"chart has no field named {name!r}")
        return self.fields[name]


def _rf(chart_coords, value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value.with_variables(chart_coords) if set(value.variables) != set(chart_coords) else value
    return RationalFunction.constant(value, chart_coords)


def _check_coordinates(coords: tuple) -> None:
    if len(coords) > 2 * MAX_N:
        raise ChartFormatError(f"charts have at most {2 * MAX_N} coordinates, got {len(coords)}")
    repeated = next((c for pos, c in enumerate(coords) if c in coords[:pos]), None)
    if repeated is not None:
        raise ChartFormatError(f"coordinate {repeated!r} appears more than once")


def make_chart(coords, omega_entries, christoffel_entries, fields=None,
               excluded_locus: str = "") -> Chart:
    """Build a chart from sparse {(i,j): rf} and {(k,i,j): rf} maps (0-based)."""
    coords = tuple(coords)
    d = len(coords)
    if d % 2 != 0:
        raise ChartFormatError("charts need an even number of coordinates")
    _check_coordinates(coords)
    zero = RationalFunction.constant(0, coords)
    omega = [[zero] * d for _ in range(d)]
    given = set()  # the pairs i <= j given so far, under either key order
    for (i, j), value in omega_entries.items():
        value = _rf(coords, value)
        if i == j and value:
            raise ChartFormatError("omega must vanish on the diagonal")
        pair = min(i, j), max(i, j)
        if pair in given and not (omega[i][j] == value):
            raise ChartFormatError(f"conflicting omega entries at ({pair[0] + 1},{pair[1] + 1})")
        given.add(pair)
        omega[i][j] = value
        omega[j][i] = -value
    gamma = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for (k, i, j), value in christoffel_entries.items():
        gamma[k][i][j] = _rf(coords, value)
    return Chart(coords=coords,
                 omega=tuple(tuple(row) for row in omega),
                 christoffel=tuple(tuple(tuple(r) for r in plane) for plane in gamma),
                 fields=dict(fields or {}),
                 excluded_locus=excluded_locus)


# -- structural checks -----------------------------------------------------------

def omega_is_closed(chart: Chart) -> tuple[bool, tuple | None]:
    """d omega = 0: the cyclic sum of coordinate partials vanishes exactly.

    `make_chart` stores omega[j][i] = -omega[i][j], so the cyclic sum
    d_i w_jk + d_j w_ki + d_k w_ij is alternating: it is formed only for
    i < j < k, up to the first nonzero one, which is also the first
    nonzero entry of the full sum.
    """
    w, coords, d = chart.omega, chart.coords, chart.dim

    def entry(i, j, k):
        return (_partial(w[j][k], coords[i]) + _partial(w[k][i], coords[j])
                + _partial(w[i][j], coords[k]))

    hit = _first_nonzero_at(itertools.combinations(range(d), 3), entry)
    return (True, None) if hit is None else (False, hit[0])


def omega_is_nondegenerate(chart: Chart) -> bool:
    return bool(linalg.det([list(row) for row in chart.omega]))


def verify_chart_structure(chart: Chart) -> Report:
    closed, bad = omega_is_closed(chart)
    nondegenerate = omega_is_nondegenerate(chart)
    if nondegenerate:
        kernel_witness = None
    else:
        kernel = linalg.nullspace([list(row) for row in chart.omega])[0]
        kernel_witness = f"omega(v, .) = 0 for v = ({', '.join(str(x) for x in kernel)})"
    return Report(title="chart structure", checks=[
        Check("omega_closed", closed,
              None if closed else f"cyclic partial sum nonzero at {index_witness(bad)}"),
        Check("omega_nondegenerate", nondegenerate, kernel_witness),
    ])


# -- basic chart calculus ----------------------------------------------------------

def _partial(value: RationalFunction, coord: str) -> RationalFunction:
    """d value / d coord; a zero value is its own partial, d 0 = 0, and takes none.

    Not a kernel of its own: it is the single call site of
    `RationalFunction.partial` in this module, which
    `test_charts_differentiate_in_one_kernel` enforces.  `_partial_planes`
    maps it over a plane, `_nabla_entries` calls it at the positions it
    visits, and `omega_is_closed` calls it per entry, since the three
    partials of one cyclic-sum entry lie in three planes.  Each entry keeps
    its partials, so the readers of one entry -- the omega checks and the
    Lie derivative, or R and the shifted R for a Gamma entry that S leaves
    unchanged -- share one formed partial; `chart_from_json` makes equal
    entries one object, which shares them too.
    """
    return value.partial(coord) if value else value


def _partial_planes(chart: Chart, t: Tensor):
    """The planes d_i t of `gradient`, one coordinate i at a time; each plane
    is an iterator that takes one partial per nonzero entry drawn."""
    for coord in chart.coords:
        yield map(_partial, t.comps, itertools.repeat(coord))


def gradient(chart: Chart, t: Tensor) -> Tensor:
    """Coordinate partials d_i t, with i in a new first covariant slot."""
    return Tensor(chart.dim, (COV,) + t.valence,
                  list(itertools.chain.from_iterable(_partial_planes(chart, t))))


def tilde_christoffel(chart: Chart, structure: Tensor) -> tuple:
    """Christoffel symbols of the shifted connection Gamma - S."""
    d = chart.dim
    if structure.valence != (COV, COV, CON):
        raise ValueError("structure tensor must be a (1,2) field")
    return tuple(tuple(tuple(chart.christoffel[k][i][j] - structure[i, j, k]
                             for j in range(d)) for i in range(d)) for k in range(d))


def _gamma(chart: Chart, structure: Tensor | None):
    return chart.christoffel if structure is None else tilde_christoffel(chart, structure)


def chart_torsion(chart: Chart, structure: Tensor | None = None) -> Tensor:
    """Torsion (1,2) field: T(i,j) = Gamma[k][i][j] - Gamma[k][j][i]."""
    return _torsion(chart, _gamma(chart, structure))


def _torsion(chart: Chart, gamma) -> Tensor:
    """`chart_torsion` of the connection with Christoffel array `gamma`."""
    return Tensor.build(chart.dim, (COV, COV, CON),
                        lambda i, j, k: gamma[k][i][j] - gamma[k][j][i])


def chart_curvature(chart: Chart, structure: Tensor | None = None) -> Tensor:
    """Curvature (1,3) field under the sign convention in the module docstring:
    R[i,j,k,l] = -d_i Gamma[l][j][k] + d_j Gamma[l][i][k]
    + sum_m (-Gamma[m][j][k] Gamma[l][i][m] + Gamma[m][i][k] Gamma[l][j][m]).

    R is antisymmetric in (i, j), so one loop over the pairs i < j forms
    each partial and each nonzero product p = Gamma[m][j][k] Gamma[l][i][m],
    q = Gamma[m][i][k] Gamma[l][j][m] once and sums it into both R[i,j,k,l]
    (-p, then +q, for each m in turn) and R[j,i,k,l] (-q, then +p); a
    product with a zero factor is skipped.  The diagonal i = j is zero.
    """
    return _curvature(chart, _gamma(chart, structure))


def _curvature(chart: Chart, gamma) -> Tensor:
    """`chart_curvature` of the connection with Christoffel array `gamma`."""
    d = chart.dim
    coords = chart.coords
    comps = [chart.rf_zero()] * d ** 4
    for i, j in itertools.combinations(range(d), 2):
        for k in range(d):
            jk = [gamma[m][j][k] for m in range(d)]
            ik = [gamma[m][i][k] for m in range(d)]
            for l in range(d):
                a = _partial(gamma[l][j][k], coords[i])
                b = _partial(gamma[l][i][k], coords[j])
                r_ij, r_ji = (-a + b, -b + a) if a or b else (a, a)
                for x, y, u, v in zip(jk, gamma[l][i], ik, gamma[l][j]):
                    p = x * y if x and y else None
                    q = u * v if u and v else None
                    if p is not None:
                        r_ij = r_ij - p
                    if q is not None:
                        r_ij, r_ji = r_ij + q, r_ji - q
                    if p is not None:
                        r_ji = r_ji + p
                comps[((i * d + j) * d + k) * d + l] = r_ij
                comps[((j * d + i) * d + k) * d + l] = r_ji
    return Tensor(d, (COV, COV, COV, CON), comps)


def _nabla_entries(chart: Chart, t: Tensor, gamma):
    """(flat, value) for the components of nabla t that can be nonzero, in
    flat order, one per draw, for the connection with Christoffel array `gamma`.

    nabla_i t = Gamma_i . t + d_i t with Gamma_i[a][b] = gamma[a][i][b]
    acting as a derivation.  Plane i walks the positions that
    `_derivation_entries` draws: those its connection term reaches and
    `t.support`, the only positions with a nonzero partial; every other
    component is t's own zero there.  At each position the connection
    term c is formed first, then the partial p, and the value is c + p,
    the partial added last: the entries are never reduced, and this order
    keeps them smallest.  A zero t yields nothing.
    """
    d, comps = chart.dim, t.comps
    if t.is_zero():
        return
    size = len(comps)
    for i, coord in enumerate(chart.coords):
        connection = _derivation_entries([[gamma[a][i][b] for b in range(d)] for a in range(d)], t)
        for flat, c in connection:
            p = _partial(comps[flat], coord)
            yield i * size + flat, (c + p if p else c) if c else p


def covariant_derivative(chart: Chart, tensor: Tensor,
                         structure: Tensor | None = None) -> Tensor:
    """Coordinate covariant derivative; the new covariant slot comes first."""
    comps = list(tensor.comps) * chart.dim
    for flat, value in _nabla_entries(chart, tensor, _gamma(chart, structure)):
        comps[flat] = value
    return Tensor(chart.dim, (COV,) + tensor.valence, comps)


def omega_tensor(chart: Chart) -> Tensor:
    return Tensor.build(chart.dim, (COV, COV), lambda i, j: chart.omega[i][j])


def lie_bracket(chart: Chart, x: Tensor, y: Tensor) -> Tensor:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    if x.valence != (CON,) or y.valence != (CON,):
        raise ValueError("expected vector fields")
    return (insert_vector(gradient(chart, y), 0, x.comps)
            - insert_vector(gradient(chart, x), 0, y.comps))


# -- linear-type structures -----------------------------------------------------------

def _linear_type(omega, xi: list) -> Tensor:
    """S_X Y = omega(X,Y) xi - omega(Y,xi) X for an omega matrix and xi's components."""
    d = len(xi)
    omega_xi = insert_vector(Tensor(d, (COV, COV), [w for row in omega for w in row]),
                             1, xi).comps  # omega(., xi)

    def entry(i, j, k):
        total = omega[i][j] * xi[k]
        if k == i:
            total = total - omega_xi[j]
        return total

    return Tensor.build(d, (COV, COV, CON), entry)


def linear_type_structure(chart: Chart, xi: Tensor) -> Tensor:
    """S_X Y = omega(X,Y) xi - omega(Y,xi) X as a (1,2) field."""
    if xi.valence != (CON,):
        raise ValueError("expected a vector field")
    return _linear_type(chart.omega, xi.comps)


# -- verification suites ----------------------------------------------------------------

def _zero_check(name: str, hit: tuple | None) -> Check:
    """A check that a field vanishes, from its first nonzero component.

    `hit` is the (index, value) that `Tensor.first_nonzero` gives on the
    full field, or None.  A failing check's witness is that component, the
    first nonzero one in index order; its readers compute no component
    after it, so a failing check never costs more than a passing one.  The
    covariant derivatives visit only the positions that a nonzero component
    reaches, and the linear-type identities of `lineartype` only those that
    the curvature's support or a nonzero omega or omega(., xi) factor
    reaches: every other component has a zero factor in each term.
    """
    return Check(name, hit is None,
                 None if hit is None else f"component {index_witness(hit[0])} = {hit[1]}")


def _first_nonzero_at(positions, entry) -> tuple | None:
    """The first nonzero (multi-index, value) of the field whose component
    at an index is `entry(*index)`, or None.

    `positions` are multi-index tuples in flat order (for tuples of one
    length, sorted order) outside which every component is zero; `entry` is
    called only there, and only up to the first nonzero value.
    """
    for idx in positions:
        value = entry(*idx)
        if value:
            return idx, value
    return None


def _nabla_first_nonzero(chart: Chart, t: Tensor, gamma) -> tuple | None:
    """The first nonzero component of nabla t for the connection with
    Christoffel array `gamma`, summed in the order of `_nabla_entries`,
    which it draws up to that component: no connection entry and no
    partial after it is formed, and a zero t forms none at all."""
    for flat, value in _nabla_entries(chart, t, gamma):
        if value:
            return _unflat(chart.dim, len(t.valence) + 1, flat), value
    return None


class ChartRun:
    """One verification of a chart against a structure tensor: the given
    (1,2) field or, by default, the linear-type structure of the vector
    field `xi`, formed on first use, so that `base_checks` needs neither.
    The shifted Christoffel array `tilde_gamma` and the base curvature
    `curvature` are kept from their first use.  `lineartype` runs its
    suite on the run and reads `_xi_gamma`, Gamma' of xi's structure."""

    def __init__(self, chart: Chart, structure: Tensor | None = None, xi: Tensor | None = None):
        self.chart, self.xi, self._given = chart, xi, structure

    @functools.cached_property
    def structure(self) -> Tensor:
        if self._given is not None:
            return self._given
        return linear_type_structure(self.chart, self.xi)

    @functools.cached_property
    def tilde_gamma(self) -> tuple:
        return tilde_christoffel(self.chart, self.structure)

    @functools.cached_property
    def curvature(self) -> Tensor:
        return chart_curvature(self.chart)

    @property
    def _xi_gamma(self) -> tuple:
        if self._given is None:
            return self.tilde_gamma
        return ChartRun(self.chart, xi=self.xi).tilde_gamma

    def base_checks(self) -> list[Check]:
        """The base connection is Fedosov: omega is parallel and torsion-free."""
        chart = self.chart
        return [
            _zero_check("nabla_omega_zero",
                        _nabla_first_nonzero(chart, omega_tensor(chart), chart.christoffel)),
            _zero_check("torsion_zero", chart_torsion(chart).first_nonzero()),
        ]

    def parallelism_checks(self) -> list[Check]:
        """The shifted connection makes omega, the structure tensor, both
        curvatures and its own torsion parallel."""
        chart, gamma = self.chart, self.tilde_gamma
        return [
            _zero_check("tilde_nabla_omega_zero",
                        _nabla_first_nonzero(chart, omega_tensor(chart), gamma)),
            _zero_check("tilde_nabla_structure_zero",
                        _nabla_first_nonzero(chart, self.structure, gamma)),
            _zero_check("tilde_nabla_base_curvature_zero",
                        _nabla_first_nonzero(chart, self.curvature, gamma)),
            _zero_check("tilde_nabla_tilde_curvature_zero",
                        _nabla_first_nonzero(chart, _curvature(chart, gamma), gamma)),
            _zero_check("tilde_nabla_tilde_torsion_zero",
                        _nabla_first_nonzero(chart, _torsion(chart, gamma), gamma)),
        ]


# -- pointwise operations -----------------------------------------------------------------

def evaluate_tensor(t: Tensor, point: dict | ScaledPoint) -> Tensor:
    """Entries evaluated at the point, which is read once for all of them."""
    return Tensor(t.dim, t.valence, _evaluated(t.comps, ScaledPoint.of(point)))


def evaluate_matrix(matrix, point: dict | ScaledPoint) -> list[list[Fraction]]:
    point = ScaledPoint.of(point)
    return [_evaluated(row, point) for row in matrix]


def _evaluated(entries, point: ScaledPoint) -> list[Fraction]:
    """A zero entry is Fraction(0) unevaluated: a zero `RationalFunction` has
    denominator 1, so it has no pole to raise."""
    zero = Fraction(0)
    return [zero if not c else c.evaluate(point) if isinstance(c, RationalFunction)
            else Fraction(c) for c in entries]


def symplectic_basis_matrix(omega_p: list[list[Fraction]]) -> list[list[Fraction]]:
    """Columns form a basis in which the form becomes the standard one.

    Iterative hyperbolic-pair extraction: pick u, find w with omega(u,w) = 1
    after rescaling, project the rest onto the symplectic complement with
    P(v) = v - omega(v,w) u + omega(v,u) w, and recurse.  The working vectors
    stay independent: those other than u and its partner are independent
    modulo span(u, partner), and P moves each only within that span, so the
    projections are a basis of the complement.
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
        projected = []
        for v in working[1:]:
            if v is not partner:
                vw, vu = pairing(v, w), pairing(v, u)
                projected.append([a - vw * b + vu * c for a, b, c in zip(v, u, w)])
        working = projected
    columns = us + ws
    return [[columns[c][r] for c in range(dim)] for r in range(dim)]


def model_at_point(chart: Chart, structure: Tensor, point: dict):
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

    m = symplectic_basis_matrix(omega_p)
    n = chart.n
    space = SymplecticSpace(n)
    pulled = linalg.matmul(linalg.transpose(m), omega_p)
    product = linalg.matmul(pulled, m)
    if any(product[i][j] != space.omega[i][j] for i in range(2 * n) for j in range(2 * n)):
        raise AssertionError("change of basis failed to reach the standard form")
    m_inv = linalg.matmul(space.omega_inv, pulled)  # m^T omega_p m = Omega

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


# -- serialization and the packaged examples -------------------------------------------

def _index_key(key: str, arity: int, dim: int, what: str) -> tuple[int, ...]:
    """0-based indices of a 1-based comma-joined chart key such as ``"1,2"``,
    read by `symplectic._index_of_key` and checked against the chart's
    dimension."""
    idx = _index_of_key(key, arity)
    if idx is None:
        raise ChartFormatError(f"bad {what} key {key!r}")
    if not all(0 <= i < dim for i in idx):
        raise ChartFormatError(f"{what} key {key!r} out of range")
    return idx


def _entries(data: dict, name: str) -> dict:
    entries = data.get(name, {})
    if not isinstance(entries, dict):
        raise ChartFormatError(f"{name!r} must be a JSON object")
    return entries


def chart_from_json(data: dict) -> Chart:
    """Inverse of `chart_to_json`.

    The omega, christoffel and field-component objects go through one
    reader: each 1-based key through `_index_key`, each entry parsed over
    the chart's coordinates, and no index given twice (as "1,2" and "01,2").
    Malformed input raises `ChartFormatError`.
    """
    try:
        coords = data["coords"]
    except KeyError:
        raise ChartFormatError("chart file is missing 'coords'") from None
    if not isinstance(coords, (list, tuple)) or not all(isinstance(c, str) for c in coords):
        raise ChartFormatError("'coords' must be a list of variable names")
    coords = tuple(coords)
    if len(coords) % 2 != 0 or not coords:
        raise ChartFormatError("charts need a positive even number of coordinates")
    dim = len(coords)
    _check_coordinates(coords)

    parsed = {}
    dens = {}

    def parse(text, context):
        # equal texts give one shared entry, whose partials are formed once,
        # and equal denominators share one object, whose products with other
        # denominators are formed once; the key is the ordered term map, so
        # that every entry keeps its own term order
        text = str(text)
        if text not in parsed:
            try:
                value = parse_ratfun(text, coords)
            except ValueError as err:
                raise ChartFormatError(f"{context}: {err}") from None
            den = dens.setdefault(tuple(value.den.terms.items()), value.den)
            parsed[text] = RationalFunction._new(value.num, den)
        return parsed[text]

    def read(entries, arity, what, context):
        # {0-based index: parsed entry}; an index given twice, as "1,2" and
        # "01,2", is malformed, as in tensor and model files
        out = {}
        for key, text in entries.items():
            idx = _index_key(key, arity, dim, what)
            if idx in out:
                raise ChartFormatError(f"{what} key {key!r} repeats an index given before")
            out[idx] = parse(text, f"{context}[{key}]")
        return out

    omega_entries = read(_entries(data, "omega"), 2, "omega", "omega")
    christoffel_entries = read(_entries(data, "christoffel"), 3, "christoffel", "christoffel")
    fields = {}
    named = _entries(data, "fields")
    if len(named) > MAX_TENSORS:
        raise ChartFormatError(f"charts have at most {MAX_TENSORS} fields, got {len(named)}")
    for name, field_data in named.items():
        if not isinstance(field_data, dict):
            raise ChartFormatError(f"field {name!r} must be a JSON object")
        valence = field_data.get("valence", [])
        if not isinstance(valence, list) or any(kind not in (COV, CON) for kind in valence):
            raise ChartFormatError(f"field {name!r}: valence must be a list of "
                                   f"{COV!r}/{CON!r}, got {valence!r}")
        if len(valence) > MAX_RANK:
            raise ChartFormatError(f"field {name!r}: valence has at most {MAX_RANK} slots, "
                                   f"got {len(valence)}")
        zero = RationalFunction.constant(0, coords)
        comps = [zero] * (dim ** len(valence))
        for idx, value in read(_entries(field_data, "components"), len(valence),
                               f"field {name!r} component", f"fields[{name!r}]").items():
            comps[_flat(dim, idx)] = value
        fields[name] = Tensor(dim, valence, comps)
    return make_chart(coords, omega_entries, christoffel_entries, fields,
                      excluded_locus=data.get("excluded_locus", ""))


def field_to_json(t: Tensor) -> dict:
    """A chart field in the `tensor_to_json` form, without the `n` that the
    chart's coordinates already fix."""
    data = tensor_to_json(t)
    del data["n"]
    return data


def chart_to_json(chart: Chart) -> dict:
    d = chart.dim
    omega = {}
    for i in range(d):
        for j in range(i + 1, d):
            if chart.omega[i][j]:
                omega[f"{i + 1},{j + 1}"] = str(chart.omega[i][j])
    christoffel = {}
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if chart.christoffel[k][i][j]:
                    christoffel[f"{k + 1},{i + 1},{j + 1}"] = str(chart.christoffel[k][i][j])
    fields = {name: field_to_json(tensor) for name, tensor in chart.fields.items()}
    out = {"coords": list(chart.coords), "omega": omega, "christoffel": christoffel}
    if fields:
        out["fields"] = fields
    if chart.excluded_locus:
        out["excluded_locus"] = chart.excluded_locus
    return out


def load_chart_file(path) -> Chart:
    with open(path, "r", encoding="utf-8") as handle:
        return chart_from_json(json.load(handle))


EXAMPLE_FILES = {
    "example1": "example1.json",
    "example1-emended": "example1_emended.json",
    "example2": "example2.json",
}


def _load_fixture(name: str) -> dict:
    text = resources.files("fedosov.data").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def load_example(which: int | str) -> Chart:
    """Load a built-in example chart by number or by `EXAMPLE_FILES` name.

    `load_example(1)` is the half-plane chart exactly as printed (whose
    signs fail the torsion-free and parallel-omega checks);
    `load_example("example1-emended")` is the unique repaired variant that
    `emend_chart_signs(load_example(1))` finds, as shipped.
    `load_example(2)` needs no emendation.
    """
    key = {1: "example1", 2: "example2"}.get(which, which)
    if key not in EXAMPLE_FILES:
        raise ValueError(f"unknown example {which!r}")
    return chart_from_json(_load_fixture(EXAMPLE_FILES[key]))


def emend_chart_signs(chart: Chart) -> Chart:
    """Exhaustive sign search over the nonzero Christoffel entries.

    Returns the unique sign assignment under which the connection is
    torsion-free and makes omega parallel; raises if no assignment or more
    than one works.
    """
    entries = [(k, i, j) for k in range(chart.dim)
               for i in range(chart.dim) for j in range(chart.dim)
               if chart.christoffel[k][i][j]]
    winners = []
    for signs in itertools.product((1, -1), repeat=len(entries)):
        candidate = make_chart(
            chart.coords,
            {(i, j): chart.omega[i][j]
             for i in range(chart.dim) for j in range(i + 1, chart.dim)},
            {(k, i, j): (chart.christoffel[k][i][j] if s == 1
                         else -chart.christoffel[k][i][j])
             for (k, i, j), s in zip(entries, signs)},
            fields=chart.fields,
            excluded_locus=chart.excluded_locus)
        if all(check.passed for check in ChartRun(candidate).base_checks()):
            winners.append(candidate)
    if len(winners) != 1:
        raise ValueError(f"sign search found {len(winners)} admissible variants, "
                         "expected exactly one")
    return winners[0]

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
  partial of a zero.  Lie brackets and derivatives and the Hamiltonian
  checks read partials off the planes d_i t of `_partial_planes`; the
  covariant derivative, the closedness of omega and the curvature's
  d Gamma, which need single entries, call `_partial` themselves.
  The checks that nabla T vanishes draw nabla T one entry at a time,
  plane nabla_i T after plane, visiting only the positions where a
  component can be nonzero, and stop at the first nonzero component.
* The linear-type identities are linear in the curvature R, which is
  sparse.  Each identity check forms its entries, in flat order, only at
  the positions that R's support (or that of a contraction of R) or a
  nonzero omega or omega(., xi) factor can reach, and stops at the first
  nonzero one; at every other position each term has a zero factor.

A connection shifted by a structure tensor S uses Gamma' = Gamma - S.  A
linear-type structure is S_X Y = omega(X,Y) xi - omega(Y,xi) X, written
once in `_linear_type` for chart fields and for evaluated points alike.
The suites are methods of one `ChartRun` per verification, which keeps the
fields that two readers share, Gamma' and the base curvature R; the shifted
curvature and torsion, and Gamma' of xi's structure when the run checks
another one, have one reader each and are not kept.
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
from .linalg import is_zero_scalar
from .models import InfinitesimalModel, standard_omega_tensor
from .rationals import RationalFunction, ScaledPoint, parse_ratfun
from .reporting import Check, Report, index_witness
from .symplectic import (
    COV, CON, MAX_N, MAX_RANK, SymplecticSpace, Tensor, _contract_slot, _derivation_entries,
    _support, _unflat, change_basis, insert_vector, tensor_to_json,
)


class ChartFormatError(ValueError):
    """Malformed chart input (bad keys, non-antisymmetric omega, parse errors)."""


class NotLinearTypeError(ValueError):
    """The supplied pointwise structure tensor has no linear-type vector."""


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
    for (i, j), value in omega_entries.items():
        value = _rf(coords, value)
        if i == j and not value.is_zero():
            raise ChartFormatError("omega must vanish on the diagonal")
        if not omega[i][j].is_zero() and not (omega[i][j] == value):
            raise ChartFormatError(f"conflicting omega entries at ({i + 1},{j + 1})")
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

    ordered = ((i * d + j) * d + k for i, j, k in itertools.combinations(range(d), 3))
    hit = _first_nonzero_at(d, 3, ordered, entry)
    return (True, None) if hit is None else (False, hit[0])


def omega_is_nondegenerate(chart: Chart) -> bool:
    return not linalg.det([list(row) for row in chart.omega]).is_zero()


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
    return value if value.is_zero() else value.partial(coord)


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
    return chart.christoffel if structure is None else ChartRun(chart, structure).tilde_gamma


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
                r_ij, r_ji = (a, a) if a.is_zero() and b.is_zero() else (-a + b, -b + a)
                for x, y, u, v in zip(jk, gamma[l][i], ik, gamma[l][j]):
                    p = None if x.is_zero() or y.is_zero() else x * y
                    q = None if u.is_zero() or v.is_zero() else u * v
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
    `_derivation_entries` reaches together with the support of t, the only
    positions with a nonzero partial; every other component is t's own
    zero there.  At each position the connection term c is formed first,
    then the partial p, and the value is c + p, the partial added last:
    the entries are never reduced, and this order keeps them smallest.  A
    zero t yields nothing.
    """
    d, comps = chart.dim, t.comps
    support = _support(t)
    if not support:
        return
    size = len(comps)
    for i, coord in enumerate(chart.coords):
        connection = _derivation_entries([[gamma[a][i][b] for b in range(d)] for a in range(d)],
                                         t, support, with_support=True)
        for flat, c in connection:
            p = _partial(comps[flat], coord)
            yield i * size + flat, (p if c is None or is_zero_scalar(c)
                                    else c if p.is_zero() else c + p)


def covariant_derivative(chart: Chart, tensor: Tensor,
                         structure: Tensor | None = None) -> Tensor:
    """Coordinate covariant derivative; the new covariant slot comes first."""
    comps = list(tensor.comps) * chart.dim
    for flat, value in _nabla_entries(chart, tensor, _gamma(chart, structure)):
        comps[flat] = value
    return Tensor(chart.dim, (COV,) + tensor.valence, comps)


def omega_tensor(chart: Chart) -> Tensor:
    return Tensor.build(chart.dim, (COV, COV), lambda i, j: chart.omega[i][j])


def pairing_with(chart: Chart, vec: Tensor) -> list:
    """Covector omega(., v): component j is sum_m omega[j][m] v^m."""
    if vec.valence != (CON,):
        raise ValueError("expected a vector field")
    return insert_vector(omega_tensor(chart), 1, vec.comps).comps


def lie_bracket(chart: Chart, x: Tensor, y: Tensor) -> Tensor:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k."""
    if x.valence != (CON,) or y.valence != (CON,):
        raise ValueError("expected vector fields")
    return (insert_vector(gradient(chart, y), 0, x.comps)
            - insert_vector(gradient(chart, x), 0, y.comps))


def lie_derivative_omega(chart: Chart, xi: Tensor) -> Tensor:
    """(L_xi omega)_ij = xi^m d_m w_ij + w_mj d_i xi^m + w_im d_j xi^m.

    The three terms are added in this order for each m in turn: the
    entries are never reduced, and this order fixes how they print.
    """
    d = chart.dim
    w = chart.omega
    d_omega = gradient(chart, omega_tensor(chart))  # [m, i, j] = d_m w_ij
    d_xi = gradient(chart, xi)                      # [i, m] = d_i xi^m

    def entry(i, j):
        total = chart.rf_zero()
        for m in range(d):
            if not xi[(m,)].is_zero():
                total = total + xi[(m,)] * d_omega[m, i, j]
            total = total + w[m][j] * d_xi[i, m]
            total = total + w[i][m] * d_xi[j, m]
        return total

    return Tensor.build(d, (COV, COV), entry)


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


def xi_perp_field(chart: Chart, xi: Tensor) -> Tensor:
    """A field with omega(xi_perp, xi) = 1: the first coordinate field with a
    nonvanishing pairing, rescaled in the function field."""
    omega_xi = pairing_with(chart, xi)  # omega(d_a, xi)
    for a in range(chart.dim):
        if not omega_xi[a].is_zero():
            scale = 1 / omega_xi[a]
            return Tensor.build(chart.dim, (CON,),
                                lambda k: scale if k == a else chart.rf_zero())
    raise ValueError("the vector field vanishes identically; no transversal exists")


# -- verification suites ----------------------------------------------------------------

def _zero_check(name: str, hit: tuple | None) -> Check:
    """A check that a field vanishes, from its first nonzero component.

    `hit` is the (index, value) that `Tensor.first_nonzero` gives on the
    full field, or None.  A failing check's witness is that component, the
    first nonzero one in index order; the readers below compute no
    component after it, so a failing check never costs more than a passing
    one.  The covariant derivatives visit only the positions that a nonzero
    component reaches, and the linear-type identities only those that the
    curvature's support or a nonzero omega or omega(., xi) factor reaches:
    every other component has a zero factor in each term.
    """
    return Check(name, hit is None,
                 None if hit is None else f"component {index_witness(hit[0])} = {hit[1]}")


def _first_nonzero_at(d: int, rank: int, positions, entry) -> tuple | None:
    """The first nonzero (multi-index, value) of the d^rank field whose
    component at an index is `entry(*index)`, or None.

    `positions` are increasing flat positions outside which every component
    is zero; `entry` is called only there, and only up to the first nonzero
    value.
    """
    for flat in positions:
        idx = _unflat(d, rank, flat)
        value = entry(*idx)
        if not is_zero_scalar(value):
            return idx, value
    return None


def _positions(d: int, *families) -> list[int]:
    """The distinct flat positions of the multi-indices in some families, increasing."""
    flats = set()
    for idx in itertools.chain(*families):
        flat = 0
        for i in idx:
            flat = flat * d + i
        flats.add(flat)
    return sorted(flats)


def _support_indices(t: Tensor) -> list[tuple[int, ...]]:
    """The multi-indices of t's nonzero entries, in flat order."""
    return [_unflat(t.dim, len(t.valence), flat) for flat in _support(t)]


def _nonzero_indices(values) -> list[int]:
    """The indices of the nonzero values, increasing."""
    return [a for a, value in enumerate(values) if not is_zero_scalar(value)]


def _nabla_first_nonzero(chart: Chart, t: Tensor, gamma) -> tuple | None:
    """The first nonzero component of nabla t for the connection with
    Christoffel array `gamma`, summed in the order of `_nabla_entries`,
    which it draws up to that component: no connection entry and no
    partial after it is formed, and a zero t forms none at all."""
    for flat, value in _nabla_entries(chart, t, gamma):
        if not is_zero_scalar(value):
            return _unflat(chart.dim, len(t.valence) + 1, flat), value
    return None


class ChartRun:
    """One verification of a chart against a structure tensor: the given
    (1,2) field or, by default, the linear-type structure of the vector
    field `xi`, formed on first use, so that `base_checks` needs neither.
    The shifted Christoffel array `tilde_gamma` and the base curvature
    `curvature` are kept from their first use."""

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

    def linear_type_checks(self, xi_perp: Tensor | None = None) -> list[Check]:
        """Identity suite for the linear-type structure of xi on a Fedosov base.

        Verifies the defining covariant-derivative form of xi, the curvature
        degeneracies forced by it, the two curvature reconstruction
        identities against a transversal field (user-supplied via `xi_perp`
        with omega(xi_perp, xi) = 1, or auto-constructed), and the geometric
        properties of xi (geodesic, symplectic flow, integrable kernel
        distribution).
        """
        chart, xi = self.chart, self.xi
        d = chart.dim
        if xi_perp is not None:
            if xi_perp.valence != (CON,):
                raise ValueError("the transversal field must be a vector field")
            if xi_perp.dim != d:
                raise ValueError(f"the transversal field must have {d} components, "
                                 f"got {xi_perp.dim}")
        zero = chart.rf_zero()
        xi_run = self if self._given is None else ChartRun(chart, xi=xi)
        checks: list[Check] = []

        checks.append(_zero_check("tilde_nabla_xi_zero", _nabla_first_nonzero(
            chart, xi, xi_run.tilde_gamma)))

        omega_xi = pairing_with(chart, xi)  # omega(d_i, xi)
        omega_pairs = _support_indices(omega_tensor(chart))
        xi_rows = _nonzero_indices(omega_xi)
        nabla_xi = covariant_derivative(chart, xi)
        checks.append(_zero_check("nabla_xi_linear_form", _first_nonzero_at(
            d, 2, _positions(d, _support_indices(nabla_xi),
                             itertools.product(xi_rows, _nonzero_indices(xi.comps))),
            lambda i, k: nabla_xi[i, k] - omega_xi[i] * xi[(k,)])))

        r = self.curvature
        checks.append(_zero_check("curvature_kills_xi",
                                  insert_vector(r, 2, xi.comps).first_nonzero()))

        # r[i,j,k,l] - r[i,k,j,l] is nonzero only on R's support and its (j, k) mirror
        r_support = _support_indices(r)
        slot_swap = Tensor(d, (COV, COV, COV, CON), [zero] * d ** 4)
        for flat in _positions(d, r_support, ((i, k, j, l) for i, j, k, l in r_support)):
            i, j, k, l = _unflat(d, 4, flat)
            slot_swap.comps[flat] = r[i, j, k, l] - r[i, k, j, l]
        checks.append(_zero_check("curvature_xi_slot_symmetry",
                                  insert_vector(slot_swap, 0, xi.comps).first_nonzero()))

        r4 = Tensor(d, (COV, COV, COV, COV), _contract_slot(r, 3, chart.omega))
        r4_support = _support_indices(r4)
        checks.append(_zero_check("curvature_last_pair_symmetry", _first_nonzero_at(
            d, 4, _positions(d, r4_support, ((i, j, m, k) for i, j, k, m in r4_support)),
            lambda i, j, k, m: r4[i, j, k, m] - r4[i, j, m, k])))

        r_xi = insert_vector(r4, 0, xi.comps)
        r_xi_support = _support_indices(r_xi)

        # The nonzero terms omega[a][b] r_xi[c,u,w] and omega_xi[a] r4[b,c,u,w],
        # each at its three rotations (a,b,c), (c,a,b), (b,c,a) of (x,y,z).
        # A position's rotations are the rotated positions' too: each is formed once.
        terms = [(a, b) + s for a, b in omega_pairs for s in r_xi_support]
        terms += [(a,) + s for a in xi_rows for s in r4_support]

        @functools.cache
        def rotated(a, b, c, u, w):
            return chart.omega[a][b] * r_xi[c, u, w] + omega_xi[a] * r4[b, c, u, w]

        checks.append(_zero_check("curvature_cyclic_xi_identity", _first_nonzero_at(
            d, 5, _positions(d, (rotation for a, b, c, u, w in terms for rotation in (
                (a, b, c, u, w), (c, a, b, u, w), (b, c, a, u, w)))),
            lambda x, y, z, u, w: sum(
                (rotated(a, b, c, u, w) for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y))),
                zero))))

        checks.append(_zero_check("curvature_xi_proportionality", _first_nonzero_at(
            d, 4, _positions(d, ((x,) + s for x in xi_rows for s in r_xi_support),
                             ((s[0], y) + s[1:] for y in xi_rows for s in r_xi_support)),
            lambda x, y, u, w: omega_xi[x] * r_xi[y, u, w] - omega_xi[y] * r_xi[x, u, w])))

        if xi_perp is not None:
            normalization = insert_vector(Tensor(d, (COV,), omega_xi), 0, xi_perp.comps)
            if not (normalization.comps[0] - 1).is_zero():
                raise ValueError("the supplied transversal field does not satisfy "
                                 "omega(xi_perp, xi) = 1")
            perp = xi_perp
        else:
            try:
                perp = xi_perp_field(chart, xi)
            except ValueError as err:
                raise ValueError(f"linear-type suite needs a nonzero vector field: {err}") from None

        perp_first = insert_vector(r4, 0, perp.comps)
        perp_second = insert_vector(r4, 1, perp.comps)

        # c = R(xi, perp, perp, perp) as one sum over (b, c, e) in increasing
        # order, not three nested ones: the grouping fixes the unreduced form of c.
        weights = [pb * pc * pe for pb, pc, pe in itertools.product(perp.comps, repeat=3)]
        scalar_c = insert_vector(Tensor(d ** 3, (COV,), r_xi.comps), 0, weights).comps[0]
        # the omega_xi products of the two checks below carry the factor c
        xi_products = [] if is_zero_scalar(scalar_c) else xi_rows

        checks.append(_zero_check("curvature_xi_rank_one", _first_nonzero_at(
            d, 3, _positions(d, r_xi_support, itertools.product(xi_products, repeat=3)),
            lambda x, y, z: (r_xi[x, y, z]
                             - omega_xi[x] * omega_xi[y] * omega_xi[z] * scalar_c))))

        omega_perp = pairing_with(chart, perp)  # omega(d_i, perp) = -omega(perp, d_i)

        @functools.cache
        def prefactor(x, y):
            return (-chart.omega[x][y]
                    + omega_perp[x] * omega_xi[y]
                    - omega_perp[y] * omega_xi[x])

        def reconstruction(x, y, u, w):
            value = prefactor(x, y) * omega_xi[u] * omega_xi[w] * scalar_c
            value = value - omega_xi[x] * perp_second[y, u, w]
            value = value - omega_xi[y] * perp_first[x, u, w]
            return r4[x, y, u, w] - value

        checks.append(_zero_check("curvature_leafwise_flatness", _first_nonzero_at(
            d, 4, _positions(
                d, r4_support,
                ((x,) + s for x in xi_rows for s in _support_indices(perp_second)),
                ((s[0], y) + s[1:] for y in xi_rows for s in _support_indices(perp_first)),
                itertools.product(range(d), range(d), xi_products, xi_products)),
            reconstruction)))

        checks.append(_zero_check("xi_geodesic",
                                  insert_vector(nabla_xi, 0, xi.comps).first_nonzero()))

        checks.append(_zero_check("xi_flow_preserves_omega",
                                  lie_derivative_omega(chart, xi).first_nonzero()))

        checks.append(integrability_check(chart, xi))
        return checks


def integrability_check(chart: Chart, xi: Tensor) -> Check:
    """omega([X,Y], xi) = 0 for a spanning set of the kernel distribution of
    beta = omega(., xi); the spanning fields are X_j = d_j - (beta_j / beta_a) d_a,
    j != a, for the first index a with beta_a nonzero.

    No field is formed and none bracketed (Frobenius).  For X and Y in the
    kernel, beta([X,Y]) = X beta(Y) - Y beta(X) - d beta(X,Y) = -d beta(X,Y),
    and with the antisymmetric D_jk = d_j beta_k - d_k beta_j,
    beta_a d beta(X_j, X_k) = beta_a D_jk + beta_j D_ka + beta_k D_aj.  The
    pairs are tested in the order of the spanning fields, and a failing pair
    is named by their 1-based positions among them.  In dimension 2 the
    kernel is a line and no partial is taken.
    """
    d, coords = chart.dim, chart.coords
    beta = pairing_with(chart, xi)
    a = next((a for a in range(d) if not beta[a].is_zero()), None)
    if a is None:
        return Check("xi_kernel_integrable", False, "vector field vanishes identically")

    @functools.cache
    def curl(j, k):  # D_jk
        return _partial(beta[k], coords[j]) - _partial(beta[j], coords[k])

    others = [j for j in range(d) if j != a]
    for (s, j), (t, k) in itertools.combinations(enumerate(others, 1), 2):
        if not (beta[a] * curl(j, k) - beta[j] * curl(a, k) + beta[k] * curl(a, j)).is_zero():
            return Check("xi_kernel_integrable", False,
                         f"bracket of spanning fields {s},{t} leaves the kernel")
    return Check("xi_kernel_integrable", True, None)


@dataclass(frozen=True)
class HamiltonianReport:
    oneform: Tensor
    closed: bool
    closedness_witness: tuple | None
    candidate_matches: bool | None


def hamiltonian_oneform(chart: Chart, xi: Tensor,
                        candidate: RationalFunction | None = None) -> HamiltonianReport:
    """The 1-form omega(xi, .), its exact closedness, and an optional dH check.

    The primitive itself is never integrated symbolically (it usually
    involves logarithms outside the rational function field); closedness is
    the machine-checkable statement, and a caller-supplied rational
    candidate H is verified against dH = alpha when present.
    """
    alpha = insert_vector(omega_tensor(chart), 0, xi.comps)
    # d(alpha)_ij = d_i alpha_j - d_j alpha_i: the first i < j where the
    # gradient of alpha fails to be symmetric.
    witness = gradient(chart, alpha).first_symmetry_violation(0, 1, anti=False)
    closed = witness is None
    matches = None
    if candidate is not None:
        rank_zero = Tensor(chart.dim, (), [candidate.with_variables(chart.coords)])
        matches = gradient(chart, rank_zero) == alpha
    return HamiltonianReport(oneform=alpha, closed=closed,
                             closedness_witness=witness, candidate_matches=matches)


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
    return [zero if is_zero_scalar(c) else c.evaluate(point) if isinstance(c, RationalFunction)
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


def metric_obstruction(s_point: Tensor, omega_p: list[list[Fraction]]):
    """Decide whether any nondegenerate symmetric bilinear form is annihilated.

    First reads the linear-type vector xi off S in closed form (omega_p is
    antisymmetric).  Tracing S_X Y = omega(X,Y) xi - omega(Y,xi) X over X
    gives b_j = omega(e_j, xi) = -sum_a S[a,j,a] / (d+1); any entry
    omega_ij != 0 then gives xi^k = (S[i,j,k] + delta_ki b_j) / omega_ij.  S
    is of linear type exactly when it equals the linear-type form of that
    xi; otherwise (also when omega_p is zero) `NotLinearTypeError` is raised.

    Then decides in closed form.  A symmetric g is annihilated when
    g(S_X Y, Z) + g(Y, S_X Z) = 0 for all X, Y, Z; with h = g(xi, .) that is
    omega(X,Y) h(Z) + omega(X,Z) h(Y) - b(Y) g(X,Z) - b(Z) g(X,Y) = 0.
    * If b != 0: Y = Z = xi gives 2 b(X) h(xi) = 0, as b(xi) = 0, so
      h(xi) = 0; then Z = xi gives b(X) h(Y) - b(Y) h(X) = 0, so h = c b.
      What is left says b(Z) A_X(Y) + b(Y) A_X(Z) = 0 for the covectors
      A_X = (c omega - g)(X, .), so A_X = 0 for every X and g = c omega,
      which is symmetric only when g = 0.
    * If b = 0: Y = Z puts every Z with h(Z) != 0 into the kernel of
      omega_p, which is not everything, so h = 0, and h = 0 solves it.  The
      solutions are the symmetric forms with xi != 0 (S is not zero) in
      their kernel, a space of dimension d(d-1)/2.
    So every solution is degenerate: `obstructed` is true and
    `solution_dimension` is 0 or d(d-1)/2.  A zero structure tensor is
    reported as a degenerate precondition (any metric works) rather than
    an obstruction.
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
    b = [-Fraction(sum(s_point[a, c, a] for a in range(d)), d + 1) for c in range(d)]
    xi = [Fraction(s_point[i, j, k] + (b[j] if k == i else 0)) / omega_p[i][j]
          for k in range(d)]
    if _linear_type(omega_p, xi) != s_point:
        raise NotLinearTypeError("structure tensor is not of linear type")
    return ObstructionVerdict(obstructed=True, degenerate_input=False, xi=xi,
                              solution_dimension=0 if any(b) else d * (d - 1) // 2)


@dataclass(frozen=True)
class ObstructionVerdict:
    obstructed: bool
    degenerate_input: bool
    xi: list | None
    solution_dimension: int


# -- serialization and the packaged examples -------------------------------------------

def _index_key(key: str, arity: int, dim: int, what: str) -> tuple[int, ...]:
    """0-based indices of a 1-based comma-joined chart key such as ``"1,2"``;
    the empty key is the empty index of a scalar."""
    try:
        idx = tuple(int(p) - 1 for p in key.split(",")) if key else ()
    except ValueError:
        idx = None
    if idx is None or len(idx) != arity:
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

    def parse(text, context):
        # equal texts give one shared entry, whose partials are formed once
        text = str(text)
        if text not in parsed:
            try:
                parsed[text] = parse_ratfun(text, coords)
            except ValueError as err:
                raise ChartFormatError(f"{context}: {err}") from None
        return parsed[text]

    omega_entries = {}
    for key, text in _entries(data, "omega").items():
        omega_entries[_index_key(key, 2, dim, "omega")] = parse(text, f"omega[{key}]")
    christoffel_entries = {}
    for key, text in _entries(data, "christoffel").items():
        christoffel_entries[_index_key(key, 3, dim, "christoffel")] = parse(
            text, f"christoffel[{key}]")
    fields = {}
    for name, field_data in _entries(data, "fields").items():
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
        for key, text in _entries(field_data, "components").items():
            flat = 0
            for i in _index_key(key, len(valence), dim, f"field {name!r} component"):
                flat = flat * dim + i
            comps[flat] = parse(text, f"fields[{name!r}][{key}]")
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
            if not chart.omega[i][j].is_zero():
                omega[f"{i + 1},{j + 1}"] = str(chart.omega[i][j])
    christoffel = {}
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if not chart.christoffel[k][i][j].is_zero():
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
               if not chart.christoffel[k][i][j].is_zero()]
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

"""The linear-type suite: identities of S_X Y = omega(X,Y) xi - omega(Y,xi) X.

A linear-type structure is written once, in `charts._linear_type`, for
chart fields and for evaluated points alike; this module holds everything
that reads it.  `linear_type_checks` runs the identity suite of a vector
field xi on the base connection of a `charts.ChartRun`, whose base
curvature R and Gamma' of xi's structure it shares with the other suites
of that run.  `integrability_check` and `hamiltonian_oneform` check the
kernel distribution and the 1-form of omega(., xi), and
`metric_obstruction` reads xi off an evaluated S in closed form.

The identities are linear in the curvature R, which is sparse.  Each
identity check forms its entries, in flat order, only at the positions
that R's support (or that of a contraction of R) or a nonzero omega or
omega(., xi) factor can reach, and stops at the first nonzero one; at
every other position each term has a zero factor.  The chart calculus is
called as `charts.X`, so that a helper patched on `charts` reaches the
suite too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import charts
from .rationals import RationalFunction
from .reporting import Check
from .symplectic import COV, CON, Tensor, _contract_slot, _flat, _unflat, insert_vector


class NotLinearTypeError(ValueError):
    """The supplied pointwise structure tensor has no linear-type vector."""


def pairing_with(chart: charts.Chart, vec: Tensor) -> list:
    """Covector omega(., v): component j is sum_m omega[j][m] v^m."""
    if vec.valence != (CON,):
        raise ValueError("expected a vector field")
    return insert_vector(charts.omega_tensor(chart), 1, vec.comps).comps


def lie_derivative_omega(chart: charts.Chart, xi: Tensor) -> Tensor:
    """(L_xi omega)_ij = xi^m d_m w_ij + w_mj d_i xi^m + w_im d_j xi^m.

    The three terms are added in this order for each m in turn: the
    entries are never reduced, and this order fixes how they print.
    """
    d = chart.dim
    w = chart.omega
    d_omega = charts.gradient(chart, charts.omega_tensor(chart))  # [m, i, j] = d_m w_ij
    d_xi = charts.gradient(chart, xi)                             # [i, m] = d_i xi^m

    def entry(i, j):
        total = chart.rf_zero()
        for m in range(d):
            if xi[(m,)]:
                total = total + xi[(m,)] * d_omega[m, i, j]
            total = total + w[m][j] * d_xi[i, m]
            total = total + w[i][m] * d_xi[j, m]
        return total

    return Tensor.build(d, (COV, COV), entry)


def xi_perp_field(chart: charts.Chart, xi: Tensor) -> Tensor:
    """A field with omega(xi_perp, xi) = 1: the first coordinate field with a
    nonvanishing pairing, rescaled in the function field."""
    omega_xi = pairing_with(chart, xi)  # omega(d_a, xi)
    for a in range(chart.dim):
        if omega_xi[a]:
            scale = 1 / omega_xi[a]
            return Tensor.build(chart.dim, (CON,),
                                lambda k: scale if k == a else chart.rf_zero())
    raise ValueError("the vector field vanishes identically; no transversal exists")


def _positions(*families) -> list[tuple[int, ...]]:
    """The distinct multi-index tuples in some families, in flat order: for
    tuples of one length, that is their sorted order."""
    return sorted(set(itertools.chain(*families)))


def _support_indices(t: Tensor) -> list[tuple[int, ...]]:
    """The multi-indices of t's nonzero entries, in flat order."""
    return [_unflat(t.dim, len(t.valence), flat) for flat in t.support]


def _nonzero_indices(values) -> list[int]:
    """The indices of the nonzero values, increasing."""
    return [a for a, value in enumerate(values) if value]


def linear_type_checks(run: charts.ChartRun, xi_perp: Tensor | None = None) -> list[Check]:
    """Identity suite for the linear-type structure of the run's xi on a Fedosov base.

    Verifies the defining covariant-derivative form of xi, the curvature
    degeneracies forced by it, the two curvature reconstruction
    identities against a transversal field (user-supplied via `xi_perp`
    with omega(xi_perp, xi) = 1, or auto-constructed), and the geometric
    properties of xi (geodesic, symplectic flow, integrable kernel
    distribution).
    """
    chart, xi = run.chart, run.xi
    d = chart.dim
    if xi_perp is not None:
        if xi_perp.valence != (CON,):
            raise ValueError("the transversal field must be a vector field")
        if xi_perp.dim != d:
            raise ValueError(f"the transversal field must have {d} components, "
                             f"got {xi_perp.dim}")
    zero = chart.rf_zero()
    checks: list[Check] = []

    checks.append(charts._zero_check("tilde_nabla_xi_zero", charts._nabla_first_nonzero(
        chart, xi, run._xi_gamma)))

    omega_xi = pairing_with(chart, xi)  # omega(d_i, xi)
    omega_pairs = _support_indices(charts.omega_tensor(chart))
    xi_rows = _nonzero_indices(omega_xi)
    nabla_xi = charts.covariant_derivative(chart, xi)
    checks.append(charts._zero_check("nabla_xi_linear_form", charts._first_nonzero_at(
        _positions(_support_indices(nabla_xi),
                   itertools.product(xi_rows, _nonzero_indices(xi.comps))),
        lambda i, k: nabla_xi[i, k] - omega_xi[i] * xi[(k,)])))

    r = run.curvature
    checks.append(charts._zero_check("curvature_kills_xi",
                                     insert_vector(r, 2, xi.comps).first_nonzero()))

    # r[i,j,k,l] - r[i,k,j,l] is nonzero only on R's support and its (j, k) mirror
    r_support = _support_indices(r)
    slot_swap = [zero] * d ** 4
    for i, j, k, l in _positions(r_support, ((i, k, j, l) for i, j, k, l in r_support)):
        slot_swap[_flat(d, (i, j, k, l))] = r[i, j, k, l] - r[i, k, j, l]
    checks.append(charts._zero_check("curvature_xi_slot_symmetry", insert_vector(
        Tensor(d, (COV, COV, COV, CON), slot_swap), 0, xi.comps).first_nonzero()))

    r4 = Tensor(d, (COV, COV, COV, COV), _contract_slot(r, 3, chart.omega))
    r4_support = _support_indices(r4)
    checks.append(charts._zero_check("curvature_last_pair_symmetry", charts._first_nonzero_at(
        _positions(r4_support, ((i, j, m, k) for i, j, k, m in r4_support)),
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

    checks.append(charts._zero_check("curvature_cyclic_xi_identity", charts._first_nonzero_at(
        _positions((rotation for a, b, c, u, w in terms for rotation in (
            (a, b, c, u, w), (c, a, b, u, w), (b, c, a, u, w)))),
        lambda x, y, z, u, w: sum(
            (rotated(a, b, c, u, w) for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y))),
            zero))))

    checks.append(charts._zero_check("curvature_xi_proportionality", charts._first_nonzero_at(
        _positions(((x,) + s for x in xi_rows for s in r_xi_support),
                   ((s[0], y) + s[1:] for y in xi_rows for s in r_xi_support)),
        lambda x, y, u, w: omega_xi[x] * r_xi[y, u, w] - omega_xi[y] * r_xi[x, u, w])))

    if xi_perp is not None:
        normalization = insert_vector(Tensor(d, (COV,), omega_xi), 0, xi_perp.comps)
        if normalization.comps[0] - 1:
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
    xi_products = xi_rows if scalar_c else []

    checks.append(charts._zero_check("curvature_xi_rank_one", charts._first_nonzero_at(
        _positions(r_xi_support, itertools.product(xi_products, repeat=3)),
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

    checks.append(charts._zero_check("curvature_leafwise_flatness", charts._first_nonzero_at(
        _positions(
            r4_support,
            ((x,) + s for x in xi_rows for s in _support_indices(perp_second)),
            ((s[0], y) + s[1:] for y in xi_rows for s in _support_indices(perp_first)),
            itertools.product(range(d), range(d), xi_products, xi_products)),
        reconstruction)))

    checks.append(charts._zero_check("xi_geodesic",
                                     insert_vector(nabla_xi, 0, xi.comps).first_nonzero()))

    checks.append(charts._zero_check("xi_flow_preserves_omega",
                                     lie_derivative_omega(chart, xi).first_nonzero()))

    checks.append(integrability_check(chart, xi))
    return checks


def integrability_check(chart: charts.Chart, xi: Tensor) -> Check:
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
    a = next((a for a in range(d) if beta[a]), None)
    if a is None:
        return Check("xi_kernel_integrable", False, "vector field vanishes identically")

    @functools.cache
    def curl(j, k):  # D_jk
        return charts._partial(beta[k], coords[j]) - charts._partial(beta[j], coords[k])

    others = [j for j in range(d) if j != a]
    for (s, j), (t, k) in itertools.combinations(enumerate(others, 1), 2):
        if beta[a] * curl(j, k) - beta[j] * curl(a, k) + beta[k] * curl(a, j):
            return Check("xi_kernel_integrable", False,
                         f"bracket of spanning fields {s},{t} leaves the kernel")
    return Check("xi_kernel_integrable", True, None)


@dataclass(frozen=True)
class HamiltonianReport:
    oneform: Tensor
    closed: bool
    closedness_witness: tuple | None
    candidate_matches: bool | None


def hamiltonian_oneform(chart: charts.Chart, xi: Tensor,
                        candidate: RationalFunction | None = None) -> HamiltonianReport:
    """The 1-form omega(xi, .), its exact closedness, and an optional dH check.

    The primitive itself is never integrated symbolically (it usually
    involves logarithms outside the rational function field); closedness is
    the machine-checkable statement, and a caller-supplied rational
    candidate H is verified against dH = alpha when present.
    """
    alpha = insert_vector(charts.omega_tensor(chart), 0, xi.comps)
    # d(alpha)_ij = d_i alpha_j - d_j alpha_i: the first i < j where the
    # gradient of alpha fails to be symmetric.
    witness = charts.gradient(chart, alpha).first_symmetry_violation(0, 1, anti=False)
    closed = witness is None
    matches = None
    if candidate is not None:
        rank_zero = Tensor(chart.dim, (), [candidate.with_variables(chart.coords)])
        matches = charts.gradient(chart, rank_zero) == alpha
    return HamiltonianReport(oneform=alpha, closed=closed,
                             closedness_witness=witness, candidate_matches=matches)


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
    if charts._linear_type(omega_p, xi) != s_point:
        raise NotLinearTypeError("structure tensor is not of linear type")
    return ObstructionVerdict(obstructed=True, degenerate_input=False, xi=xi,
                              solution_dimension=0 if any(b) else d * (d - 1) // 2)


@dataclass(frozen=True)
class ObstructionVerdict:
    obstructed: bool
    degenerate_input: bool
    xi: list | None
    solution_dimension: int

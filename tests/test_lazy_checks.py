"""Differential test of the chart checks that stop at their first nonzero component.

The covariant-derivative checks draw one plane nabla_i T at a time, and the
linear-type identity checks compute one component at a time, only at the
positions that the curvature's support or a nonzero omega, omega(., xi)
factor reaches; both stop at the first nonzero component.  Each must give
the same `Check` (name, verdict and witness string) as the first nonzero
component of the fully built field.  The oracle here builds every field in
full, over all d^rank positions, the covariant derivative with all
partials first and its connection term through
`conftest.old_derivation_action`, and scans it with a plain loop, so it
shares no code with the position walker, the derivation kernel or the
nabla stream.  The cases are the built-in charts, every file in
`data/charts/` (the zero-curvature block chart among them), the 4D swell
chart, seeded swell charts with a varied xi, and runs with a supplied
transversal field.  The closedness of omega, which forms only the entries
i < j < k of its cyclic sum, must report the first nonzero triple of the
full d^3 sum, on every chart and on copies whose omega is made non-closed
entry by entry.

Mutants of the walker, of the nabla stream and of the linear-type
suite's position sets show that the comparison catches an index that is
off by one, a walker that stops at a zero entry, a stream that does not
cross a plane boundary correctly, a dropped cyclic rotation and a missing
perp_first family.  The last tests pin the short circuit itself: under
`verify-chart --suite all`, every failing covariant-derivative check
draws exactly one plane, forms the connection entries only at the
positions its field reaches and the partials only at its nonzero
components, and none after its witness; a zero field forms none at all.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import pathlib
import random

import pytest

from fedosov import charts, lineartype
from fedosov.charts import (
    ChartRun, chart_curvature, chart_from_json, chart_to_json, chart_torsion,
    linear_type_structure, load_chart_file, load_example, make_chart, omega_tensor,
    tilde_christoffel,
)
from fedosov.lineartype import pairing_with, xi_perp_field
from fedosov.cli import main
from fedosov.rationals import RationalFunction, parse_ratfun
from fedosov.reporting import Check
from fedosov.symplectic import (
    COV, CON, Tensor, _contract_slot, _unflat, insert_vector,
)
from conftest import PRODUCT_CHART, _zero, mutant, old_derivation_action
from test_slot_kernel import swell_chart

CHART_DIR = pathlib.Path(__file__).parent / "data" / "charts"

COVARIANT_CHECKS = (
    "nabla_omega_zero", "tilde_nabla_omega_zero", "tilde_nabla_structure_zero",
    "tilde_nabla_base_curvature_zero", "tilde_nabla_tilde_curvature_zero",
    "tilde_nabla_tilde_torsion_zero", "tilde_nabla_xi_zero",
)


def y_chart():
    """omega = y dx^dy with the flat connection and xi = d_x.

    Nothing depends on x, so every d_x plane of a covariant derivative
    starts at zero and most checks first fail in the plane i = 2.
    """
    coords = ("x", "y")
    return make_chart(coords, {(0, 1): parse_ratfun("y", coords)}, {},
                      fields={"xi": Tensor(2, (CON,), [parse_ratfun(text, coords)
                                                       for text in ("1", "0")])})


XI_TEXTS = ("0", "1", "-1", "x", "y", "u", "v", "x*y", "u^2", "x + v", "2*u - y")


def varied_xi_swell_charts(count=6, seed=11):
    """Seeded swell charts with a seeded nonzero polynomial xi."""
    rng = random.Random(seed)
    out = {}
    for k in range(count):
        chart = swell_chart(*(rng.randint(1, 3) for _ in range(3)))
        texts = ["0"] * 4
        while texts == ["0"] * 4:
            texts = [rng.choice(XI_TEXTS) for _ in range(4)]
        xi = Tensor(4, (CON,), [parse_ratfun(text, chart.coords) for text in texts])
        out[f"swell-xi-{k}"] = dataclasses.replace(chart, fields={"xi": xi})
    return out


def all_charts():
    named = {str(key): load_example(key) for key in (1, "example1-emended", 2)}
    named.update((path.name, load_chart_file(path)) for path in sorted(CHART_DIR.glob("*.json")))
    named["swell-4d"] = swell_chart()
    named["y-chart"] = y_chart()
    return named


def shifted_transversal(chart, shift):
    """`xi_perp_field` plus `shift` times xi: omega(xi, xi) = 0, so it still
    pairs to 1 with xi, and its curvature contractions differ."""
    xi = chart.field_tensor("xi")
    s = parse_ratfun(shift, chart.coords)
    return Tensor(chart.dim, (CON,), [p + s * x for p, x in
                                      zip(xi_perp_field(chart, xi).comps, xi.comps)])


# (chart label, shift): linear-type runs with a supplied transversal field
SUPPLIED_PERPS = (("2", "x"), ("swell-4d", "x + u"), ("swell-xi-4", "u"), ("block_4d.json", "x1"),
                  ("contact_4d.json", "u"))


def structures(chart):
    """The linear-type structure of xi, and a chart's own (1,2) field `S`."""
    out = [("xi", linear_type_structure(chart, chart.field_tensor("xi")))]
    if "S" in chart.fields:
        out.append(("S", chart.field_tensor("S")))
    return out


# -- the oracle: full fields, scanned by a plain loop -----------------------------

def scan(name, tensor):
    for idx in tensor.indices():
        value = tensor[idx]
        if not _zero(value):
            return Check(name, False, f"component ({','.join(str(i + 1) for i in idx)}) = {value}")
    return Check(name, True, None)


def full_nabla(chart, t, structure=None):
    """All partials d_i t first, then d_i t + Gamma_i . t plane by plane."""
    gamma = chart.christoffel if structure is None else tilde_christoffel(chart, structure)
    d = chart.dim
    partials = [value.partial(coord) for coord in chart.coords for value in t.comps]
    size = len(t.comps)
    comps = []
    for i in range(d):
        connection = old_derivation_action([[gamma[a][i][b] for b in range(d)]
                                            for a in range(d)], t)
        comps.extend(p if _zero(c) else c if p.is_zero() else c + p
                     for c, p in zip(connection.comps, partials[i * size:(i + 1) * size]))
    return Tensor(d, (COV,) + t.valence, comps)


def oracle_fields(chart, structure, perp=None):
    """Every lazily checked field, built in full, by check name: those of
    the linear-type suite, with the transversal field `perp` or else
    `xi_perp_field`, and, given a structure, the covariant checks of the
    other two suites."""
    d = chart.dim
    zero = chart.rf_zero()
    w = omega_tensor(chart)
    r = chart_curvature(chart)
    fields = {}
    if structure is not None:
        fields.update({
            "nabla_omega_zero": full_nabla(chart, w),
            "tilde_nabla_omega_zero": full_nabla(chart, w, structure),
            "tilde_nabla_structure_zero": full_nabla(chart, structure, structure),
            "tilde_nabla_base_curvature_zero": full_nabla(chart, r, structure),
            "tilde_nabla_tilde_curvature_zero":
                full_nabla(chart, chart_curvature(chart, structure), structure),
            "tilde_nabla_tilde_torsion_zero":
                full_nabla(chart, chart_torsion(chart, structure), structure),
        })
    xi = chart.field_tensor("xi")
    omega_xi = pairing_with(chart, xi)
    nabla_xi = full_nabla(chart, xi)
    r4 = Tensor(d, (COV,) * 4, _contract_slot(r, 3, chart.omega))
    r_xi = insert_vector(r4, 0, xi.comps)
    perp = xi_perp_field(chart, xi) if perp is None else perp
    perp_first = insert_vector(r4, 0, perp.comps)
    perp_second = insert_vector(r4, 1, perp.comps)
    weights = [pb * pc * pe for pb, pc, pe in itertools.product(perp.comps, repeat=3)]
    scalar_c = insert_vector(Tensor(d ** 3, (COV,), r_xi.comps), 0, weights).comps[0]
    omega_perp = pairing_with(chart, perp)

    def reconstruction(x, y, u, w):
        prefactor = (-chart.omega[x][y]
                     + omega_perp[x] * omega_xi[y]
                     - omega_perp[y] * omega_xi[x])
        value = prefactor * omega_xi[u] * omega_xi[w] * scalar_c
        value = value - omega_xi[x] * perp_second[y, u, w]
        value = value - omega_xi[y] * perp_first[x, u, w]
        return r4[x, y, u, w] - value

    fields.update({
        "tilde_nabla_xi_zero": full_nabla(chart, xi, linear_type_structure(chart, xi)),
        "nabla_xi_linear_form": Tensor.build(
            d, (COV, CON), lambda i, k: nabla_xi[i, k] - omega_xi[i] * xi[(k,)]),
        "curvature_xi_slot_symmetry": insert_vector(Tensor.build(
            d, (COV, COV, COV, CON), lambda i, j, k, l: r[i, j, k, l] - r[i, k, j, l]),
            0, xi.comps),
        "curvature_last_pair_symmetry": Tensor.build(
            d, (COV,) * 4, lambda i, j, k, m: r4[i, j, k, m] - r4[i, j, m, k]),
        "curvature_cyclic_xi_identity": Tensor.build(
            d, (COV,) * 5, lambda x, y, z, u, w: sum(
                (chart.omega[a][b] * r_xi[c, u, w] + omega_xi[a] * r4[b, c, u, w]
                 for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y))), zero)),
        "curvature_xi_proportionality": Tensor.build(
            d, (COV,) * 4,
            lambda x, y, u, w: omega_xi[x] * r_xi[y, u, w] - omega_xi[y] * r_xi[x, u, w]),
        "curvature_xi_rank_one": Tensor.build(
            d, (COV,) * 3,
            lambda x, y, z: r_xi[x, y, z] - omega_xi[x] * omega_xi[y] * omega_xi[z] * scalar_c),
        "curvature_leafwise_flatness": Tensor.build(d, (COV,) * 4, reconstruction),
    })
    return fields


@pytest.fixture(scope="module")
def cases():
    """(label, chart, structure, supplied transversal or None, oracle checks
    by name) for every chart and structure; the charts with a varied xi and
    the supplied transversals run the linear-type suite alone (structure None)."""
    named = all_charts()
    runs = [(f"{label}/{kind}", chart, structure, None)
            for label, chart in named.items() for kind, structure in structures(chart)]
    varied = varied_xi_swell_charts()
    runs += [(f"{label}/linear-type", chart, None, None) for label, chart in varied.items()]
    named.update(varied)
    runs += [(f"{label}/linear-type/perp", named[label], None,
              shifted_transversal(named[label], shift)) for label, shift in SUPPLIED_PERPS]
    return [(label, chart, structure, perp,
             {name: scan(name, field)
              for name, field in oracle_fields(chart, structure, perp).items()})
            for label, chart, structure, perp in runs]


def lazy_checks(chart, structure, perp=None):
    """The three suites, or the linear-type suite alone when `structure` is None."""
    run = ChartRun(chart, structure, chart.field_tensor("xi"))
    covariant = [] if structure is None else run.base_checks() + run.parallelism_checks()
    return covariant + lineartype.linear_type_checks(run, perp)


def mismatches(cases):
    bad = []
    for label, chart, structure, perp, oracle in cases:
        lazy = {check.name: check for check in lazy_checks(chart, structure, perp)}
        bad.extend((label, name) for name, expected in oracle.items()
                   if lazy[name] != expected)
    return bad


def test_lazy_checks_match_full_fields(cases):
    assert mismatches(cases) == []
    # The comparison must see failing checks, and covariant derivatives
    # whose first nonzero component lies past the first plane.
    failing = [check for *_, oracle in cases for check in oracle.values() if not check.passed]
    assert len(failing) > 50
    assert any(check.name in COVARIANT_CHECKS and not check.witness.startswith("component (1,")
               for check in failing)


def full_cyclic_first_nonzero(chart):
    """First nonzero (i, j, k) of d_i w_jk + d_j w_ki + d_k w_ij over all d^3 triples."""
    w, coords = chart.omega, chart.coords
    for i, j, k in itertools.product(range(chart.dim), repeat=3):
        total = (w[j][k].partial(coords[i]) + w[k][i].partial(coords[j])
                 + w[i][j].partial(coords[k]))
        if not total.is_zero():
            return (i, j, k)
    return None


def perturbed_omegas(chart):
    """The chart, and copies with coords[c]^2 added to one entry omega[a][b]."""
    yield chart
    upper = {(a, b): chart.omega[a][b] for a, b in itertools.combinations(range(chart.dim), 2)}
    for (a, b), coord in itertools.product(upper, chart.coords):
        omega = dict(upper)
        omega[a, b] = omega[a, b] + parse_ratfun(f"{coord}^2", chart.coords)
        yield make_chart(chart.coords, omega, {})


def test_omega_closed_matches_full_cyclic_sum():
    verdicts = []
    for chart in all_charts().values():
        for variant in perturbed_omegas(chart):
            hit = full_cyclic_first_nonzero(variant)
            assert charts.omega_is_closed(variant) == (hit is None, hit)
            verdicts.append(hit)
    assert verdicts.count(None) >= len(all_charts())
    assert len({hit for hit in verdicts if hit is not None}) > 3


# -- mutants the comparison must catch ------------------------------------------------

def off_by_one_unflat(positions, entry):
    """Reports the index one past the first nonzero one in its last slot."""
    for idx in positions:
        value = entry(*idx)
        if not _zero(value):
            return idx[:-1] + (idx[-1] + 1,), value
    return None


def stops_at_zero_entry(positions, entry):
    """Takes a zero entry for the end of the positions."""
    for idx in positions:
        value = entry(*idx)
        if _zero(value):
            return None
        return idx, value
    return None


def first_in(dim, rank, entries):
    """The first nonzero (index, value) of a stream of (flat, value) pairs."""
    for flat, value in entries:
        if not _zero(value):
            return _unflat(dim, rank, flat), value
    return None


def first_plane_only(chart, t, gamma):
    size = len(t.comps)
    return first_in(chart.dim, len(t.valence) + 1,
                    itertools.takewhile(lambda entry: entry[0] < size,
                                        charts._nabla_entries(chart, t, gamma)))


def skips_entry_after_boundary(chart, t, gamma):
    """Drops the first entry the stream yields in each plane after the first."""
    size = len(t.comps)
    planes = itertools.groupby(charts._nabla_entries(chart, t, gamma),
                               lambda entry: entry[0] // size)
    stream = itertools.chain.from_iterable(
        entries if plane == 0 else itertools.islice(entries, 1, None)
        for plane, entries in planes)
    return first_in(chart.dim, len(t.valence) + 1, stream)


@pytest.mark.parametrize("target, mutant", [
    ("_first_nonzero_at", off_by_one_unflat),
    ("_first_nonzero_at", stops_at_zero_entry),
    ("_nabla_first_nonzero", first_plane_only),
    ("_nabla_first_nonzero", skips_entry_after_boundary),
])
def test_comparison_catches_mutants(cases, monkeypatch, target, mutant):
    monkeypatch.setattr(charts, target, mutant)
    assert mismatches(cases)


POSITION_MUTANTS = {
    "dropped-cyclic-rotation": ("(a, b, c, u, w), (c, a, b, u, w), (b, c, a, u, w)",
                                "(a, b, c, u, w), (c, a, b, u, w)"),
    "missing-perp-first-family": (
        "((s[0], y) + s[1:] for y in xi_rows for s in _support_indices(perp_first)),", ""),
}


@pytest.mark.parametrize("name", sorted(POSITION_MUTANTS))
def test_comparison_catches_position_mutants(cases, monkeypatch, name):
    monkeypatch.setattr(lineartype, "linear_type_checks",
                        mutant(lineartype, "linear_type_checks", *POSITION_MUTANTS[name]))
    assert mismatches(cases)


# -- the short circuit, counted ---------------------------------------------------------

def flat_index(dim, idx):
    flat = 0
    for i in idx:
        flat = flat * dim + i
    return flat


def reached_positions(chart, t, gamma, i):
    """The positions of the plane Gamma_i . t that some nonzero component of
    t meets through a nonzero entry of Gamma_i[a][b] = gamma[a][i][b]."""
    d, rank = chart.dim, len(t.valence)
    out = set()
    for flat, value in enumerate(t.comps):
        if _zero(value):
            continue
        idx = _unflat(d, rank, flat)
        for slot, kind in enumerate(t.valence):
            l = idx[slot]
            for a in range(d):
                factor = gamma[a][i][l] if kind == CON else gamma[l][i][a]
                if not _zero(factor):
                    out.add(flat_index(d, idx[:slot] + (a,) + idx[slot + 1:]))
    return out


def test_failing_covariant_checks_draw_one_plane(tmp_path, monkeypatch, capsys):
    chart = swell_chart()
    path = tmp_path / "swell.json"
    path.write_text(json.dumps(chart_to_json(chart)))
    # Planes drawn per covariant derivative: one `_derivation_entries` call each.
    drawn = []
    # Entries formed: one derivation entry per reached position drawn, and one
    # partial per drawn position whose component of T is nonzero (d_i 0 = 0).
    formed = {"partials": 0, "entries": []}
    partial = RationalFunction.partial
    kernel = charts._derivation_entries

    def counted_partial(self, var):
        formed["partials"] += 1
        return partial(self, var)

    def counted_kernel(endo, t):
        plane = drawn[-1]
        drawn[-1] += 1
        for flat, value in kernel(endo, t):
            if value is not None:
                formed["entries"].append(plane * len(t.comps) + flat)
            yield flat, value

    def opens_a_stream(function):
        def counted(*args, **kwargs):
            drawn.append(0)
            return function(*args, **kwargs)
        return counted

    streams = []
    nabla = opens_a_stream(charts._nabla_first_nonzero)

    def counted_nabla(chart, t, gamma):
        partials, entries = formed["partials"], len(formed["entries"])
        hit = nabla(chart, t, gamma)
        plane = len(t.comps)
        witness = chart.dim * plane - 1 if hit is None else flat_index(chart.dim, hit[0])
        nonzero = sum(not _zero(t.comps[flat % plane]) for flat in range(witness + 1))
        reached = sorted(i * plane + flat for i in range(chart.dim)
                         for flat in reached_positions(chart, t, gamma, i))
        streams.append((formed["partials"] - partials, formed["entries"][entries:],
                        witness, nonzero, reached, plane))
        return hit

    monkeypatch.setattr(RationalFunction, "partial", counted_partial)
    monkeypatch.setattr(charts, "_derivation_entries", counted_kernel)
    monkeypatch.setattr(charts, "_nabla_first_nonzero", counted_nabla)
    monkeypatch.setattr(charts, "covariant_derivative",
                        opens_a_stream(charts.covariant_derivative))
    assert main(["verify-chart", str(path), "--suite", "all", "--json"]) == 1
    verdicts = {check["name"]: check["pass"]
                for check in json.loads(capsys.readouterr().out)["checks"]}
    expected = [chart.dim if verdicts[name] else 1 for name in COVARIANT_CHECKS]
    assert expected.count(1) == 5
    # The last stream is the full nabla xi that the linear-form and
    # geodesic checks read entry by entry.
    assert drawn == expected + [chart.dim]
    # Each check forms exactly the connection entries at the reached
    # positions up to its witness, in flat order, and no more, and
    # differentiates only the nonzero components up to it.  Some witness
    # lies inside a plane with a reached position after it, so forming
    # whole planes would show, and some position up to a witness holds a
    # zero component, so differentiating it would show.
    assert len(streams) == len(COVARIANT_CHECKS)
    for partials, entries, witness, nonzero, reached, _ in streams:
        assert entries == [flat for flat in reached if flat <= witness]
        assert partials == nonzero
    assert any(witness % plane != plane - 1
               and any(witness < flat < (witness // plane + 1) * plane for flat in reached)
               for _, _, witness, _, reached, plane in streams)
    assert any(nonzero < witness + 1 for _, _, witness, nonzero, _, _ in streams)


def test_zero_field_forms_no_entry_and_no_partial(monkeypatch):
    """The product chart is flat: the covariant derivative check of its
    curvature differentiates nothing and draws no plane."""
    chart = chart_from_json(PRODUCT_CHART)
    r = chart_curvature(chart)
    assert r.is_zero()
    calls = []
    monkeypatch.setattr(RationalFunction, "partial", lambda *args: calls.append(args))
    monkeypatch.setattr(charts, "_derivation_entries", lambda *args, **kw: calls.append(args))
    gamma = tilde_christoffel(chart, chart.field_tensor("S"))
    assert charts._nabla_first_nonzero(chart, r, gamma) is None
    assert calls == []

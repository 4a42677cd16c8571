"""Tests of the benchmark itself: inputs, checker, tracer and the recorded contract.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
import tempfile
from fractions import Fraction

import pytest

from perfbench import check, inputs, metrics, tracing
from perfbench.worker import import_package, run_pass
from perfbench.workloads import BUILDERS, cli_call

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def fd():
    return import_package(ROOT)


def _canonical(value):
    """JSON-ready form with Fractions as strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _dump(value) -> str:
    return json.dumps(_canonical(value), sort_keys=True)


# -- inputs ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_are_deterministic_per_seed(workload):
    generate = inputs.GENERATORS[workload]
    assert _dump(generate(7)) == _dump(generate(7))
    assert _dump(generate(7)) != _dump(generate(8))


def test_generated_inputs_have_their_stated_properties():
    rng = random.Random("props")
    case = inputs.tensor_case(rng, 2)
    d = 4
    assert check.symmetric_in(d, case["sym"], 0, 1)
    assert check.symmetric_in(d, case["anti"], 0, 1, anti=True)
    assert not any(inputs.cyclic_sum(d, case["sym_no_s3"]))
    # T1 + T2 is the kernel of the cyclic sum on tensors antisymmetric in (1,2)
    assert check.symmetric_in(d, case["torsion"], 0, 1, anti=True)
    assert not any(inputs.cyclic_sum(d, case["torsion"]))
    for _ in range(5):
        point = inputs.rational_point(rng, ["x", "y", "u", "v"], inputs.PRODUCT_POLES)
        assert point["x"] != 0 and point["u"] != 0
        assert check.is_symplectic_basis(inputs.symplectic_matrix(rng, 2),
                                         inputs.omega_matrix(2))


# -- checker --------------------------------------------------------------------------


def _classes_outputs(fd, case):
    n = case["n"]
    space = fd.SymplecticSpace(n)

    def tensor(comps):
        return fd.Tensor(2 * n, (fd.COV,) * 3, list(comps), space=space)

    cot = fd.decompose_cotorsion(tensor(case["sym"]))
    tor = fd.decompose_torsion(tensor(case["anti"]))
    return {
        "cotorsion_parts": {k: list(cot.part(k).comps) for k in ("S1", "S2", "S3")},
        "cotorsion_types": sorted(cot.type_set),
        "torsion_parts": {k: list(tor.part(k).comps) for k in ("T1", "T2", "T3", "T4")},
        "torsion_types": sorted(tor.type_set),
        "symplectified": list(fd.symplectify_torsion(tensor(case["torsion"])).comps),
    }


def test_checker_accepts_library_decompositions(fd):
    case = inputs.tensor_case(random.Random("checker"), 3)
    assert check.check_classes_item(case, _classes_outputs(fd, case)) == []


@pytest.mark.parametrize("field,label", [
    ("cotorsion_parts", "S1"), ("cotorsion_parts", "S2"), ("cotorsion_parts", "S3"),
    ("torsion_parts", "T1"), ("torsion_parts", "T2"), ("torsion_parts", "T3"),
    ("torsion_parts", "T4"), ("symplectified", None),
])
def test_checker_flags_one_mutated_component(fd, field, label):
    case = inputs.tensor_case(random.Random("mutation"), 3)
    good = _classes_outputs(fd, case)
    rng = random.Random(f"{field}{label}")
    for _ in range(3):
        out = copy.deepcopy(good)
        target = out[field] if label is None else out[field][label]
        target[rng.randrange(len(target))] += Fraction(1, 7)
        assert check.check_classes_item(case, out), f"mutation of {field} {label} not flagged"


def test_checker_flags_mutated_cli_verdicts():
    report = {"command": "verify-chart", "artifacts": {},
              "checks": [{"name": n, "pass": False, "witness": "component (1) = 1"}
                         for n in sorted(check.SWELL_FAILING)]
              + [{"name": n, "pass": True, "witness": None} for n in sorted(check.SWELL_PASSING)]}
    assert check.check_swell_item({"verify": (1, json.dumps(report))}) == []
    flipped = copy.deepcopy(report)
    flipped["checks"][-1]["pass"] = False
    flipped["checks"][-1]["witness"] = "component (1) = 1"
    assert check.check_swell_item({"verify": (1, json.dumps(flipped))})
    assert check.check_swell_item({"verify": (0, json.dumps(report))})
    silent = copy.deepcopy(report)
    silent["checks"][0]["witness"] = None
    assert check.check_swell_item({"verify": (1, json.dumps(silent))})


def test_checker_flags_mutated_model_outputs(fd):
    data = inputs.chart_to_model_inputs(3)
    with tempfile.TemporaryDirectory() as workdir:
        workload = BUILDERS["chart-to-model"](fd, data, workdir)
        item = next(i for i in workload.items if i.id == "example2:p0")
        out = {}
        for name, step in item.steps:
            out[name] = step(out)
        assert item.check(out) == []
        bad = copy.deepcopy(out)
        rc, text = bad["bianchi"]["transvection"]
        payload = json.loads(text)
        payload["artifacts"]["parameters"] = ["1/3", "3"]
        bad["bianchi"]["transvection"] = (rc, json.dumps(payload))
        assert item.check(bad)
        bad = copy.deepcopy(out)
        rc, text = bad["model-at-point"]
        payload = json.loads(text)
        payload["artifacts"]["basis_columns"][0][0] = "2"
        bad["model-at-point"] = (rc, json.dumps(payload))
        assert item.check(bad)
        bad = copy.deepcopy(out)
        bad["isomorphism"][0]["pass"] = False
        assert item.check(bad)


# -- tracer ---------------------------------------------------------------------------


def _package_attributes(fd):
    import sys
    snapshot = {}
    for key, module in sys.modules.items():
        if module is not None and (key == "fedosov" or key.startswith("fedosov.")):
            for name, obj in vars(module).items():
                snapshot[(key, name)] = obj
                if isinstance(obj, type) and obj.__module__.startswith("fedosov"):
                    for attr, raw in vars(obj).items():
                        snapshot[(key, name, attr)] = raw
    return snapshot


def _traced_pass(fd, workload_name, seed):
    data = inputs.GENERATORS[workload_name](seed)
    with tempfile.TemporaryDirectory() as workdir:
        workload = BUILDERS[workload_name](fd, data, workdir)
        workload.warm()
        tracer = tracing.Tracer()
        with tracer.installed():
            assert tracing.installed_wrappers()
            result = run_pass(workload.items, tracer=tracer)
    return tracer, result


def test_tracer_restores_every_attribute(fd):
    before = _package_attributes(fd)
    tracer, result = _traced_pass(fd, "chart-to-model", 1)
    assert result["failed"] == 0, result["problems"]
    assert tracing.installed_wrappers() == []
    after = _package_attributes(fd)
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    # the from-import bindings were patched while installed
    assert tracer.calls("linalg.is_zero_scalar") > 0
    assert tracer.calls("symplectic.change_basis") > 0
    assert tracer.calls("cli.main") > 0


def test_layer_self_times_add_up_to_traced_wall_time(fd):
    tracer, result = _traced_pass(fd, "chart-to-model", 2)
    layers = sum(tracer.self_time(layer) for layer in tracing.LAYERS)
    bench = tracer.self_time("bench")
    roots = [s for s in tracer.spans if s[0] == "bench.step"]
    root_wall = sum(end - start for _, start, end, _, _ in roots)
    assert layers + bench == pytest.approx(root_wall, rel=1e-9)
    # the timed wall time is the root spans plus the root bookkeeping only
    assert root_wall <= result["wall_s"] and root_wall == pytest.approx(result["wall_s"], rel=0.02)
    assert bench < 0.05 * root_wall
    for layer in tracing.LAYERS:
        assert tracer.self_time(layer) >= 0
    # every recorded span lies inside its parent
    for name, start, end, parent, item in tracer.spans:
        if parent >= 0:
            _, pstart, pend, _, pitem = tracer.spans[parent]
            assert pstart <= start <= end <= pend and pitem == item


def test_per_layer_metric_names_resolve(fd):
    tracer, _ = _traced_pass(fd, "chart-to-model", 4)
    names = [m["name"] for m in metrics.PER_LAYER]
    values = tracing.layer_metrics(tracer, names)
    computed_elsewhere = {"rationals.ratfun.max_terms", "rationals.ratfun.total_terms",
                          "trace.overhead_ratio", "trace.spans.count"}
    assert set(values) == set(names) - computed_elsewhere
    assert values["cli.main.calls"] > 0 and values["reporting.checks.count"] > 0
    assert values["models.push_tensor.calls"] > 0 and values["decomposition.decompose.calls"] == 0


# -- the recorded contract ------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.GENERATORS)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert spec["per_layer"] == metrics.PER_LAYER


# -- sympy confirmation of the swell-chart verdicts ----------------------------------


def _sympy_chart(chart_json):
    sp = pytest.importorskip("sympy")
    coords = sp.symbols(chart_json["coords"])
    names = dict(zip(chart_json["coords"], coords))
    d = len(coords)

    def parse(text):
        return sp.sympify(text.replace("^", "**"), locals=names)

    w = sp.zeros(d, d)
    for key, text in chart_json["omega"].items():
        i, j = (int(p) - 1 for p in key.split(","))
        w[i, j] = parse(text)
        w[j, i] = -parse(text)
    gamma = [[[sp.Integer(0)] * d for _ in range(d)] for _ in range(d)]
    for key, text in chart_json["christoffel"].items():
        k, i, j = (int(p) - 1 for p in key.split(","))
        gamma[k][i][j] = parse(text)
    xi = [sp.Integer(0)] * d
    for key, text in chart_json["fields"]["xi"]["components"].items():
        xi[int(key) - 1] = parse(text)
    return sp, coords, d, w, gamma, xi, parse


def test_swell_chart_verdicts_agree_with_sympy(fd):
    """Recompute, with sympy and the README conventions, the base Fedosov
    conditions and the witness component of every failing parallelism check."""
    entry = inputs.swell_inputs(5)["charts"][0]
    sp, x, d, w, gamma, xi, parse = _sympy_chart(entry["chart"])
    rng = range(d)

    def cancel(e):
        return sp.cancel(sp.together(e))

    # linear-type structure S_X Y = omega(X,Y) xi - omega(Y,xi) X, slots (X, Y, out)
    wxi = [sum(w[j, m] * xi[m] for m in rng) for j in rng]
    s = {(i, j, k): w[i, j] * xi[k] - (wxi[j] if k == i else 0)
         for i in rng for j in rng for k in rng}
    tg = [[[cancel(gamma[k][i][j] - s[i, j, k]) for j in rng] for i in rng] for k in rng]

    def torsion(g):
        return {(i, j, k): cancel(g[k][i][j] - g[k][j][i]) for i in rng for j in rng for k in rng}

    def curvature(g):
        return {(i, j, k, l): cancel(
            -sp.diff(g[l][j][k], x[i]) + sp.diff(g[l][i][k], x[j])
            + sum(-g[m][j][k] * g[l][i][m] + g[m][i][k] * g[l][j][m] for m in rng))
            for i in rng for j in rng for k in rng for l in rng}

    def nabla(g, t, valence, idx):
        i, rest = idx[0], idx[1:]
        total = sp.diff(t[rest], x[i])
        for slot, kind in enumerate(valence):
            for m in rng:
                src = list(rest)
                src[slot] = m
                coeff = g[rest[slot]][i][m] if kind == "con" else -g[m][i][rest[slot]]
                total += coeff * t[tuple(src)]
        return cancel(total)

    omega_t = {(i, j): w[i, j] for i in rng for j in rng}
    assert all(v == 0 for v in torsion(gamma).values())
    assert all(nabla(gamma, omega_t, ("cov", "cov"), (i, j, k)) == 0
               for i in rng for j in rng for k in rng)
    assert all(nabla(tg, omega_t, ("cov", "cov"), (i, j, k)) == 0
               for i in rng for j in rng for k in rng)

    targets = {
        "tilde_nabla_structure_zero": (s, ("cov", "cov", "con")),
        "tilde_nabla_base_curvature_zero": (curvature(gamma), ("cov",) * 3 + ("con",)),
        "tilde_nabla_tilde_curvature_zero": (curvature(tg), ("cov",) * 3 + ("con",)),
        "tilde_nabla_tilde_torsion_zero": (torsion(tg), ("cov", "cov", "con")),
    }
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "swell.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry["chart"], handle)
        rc, text = cli_call(fd, ["verify-chart", path, "--suite", "as"])
    payload = json.loads(text)
    assert rc == 1
    verdicts = {c["name"]: c for c in payload["checks"]}
    for name, (tensor, valence) in targets.items():
        witness = verdicts[name]["witness"]
        match = re.fullmatch(r"component \(([\d,]+)\) = (.+)", witness)
        idx = tuple(int(p) - 1 for p in match.group(1).split(","))
        value = nabla(tg, tensor, valence, idx)
        assert value != 0, name
        assert sp.cancel(value - parse(match.group(2))) == 0, name
    for name in ("nabla_omega_zero", "torsion_zero", "tilde_nabla_omega_zero"):
        assert verdicts[name]["pass"]

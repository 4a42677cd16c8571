"""The three workloads: item lists over the public API and `fedosov.cli.main`.

An item is a list of named steps run back to back; each step is one call
into the package (a public function or one CLI command) and is timed on
its own.  A step receives the outputs of the earlier steps of its item,
so a pipeline passes results on the way a shell user would.  After the
item, `check` compares the outputs with the known answers in `check.py`;
checking is never timed.

Every package name is looked up on its module when the step runs, so the
tracer's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import check
from .inputs import point_text


@dataclass
class Item:
    id: str
    steps: list[tuple[str, Callable[[dict], object]]]
    check: Callable[[dict], list[str]]


@dataclass
class Workload:
    """Items plus the warm-up every fresh process pays before the first item."""

    items: list[Item]
    warm: Callable[[], None]
    # (chart file or built-in name, structure field or None for the linear-type
    # structure of `xi`) for the traced run's term-size probe
    charts: list[tuple[str, str | None]]


def cli_call(fd, argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fd.cli.main(["--json", *argv])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def _write_json(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
    return path


# -- classes-n4 ----------------------------------------------------------------------


def classes_workload(fd, inputs: dict, workdir: str) -> Workload:
    n = inputs["cases"][0]["n"]
    space = fd.SymplecticSpace(n)
    cov3 = (fd.COV, fd.COV, fd.COV)

    def tensor(comps):
        return fd.Tensor(2 * n, cov3, list(comps), space=space)

    def parts(result, labels):
        return {label: list(result.part(label).comps) for label in labels}

    items = []
    for k, case in enumerate(inputs["cases"]):
        sym, anti, torsion = tensor(case["sym"]), tensor(case["anti"]), tensor(case["torsion"])

        def decompose_cot(_, sym=sym):
            result = fd.decomposition.decompose_cotorsion(sym)
            return parts(result, ("S1", "S2", "S3")), sorted(result.type_set)

        def decompose_tor(_, anti=anti):
            result = fd.decomposition.decompose_torsion(anti)
            return parts(result, ("T1", "T2", "T3", "T4")), sorted(result.type_set)

        def symplectify(_, torsion=torsion):
            return list(fd.decomposition.symplectify_torsion(torsion).comps)

        def check_item(out, case=case):
            return check.check_classes_item(case, {
                "cotorsion_parts": out["decompose_cotorsion"][0],
                "cotorsion_types": out["decompose_cotorsion"][1],
                "torsion_parts": out["decompose_torsion"][0],
                "torsion_types": out["decompose_torsion"][1],
                "symplectified": out["symplectify_torsion"],
            })

        items.append(Item(f"tensors{k}", [("decompose_cotorsion", decompose_cot),
                                           ("decompose_torsion", decompose_tor),
                                           ("symplectify_torsion", symplectify)],
                          check_item))

    def warm():
        # builds every class basis and both n=4 decomposition solvers
        zero = [Fraction(0)] * (2 * n) ** 3
        fd.decomposition.decompose_cotorsion(tensor(zero))
        fd.decomposition.decompose_torsion(tensor(zero))

    return Workload(items, warm, [])


# -- chart-swell-4d ------------------------------------------------------------------


def swell_workload(fd, inputs: dict, workdir: str) -> Workload:
    items = []
    paths = []
    for k, entry in enumerate(inputs["charts"]):
        path = _write_json(os.path.join(workdir, f"swell{k}.json"), entry["chart"])
        paths.append(path)

        def verify(_, path=path):
            return cli_call(fd, ["verify-chart", path, "--suite", "all"])

        items.append(Item(f"swell{k}", [("verify", verify)], check.check_swell_item))

    def warm():
        for path in paths:
            fd.charts.load_chart_file(path)

    return Workload(items, warm, [(p, None) for p in paths])


# -- chart-to-model ------------------------------------------------------------------


def _model_steps(fd, chart: str, chart_arg: str, structure: list[str], point: dict,
                 f: list, workdir: str, tag: str) -> list[tuple[str, Callable]]:
    """model-at-point, obstruction, check-model, nomizu, transvection, bianchi, isomorphism."""
    at = ["--at", point_text(point)]
    model_path = os.path.join(workdir, f"{tag}-model.json")
    expect = check.MODEL_EXPECT[chart]

    def model_at_point(_):
        rc, text = cli_call(fd, ["model-at-point", chart_arg, *at, *structure])
        if rc == 0:
            _write_json(model_path, json.loads(text)["artifacts"]["model"])
        return rc, text

    def on_model(command):
        return lambda _: cli_call(fd, [command, model_path])

    def bianchi(out):
        results = {}
        for kind in ("nomizu", "transvection"):
            rc, text = out[kind]
            presentation = json.loads(text)["artifacts"]["presentation"] if rc == 0 else None
            if presentation and presentation["dim"] == 3:
                path = _write_json(os.path.join(workdir, f"{tag}-{kind}.json"), presentation)
                results[kind] = cli_call(fd, ["bianchi", path])
        return results

    def isomorphism(out):
        artifact = json.loads(out["model-at-point"][1])["artifacts"]["model"]
        model = fd.models.model_from_json(artifact)
        push = fd.models.push_tensor
        target = fd.models.InfinitesimalModel(
            space=model.space, curvature=push(f, model.curvature),
            torsion=push(f, model.torsion), aux=tuple(push(f, a) for a in model.aux))
        return fd.models.verify_model_isomorphism(f, model, target).to_json()

    steps = [("model-at-point", model_at_point)]
    if expect["obstructed"] is not None:
        steps.append(("obstruction", lambda _: cli_call(
            fd, ["obstruction", chart_arg, *at, *structure])))
    steps += [("check-model", on_model("check-model")),
              ("nomizu", on_model("nomizu")),
              ("transvection", on_model("transvection")),
              ("bianchi", bianchi),
              ("isomorphism", isomorphism)]
    return steps


def chart_to_model_workload(fd, inputs: dict, workdir: str) -> Workload:
    product_path = _write_json(os.path.join(workdir, "product.json"), inputs["product"])
    items = []
    for entry in inputs["charts"]:
        chart = entry["chart"]
        chart_arg = product_path if chart == "product" else chart
        structure = ["--structure", "S"] if chart == "product" else []
        suite = "as" if chart == "product" else "all"

        def verify(_, chart_arg=chart_arg, suite=suite, structure=structure):
            return cli_call(fd, ["verify-chart", chart_arg, "--suite", suite, *structure])

        if chart == "example1":
            items.append(Item("example1", [("verify", verify)],
                              lambda out: check.check_verdicts(
                                  *out["verify"], 1, check.EXAMPLE1_FAILING)))
            continue
        items.append(Item(f"{chart}:verify", [("verify", verify)],
                          lambda out: check.check_verdicts(*out["verify"], 0, set())))
        for k, (point, f) in enumerate(zip(entry["points"], entry["maps"])):
            tag = f"{chart}-p{k}"
            steps = _model_steps(fd, chart, chart_arg, structure, point, f, workdir, tag)

            def check_point(out, chart=chart, point=point, f=f):
                return check.check_model_point(chart, point, f, out)

            items.append(Item(f"{chart}:p{k}", steps, check_point))

    def warm():
        for name in ("example1", "example1-emended", "example2"):
            fd.charts.load_example(name)
        fd.charts.load_chart_file(product_path)

    charts = [(name, None) for name in ("example1-emended", "example2")]
    charts.append((product_path, "S"))
    return Workload(items, warm, charts)


BUILDERS = {
    "classes-n4": classes_workload,
    "chart-swell-4d": swell_workload,
    "chart-to-model": chart_to_model_workload,
}

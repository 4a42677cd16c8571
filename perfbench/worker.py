"""One fresh interpreter: set up a workload, then (optionally) measure it.

Run by `run.py` as `python -m perfbench.worker` from the checkout root.
Roles:

* `setup`: time the set-up only (import, input generation, warm-up).
* `measure`: set up, then run closed-loop passes over the item list for
  `--seconds`, checking every output; report per-pass times and peak RSS.
* `trace`: set up and run one pass with the tracer installed, remove it,
  then run untraced passes for `--seconds` to price the tracing; report
  the per-layer metrics and write the spans.

The result is written as JSON to `--out`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

from .inputs import GENERATORS
from .metrics import PER_LAYER
from .timing import SpeedSampler
from .tracing import Tracer, installed_wrappers, layer_metrics
from .workloads import BUILDERS

MAX_PROBLEMS = 20


def import_package(root: str):
    """Import fedosov from the checkout's src/, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    fd = importlib.import_module("fedosov")
    importlib.import_module("fedosov.cli")
    where = os.path.realpath(fd.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"fedosov imported from {where}, not from {src}")
    return fd


def run_pass(items, sampler: SpeedSampler | None = None, tracer: Tracer | None = None):
    """One closed-loop pass: each step starts when the previous one returned.

    `run_s` is in reference seconds when a sampler runs, else wall seconds.
    """
    attempted = failed = 0
    run_s = wall_s = 0.0
    problems = []
    for item in items:
        out = {}
        error = None
        for name, step in item.steps:
            mark = sampler.mark() if sampler else None
            start = time.perf_counter()
            try:
                if tracer is None:
                    out[name] = step(out)
                else:
                    with tracer.root(item.id):
                        out[name] = step(out)
            except Exception as exc:  # a raising step fails its item; the pass goes on
                error = f"{name} raised {type(exc).__name__}: {exc}"
            if sampler:
                ref, wall = sampler.since(mark)
            else:
                ref = wall = time.perf_counter() - start
            run_s += ref
            wall_s += wall
            if error:
                break
        attempted += 1
        found = [error] if error else item.check(out)
        if found:
            failed += 1
            problems.extend(f"{item.id}: {p}" for p in found)
    return {"run_s": run_s, "wall_s": wall_s, "attempted": attempted, "failed": failed,
            "problems": problems[:MAX_PROBLEMS]}


def measure_passes(items, seconds: float, sampler: SpeedSampler | None = None) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(items, sampler))
    return passes


def set_up(fd, args):
    inputs = GENERATORS[args.workload](args.seed)
    workload = BUILDERS[args.workload](fd, inputs, args.workdir)
    workload.warm()
    return workload


def term_sizes(fd, charts) -> tuple[int, int]:
    """(max, total) numerator + denominator terms over the nonzero components
    of the shifted curvature and its covariant derivative."""
    largest = total = 0
    for chart_ref, field in charts:
        if chart_ref in fd.charts.EXAMPLE_FILES:
            chart = fd.charts.load_example(chart_ref)
        else:
            chart = fd.charts.load_chart_file(chart_ref)
        if field is None:
            structure = fd.charts.linear_type_structure(chart, chart.field_tensor("xi"))
        else:
            structure = chart.field_tensor(field)
        curvature = fd.charts.chart_curvature(chart, structure)
        derivative = fd.charts.covariant_derivative(chart, curvature, structure)
        for value in (*curvature.comps, *derivative.comps):
            if not value.is_zero():
                terms = len(value.num.terms) + len(value.den.terms)
                largest = max(largest, terms)
                total += terms
    return largest, total


def trace_run(args) -> dict:
    """Traced set-up and pass, then untraced passes to price the tracing.

    No speed sampler runs here: its interruptions would land in the spans.
    The per-layer times are wall seconds.
    """
    fd = import_package(args.root)
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        with tracer.root("setup"):
            workload = set_up(fd, args)
        traced_setup_wall = time.perf_counter() - start
        traced = run_pass(workload.items, tracer=tracer)
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers installed: {leftover[:5]}")
    untraced = measure_passes(workload.items, args.seconds)
    per_layer = layer_metrics(tracer, [m["name"] for m in PER_LAYER])
    largest, total = term_sizes(fd, workload.charts)
    per_layer["rationals.ratfun.max_terms"] = largest
    per_layer["rationals.ratfun.total_terms"] = total
    per_layer["trace.overhead_ratio"] = (
        traced["wall_s"] / statistics.median(p["wall_s"] for p in untraced) - 1)
    per_layer["trace.spans.count"] = tracer.total_spans()
    if args.spans:
        tracer.write(args.spans)
    return {
        "per_layer": per_layer,
        "traced_setup_wall_s": traced_setup_wall,
        "traced_pass_wall_s": traced["wall_s"],
        "attempted": traced["attempted"] + sum(p["attempted"] for p in untraced),
        "failed": traced["failed"] + sum(p["failed"] for p in untraced),
        "problems": (traced["problems"]
                     + [x for p in untraced for x in p["problems"]])[:MAX_PROBLEMS],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="where the trace role writes its spans")
    args = parser.parse_args(argv)

    if args.role == "trace":
        result = trace_run(args)
    else:
        with SpeedSampler() as sampler:
            mark = sampler.mark()
            fd = import_package(args.root)
            workload = set_up(fd, args)
            setup_s, setup_wall = sampler.since(mark)
            result = {"setup_s": setup_s, "setup_wall_s": setup_wall}
            if args.role == "measure":
                passes = measure_passes(workload.items, args.seconds, sampler)
    if args.role == "measure":
        result.update(
            passes=[{k: p[k] for k in ("run_s", "wall_s")} for p in passes],
            attempted=sum(p["attempted"] for p in passes),
            failed=sum(p["failed"] for p in passes),
            problems=[x for p in passes for x in p["problems"]][:MAX_PROBLEMS],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

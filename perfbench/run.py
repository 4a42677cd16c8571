"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The package is
imported from the checkout's `src/`; with no `src/fedosov` there the
benchmark exits with code 2 and prints no result.

With `--trace 0` it starts three fresh worker interpreters in turn; each
sets up and then runs closed-loop passes over the workload's items for a
third of S seconds.  Set-up-only workers follow while set-up is cheap.
It reports the end-to-end metrics `setup_s` (median set-up over 3 to 9
fresh interpreters), `run_s` (median pass time over all passes) and
`peak_rss_mb` (median over the measuring workers of their peak RSS).
Times are in reference seconds (see timing.py).  With `--trace 1` it runs
one traced worker and reports the per-layer metrics; the spans go to
`.perfbench-out/`.

Every output is checked against a known answer; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.inputs import GENERATORS  # noqa: E402
from perfbench.metrics import PER_LAYER  # noqa: E402

MEASURE_WORKERS = 3
MAX_SETUPS = 9  # set-up-only workers are added while set-up is cheap
SETUP_CHEAP_S = 5.0
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(role: str, args, workdir: str, deadline: float, seconds: float = 0.0,
               spans: str | None = None) -> dict:
    out = os.path.join(workdir, f"result-{role}-{time.monotonic_ns()}.json")
    cmd = [sys.executable, "-m", "perfbench.worker", "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--role", role,
           "--workdir", workdir, "--out", out]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.dirname(HERE))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {role} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{role} worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise WorkerError(f"{role} worker exited with {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def measure(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    """MEASURE_WORKERS workers each set up and run passes for an equal share
    of --seconds; pooling them averages out what differs between processes."""
    workers = [run_worker("measure", args, workdir, deadline, args.seconds / MEASURE_WORKERS)
               for _ in range(MEASURE_WORKERS)]
    setups = [w["setup_s"] for w in workers]
    spent = sum(w["setup_wall_s"] for w in workers)
    while len(setups) < MAX_SETUPS and spent < SETUP_CHEAP_S:
        result = run_worker("setup", args, workdir, deadline)
        setups.append(result["setup_s"])
        spent += result["setup_wall_s"]
    runs = [p["run_s"] for w in workers for p in w["passes"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(runs), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in workers),
                        "unit": "MB"},
    }
    detail = {"setup_s_samples": setups, "run_s_passes": runs,
              "wall_s_passes": [p["wall_s"] for w in workers for p in w["passes"]],
              "failed_ratio": failed / attempted,
              "problems": [p for w in workers for p in w["problems"]][:20]}
    return {"attempted": attempted, "failed": failed}, {"metrics": metrics, "detail": detail}


def trace(args, workdir: str, deadline: float) -> tuple[dict, dict]:
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    result = run_worker("trace", args, workdir, deadline, args.seconds, spans=spans)
    per_layer = result["per_layer"]
    metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
               for m in PER_LAYER}
    detail = {"spans_file": os.path.relpath(spans, ROOT),
              "traced_setup_wall_s": result["traced_setup_wall_s"],
              "traced_pass_wall_s": result["traced_pass_wall_s"],
              "failed_ratio": result["failed"] / result["attempted"],
              "problems": result["problems"]}
    return result, {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=tuple(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "fedosov", "__init__.py")):
        print("perfbench: no src/fedosov in the current directory; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    # on SIGTERM, unwind so the running worker is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            result, report = (trace if args.trace else measure)(args, workdir, deadline)
    except WorkerError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **report["detail"]}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

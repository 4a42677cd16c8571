"""Golden-output test: CLI stdout, stderr and exit codes on fixed inputs.

The inputs are the built-in charts, one chart in `data/charts/` (the second
worked chart with Christoffel symbol Gamma^1_22 = y, so that
`curvature_kills_xi`, `curvature_xi_slot_symmetry`, `curvature_xi_rank_one`
and `xi_geodesic` fail with witnesses), the seeded tensors in `data/tensors/`
(decomposition, classification and symplectification at n = 1..3,
including a failing symplectification with its witness), the models that
`model-at-point` emits on two fixtures (`data/models/`, for `check-model`,
`nomizu` and `transvection`) and the Nomizu and transvection algebras of
those models (`data/algebras/`, for `bianchi`; the flat transvection
algebra of example1-emended is 2-dimensional and exits 2).  Three more
charts make the remaining chart checks fail with witnesses:
`nonclosed_4d.json` (omega_closed, at a triple other than the first),
`hamiltonian_2d.json` (hamiltonian_oneform_closed, a wrong
`--hamiltonian` candidate, xi_flow_preserves_omega, and a structure field
`S` that is not of linear type, so `obstruction` exits 2; with
`--structure S` it is the one case where the structure that the suites
and `model-at-point` read is not the linear-type structure of xi, run
through all three suites, which fail with witnesses, and through
`model-at-point`, which passes) and
`contact_4d.json` (xi_kernel_integrable: omega(., xi) = dx + u dy is a
contact form), while `block_4d.json` (the second worked chart's block
times a flat plane, with zero base curvature) passes every check; the zero model `models/zero_n2.json` has all of gl(V) as
its stabilizer, and the trivial n = 3 model `models/zero_n3.json`
(zero curvature and torsion, aux = (omega,)) has sp(V), so its Nomizu
algebra has dimension 27; and `model-at-point` and `obstruction` at x = 0 on the
second worked chart exit 2 on a vanishing denominator, and on a point
that names a coordinate the chart does not have, names one twice or
leaves one out.  The
snapshot in `data/cli_golden.json` pins the exact bytes of every report,
including check order, names, witnesses and emitted parts, so a refactor
that changes a summation order or a projection formula and with it a
printed value is caught here.  File arguments are recorded relative to
`data/`.  Regenerate the snapshot only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from fedosov.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SNAPSHOT = DATA / "cli_golden.json"

MODELS = ("example2_x1_y0", "example1_emended_x2_y1_3")
DATA_DIRS = ("charts/", "tensors/", "models/", "algebras/")

COMMANDS = [
    *(["verify-chart", chart, "--suite", suite]
      for chart in ("example1", "example1-emended", "example2")
      for suite in ("as", "linear-type", "all")),
    ["verify-chart", "charts/example2_gamma122_y.json", "--suite", "all"],
    ["model-at-point", "example2", "--at", "x=1,y=0"],
    ["model-at-point", "example1-emended", "--at", "x=2,y=1/3"],
    ["obstruction", "example2", "--at", "x=1,y=0"],
    ["model-at-point", "example2", "--at", "x=0,y=1"],
    ["obstruction", "example2", "--at", "x=0,y=1"],
    ["linear-type", "example2"],
    *(["decompose", f"tensors/{space}_n{n}.json", "--space", space, "--n", str(n), "--parts"]
      for space in ("cotorsion", "torsion") for n in (1, 2, 3)),
    ["decompose", "tensors/torsion_n2.json", "--space", "torsion", "--n", "2"],
    *(["classify", f"tensors/{space}_n{n}.json", "--space", space, "--n", str(n)]
      for space in ("cotorsion", "torsion") for n in (1, 2, 3)),
    ["symplectify", "tensors/symplectic_torsion_n2.json", "--n", "2"],
    ["symplectify", "tensors/torsion_n1.json", "--n", "1"],
    ["symplectify", "tensors/threeform_t3_n2.json", "--n", "2"],
    ["symplectify", "tensors/torsion_n3.json", "--n", "3"],
    *(["dims", "--n-max", str(n)] for n in (3, 4)),
    *([command, f"models/{model}.json"]
      for command in ("check-model", "nomizu", "transvection") for model in MODELS),
    *(["bianchi", f"algebras/{algebra}_{model}.json"]
      for algebra in ("nomizu", "transvection") for model in MODELS),
    ["verify-chart", "charts/nonclosed_4d.json", "--suite", "all"],
    ["verify-chart", "charts/hamiltonian_2d.json", "--suite", "all", "--hamiltonian", "x*y"],
    ["verify-chart", "charts/contact_4d.json", "--suite", "all"],
    ["verify-chart", "charts/block_4d.json", "--suite", "all"],
    ["obstruction", "charts/contact_4d.json", "--at", "x=0,y=0,u=2,v=0"],
    ["obstruction", "example1-emended", "--at", "x=2,y=1/3"],
    ["obstruction", "charts/hamiltonian_2d.json", "--at", "x=1,y=2", "--structure", "S"],
    *(["verify-chart", "charts/hamiltonian_2d.json", "--suite", suite, "--structure", "S"]
      for suite in ("as", "linear-type", "all")),
    ["model-at-point", "charts/hamiltonian_2d.json", "--at", "x=1,y=2", "--structure", "S"],
    *([command, f"models/{model}.json"]
      for model in ("zero_n2", "zero_n3") for command in ("nomizu", "transvection")),
    ["model-at-point", "example2", "--at", "x=1,y=2,z=3"],
    ["obstruction", "example2", "--at", "x=1,y=0,z=5"],
    ["model-at-point", "example2", "--at", "x=1,x=2,y=0"],
    ["obstruction", "example2", "--at", "x=1"],
]

CASES = [argv for command in COMMANDS for argv in (command, ["--json", *command])]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(DATA / a) if a.startswith(DATA_DIRS) else a for a in argv])
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _snapshot() -> dict:
    entries = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    return {" ".join(entry["argv"]): entry for entry in entries}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_snapshot(argv):
    assert run(argv) == _snapshot()[" ".join(argv)]


def test_snapshot_covers_exactly_the_cases():
    assert sorted(_snapshot()) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n",
                        encoding="utf-8")

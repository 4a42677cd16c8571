"""Golden-output test: CLI stdout, stderr and exit codes on the built-in charts.

The snapshot in `data/cli_golden.json` pins the exact bytes of every
report, including check order, names and witnesses, so a refactor that
changes a summation order and with it a printed witness is caught here.
Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from fedosov.cli import main

SNAPSHOT = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

COMMANDS = [
    *(["verify-chart", chart, "--suite", suite]
      for chart in ("example1", "example1-emended", "example2")
      for suite in ("as", "linear-type", "all")),
    ["model-at-point", "example2", "--at", "x=1,y=0"],
    ["model-at-point", "example1-emended", "--at", "x=2,y=1/3"],
    ["obstruction", "example2", "--at", "x=1,y=0"],
    ["linear-type", "example2"],
]

CASES = [argv for command in COMMANDS for argv in (command, ["--json", *command])]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
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

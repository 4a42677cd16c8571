"""Fuzz the model, algebra, chart and tensor input formats through the CLI.

Each example takes one golden file from `data/models/`, `data/algebras/`,
`data/charts/` or `data/tensors/`, replaces one random subtree (or renames
one object key) with a small JSON value, and runs the command that reads it
in process: `check-model`, `bianchi`, `verify-chart`, or `decompose`,
`classify` and `symplectify` with the `--n` (and `--space`) the file was
written for.  The exit-code contract says that every input ends in 0
(checks passed), 1 (a check failed) or 2 (malformed input): nothing may
raise, and two runs on the same file print the same bytes.  Every example
also calls `main` again in the same process, so the parser it builds once
is reused across many different command lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from hypothesis import given, settings, strategies as st

from fedosov.cli import main

DATA = pathlib.Path(__file__).parent / "data"
MODEL_AND_ALGEBRA_TARGETS = [
    *((["check-model", "FILE"], path) for path in sorted((DATA / "models").glob("*.json"))),
    *((["bianchi", "FILE"], path) for path in sorted((DATA / "algebras").glob("*.json"))),
]


def _tensor_commands(path: pathlib.Path) -> list[list[str]]:
    """The commands that read a file `<kind>_n<n>.json`, with its `--n` and `--space`."""
    n = path.stem.rpartition("_n")[2]
    space = "cotorsion" if path.stem.startswith("cotorsion") else "torsion"
    commands = [[command, "FILE", "--space", space, "--n", n]
                for command in ("decompose", "classify")]
    if space == "torsion":
        commands.append(["symplectify", "FILE", "--n", n])
    return commands


CHART_AND_TENSOR_TARGETS = [
    *((["verify-chart", "FILE"], path) for path in sorted((DATA / "charts").glob("*.json"))),
    *((argv, path) for path in sorted((DATA / "tensors").glob("*.json"))
      for argv in _tensor_commands(path)),
]
SMALL_VALUES = st.one_of(
    st.integers(min_value=-2, max_value=4),
    st.sampled_from(["", "x", "0", "1", "-1/2", "1/0", "[1,2]", "cov", "con"]),
    st.just([]), st.just({}), st.none())


def _paths(node, prefix=()):
    """Every subtree position, as a tuple of keys and list indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(node, path, value, rename: bool):
    """A copy of node with the subtree at path replaced by value.

    With `rename`, an object entry keeps its value and gets `str(value)` as
    its key instead.
    """
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        node = dict(node)
        if rename and not rest:
            node[str(value)] = node.pop(head)
            return node
    else:
        node = list(node)
    node[head] = _mutate(node[head], rest, value, rename)
    return node


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(tmp_path_factory, data, targets):
    argv, source = data.draw(st.sampled_from(targets))
    original = json.loads(source.read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(_paths(original))))
    value = data.draw(SMALL_VALUES)
    rename = bool(path) and data.draw(st.booleans())
    mutated = _mutate(original, path, value, rename)
    target = tmp_path_factory.getbasetemp() / "fuzzed.json"
    target.write_text(json.dumps(mutated), encoding="utf-8")
    argv = [str(target) if a == "FILE" else a for a in argv]
    first = _run(argv)
    assert first[0] in (0, 1, 2), first
    assert _run(argv) == first


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_model_and_algebra_files_keep_the_exit_code_contract(tmp_path_factory, data):
    _check_contract(tmp_path_factory, data, MODEL_AND_ALGEBRA_TARGETS)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_mutated_chart_and_tensor_files_keep_the_exit_code_contract(tmp_path_factory, data):
    _check_contract(tmp_path_factory, data, CHART_AND_TENSOR_TARGETS)

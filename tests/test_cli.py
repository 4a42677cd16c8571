import ast
import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from fedosov import charts, cli, lineartype
from fedosov.cli import main
from fedosov.rationals import parse_ratfun
from fedosov.symplectic import SymplecticSpace, tensor_from_json, tensor_to_json
from fedosov.decomposition import build_basis, decompose_torsion

from conftest import coprime_denominators
from test_slot_kernel import swell_chart


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_dims_exit_zero(capsys):
    code, out, err = run_cli(capsys, "dims", "--n-max", "3")
    assert code == 0
    assert "T1+T2+T4" in out  # the n=2 discrepancy note
    lines = [l for l in out.splitlines() if l.strip().startswith("2 ")]
    assert lines and " 16 " in lines[0]


def test_dims_json(capsys):
    code, out, err = run_cli(capsys, "--json", "dims", "--n-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "dims"
    assert all(c["pass"] for c in payload["checks"])
    table = payload["artifacts"]["table"]
    assert table[1]["S2"] == 16
    assert any("T1+T2+T4" in note for note in table[1]["notes"])


def test_decompose_round_trip(tmp_path, capsys):
    # decompose a T1+T3 combination, re-emit parts, re-decompose each part
    basis_t1 = build_basis("T1", 2).elements
    basis_t3 = build_basis("T3", 2).elements
    t = basis_t1[0] + basis_t3[1].scale(Fraction(2))
    path = write_json(tmp_path, "t.json", tensor_to_json(t))
    code, out, err = run_cli(capsys, "--json", "decompose", path,
                             "--space", "torsion", "--n", "2", "--parts")
    assert code == 0
    payload = json.loads(out)
    assert payload["artifacts"]["type_set"] == ["T1", "T3"]
    parts = payload["artifacts"]["parts"]
    for label, data in parts.items():
        part = tensor_from_json(data, space=SymplecticSpace(2))
        again = decompose_torsion(part)
        assert again.type_set <= {label}
        repath = write_json(tmp_path, f"part_{label}.json", data)
        code2, out2, _ = run_cli(capsys, "--json", "decompose", repath,
                                 "--space", "torsion", "--n", "2", "--parts")
        assert code2 == 0
        payload2 = json.loads(out2)
        assert payload2["artifacts"]["parts"][label] == data


def test_decompose_accepts_raised_tensor(tmp_path, capsys):
    from fedosov.symplectic import torsion_raise
    t = build_basis("T1", 1).elements[0]
    raised = torsion_raise(t)
    path = write_json(tmp_path, "raised.json", tensor_to_json(raised))
    code, out, err = run_cli(capsys, "--json", "classify", path,
                             "--space", "torsion", "--n", "1")
    assert code == 0
    assert json.loads(out)["artifacts"]["type_set"] == ["T1"]


def test_decompose_zero_tensor_empty_type_set(tmp_path, capsys):
    path = write_json(tmp_path, "zero.json",
                      {"n": 2, "valence": ["cov", "cov", "cov"], "components": {}})
    code, out, err = run_cli(capsys, "--json", "decompose", path,
                             "--space", "torsion", "--n", "2")
    assert code == 0
    assert json.loads(out)["artifacts"]["type_set"] == []


def test_decompose_dimension_mismatch_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json",
                      {"n": 2, "valence": ["cov", "cov", "cov"], "components": {}})
    code, out, err = run_cli(capsys, "decompose", path, "--space", "torsion", "--n", "1")
    assert code == 2
    assert "n=2" in err


def test_malformed_scalar_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json",
                      {"n": 1, "valence": ["cov", "cov", "cov"],
                       "components": {"1,2,2": "1//2"}})
    code, out, err = run_cli(capsys, "decompose", path, "--space", "torsion", "--n", "1")
    assert code == 2


def test_symplectify_success_and_failure(tmp_path, capsys):
    t1 = build_basis("T1", 2).elements[0]
    path = write_json(tmp_path, "t1.json", tensor_to_json(t1))
    code, out, err = run_cli(capsys, "--json", "symplectify", path, "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["pass"]
    assert "structure" in payload["artifacts"]

    t3 = build_basis("T3", 2).elements[0]
    path3 = write_json(tmp_path, "t3.json", tensor_to_json(t3))
    code, out, err = run_cli(capsys, "--json", "symplectify", path3, "--n", "2")
    assert code == 1
    payload = json.loads(out)
    assert not payload["checks"][0]["pass"]


@pytest.mark.parametrize("valence, message", [
    (["cov", "cov", "cov"], "{path}: tensor is not antisymmetric in slots (1,2); first violation "
                            "at (1, 1, 1)"),
    (["cov", "cov", "con"], "{path}: tensor is not antisymmetric in its arguments at (1, 1, 1)"),
], ids=["0-3", "1-2"])
def test_symplectify_malformed_torsion_is_input_error(tmp_path, capsys, valence, message):
    # the (0,3) form used to exit 1 with a failed `solvable_in_cotorsion_space`
    path = write_json(tmp_path, "t.json",
                      {"n": 1, "valence": valence, "components": {"1,1,1": "1"}})
    expected = (2, "", f"input error: {message.format(path=path)}\n")
    assert run_cli(capsys, "symplectify", path, "--n", "1") == expected
    assert run_cli(capsys, "decompose", path, "--space", "torsion", "--n", "1") == expected


@pytest.mark.parametrize("valence, key", [
    (["cov", "cov", "cov"], "1,2,1"),
    (["cov", "cov", "con"], "1,1,1"),
], ids=["0-3", "1-2"])
def test_malformed_cotorsion_names_the_file(tmp_path, capsys, valence, key):
    # a (1,2) file is checked after lowering, so both report the (0,3) violation
    path = write_json(tmp_path, "s.json", {"n": 1, "valence": valence, "components": {key: "1"}})
    expected = (2, "", f"input error: {path}: tensor is not symmetric in slots (1,2); "
                       "first violation at (1, 2, 1)\n")
    for command in ("decompose", "classify"):
        assert run_cli(capsys, command, path, "--space", "cotorsion", "--n", "1") == expected


def test_verify_chart_builtin_and_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify-chart", "example2", "--suite", "all")
    assert code == 0
    # exported file path works the same
    code, out, err = run_cli(capsys, "examples", "--export", str(tmp_path))
    assert code == 0
    chart_path = os.path.join(str(tmp_path), "example2.json")
    code, out, err = run_cli(capsys, "verify-chart", chart_path, "--suite", "all")
    assert code == 0


def test_verify_chart_verbatim_example1_fails(capsys):
    code, out, err = run_cli(capsys, "verify-chart", "example1", "--suite", "as")
    assert code == 1
    assert "FAIL" in out

    code, out, err = run_cli(capsys, "verify-chart", "example1-emended", "--suite", "all")
    assert code == 0


def test_verify_chart_json_and_text_same_checks(capsys):
    code_t, out_t, _ = run_cli(capsys, "verify-chart", "example1", "--suite", "as")
    code_j, out_j, _ = run_cli(capsys, "--json", "verify-chart", "example1", "--suite", "as")
    assert code_t == code_j == 1
    payload = json.loads(out_j)
    names_in_text = [line.split()[1] for line in out_t.splitlines()
                     if line.strip().startswith(("PASS", "FAIL"))]
    assert names_in_text == [c["name"] for c in payload["checks"]]
    verdicts_in_text = [line.split()[0] == "PASS" for line in out_t.splitlines()
                        if line.strip().startswith(("PASS", "FAIL"))]
    assert verdicts_in_text == [c["pass"] for c in payload["checks"]]


def test_cli_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "--json", "verify-chart", "example2", "--suite", "all")
    _, out2, _ = run_cli(capsys, "--json", "verify-chart", "example2", "--suite", "all")
    assert out1 == out2


def test_linear_type_command(capsys):
    code, out, err = run_cli(capsys, "--json", "linear-type", "example2")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["pass"]
    comps = payload["artifacts"]["structure_field"]["components"]
    assert comps["2,1,2"] == "(-2)/(x)"
    assert comps["1,1,1"] == "(-1)/(x)"
    assert comps["1,2,2"] == "(1)/(x)"


def test_linear_type_asymmetric_lowered_form_has_witness(capsys, monkeypatch):
    from fedosov import charts
    from fedosov.symplectic import CON, COV, Tensor

    def broken_structure(chart, xi):
        # S_{e1} e1 = e1 only: omega(S_Z X, Y) is not symmetric in X, Y
        one, zero = parse_ratfun("1", chart.coords), chart.rf_zero()
        return Tensor.build(chart.dim, (COV, COV, CON),
                            lambda i, j, k: one if i == j == k == 0 else zero)

    monkeypatch.setattr(charts, "linear_type_structure", broken_structure)
    code, out, err = run_cli(capsys, "--json", "linear-type", "example2")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["name"] == "lowered_form_symmetric" and not check["pass"]
    assert check["witness"] == "S(1,2,1) = (1)/(x^2) but S(2,1,1) = 0"


def test_obstruction_command(capsys):
    code, out, err = run_cli(capsys, "--json", "obstruction", "example2",
                             "--at", "x=1,y=0")
    assert code == 0
    payload = json.loads(out)
    assert payload["artifacts"]["obstructed"] is True


def test_obstruction_at_pole_is_input_error(capsys):
    code, out, err = run_cli(capsys, "obstruction", "example2", "--at", "x=0,y=0")
    assert code == 2


def test_model_pipeline_through_files(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--json", "model-at-point", "example2",
                             "--at", "x=1,y=0")
    assert code == 0
    model_data = json.loads(out)["artifacts"]["model"]
    model_path = write_json(tmp_path, "model.json", model_data)

    code, out, err = run_cli(capsys, "--json", "check-model", model_path)
    assert code == 0
    assert all(c["pass"] for c in json.loads(out)["checks"])

    code, out, err = run_cli(capsys, "--json", "nomizu", model_path)
    assert code == 0

    code, out, err = run_cli(capsys, "--json", "transvection", model_path)
    assert code == 0
    presentation = json.loads(out)["artifacts"]["presentation"]
    assert presentation["dim"] == 3
    algebra_path = write_json(tmp_path, "algebra.json", presentation)

    code, out, err = run_cli(capsys, "--json", "bianchi", algebra_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["artifacts"]["type"] == "VI"
    assert payload["artifacts"]["parameters"] == ["1/2", "2"]


def test_bianchi_rejects_broken_algebra(tmp_path, capsys):
    bad = {"dim": 3, "basis_labels": ["a", "b", "c"],
           "structure_constants": {"[1,2]": {"3": "1"},
                                   "[1,3]": {"1": "1"},
                                   "[2,3]": {"2": "1"}}}
    path = write_json(tmp_path, "bad_algebra.json", bad)
    code, out, err = run_cli(capsys, "bianchi", path)
    assert code == 2
    assert "Jacobi" in err


def test_examples_listing_and_show(capsys):
    code, out, err = run_cli(capsys, "examples")
    assert code == 0
    assert "example1" in out and "example2" in out
    code, out, err = run_cli(capsys, "examples", "--show", "example2")
    assert code == 0
    assert json.loads(out)["christoffel"] == {"1,1,1": "-2/x"}


def test_examples_output_is_pinned(tmp_path, capsys):
    # the listing and --export, in both output modes, as they were printed
    # before both went through `_emit`
    names = ["example1", "example1-emended", "example2"]
    assert run_cli(capsys, "examples") == (0, "".join(f"{name}\n" for name in names), "")
    assert run_cli(capsys, "--json", "examples") == (0, """{
  "artifacts": {
    "available": [
      "example1",
      "example1-emended",
      "example2"
    ]
  },
  "checks": [],
  "command": "examples"
}
""", "")
    written = [json.dumps(os.path.join(str(tmp_path), name))
               for name in ("example1.json", "example1_emended.json", "example2.json")]
    assert run_cli(capsys, "--json", "examples", "--export", str(tmp_path)) == (0, """{
  "artifacts": {
    "written": [
      %s,
      %s,
      %s
    ]
  },
  "checks": [],
  "command": "examples"
}
""" % tuple(written), "")
    assert run_cli(capsys, "examples", "--export", str(tmp_path)) == (
        0, "".join(f"wrote {json.loads(path)}\n" for path in written), "")


def test_missing_file_is_input_error(capsys):
    code, out, err = run_cli(capsys, "check-model", "/nonexistent/model.json")
    assert code == 2


def test_parse_error_carries_position(tmp_path, capsys):
    path = write_json(tmp_path, "bad_chart.json",
                      {"coords": ["x", "y"], "omega": {"1,2": "1/(3*x"},
                       "christoffel": {}})
    code, out, err = run_cli(capsys, "verify-chart", path)
    assert code == 2
    assert "line 1" in err and "column" in err


def test_verify_chart_with_explicit_structure_field(tmp_path, capsys):
    # register the linear-type structure as a named (1,2) field and ask the
    # parallelism suite to use it directly
    code, out, _ = run_cli(capsys, "--json", "linear-type", "example2")
    structure_field = json.loads(out)["artifacts"]["structure_field"]
    chart_data = json.loads(
        subprocess.run([sys.executable, "-m", "fedosov.cli", "examples",
                        "--show", "example2"],
                       capture_output=True, text=True).stdout)
    chart_data["fields"]["S"] = structure_field
    path = write_json(tmp_path, "chart_with_structure.json", chart_data)
    code, out, err = run_cli(capsys, "verify-chart", path, "--structure", "S")
    assert code == 0


def test_verify_chart_unknown_field_is_input_error(capsys):
    code, out, err = run_cli(capsys, "verify-chart", "example2",
                             "--structure", "nope")
    assert code == 2


HAMILTONIAN_2D = str(pathlib.Path(__file__).parent / "data" / "charts" / "hamiltonian_2d.json")
NO_XI = "chart has no vector field 'nope'; name one with --xi"


@pytest.mark.parametrize("argv, message", [
    # `S` is the chart's (1,2) field: it used to reach `linear_type_structure`
    # unchecked and exit 3
    (["linear-type", HAMILTONIAN_2D, "--xi", "S"], "field 'S' is not a vector field"),
    (["verify-chart", HAMILTONIAN_2D, "--suite", "linear-type", "--xi", "S"],
     "field 'S' is not a vector field"),
    (["linear-type", "example2", "--xi", "nope"], NO_XI),
    (["verify-chart", "example2", "--suite", "linear-type", "--xi", "nope"], NO_XI),
    (["verify-chart", HAMILTONIAN_2D, "--suite", "linear-type", "--structure", "S",
      "--xi", "nope"], NO_XI),
    (["obstruction", "example2", "--at", "x=1,y=0", "--xi", "nope"], NO_XI),
    # a given --xi is checked even where --structure makes it unused
    (["verify-chart", HAMILTONIAN_2D, "--suite", "as", "--structure", "S", "--xi", "nope"],
     NO_XI),
    (["obstruction", HAMILTONIAN_2D, "--at", "x=1,y=1", "--structure", "S", "--xi", "nope"],
     NO_XI),
    (["model-at-point", HAMILTONIAN_2D, "--at", "x=1,y=1", "--structure", "S",
      "--xi", "nope"], NO_XI),
], ids=["linear-type-tensor", "verify-chart-tensor", "linear-type-missing",
        "verify-chart-missing", "verify-chart-structure-missing", "obstruction-missing",
        "verify-chart-as-structure-missing", "obstruction-structure-missing",
        "model-at-point-structure-missing"])
def test_xi_must_name_a_vector_field(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["verify-chart", "example2", "--structure", "nope"],
    ["obstruction", "example2", "--at", "x=1,y=0", "--structure", "nope"],
    ["model-at-point", "example2", "--at", "x=1,y=0", "--structure", "nope"],
    # the structure is looked up before the xi that the linear-type suite reads
    ["verify-chart", "no-xi", "--suite", "linear-type", "--structure", "nope"],
    ["verify-chart", "no-xi", "--suite", "all", "--structure", "nope"],
], ids=["verify-chart", "obstruction", "model-at-point", "no-xi-linear-type", "no-xi-all"])
def test_structure_must_name_a_chart_field(tmp_path, capsys, argv):
    data = charts.chart_to_json(charts.load_example(2))
    del data["fields"]
    no_xi = write_json(tmp_path, "no_xi.json", data)
    code, out, err = run_cli(capsys, *(no_xi if a == "no-xi" else a for a in argv))
    assert (code, out, err) == (2, "", "input error: chart has no field named 'nope'\n")


def test_verify_chart_hamiltonian_candidate(capsys):
    # a rational candidate can only be wrong here (the true primitive is a
    # logarithm), and the mismatch is a named failing check
    code, out, err = run_cli(capsys, "--json", "verify-chart", "example1-emended",
                             "--suite", "linear-type", "--hamiltonian", "x")
    assert code == 1
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["hamiltonian_oneform_closed"]["pass"]
    assert not by_name["hamiltonian_candidate_matches"]["pass"]


@pytest.mark.parametrize("argv", [
    ["verify-chart", HAMILTONIAN_2D, "--suite", "as", "--hamiltonian", "x"],
    ["--json", "verify-chart", HAMILTONIAN_2D, "--suite", "as", "--hamiltonian", "x"],
    ["verify-chart", HAMILTONIAN_2D, "--hamiltonian", "x*y"],
    ["verify-chart", HAMILTONIAN_2D, "--suite", "as", "--hamiltonian", ""],
], ids=["as", "as-json", "default-suite", "as-empty"])
def test_hamiltonian_outside_a_linear_type_suite_is_input_error(capsys, monkeypatch, argv):
    # the `as` suite used to run in full and never read the candidate
    ran = []
    monkeypatch.setattr(charts, "verify_chart_structure", lambda *args: ran.append(args))
    monkeypatch.setattr(charts, "ChartRun", lambda *args, **kwargs: ran.append(args))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "input error: --hamiltonian needs --suite "
                                       "linear-type or all\n")
    assert ran == []


def test_empty_hamiltonian_is_input_error(capsys):
    # an empty candidate used to be dropped silently, where a blank one is a parse error
    code, out, err = run_cli(capsys, "verify-chart", HAMILTONIAN_2D, "--suite", "linear-type",
                             "--hamiltonian", "")
    assert (code, out) == (2, "")
    assert err == "input error: --hamiltonian: unexpected end of input (line 1, column 1)\n"


def test_console_entry_point():
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", "dims", "--n-max", "1"],
                            capture_output=True, text=True)
    assert result.returncode == 0


@pytest.mark.parametrize("argv", [
    ["decompose", "--space", "cotorsion", "--n", "1"],
    ["classify", "--space", "torsion", "--n", "1"],
    ["symplectify", "--n", "1"],
    ["verify-chart"],
])
def test_top_level_json_array_is_input_error(tmp_path, capsys, argv):
    path = write_json(tmp_path, "array.json", [1, 2])
    command, *options = argv
    code, out, err = run_cli(capsys, command, path, *options)
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: expected a JSON object at the top level, got list\n"


@pytest.mark.parametrize("n_max", ["0", "-2"])
def test_dims_rejects_nonpositive_n_max(capsys, n_max):
    code, out, err = run_cli(capsys, "dims", "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert err == f"input error: --n-max must be >= 1, got {n_max}\n"


def test_decompose_nonpositive_n_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "z.json",
                      {"n": 0, "valence": ["cov", "cov", "cov"], "components": {}})
    code, out, err = run_cli(capsys, "decompose", path, "--n", "0", "--space", "torsion")
    assert code == 2
    assert out == ""
    assert err == "input error: --n must be >= 1, got 0\n"


def test_non_string_component_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "b.json",
                      {"n": 1, "valence": ["cov", "cov", "cov"],
                       "components": {"1,2,1": [1]}})
    code, out, err = run_cli(capsys, "decompose", path, "--n", "1", "--space", "torsion")
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: component '1,2,1' must be a string, got list\n"


def test_non_integer_chart_key_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path, "c.json",
                      {"coords": ["x", "y"], "omega": {"a,2": "1"}})
    code, out, err = run_cli(capsys, "verify-chart", path)
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: bad omega key 'a,2'\n"


_STDLIB_GUARD = """
import contextlib, io, sys
before = set(sys.modules)
import fedosov.cli
for chart in ("example1", "example1-emended", "example2"):
    with contextlib.redirect_stdout(io.StringIO()):
        fedosov.cli.main(["verify-chart", chart, "--suite", "all"])
allowed = set(sys.stdlib_module_names) | {"fedosov"}
print("\\n".join(sorted(name for name in set(sys.modules) - before
                        if name.partition(".")[0] not in allowed)))
"""


def test_cli_imports_only_the_standard_library():
    # The package has no runtime dependencies: running the CLI on the
    # built-in fixtures must import nothing outside the stdlib and fedosov.
    result = subprocess.run([sys.executable, "-c", _STDLIB_GUARD],
                            capture_output=True, text=True, env=os.environ)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def _callers(source: str, name: str) -> list[str]:
    """Names of the top-level functions and classes of `source` that call
    `name`, once per call."""
    return sorted(top.name for top in ast.parse(source).body
                  if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_cli_reads_files_and_fields_in_one_place():
    # `_read` turns every file argument into an object, and `_xi` and
    # `_structure_for_chart` look up every chart field a flag names.
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    assert _callers(source, "_load_json") == ["_read"]
    assert _callers(source, "field_tensor") == ["_structure_for_chart", "_xi"]


def test_chart_runs_form_the_shared_fields():
    # One `ChartRun` forms the structure and its shifted connection for
    # every suite, the linear-type suite included; `model_at_point` and the
    # calculus behind `_gamma` shift the connection of the structure they
    # are given, and `linear_type_structure` stays the public wrapper.
    source = pathlib.Path(charts.__file__).read_text(encoding="utf-8")
    suite = pathlib.Path(lineartype.__file__).read_text(encoding="utf-8")
    assert _callers(source, "tilde_christoffel") == ["ChartRun", "_gamma", "model_at_point"]
    assert _callers(source, "linear_type_structure") == ["ChartRun"]
    assert _callers(source, "_linear_type") == ["linear_type_structure"]
    assert _callers(suite, "tilde_christoffel") == _callers(suite, "linear_type_structure") == []
    assert _callers(suite, "_linear_type") == ["metric_obstruction"]
    # the removed plumbing and wrappers; `\b` keeps the check name
    # `tilde_nabla_base_curvature_zero` out of the match
    gone = re.compile(r"\b(base_curvature|verify_as_conditions|verify_linear_type_suite)\b")
    for path in pathlib.Path(charts.__file__).parent.glob("*.py"):
        assert not gone.search(path.read_text(encoding="utf-8")), path.name


def _count_shared_fields(monkeypatch) -> dict:
    """Counts of `linear_type_structure`, `tilde_christoffel` and the
    base-connection `_curvature` calls, patched by module attribute."""
    counts = {"structure": 0, "tilde_gamma": 0, "base_curvature": 0}

    def counted(key, fn, base_only=False):
        def wrapper(chart, arg):
            if not base_only or arg is chart.christoffel:
                counts[key] += 1
            return fn(chart, arg)
        return wrapper

    monkeypatch.setattr(charts, "linear_type_structure",
                        counted("structure", charts.linear_type_structure))
    monkeypatch.setattr(charts, "tilde_christoffel",
                        counted("tilde_gamma", charts.tilde_christoffel))
    monkeypatch.setattr(charts, "_curvature",
                        counted("base_curvature", charts._curvature, base_only=True))
    return counts


@pytest.mark.parametrize("chart, argv, expected", [
    # two readers each of the structure, Gamma' and R under --suite all
    ("swell", ["--suite", "all"], (1, 1, 1)),
    ("swell", ["--suite", "linear-type"], (1, 1, 1)),
    ("swell", ["--suite", "as"], (1, 1, 1)),
    # S and xi's structure are two structures, so two shifted connections
    (HAMILTONIAN_2D, ["--suite", "all", "--structure", "S"], (1, 2, 1)),
    (HAMILTONIAN_2D, ["--suite", "as", "--structure", "S"], (0, 1, 1)),
], ids=["swell-all", "swell-linear-type", "swell-as", "structure-all", "structure-as"])
def test_verify_chart_forms_each_shared_field_once(tmp_path, monkeypatch, capsys,
                                                  chart, argv, expected):
    if chart == "swell":
        chart = write_json(tmp_path, "swell.json", charts.chart_to_json(swell_chart()))
    counts = _count_shared_fields(monkeypatch)
    assert main(["verify-chart", chart, *argv]) in (0, 1)
    assert (counts["structure"], counts["tilde_gamma"], counts["base_curvature"]) == expected


def test_charts_differentiate_in_one_kernel():
    # `charts._partial` takes every coordinate partial in the chart
    # calculus and the linear-type suite, and `metric_obstruction` reads xi
    # in closed form.
    source = pathlib.Path(charts.__file__).read_text(encoding="utf-8")
    suite = pathlib.Path(lineartype.__file__).read_text(encoding="utf-8")
    assert source.count(".partial(") == 1
    assert suite.count(".partial(") == 0
    assert "linalg.solve" not in source + suite


@pytest.mark.parametrize("payload, message", [
    ({"coords": 5}, "'coords' must be a list of variable names"),
    ({"coords": ["x", "y"], "omega": [1]}, "'omega' must be a JSON object"),
    ({"coords": ["x", "y"], "fields": {"xi": {"valence": "foo"}}},
     "field 'xi': valence must be a list of 'cov'/'con', got 'foo'"),
    # read as one coordinate, this chart verified with exit 1
    ({"coords": ["x", "x"], "omega": {"1,2": "1/x"}}, "coordinate 'x' appears more than once"),
    ({"coords": ["x", "y", "u", "y"]}, "coordinate 'y' appears more than once"),
    ({"coords": ["x", "y"], "fields": {"f": {"valence": [], "components": {"hello": "1"}}}},
     "bad field 'f' component key 'hello'"),
    # read as the last of the two spellings, these charts verified with exit 1
    ({"coords": ["x", "y"], "omega": {"1,2": "1/x^2", "01,2": "5"},
      "christoffel": {"1,1,1": "-2/x"},
      "fields": {"xi": {"valence": ["con"], "components": {"2": "x"}}}},
     "omega key '01,2' repeats an index given before"),
    ({"coords": ["x", "y"], "omega": {"1,2": "1/x^2"},
      "christoffel": {"1,1,1": "-2/x", "01,1,1": "5"},
      "fields": {"xi": {"valence": ["con"], "components": {"2": "x"}}}},
     "christoffel key '01,1,1' repeats an index given before"),
    ({"coords": ["x", "y"], "omega": {"1,2": "1/x^2"}, "christoffel": {"1,1,1": "-2/x"},
      "fields": {"xi": {"valence": ["con"], "components": {"2": "x", "02": "5"}}}},
     "field 'xi' component key '02' repeats an index given before"),
    # an explicit zero once read as "not given", so this chart verified with exit 0
    ({"coords": ["x", "y"], "omega": {"1,2": "0", "2,1": "-1/x^2"},
      "christoffel": {"1,1,1": "-2/x"},
      "fields": {"xi": {"valence": ["con"], "components": {"2": "x"}}}},
     "conflicting omega entries at (1,2)"),
    ({"coords": ["x", "y"], "omega": {"2,1": "-1/x^2", "1,2": "0"},
      "christoffel": {"1,1,1": "-2/x"},
      "fields": {"xi": {"valence": ["con"], "components": {"2": "x"}}}},
     "conflicting omega entries at (1,2)"),
])
def test_malformed_chart_structure_is_input_error(tmp_path, capsys, payload, message):
    path = write_json(tmp_path, "c.json", payload)
    code, out, err = run_cli(capsys, "verify-chart", path)
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: {message}\n"


DATA = pathlib.Path(__file__).parent / "data"
MODEL = json.loads((DATA / "models" / "example2_x1_y0.json").read_text(encoding="utf-8"))
ALGEBRA = json.loads((DATA / "algebras" / "nomizu_example2_x1_y0.json").read_text(
    encoding="utf-8"))


@pytest.mark.parametrize("command, payload, message", [
    ("check-model", {"n": 1, "curvature": 5, "torsion": {}},
     "a tensor must be a JSON object, got int"),
    ("nomizu", {**MODEL, "aux": [MODEL["aux"][0], 7]}, "a tensor must be a JSON object, got int"),
    ("transvection", {**MODEL, "aux": 7}, "'aux' must be a list of tensors"),
    ("check-model", {**MODEL, "n": [1]}, "'n' must be a positive integer, got [1]"),
    ("check-model", {**MODEL, "torsion": {**MODEL["torsion"], "components": {"1,2,2": "1/0"}}},
     "zero denominator in '1/0'"),
    ("bianchi", {**ALGEBRA, "structure_constants": 5}, "'structure_constants' must be a JSON object"),
    ("bianchi", {**ALGEBRA, "structure_constants": [[1]]},
     "'structure_constants' must be a JSON object"),
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,2]": 5}},
     "bracket '[1,2]' must be a JSON object"),
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,2]": {"2": [1]}}},
     "component '2' of '[1,2]' must be a string, got list"),
    ("bianchi", {**ALGEBRA, "basis_labels": 5}, "'basis_labels' must be a list of strings"),
    ("bianchi", {**ALGEBRA, "subspaces": [1]}, "'subspaces' must map names to lists of indices 1..3"),
    ("bianchi", {**ALGEBRA, "dim": [3]}, "'dim' must be a non-negative integer, got [3]"),
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1 2]": {"3": "1"}}},
     "bad bracket key '[1 2]'"),
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,x]": {"3": "1"}}},
     "bad bracket key '[1,x]'"),
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,2,3]": {"3": "1"}}},
     "bad bracket key '[1,2,3]'"),
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,2]": {"x": "1"}}},
     "bad component index in '[1,2]'"),
    # once merged into [e1,e2] = -e1 + e3, which classified as type III
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,2]": {"3": "1"}, "[2,1]": {"1": "1"}}},
     "brackets '[1,2]' and '[2,1]' disagree"),
    ("check-model", {**MODEL, "torsion": {**MODEL["torsion"], "components": {"1,x,2": "1"}}},
     "bad component index '1,x,2' for dimension 2"),
    # once the last spelling of an index won, and either order classified as type II
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,2]": {"3": "1", "03": "2"}}},
     "component '03' of '[1,2]' repeats an index given before"),
    ("bianchi", {**ALGEBRA, "structure_constants": {"[1,2]": {"3": "2", "03": "1"}}},
     "component '03' of '[1,2]' repeats an index given before"),
    ("check-model", {**MODEL, "torsion": {**MODEL["torsion"],
                                          "components": {"1,2,2": "1", "01,2,2": "2"}}},
     "component '01,2,2' repeats an index given before"),
])
def test_malformed_model_or_algebra_is_input_error(tmp_path, capsys, command, payload, message):
    path = write_json(tmp_path, "m.json", payload)
    code, out, err = run_cli(capsys, command, path)
    assert code == 2
    assert out == ""
    assert err == f"input error: {path}: {message}\n"


def test_bianchi_rejects_wrong_dimension_before_building(tmp_path):
    # Building a 10^6-dimensional presentation would allocate 10^18 constants.
    path = write_json(tmp_path, "big.json", {"dim": 1000000})
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", "bianchi", path],
                            capture_output=True, text=True, env=os.environ, timeout=30)
    assert result.returncode == 2
    assert result.stderr == "input error: Bianchi classification needs a 3-dimensional algebra\n"


# Each limit is checked before anything of size (2n)^rank is allocated, so a
# few-byte file or flag that asks for billions of entries exits 2 at once.
# Run in a subprocess with a timeout: a missing check would allocate.
LIMIT_CASES = [
    (["dims", "--n-max", "7"], None, "--n-max must be at most 6, got 7"),
    (["dims", "--n-max", "1000000"], None, "--n-max must be at most 6, got 1000000"),
    (["decompose", "FILE", "--space", "torsion", "--n", "1000"],
     {"n": 1, "valence": ["cov", "cov", "cov"]}, "--n must be at most 6, got 1000"),
    (["classify", "FILE", "--space", "cotorsion", "--n", "2"],
     {"n": 1000, "valence": ["cov", "cov", "cov"]}, "FILE: 'n' must be at most 6, got 1000"),
    (["check-model", "FILE"], {"n": 1000, "curvature": {}, "torsion": {}},
     "FILE: 'n' must be at most 6, got 1000"),
    (["verify-chart", "FILE"], {"coords": [f"x{i}" for i in range(2000)]},
     "FILE: charts have at most 12 coordinates, got 2000"),
    (["classify", "FILE", "--space", "cotorsion", "--n", "1"],
     {"n": 1, "valence": ["cov"] * 22}, "FILE: 'valence' has at most 4 slots, got 22"),
    (["verify-chart", "FILE", "--suite", "all"],
     {"coords": ["x", "y"], "fields": {"big": {"valence": ["cov"] * 22, "components": {}}}},
     "FILE: field 'big': valence has at most 4 slots, got 22"),
    # each declared tensor is allocated at (2n)^rank slots: 200 empty
    # rank-4 tensors at n = 6 took 50 MB before the count was checked
    (["nomizu", "FILE"],
     {"n": 6, "curvature": {"n": 6, "valence": ["cov", "cov", "cov", "con"]},
      "torsion": {"n": 6, "valence": ["cov", "cov", "con"]},
      "aux": [{"n": 6, "valence": ["cov"] * 4}] * 17},
     "FILE: 'aux' has at most 16 tensors, got 17"),
    (["verify-chart", "--suite", "as", "FILE"],
     {"coords": [f"x{i}" for i in range(12)],
      "fields": {f"f{i}": {"valence": ["cov"] * 4} for i in range(200)}},
     "FILE: charts have at most 16 fields, got 200"),
    (["verify-chart", "FILE", "--suite", "as"],
     {"coords": ["x", "y"], "omega": {"1,2": "(x+y+1)^3000"}},
     "FILE: omega[1,2]: power ^3000 of a 3-term polynomial is over the budget of 1000 terms "
     "(line 1, column 9)"),
    # `Fraction` expands an exponent in time that grows with it: a 90-byte
    # file with these two entries ran for 6 s
    (["classify", "FILE", "--space", "torsion", "--n", "1"],
     {"n": 1, "valence": ["cov", "cov", "cov"],
      "components": {"1,2,1": "1e5000000", "2,1,1": "-1e5000000"}},
     "FILE: exponent form '1e5000000' is not accepted"),
    (["obstruction", "example2", "--at", "x=1e3,y=0"], None, "bad rational value in 'x=1e3'"),
    # Each `^` is within the budget, but nesting multiplies the exponents:
    # x^(10^9) would make evaluation tabulate 10^9 + 1 powers of x.
    (["model-at-point", "FILE", "--at", "x=1,y=1"],
     {"coords": ["x", "y"], "christoffel": {"1,1,1": "((x^1000)^1000)^1000"}},
     "FILE: christoffel[1,1,1]: a product has degree 40000 in x, over the limit of 32767 "
     "per variable (line 1, column 11)"),
    # An exact division's remainder stays within the dividend's degrees: an
    # inexact one that walked on would grow like a binomial expansion for
    # hours before the missing field is reported
    (["verify-chart", "FILE", "--suite", "linear-type"],
     {"coords": ["x", "y"], "christoffel": {"1,1,1": "(x^1000)^32/(x+y+1)"}},
     "chart has no vector field 'xi'; name one with --xi"),
    # parsed within the limit, but the suite's products pass it
    (["verify-chart", "FILE", "--xi", "xi"],
     {"coords": ["x", "y"], "omega": {"1,2": "1"}, "christoffel": {"1,1,1": "(x^1000)^20"},
      "fields": {"xi": {"valence": ["con"], "components": {"2": "1"}}}},
     "a product has degree 40000 in x, over the limit of 32767 per variable"),
]


@pytest.mark.parametrize("argv, payload, message", LIMIT_CASES,
                         ids=[" ".join(case[0]) for case in LIMIT_CASES])
def test_size_limits_exit_2_before_allocating(tmp_path, argv, payload, message):
    path = write_json(tmp_path, "big.json", payload) if payload is not None else ""
    argv = [path if a == "FILE" else a for a in argv]
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", *argv],
                            capture_output=True, text=True, env=os.environ, timeout=30)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"input error: {message.replace('FILE', path)}\n"


def test_model_at_point_forms_only_the_powers_it_uses(tmp_path):
    # Evaluating x^1000 at a 400-digit x needs x^1000 and x^0 and not the
    # 999 powers between them: tabulating all of them took about 40 s and
    # 185 MB on a 2-vCPU Xeon.
    # What is left is mostly printing model entries of up to 400,000 digits.
    path = write_json(tmp_path, "power.json", {
        "coords": ["x", "y"], "omega": {"1,2": "1"}, "christoffel": {"1,1,1": "x^1000"},
        "fields": {"xi": {"valence": ["con"], "components": {"2": "1"}}}})
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", "model-at-point", path,
                             "--xi", "xi", "--at", f"x={'9' * 400}/7,y=1"],
                            capture_output=True, text=True, env=os.environ, timeout=30)
    assert (result.returncode, result.stderr) == (0, "")
    assert "=> all checks passed" in result.stdout


def block_chart(planes: int) -> dict:
    """omega = dx0^dy0/x0^2 + dx1^dy1 + ... with Gamma^1_11 = -2/x0 and
    xi = x0 d_y0: the block of the second worked chart times flat planes.
    Its base curvature is zero, and it passes every linear-type check."""
    coords = [f"{axis}{i}" for i in range(planes) for axis in "xy"]
    omega = {"1,2": "1/x0^2", **{f"{2 * i + 1},{2 * i + 2}": "1" for i in range(1, planes)}}
    return {"coords": coords, "omega": omega, "christoffel": {"1,1,1": "-2/x0"},
            "fields": {"xi": {"valence": ["con"], "components": {"2": "x0"}}}}


def test_block_chart_file_is_the_two_plane_block_chart():
    path = pathlib.Path(__file__).parent / "data" / "charts" / "block_4d.json"
    assert json.loads(path.read_text(encoding="utf-8")) == block_chart(2)


def test_twelve_coordinate_block_chart_verifies_in_time(tmp_path):
    # The linear-type identities are formed only where the zero curvature
    # reaches: nowhere.  Scanning every one of the 12^5 cyclic-identity
    # positions took about 5 s here.
    path = write_json(tmp_path, "block.json", block_chart(6))
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", "--json", "verify-chart",
                             path, "--suite", "all"],
                            capture_output=True, text=True, env=os.environ, timeout=3)
    assert (result.returncode, result.stderr) == (0, "")
    checks = json.loads(result.stdout)["checks"]
    assert len(checks) == 22 and all(check["pass"] for check in checks)


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(n_max):
        raise RuntimeError("boom")

    monkeypatch.setattr("fedosov.decomposition.dimension_table", broken)
    code, out, err = run_cli(capsys, "dims", "--n-max", "1")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


def test_tensor_at_the_size_limit_is_accepted(tmp_path, capsys):
    path = write_json(tmp_path, "t.json", {"n": 6, "valence": ["cov", "cov", "cov"],
                                           "components": {"1,7,2": "1", "7,1,2": "-1"}})
    code, out, err = run_cli(capsys, "classify", path, "--space", "torsion", "--n", "6")
    assert (code, err) == (0, "")


def _coprime_denominator_tensor(n: int, anti: bool) -> dict:
    """JSON tensor whose independent entries are 1/q, q pairwise coprime of 1000 bits or more."""
    d = 2 * n
    coords = [(i, j, k) for i in range(d) for j in range(i + anti, d) for k in range(d)]
    components = {}
    for (i, j, k), q in zip(coords, coprime_denominators(len(coords), 1000)):
        components[f"{i + 1},{j + 1},{k + 1}"] = f"1/{q}"
        components[f"{j + 1},{i + 1},{k + 1}"] = f"{'-' if anti else ''}1/{q}"
    return {"n": n, "valence": ["cov", "cov", "cov"], "components": components}


@pytest.mark.parametrize("space", ["cotorsion", "torsion"])
def test_coprime_1000_bit_denominators_decompose_in_time(tmp_path, space):
    # The common denominator has 795,466 (torsion) or 940,302 bits: scaling the
    # entries by it puts every closing gcd on numbers that size, which took
    # 113 s in-process for the cotorsion case (2-vCPU Xeon), far past the timeout.
    path = write_json(tmp_path, "t.json", _coprime_denominator_tensor(6, space == "torsion"))
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", "decompose", path,
                             "--space", space, "--n", "6"],
                            capture_output=True, text=True, env=os.environ, timeout=30)
    assert (result.returncode, result.stderr) == (0, "")


LONG = "7" * 20000
DIGIT_CASES = {
    "file": (["decompose", "FILE", "--space", "torsion", "--n", "1"],
             {"n": 1, "valence": ["cov", "cov", "cov"], "components": {"1,2,1": f"1/{LONG}"}},
             "FILE: a number has more than 4300 digits"),
    "file-underscores": (["check-model", "FILE"],
                         {"n": 1, "curvature": {}, "torsion": {"components": {
                             "1,2,1": "1" + "_1" * 4300}}},
                         "FILE: a number has more than 4300 digits"),
    "at": (["obstruction", "example2", "--at", f"x=1,y={LONG}"], None,
           "--at: a number has more than 4300 digits"),
    "hamiltonian": (["verify-chart", "example2", "--suite", "linear-type",
                     "--hamiltonian", f"x+{LONG}"], None,
                    "--hamiltonian: a number has more than 4300 digits"),
}


@pytest.mark.parametrize("argv, payload, message", DIGIT_CASES.values(), ids=DIGIT_CASES)
def test_long_numbers_exit_2_before_conversion(tmp_path, argv, payload, message):
    # Python's str -> int conversion is quadratic in the digit count, and its
    # own 4300-digit limit is lifted while a command runs.
    path = write_json(tmp_path, "long.json", payload) if payload is not None else ""
    argv = [path if a == "FILE" else a for a in argv]
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", *argv],
                            capture_output=True, text=True, env=os.environ, timeout=30)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"input error: {message.replace('FILE', path)}\n"


def test_number_at_the_digit_bound_is_accepted(tmp_path, capsys):
    q = "7" * 4300
    path = write_json(tmp_path, "t.json", {"n": 1, "valence": ["cov", "cov", "cov"],
                                           "components": {"1,2,1": f"1/{q}", "2,1,1": f"1/{q}"}})
    code, out, err = run_cli(capsys, "classify", path, "--space", "cotorsion", "--n", "1")
    assert (code, err) == (0, "")


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": "\xff"}')
    code, out, err = run_cli(capsys, "check-model", str(path))
    assert (code, out) == (2, "")
    assert err == f"input error: {path}: not UTF-8 text: invalid start byte at byte 7\n"


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="this Python has no int/str digit limit")


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_coprime_1000_bit_torsion_parts_print_and_round_trip(tmp_path, fmt):
    # Some parts have numerators or denominators of more than 4300 digits,
    # Python's default limit on converting an int to text.
    data = _coprime_denominator_tensor(6, anti=True)
    path = write_json(tmp_path, "t.json", data)
    flags = ["--json"] if fmt == "json" else []
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", *flags, "decompose", path,
                             "--space", "torsion", "--n", "6", "--parts"],
                            capture_output=True, text=True, env=os.environ, timeout=30)
    assert (result.returncode, result.stderr) == (0, "")
    if fmt == "json":
        parts = json.loads(result.stdout)["artifacts"]["parts"]
    else:
        prefix = "artifact parts: "
        line = next(line for line in result.stdout.splitlines() if line.startswith(prefix))
        parts = json.loads(line[len(prefix):])
    assert sorted(parts) == ["T1", "T2", "T3", "T4"]
    assert max(len(text) for part in parts.values() for text in part["components"].values()) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        tensors = [tensor_from_json(part) for part in parts.values()]
        total = tensors[0]
        for t in tensors[1:]:
            total = total + t
        assert total == tensor_from_json(data)
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
@pytest.mark.parametrize("command, code", [("dims", 0), ("decompose", 2)])
def test_main_restores_the_digit_limit(tmp_path, monkeypatch, capsys, command, code):
    argv = (["dims", "--n-max", "1"] if command == "dims"
            else ["decompose", str(tmp_path / "missing.json"), "--space", "torsion", "--n", "1"])
    seen = []
    dims = cli.cmd_dims

    def watching(args):
        seen.append(sys.get_int_max_str_digits())
        return dims(args)

    monkeypatch.setattr(cli, "cmd_dims", watching)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run_cli(capsys, *argv)[0] == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
    assert seen == ([0] if command == "dims" else [])


MODEL_FILE =str(DATA / "models" / "example2_x1_y0.json")
REUSE_SEQUENCES = {
    "json-then-text": [["--json", "dims", "--n-max", "1"], ["dims", "--n-max", "1"]],
    "rejected-then-valid": [["decompose", "--n", "1"], ["--json", "examples"],
                            ["dims", "--n-max", "oops"], ["check-model", MODEL_FILE]],
    "nomizu-then-transvection": [["nomizu", MODEL_FILE], ["transvection", MODEL_FILE],
                                 ["--json", "nomizu", MODEL_FILE]],
}


@pytest.mark.parametrize("sequence", REUSE_SEQUENCES.values(), ids=REUSE_SEQUENCES)
def test_main_calls_in_one_process_match_fresh_processes(monkeypatch, capsys, sequence):
    # `main` builds its parser once and reuses it: each call must still
    # print what a fresh interpreter prints, argparse rejections included.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "fedosov.cli", *argv],
                               capture_output=True, text=True, env=os.environ, timeout=60)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv

"""The package surface: what each entry point runs, and the public names.

`import fedosov` registers its submodules without running them, and a
submodule's body runs on the first read of one of its attributes.  A lazy
module swaps its class for `types.ModuleType` when it loads, so
`type(sys.modules[name]) is types.ModuleType` tells whether a module has
run without reading (and so loading) anything.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fedosov

SRC = pathlib.Path(fedosov.__file__).parent
DATA = pathlib.Path(__file__).parent / "data"

# Run in a fresh interpreter: `argv[1]` is a JSON list of CLI arguments, or
# null to only import the package; prints the exit code and the submodules run.
_PROBE = """
import contextlib, io, json, sys, types
argv = json.loads(sys.argv[1])
import fedosov
code = None
if argv is not None:
    import fedosov.cli
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = fedosov.cli.main(argv)
print(json.dumps([code, sorted(name[len("fedosov."):] for name, module in sys.modules.items()
                              if name.startswith("fedosov.") and type(module) is types.ModuleType)]))
"""


def _ran(argv):
    result = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                            capture_output=True, text=True, env=os.environ, timeout=120)
    assert result.returncode == 0, result.stderr
    code, ran = json.loads(result.stdout)
    return code, set(ran)


def test_import_runs_no_submodule():
    assert _ran(None) == (None, set())


def test_cli_import_runs_only_what_its_top_level_reads():
    assert _ran([]) == (None, {"cli", "rationals", "reporting", "symplectic"})


DECOMPOSITION = ("decomposition", {"models", "charts", "lineartype"})
MODELS = ("models", {"charts", "lineartype", "decomposition"})
CHARTS = ("charts", {"decomposition"})


@pytest.mark.parametrize("argv, kind", [
    (["dims", "--n-max", "3"], DECOMPOSITION),
    (["decompose", "tensors/torsion_n2.json", "--space", "torsion", "--n", "2"], DECOMPOSITION),
    (["classify", "tensors/cotorsion_n2.json", "--space", "cotorsion", "--n", "2"],
     DECOMPOSITION),
    (["symplectify", "tensors/symplectic_torsion_n2.json", "--n", "2"], DECOMPOSITION),
    (["check-model", "models/example2_x1_y0.json"], MODELS),
    (["nomizu", "models/example2_x1_y0.json"], MODELS),
    (["transvection", "models/example2_x1_y0.json"], MODELS),
    (["bianchi", "algebras/nomizu_example2_x1_y0.json"], MODELS),
    *((["verify-chart", chart, "--suite", "all"], CHARTS)
      for chart in ("example1", "example1-emended", "example2")),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value[0])
def test_each_command_runs_only_the_modules_it_needs(argv, kind):
    needed, unused = kind
    argv = [str(DATA / arg) if arg.endswith(".json") else arg for arg in argv]
    code, ran = _ran(argv)
    assert code in (0, 1)
    assert needed in ran
    assert not ran & unused


# The names `fedosov` re-exported when it imported every submodule eagerly.
PUBLIC_NAMES = [
    "BianchiType", "CON", "COTORSION_LABELS", "COV", "Chart", "ChartFormatError", "ChartRun",
    "Check", "DecompositionResult", "DegreeError", "HamiltonianReport", "InfinitesimalModel",
    "LieAlgebraPresentation", "ModelError", "NotLinearTypeError", "ObstructionVerdict",
    "ParseError", "PoleError", "Polynomial", "Rational", "RationalFunction", "Report",
    "SUBMODULE_LABELS", "SubmoduleBasis", "SymplecticSpace", "TORSION_LABELS", "Tensor",
    "ambient_dimension", "bianchi_classify", "build_basis", "change_basis", "chart_curvature",
    "chart_from_json", "chart_to_json", "chart_torsion", "check_model_axioms",
    "class_predicate", "closed_form_dimension", "contract_s13", "contract_t12", "contract_t13",
    "cotorsion_lower", "cotorsion_raise", "cotorsion_to_torsion", "covariant_derivative",
    "covector_contraction", "covector_to_cotorsion", "cyclic_sum", "decompose_cotorsion",
    "decompose_torsion", "derivation_action", "dimension_table", "emend_chart_signs",
    "evaluate_matrix", "evaluate_tensor", "expected_dimension", "first_symplectic_defect",
    "hamiltonian_oneform", "integrability_check", "is_symplectic_matrix", "lie_bracket",
    "lie_derivative_omega", "linear_type_structure", "load_chart_file", "load_example",
    "make_chart", "metric_obstruction", "model_at_point", "model_from_json", "model_from_pair",
    "model_stabilizer_algebra", "model_to_json", "musical_flat", "musical_sharp",
    "nomizu_algebra", "omega_is_closed", "omega_tensor", "omega_wedge",
    "omega_wedge_section_scale", "pair_from_model", "parse_ratfun", "presentation_from_json",
    "presentation_to_json", "push_tensor", "standard_omega_tensor", "submodule_dimension",
    "symplectic_basis_matrix", "symplectify_torsion", "tensor_from_json", "tensor_to_json",
    "torsion_lower", "torsion_raise", "transvection_algebra", "transvection_subalgebra",
    "trivial_model", "verify_chart_structure", "verify_model_isomorphism", "xi_perp_field",
]


def test_public_names_are_unchanged():
    assert sorted(fedosov.__all__) == PUBLIC_NAMES
    starred = {}
    exec("from fedosov import *", starred)
    listed = dir(fedosov)
    for module, names in fedosov._EXPORTS.items():
        for name in names:
            value = getattr(fedosov, name)
            assert value is getattr(getattr(fedosov, module), name), name
            assert getattr(value, "__module__", f"fedosov.{module}") in (
                f"fedosov.{module}", "fractions"), name
            assert starred[name] is value, name
            assert name in listed, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as err:
        fedosov.no_such_name
    assert str(err.value) == "module 'fedosov' has no attribute 'no_such_name'"


def test_module_run_writes_nothing_to_stderr():
    result = subprocess.run([sys.executable, "-m", "fedosov.cli", "examples"],
                            capture_output=True, text=True, env=os.environ, timeout=60)
    assert result.returncode == 0
    assert result.stdout and result.stderr == ""


def test_imports_stay_at_module_top():
    # Deferred loading lives in `__init__.py` alone: no import statement
    # inside a function or class body.
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested |= {f"{path.name}:{node.lineno}" for node in ast.walk(top)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(nested) == []

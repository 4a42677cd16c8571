"""Exact-arithmetic toolkit for homogeneous structures on symplectic manifolds.

Everything is computed over Q or Q(x1, ..., xm): invariant-class
decompositions of torsion- and cotorsion-like tensors, infinitesimal-model
verification with the Nomizu and transvection constructions, Bianchi
classification of the resulting 3-dimensional algebras, and symbolic
chart-level verification of Fedosov and parallelism conditions.

Submodules load on first use.  Importing the package registers each
submodule below in `sys.modules` and as a package attribute through
`importlib.util.LazyLoader`, without running it; its body runs the first
time one of its attributes is read.  The public names are read off their
submodules by the module `__getattr__` (PEP 562), and are never copied
into the package namespace.  So a decomposition never compiles the chart
code, and a chart run never compiles the decomposition.  Two caveats: an
error at a submodule's top level surfaces at its first use, not at
`import fedosov`; and on CPython 3.11 the first attribute read of a lazy
module is not thread-safe (the package is single-threaded).
"""

import importlib.util
import sys

# The public names, by the submodule that defines them.
_EXPORTS = {
    "rationals": (
        "DegreeError", "ParseError", "PoleError", "Polynomial", "Rational", "RationalFunction",
        "parse_ratfun",
    ),
    "reporting": ("Check", "Report"),
    "symplectic": (
        "COV", "CON", "SymplecticSpace", "Tensor",
        "change_basis", "contract_s13", "contract_t12", "contract_t13",
        "cotorsion_lower", "cotorsion_raise", "cyclic_sum", "first_symplectic_defect",
        "is_symplectic_matrix", "musical_flat", "musical_sharp",
        "tensor_from_json", "tensor_to_json", "torsion_lower", "torsion_raise",
    ),
    "decomposition": (
        "COTORSION_LABELS", "SUBMODULE_LABELS", "TORSION_LABELS",
        "DecompositionResult", "SubmoduleBasis",
        "ambient_dimension", "build_basis", "class_predicate", "closed_form_dimension",
        "cotorsion_to_torsion", "covector_contraction", "covector_to_cotorsion",
        "decompose_cotorsion", "decompose_torsion",
        "dimension_table", "expected_dimension", "omega_wedge", "omega_wedge_section_scale",
        "submodule_dimension", "symplectify_torsion",
    ),
    "models": (
        "BianchiType", "InfinitesimalModel", "LieAlgebraPresentation", "ModelError",
        "bianchi_classify", "check_model_axioms", "derivation_action",
        "model_from_json", "model_from_pair", "model_stabilizer_algebra", "model_to_json",
        "nomizu_algebra", "pair_from_model", "presentation_from_json", "presentation_to_json",
        "push_tensor", "standard_omega_tensor", "transvection_algebra",
        "transvection_subalgebra", "trivial_model", "verify_model_isomorphism",
    ),
    "charts": (
        "Chart", "ChartFormatError", "ChartRun", "chart_curvature", "chart_from_json",
        "chart_to_json", "chart_torsion", "covariant_derivative", "emend_chart_signs",
        "evaluate_matrix", "evaluate_tensor", "lie_bracket", "linear_type_structure",
        "load_chart_file", "load_example", "make_chart", "model_at_point", "omega_is_closed",
        "omega_tensor", "symplectic_basis_matrix", "verify_chart_structure",
    ),
    "lineartype": (
        "HamiltonianReport", "NotLinearTypeError", "ObstructionVerdict", "hamiltonian_oneform",
        "integrability_check", "lie_derivative_omega", "metric_obstruction", "xi_perp_field",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)

__version__ = "0.1.0"

# The recipe of the importlib documentation for `LazyLoader`.
for _name in ("linalg", *_EXPORTS):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module, importlib, sys


def __getattr__(name):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

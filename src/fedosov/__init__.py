"""Exact-arithmetic toolkit for homogeneous structures on symplectic manifolds.

Everything is computed over Q or Q(x1, ..., xm): invariant-class
decompositions of torsion- and cotorsion-like tensors, infinitesimal-model
verification with the Nomizu and transvection constructions, Bianchi
classification of the resulting 3-dimensional algebras, and symbolic
chart-level verification of Fedosov and parallelism conditions.
"""

from .rationals import (
    DegreeError, ParseError, PoleError, Polynomial, Rational, RationalFunction, parse_ratfun,
)
from .reporting import Check, Report
from .symplectic import (
    COV, CON, SymplecticSpace, Tensor,
    change_basis, contract_s13, contract_t12, contract_t13,
    cotorsion_lower, cotorsion_raise, cyclic_sum, first_symplectic_defect,
    is_symplectic_matrix, musical_flat, musical_sharp,
    tensor_from_json, tensor_to_json, torsion_lower, torsion_raise,
)
from .decomposition import (
    COTORSION_LABELS, SUBMODULE_LABELS, TORSION_LABELS,
    DecompositionResult, SubmoduleBasis,
    ambient_dimension, build_basis, class_predicate, closed_form_dimension,
    cotorsion_to_torsion, covector_contraction, covector_to_cotorsion,
    decompose_cotorsion, decompose_torsion,
    dimension_table, expected_dimension, omega_wedge, omega_wedge_section_scale,
    submodule_dimension, symplectify_torsion,
)
from .models import (
    BianchiType, InfinitesimalModel, LieAlgebraPresentation, ModelError,
    bianchi_classify, check_model_axioms, derivation_action,
    model_from_json, model_from_pair, model_stabilizer_algebra, model_to_json,
    nomizu_algebra, pair_from_model, presentation_from_json, presentation_to_json,
    push_tensor, standard_omega_tensor, transvection_algebra,
    transvection_subalgebra, trivial_model, verify_model_isomorphism,
)
from .charts import (
    Chart, ChartFormatError, ChartRun, chart_curvature, chart_from_json, chart_to_json,
    chart_torsion, covariant_derivative, emend_chart_signs, evaluate_matrix,
    evaluate_tensor, lie_bracket, linear_type_structure, load_chart_file, load_example,
    make_chart, model_at_point, omega_is_closed, omega_tensor,
    symplectic_basis_matrix, verify_chart_structure,
)
from .lineartype import (
    HamiltonianReport, NotLinearTypeError, ObstructionVerdict, hamiltonian_oneform,
    integrability_check, lie_derivative_omega, metric_obstruction, xi_perp_field,
)

__version__ = "0.1.0"

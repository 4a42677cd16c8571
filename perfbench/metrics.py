"""Metric names, units and directions (mirrored in BENCHMARK.json)."""

from __future__ import annotations


def _m(name: str, unit: str, better: str = "lower") -> dict:
    return {"name": name, "unit": unit, "better": better}


END_TO_END = [
    _m("setup_s", "s"),
    _m("run_s", "s"),
    _m("peak_rss_mb", "MB"),
]

_SELF = "s"
_COUNT = "count"

PER_LAYER = [
    _m("rationals.self_s", _SELF),
    _m("rationals.poly_mul.calls", _COUNT),
    _m("rationals.poly_mul.self_s", _SELF),
    _m("rationals.parse.self_s", _SELF),
    _m("rationals.ratfun.max_terms", _COUNT),
    _m("rationals.ratfun.total_terms", _COUNT),
    _m("linalg.self_s", _SELF),
    _m("linalg.inverse.self_s", _SELF),
    _m("linalg.inverse.max_cols", _COUNT),
    _m("linalg.solve.self_s", _SELF),
    _m("linalg.solve.calls", _COUNT),
    _m("linalg.nullspace.self_s", _SELF),
    _m("linalg.nullspace.calls", _COUNT),
    _m("linalg.rank.calls", _COUNT),
    _m("linalg.matvec.self_s", _SELF),
    _m("symplectic.self_s", _SELF),
    _m("symplectic.tensor_build.calls", _COUNT),
    _m("symplectic.tensor_add.calls", _COUNT),
    _m("symplectic.change_basis.self_s", _SELF),
    _m("symplectic.cyclic_sum.calls", _COUNT),
    _m("decomposition.self_s", _SELF),
    _m("decomposition.build_basis.self_s", _SELF),
    _m("decomposition.class_predicate.self_s", _SELF),
    _m("decomposition.decompose.self_s", _SELF),
    _m("decomposition.decompose.calls", _COUNT),
    _m("decomposition.symplectify.self_s", _SELF),
    _m("models.self_s", _SELF),
    _m("models.push_tensor.self_s", _SELF),
    _m("models.push_tensor.calls", _COUNT),
    _m("models.check_model_axioms.self_s", _SELF),
    _m("models.nomizu_algebra.self_s", _SELF),
    _m("models.transvection_algebra.self_s", _SELF),
    _m("models.model_stabilizer_algebra.self_s", _SELF),
    _m("models.bianchi_classify.self_s", _SELF),
    _m("models.verify_model_isomorphism.self_s", _SELF),
    _m("charts.self_s", _SELF),
    _m("charts.covariant_derivative.self_s", _SELF),
    _m("charts.covariant_derivative.calls", _COUNT),
    _m("charts.chart_curvature.self_s", _SELF),
    _m("charts.chart_curvature.calls", _COUNT),
    _m("charts.verify_as_conditions.self_s", _SELF),
    _m("charts.verify_linear_type_suite.self_s", _SELF),
    _m("charts.model_at_point.self_s", _SELF),
    _m("charts.metric_obstruction.self_s", _SELF),
    _m("charts.chart_from_json.self_s", _SELF),
    _m("reporting.checks.count", _COUNT, "higher"),
    _m("cli.self_s", _SELF),
    _m("cli.main.calls", _COUNT),
    _m("bench.self_s", _SELF),
    _m("trace.overhead_ratio", "ratio"),
    _m("trace.spans.count", _COUNT),
]

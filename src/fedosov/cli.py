"""Command-line interface.

Deterministic by construction: no randomness, no timestamps, stable key
order in machine-readable output.  Exit codes: 0 all checks passed or the
computation succeeded, 1 at least one verification check failed (the
report is still emitted), 2 malformed input, 3 an internal error (any
other exception, reported as one `internal error:` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import charts as ch
from . import decomposition as dec
from . import lineartype as lt
from . import models as mo
from .rationals import DegreeError, ParseError, PoleError, parse_ratfun
from .reporting import Check, Report
from .symplectic import (
    COV, CON, MAX_N, SymplecticSpace, Tensor, _is_int, _require_shape, cotorsion_lower,
    parse_fraction, tensor_from_json, tensor_to_json, torsion_lower,
)


class InputError(Exception):
    """Anything wrong with the command inputs (exit code 2)."""


# Python converts text to int in time quadratic in the digit count, and
# the limit it sets on that (4300 digits) is lifted while a command runs,
# so every number read is bounded here before anything converts it.
MAX_DIGITS = 4300
# a run of digits, with the single underscores `Fraction` accepts between them
_LONG_NUMBER = re.compile(rf"(?<![\d_])\d(?:_?\d){{{MAX_DIGITS}}}")


def _bound_digits(text: str, where: str) -> str:
    if _LONG_NUMBER.search(text):
        raise InputError(f"{where}: a number has more than {MAX_DIGITS} digits")
    return text


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise InputError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from None
    try:
        data = json.loads(_bound_digits(text, path))
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: invalid JSON at line {err.lineno}, column {err.colno}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object at the top level, "
                         f"got {type(data).__name__}")
    return data


def _read(path: str, parse):
    """`parse` applied to the JSON object in the file at `path`: the only way
    a file argument becomes an object.  A `ValueError` or `KeyError` from
    `parse` is malformed input, reported after the path."""
    data = _load_json(path)
    try:
        return parse(data)
    except (ValueError, KeyError) as err:
        raise InputError(f"{path}: {err}") from None


def _emit(args, command: str, report: Report, artifacts: dict | None = None) -> int:
    artifacts = artifacts or {}
    if args.json:
        payload = {"command": command, "checks": report.to_json(), "artifacts": artifacts}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render_text())
        for name in sorted(artifacts):
            print(f"artifact {name}: {json.dumps(artifacts[name], sort_keys=True)}")
    return 0 if report.passed else 1


def _parse_point(text: str, coords: tuple[str, ...]) -> dict[str, Fraction]:
    """The point `--at` assigns: one value for each of the chart's `coords`
    and for nothing else."""
    point = {}
    for piece in _bound_digits(text, "--at").split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise InputError(f"bad point assignment {piece!r}; expected name=value")
        name, value = piece.split("=", 1)
        name = name.strip()
        if name not in coords:
            raise InputError(f"--at: {name} is not a coordinate of the chart "
                             f"({', '.join(coords)})")
        if name in point:
            raise InputError(f"--at: {name} is given twice")
        try:
            point[name] = parse_fraction(value.strip())
        except ValueError:
            raise InputError(f"bad rational value in {piece!r}") from None
    if not point:
        raise InputError("empty point specification")
    missing = [c for c in coords if c not in point]
    if missing:
        raise InputError(f"--at: no value for {', '.join(missing)}")
    return point


def _load_tensor_arg(path: str, n: int, space_kind: str) -> Tensor:
    """The file's tensor as a (0,3) tensor, lowered from (1,2) if need be,
    checked to be antisymmetric (torsion) or symmetric in slots (1,2)."""
    if n < 1:
        raise InputError(f"--n must be >= 1, got {n}")
    if n > MAX_N:
        raise InputError(f"--n must be at most {MAX_N}, got {n}")
    tensor = _read(path, tensor_from_json)
    if tensor.dim != 2 * n:
        raise InputError(
            f"{path}: tensor declares n={tensor.dim // 2} but --n is {n}")
    space = SymplecticSpace(n)
    tensor = Tensor(tensor.dim, tensor.valence, tensor.comps, space=space)
    if tensor.valence not in ((COV, COV, COV), (COV, COV, CON)):
        raise InputError(f"{path}: expected a (0,3) or (1,2) tensor")
    try:
        if tensor.valence == (COV, COV, CON):
            tensor = (torsion_lower if space_kind == "torsion" else cotorsion_lower)(tensor)
        _require_shape(tensor, anti=space_kind == "torsion")
    except ValueError as err:
        raise InputError(f"{path}: {err}") from None
    return tensor


def _chart_from_args(args) -> ch.Chart:
    if args.chart in ch.EXAMPLE_FILES:
        return ch.load_example(args.chart)
    return _read(args.chart, ch.chart_from_json)


def _xi(chart: ch.Chart, args) -> Tensor:
    """The vector field that `--xi` names, `xi` by default."""
    name = args.xi or "xi"
    try:
        xi = chart.field_tensor(name)
    except KeyError:
        raise InputError(f"chart has no vector field {name!r}; name one with --xi") from None
    if xi.valence != (CON,):
        raise InputError(f"field {name!r} is not a vector field")
    return xi


def _structure_for_chart(chart: ch.Chart, args, needs_xi: bool = False) -> ch.ChartRun:
    """The run on the `--structure` field, or on the linear-type structure of
    `--xi`.  A given `--xi` is checked first either way; a run that
    `needs_xi` reads the default `xi` after the structure."""
    xi = _xi(chart, args) if args.xi or not args.structure else None
    if not args.structure:
        return ch.ChartRun(chart, xi=xi)
    try:
        tensor = chart.field_tensor(args.structure)
    except KeyError as err:
        raise InputError(err.args[0]) from None
    if tensor.valence != (COV, COV, CON):
        raise InputError(f"field {args.structure!r} is not a (1,2) tensor field")
    return ch.ChartRun(chart, tensor, _xi(chart, args) if needs_xi and xi is None else xi)


# -- subcommands ------------------------------------------------------------------


def cmd_dims(args) -> int:
    if args.n_max < 1:
        raise InputError(f"--n-max must be >= 1, got {args.n_max}")
    if args.n_max > MAX_N:
        raise InputError(f"--n-max must be at most {MAX_N}, got {args.n_max}")
    rows = dec.dimension_table(args.n_max)
    report = Report(title="class dimensions")
    artifacts = {"table": []}
    for row in rows:
        entry = {"n": row.n, **{k: v for k, v in sorted(row.computed.items())},
                 "ambient_cotorsion": row.ambient_cotorsion,
                 "ambient_torsion": row.ambient_torsion,
                 "notes": list(row.notes)}
        artifacts["table"].append(entry)
        sum_s = sum(row.computed[k] for k in dec.COTORSION_LABELS)
        sum_t = sum(row.computed[k] for k in dec.TORSION_LABELS)
        report.checks.append(Check(
            f"n={row.n}_cotorsion_sum", sum_s == row.ambient_cotorsion,
            f"{sum_s} vs ambient {row.ambient_cotorsion}"))
        report.checks.append(Check(
            f"n={row.n}_torsion_sum", sum_t == row.ambient_torsion,
            f"{sum_t} vs ambient {row.ambient_torsion}"))
    if not args.json:
        header = ["n", *dec.SUBMODULE_LABELS, "dim S-space", "dim T-space"]
        print("  ".join(f"{h:>4}" for h in header))
        for row in rows:
            cells = [row.n, *(row.computed[k] for k in dec.SUBMODULE_LABELS),
                     row.ambient_cotorsion, row.ambient_torsion]
            print("  ".join(f"{c:>4}" for c in cells))
        for row in rows:
            for note in row.notes:
                print(f"note (n={row.n}): {note}")
    return _emit(args, "dims", report, artifacts)


def cmd_decompose(args, classify_only: bool = False) -> int:
    tensor = _load_tensor_arg(args.tensor, args.n, args.space)
    result = (dec.decompose_torsion(tensor) if args.space == "torsion"
              else dec.decompose_cotorsion(tensor))
    labels = dec.TORSION_LABELS if args.space == "torsion" else dec.COTORSION_LABELS
    report = Report(title=f"{args.space} decomposition")
    for label in labels:
        nonzero = label in result.type_set
        report.checks.append(Check(f"{label}_part",
                                   True, "nonzero" if nonzero else "zero"))
    artifacts = {"type_set": sorted(result.type_set)}
    if not classify_only and args.parts:
        artifacts["parts"] = {label: tensor_to_json(result.part(label))
                              for label in labels}
    command = "classify" if classify_only else "decompose"
    if not args.json:
        print(f"type set: {{{', '.join(sorted(result.type_set)) or ''}}}")
        for label in labels:
            status = "nonzero" if label in result.type_set else "zero"
            print(f"  {label}: {status}")
    return _emit(args, command, report, artifacts)


def cmd_classify(args) -> int:
    return cmd_decompose(args, classify_only=True)


def cmd_symplectify(args) -> int:
    tensor = _load_tensor_arg(args.tensor, args.n, "torsion")
    try:
        s = dec.symplectify_torsion(tensor)
    except ValueError as err:
        report = Report(title="symplectification",
                        checks=[Check("solvable_in_cotorsion_space", False, str(err))])
        return _emit(args, "symplectify", report)
    report = Report(title="symplectification",
                    checks=[Check("solvable_in_cotorsion_space", True, None)])
    return _emit(args, "symplectify", report, {"structure": tensor_to_json(s)})


def cmd_check_model(args) -> int:
    model = _read(args.model, mo.model_from_json)
    return _emit(args, "check-model", mo.check_model_axioms(model))


def cmd_nomizu(args) -> int:
    algebra = _read(args.model, lambda data: mo.nomizu_algebra(mo.model_from_json(data)))
    h0 = algebra.subspaces.get("h0", ())
    report = Report(title="Nomizu construction", checks=[
        Check("jacobi_identity", True, None),
        Check("isotropy_dimension", True, str(len(h0))),
    ])
    return _emit(args, "nomizu", report,
                 {"presentation": mo.presentation_to_json(algebra)})


def cmd_transvection(args) -> int:
    algebra = _read(args.model, lambda data: mo.transvection_algebra(mo.model_from_json(data)))
    h0p = algebra.subspaces.get("h0", ())
    report = Report(title="transvection construction", checks=[
        Check("jacobi_identity", True, None),
        Check("contained_in_stabilizer", True, None),
        Check("holonomy_dimension", True, str(len(h0p))),
    ])
    return _emit(args, "transvection", report,
                 {"presentation": mo.presentation_to_json(algebra)})


def _three_dimensional_presentation(data: dict) -> mo.LieAlgebraPresentation:
    # Reject a wrong dimension before reading the constants, running the Jacobi
    # check and forming the default `dim` basis labels.
    dim = data.get("dim")
    if _is_int(dim) and dim != 3:
        raise InputError("Bianchi classification needs a 3-dimensional algebra")
    return mo.presentation_from_json(data)


def cmd_bianchi(args) -> int:
    algebra = _read(args.algebra, _three_dimensional_presentation)
    try:
        result = mo.bianchi_classify(algebra)
    except ValueError as err:
        raise InputError(str(err)) from None
    artifacts = {"type": result.tag}
    if result.parameters is not None:
        artifacts["parameters"] = sorted(str(p) for p in result.parameters)
    if result.invariant is not None:
        artifacts["trace_squared_over_det"] = str(result.invariant)
    if result.notes:
        artifacts["notes"] = result.notes
    report = Report(title="Bianchi classification",
                    checks=[Check("classified", True, result.tag)])
    return _emit(args, "bianchi", report, artifacts)


def cmd_verify_chart(args) -> int:
    if args.hamiltonian is not None and args.suite == "as":
        raise InputError("--hamiltonian needs --suite linear-type or all")
    chart = _chart_from_args(args)
    report = Report(title="chart verification")
    report.extend(ch.verify_chart_structure(chart))
    run = _structure_for_chart(chart, args, needs_xi=args.suite != "as")
    report.checks.extend(run.base_checks())
    if args.suite in ("as", "all"):
        report.checks.extend(run.parallelism_checks())
    if args.suite in ("linear-type", "all"):
        try:
            report.checks.extend(lt.linear_type_checks(run))
        except ValueError as err:
            raise InputError(str(err)) from None
        candidate = None
        if args.hamiltonian is not None:
            try:
                candidate = parse_ratfun(_bound_digits(args.hamiltonian, "--hamiltonian"),
                                         chart.coords)
            except ParseError as err:
                raise InputError(f"--hamiltonian: {err}") from None
        ham = lt.hamiltonian_oneform(chart, run.xi, candidate=candidate)
        report.checks.append(Check(
            "hamiltonian_oneform_closed", ham.closed,
            None if ham.closed else
            f"d(alpha) nonzero at {tuple(i + 1 for i in ham.closedness_witness)}"))
        if candidate is not None:
            report.checks.append(Check(
                "hamiltonian_candidate_matches", bool(ham.candidate_matches),
                None if ham.candidate_matches else
                "the differential of the candidate is not the contraction 1-form"))
    return _emit(args, "verify-chart", report)


def cmd_linear_type(args) -> int:
    chart = _chart_from_args(args)
    structure = ch.linear_type_structure(chart, _xi(chart, args))
    lowered = cotorsion_lower(structure, omega=chart.omega)
    bad = lowered.first_symmetry_violation(0, 1, anti=False)
    witness = None
    if bad is not None:
        i, j, k = bad
        witness = (f"S({i + 1},{j + 1},{k + 1}) = {lowered[i, j, k]} but "
                   f"S({j + 1},{i + 1},{k + 1}) = {lowered[j, i, k]}")
    report = Report(title="linear-type structure", checks=[
        Check("lowered_form_symmetric", bad is None, witness),
    ])
    return _emit(args, "linear-type", report, {"structure_field": ch.field_to_json(structure)})


def cmd_obstruction(args) -> int:
    chart = _chart_from_args(args)
    point = _parse_point(args.at, chart.coords)
    structure = _structure_for_chart(chart, args).structure
    try:
        s_point = ch.evaluate_tensor(structure, point)
        omega_p = ch.evaluate_matrix(chart.omega, point)
    except (PoleError, ValueError) as err:
        raise InputError(str(err)) from None
    try:
        verdict = lt.metric_obstruction(s_point, omega_p)
    except lt.NotLinearTypeError as err:
        raise InputError(str(err)) from None
    if verdict.degenerate_input:
        witness = "structure tensor vanishes; any nondegenerate metric works"
    else:
        witness = ("every compatible symmetric form is degenerate"
                   if verdict.obstructed else "a nondegenerate compatible metric exists")
    report = Report(title="metric obstruction", checks=[
        Check("verdict_computed", True, witness),
    ])
    artifacts = {
        "obstructed": verdict.obstructed,
        "degenerate_input": verdict.degenerate_input,
        "compatible_solution_dimension": verdict.solution_dimension,
    }
    if verdict.xi is not None:
        artifacts["xi"] = [str(v) for v in verdict.xi]
    return _emit(args, "obstruction", report, artifacts)


def cmd_model_at_point(args) -> int:
    chart = _chart_from_args(args)
    point = _parse_point(args.at, chart.coords)
    structure = _structure_for_chart(chart, args).structure
    try:
        model, basis = ch.model_at_point(chart, structure, point)
    except (PoleError, ValueError) as err:
        raise InputError(str(err)) from None
    report = mo.check_model_axioms(model)
    artifacts = {
        "model": mo.model_to_json(model),
        "basis_columns": [[str(basis[r][c]) for c in range(len(basis))]
                          for r in range(len(basis))],
    }
    return _emit(args, "model-at-point", report, artifacts)


def cmd_examples(args) -> int:
    if args.export:
        os.makedirs(args.export, exist_ok=True)
        written = []
        for name, filename in sorted(ch.EXAMPLE_FILES.items()):
            data = ch._load_fixture(filename)
            path = os.path.join(args.export, filename)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
                handle.write("\n")
            written.append(path)
        artifacts, lines = {"written": written}, [f"wrote {path}" for path in written]
    elif args.show:
        if args.show not in ch.EXAMPLE_FILES:
            raise InputError(f"unknown example {args.show!r}; "
                             f"choose from {sorted(ch.EXAMPLE_FILES)}")
        print(json.dumps(ch._load_fixture(ch.EXAMPLE_FILES[args.show]),
                         indent=2, sort_keys=True))
        return 0
    else:
        artifacts = {"available": sorted(ch.EXAMPLE_FILES)}
        lines = artifacts["available"]
    if args.json:
        return _emit(args, "examples", Report(title="examples"), artifacts)
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedosov",
        description="Exact-arithmetic verification toolkit for homogeneous "
                    "structures on symplectic and Fedosov manifolds.")
    parser.add_argument("--json", action="store_true", default=False,
                        help="machine-readable report on stdout")
    # accepted before or after the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[shared], **kw))

    p = sub.add_parser("dims", help="class dimension table")
    p.add_argument("--n-max", type=int, default=3)

    for name in ("decompose", "classify"):
        p = sub.add_parser(name, help=f"{name} a tensor into invariant classes")
        p.add_argument("tensor", help="tensor JSON file ((0,3) or (1,2))")
        p.add_argument("--space", choices=("torsion", "cotorsion"), required=True,
                       help="which lowering convention / ambient space applies")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--parts", action="store_true",
                       help="emit the exact component tensors of every part")

    p = sub.add_parser("symplectify",
                       help="solve for a cotorsion structure producing a torsion")
    p.add_argument("tensor")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("check-model", help="verify the infinitesimal model axioms")
    p.add_argument("model")

    p = sub.add_parser("nomizu", help="Nomizu construction of a model")
    p.add_argument("model")

    p = sub.add_parser("transvection", help="transvection algebra of a model")
    p.add_argument("model")

    p = sub.add_parser("bianchi", help="classify a 3-dimensional Lie algebra")
    p.add_argument("algebra")

    p = sub.add_parser("verify-chart", help="run chart verification suites")
    p.add_argument("chart", help="chart JSON file or built-in example name")
    p.add_argument("--suite", choices=("as", "linear-type", "all"), default="as")
    p.add_argument("--structure", help="(1,2) field name to use as the structure tensor")
    p.add_argument("--xi", help="vector field name for the linear-type structure")
    p.add_argument("--hamiltonian", metavar="TEXT",
                   help="candidate rational Hamiltonian to verify against the "
                        "contraction 1-form (linear-type suite only)")

    p = sub.add_parser("linear-type", help="build the linear-type structure field")
    p.add_argument("chart")
    p.add_argument("--xi")

    p = sub.add_parser("obstruction", help="pointwise metric-compatibility obstruction")
    p.add_argument("chart")
    p.add_argument("--at", required=True, help="point, e.g. x=1,y=0")
    p.add_argument("--structure")
    p.add_argument("--xi")

    p = sub.add_parser("model-at-point", help="evaluate a chart into a model")
    p.add_argument("chart")
    p.add_argument("--at", required=True)
    p.add_argument("--structure")
    p.add_argument("--xi")

    p = sub.add_parser("examples", help="list, show or export the built-in charts")
    p.add_argument("--export", metavar="DIR")
    p.add_argument("--show", metavar="NAME")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main` and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up when called, not bound into the shared parser, so that a
    # replaced `cmd_*` function (a test double, a profiler) is the one run.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    # Exact answers can have numerators and denominators longer than the
    # 4300 digits Python converts to text by default, so that limit is
    # lifted for this run.  Older Pythons have no such limit.
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return command(args)
    except (InputError, ParseError, DegreeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, never "a check failed"
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 usage/parse error (including a negative --seed,
or a --tol that is negative or not finite), 2 degenerate parameters,
3 unreachable/excluded evaluation point or path, a path segment longer
than the largest float, a series or an integration that exhausts its term
or step budget (a polynomial of degree 10^4 or more included), or a
value that overflows to an infinity or NaN (derived parameters
included), 4 verification failure.
"""

import argparse
import csv
import json
import math
import sys
from typing import List, Optional

import numpy as np

from . import closed_form, selftest
from .closed_form import DegeneracyClass, EquationParams, derive_params, solution_jets
from .errors import (
    DegenerateBasis,
    DegenerateWronskian,
    EvaluationUnreachable,
    NoConvergence,
    NonFinitePath,
    NonFiniteParameters,
    NonFiniteSolution,
    OnBranchCut,
    PathTooCloseToSingularity,
    PoleAtMinusI,
    StepLimitExceeded,
    ZeroBaseNonpositiveExponent,
)
from .oracle import (
    IntegrationControl,
    PathSpec,
    compare_closed_numeric,
    integrate_ivp,
    residual_scale,
    residual_z,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_UNREACHABLE = 3
EXIT_VERIFY_FAILED = 4

CSV_HEADER = ["z_re", "z_im", "y_re", "y_im", "dy_re", "dy_im", "residual_abs"]

#: Errors that make one evaluation point unusable: exit 3.
POINT_ERRORS = (EvaluationUnreachable, OnBranchCut, PoleAtMinusI,
                ZeroBaseNonpositiveExponent)


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    """Parse the "RE,IM" literal; rejects NaN and infinities."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"complex literal must be RE,IM: {text!r}")
    return _finite_complex(parts[0], parts[1], text)


def _finite_complex(re_text: str, im_text: str, literal: str) -> complex:
    try:
        re, im = float(re_text), float(im_text)
    except ValueError as exc:
        raise UsageError(f"bad complex literal {literal!r}: {exc}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise UsageError(f"complex literal must be finite: {literal!r}")
    return complex(re, im)


def render_complex(x: complex) -> list:
    return [x.real, x.imag]


def parse_path(text: str) -> List[complex]:
    points = [parse_complex(p) for p in text.split(";") if p != ""]
    if len(points) < 2:
        raise UsageError(f"path needs at least two waypoints: {text!r}")
    return points


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let option values like "-0.25,0" pass as arguments
        import re
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _add_abc(sp):
    sp.add_argument("--a", required=True, help="coefficient a as RE,IM")
    sp.add_argument("--b", required=True, help="coefficient b as RE,IM")
    sp.add_argument("--c", required=True, help="coefficient c as RE,IM")


def _params_arguments(sp):
    _add_abc(sp)
    sp.add_argument("--json", action="store_true", dest="as_json")


def _eval_arguments(sp):
    _add_abc(sp)
    sp.add_argument("--c1", default="1,0", help="coefficient of the first basis member")
    sp.add_argument("--c2", default="0,0", help="coefficient of the second basis member")
    sp.add_argument("--z", action="append", default=None,
                    help="evaluation point RE,IM (repeatable)")
    sp.add_argument("--points", default=None,
                    help="CSV file with z_re,z_im columns")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _verify_arguments(sp):
    _add_abc(sp)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)


def _integrate_arguments(sp):
    _add_abc(sp)
    sp.add_argument("--path", required=True, help='waypoints "RE,IM;RE,IM;..."')
    sp.add_argument("--y0", required=True, help="initial value RE,IM")
    sp.add_argument("--dy0", required=True, help="initial derivative RE,IM")
    sp.add_argument("--out", choices=("csv", "json"), default="csv")


def _selftest_arguments(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--quick", action="store_true")


#: Subcommands: name, help line and the function adding their arguments.
_COMMANDS = (
    ("params", "derive hypergeometric parameters", _params_arguments),
    ("eval", "evaluate the closed-form solution", _eval_arguments),
    ("verify", "check closed form against the integrator", _verify_arguments),
    ("integrate", "integrate the ODE along a path", _integrate_arguments),
    ("selftest", "run the built-in invariant suites", _selftest_arguments),
)


def _build_parser(command: Optional[str] = None) -> _Parser:
    """The parser, with the arguments of the subcommand `command` only:
    adding those of all five costs more than a one-point evaluation, and
    a request parses one subcommand's."""
    parser = _Parser(prog="papperitz",
                     description="Closed-form solutions of "
                                 "(1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y = 0")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments in _COMMANDS:
        sp = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(sp)
    return parser


def _derived_dict(d) -> dict:
    return {
        "delta": render_complex(d.delta),
        "delta_star": render_complex(d.delta_star),
        "lambda": render_complex(d.lam),
        "lambda2": render_complex(d.lam2),
        "alpha": render_complex(d.alpha),
        "beta": render_complex(d.beta),
        "gamma": render_complex(d.gamma),
        "degeneracy": d.degeneracy.value,
    }


def _params_dict(p: EquationParams) -> dict:
    return {"a": render_complex(p.a), "b": render_complex(p.b),
            "c": render_complex(p.c)}


def cmd_params(args) -> int:
    p = EquationParams(parse_complex(args.a), parse_complex(args.b),
                       parse_complex(args.c))
    d = derive_params(p)
    if args.as_json:
        json.dump({"params": _params_dict(p), "derived": _derived_dict(d)},
                  sys.stdout)
        sys.stdout.write("\n")
    else:
        for key, val in _derived_dict(d).items():
            print(f"{key} = {val}")
    return EXIT_OK


def _read_points(path: str) -> List[complex]:
    """The z_re,z_im rows of a CSV file; every value must parse as a
    finite number, as for --z."""
    points: List[complex] = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if not {"z_re", "z_im"} <= set(reader.fieldnames or ()):
                raise UsageError(f"points file {path!r} needs z_re and z_im columns")
            for row in reader:
                re, im = row["z_re"], row["z_im"]
                where = f"points file {path!r}, line {reader.line_num}"
                if re is None or im is None:
                    raise UsageError(f"{where}: missing z_re or z_im value")
                try:
                    points.append(_finite_complex(re, im, f"{re},{im}"))
                except UsageError as exc:
                    raise UsageError(f"{where}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read points file {path!r}: {exc}") from exc
    return points


def _eval_points(args) -> List[complex]:
    points: List[complex] = []
    if args.z:
        points.extend(parse_complex(z) for z in args.z)
    if args.points:
        points.extend(_read_points(args.points))
    if not points:
        raise UsageError("no evaluation points given (use --z or --points)")
    return points


def cmd_eval(args) -> int:
    p = EquationParams(parse_complex(args.a), parse_complex(args.b),
                       parse_complex(args.c))
    c1 = parse_complex(args.c1)
    c2 = parse_complex(args.c2)
    d = derive_params(p)
    points = _eval_points(args)
    z = np.array(points)
    # an overflow shows as a row that is not finite, reported below
    with np.errstate(all="ignore"):
        jet, fault = solution_jets(d, c1, c2, z)
        columns = (z.real, z.imag, jet.y.real, jet.y.imag, jet.dy.real,
                   jet.dy.imag, np.abs(residual_z(p, jet, z)))
    evaluated = len(points) if fault is None else fault[0]
    finite = np.isfinite(columns[2:]).all(axis=0)[:evaluated]
    if not finite.all():
        i = int(finite.argmin())
        print(f"point z={points[i]} not evaluable: its row is not finite "
              f"(y={complex(jet.y[i])}, dy={complex(jet.dy[i])}, "
              f"residual_abs={float(columns[6][i])})", file=sys.stderr)
        return EXIT_UNREACHABLE
    if fault is not None:
        i, exc = fault
        if isinstance(exc, DegenerateBasis):
            print(f"degenerate basis at z={points[i]}: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        if isinstance(exc, POINT_ERRORS):
            print(f"point z={points[i]} not evaluable: {exc}", file=sys.stderr)
            return EXIT_UNREACHABLE
        raise exc
    # tolist() gives Python floats, whose repr the CSV rows rely on
    rows = [dict(zip(CSV_HEADER, values))
            for values in zip(*(c.tolist() for c in columns))]
    if args.format == "json":
        json.dump({"params": _params_dict(p), "derived": _derived_dict(d),
                   "rows": rows}, sys.stdout)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([repr(row[k]) for k in CSV_HEADER])
    return EXIT_OK


def _check_seed(seed: int):
    if seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {seed}")


def cmd_verify(args) -> int:
    if args.samples < 0:
        raise UsageError(f"--samples must be nonnegative, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, got {args.tol}")
    _check_seed(args.seed)
    p = EquationParams(parse_complex(args.a), parse_complex(args.b),
                       parse_complex(args.c))
    d = derive_params(p)
    if d.degeneracy is not DegeneracyClass.GENERIC:
        print(f"degenerate parameters ({d.degeneracy.value}); "
              f"verification out of scope", file=sys.stderr)
        return EXIT_DEGENERATE
    rng = np.random.default_rng(args.seed)
    try:
        report = compare_closed_numeric(p, d, 1.0, 0.3,
                                        PathSpec(selftest.DEFAULT_PATH))
        max_res_ratio = 0.0
        from .closed_form import BasisMember, eval_basis
        for _ in range(args.samples):
            z = selftest.sample_reachable_point(d, rng)
            for which in BasisMember:
                jet = eval_basis(d, which, z)
                ratio = abs(residual_z(p, jet, z)) / residual_scale(z, jet)
                max_res_ratio = max(max_res_ratio, ratio)
    except DegenerateBasis as exc:
        print(f"degenerate basis: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    print(f"max_abs_err = {report.max_abs_err!r}")
    print(f"max_rel_err = {report.max_rel_err!r}")
    print(f"max_residual_ratio = {max_res_ratio!r}")
    ok = report.max_rel_err <= args.tol and max_res_ratio <= args.tol
    print("verify: pass" if ok else "verify: FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_integrate(args) -> int:
    p = EquationParams(parse_complex(args.a), parse_complex(args.b),
                       parse_complex(args.c))
    waypoints = parse_path(args.path)
    try:
        path = PathSpec(waypoints)
    except (PathTooCloseToSingularity, NonFinitePath) as exc:
        print(f"invalid path: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    samples = integrate_ivp(p, path, parse_complex(args.y0),
                            parse_complex(args.dy0))
    rows = [{"z_re": z.real, "z_im": z.imag,
             "y_re": y.real, "y_im": y.imag,
             "dy_re": dy.real, "dy_im": dy.imag}
            for z, y, dy in samples]
    if args.out == "json":
        json.dump({"params": _params_dict(p), "rows": rows}, sys.stdout)
        sys.stdout.write("\n")
    else:
        cols = CSV_HEADER[:-1]
        writer = csv.writer(sys.stdout)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([repr(row[k]) for k in cols])
    return EXIT_OK


def cmd_selftest(args) -> int:
    _check_seed(args.seed)
    ok = selftest.run_selftest(seed=args.seed, quick=args.quick)
    print("selftest: pass" if ok else "selftest: FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no option values: the first word that is
    # not an option is the subcommand
    command = next((word for word in argv if not word.startswith("-")), None)
    args = _build_parser(command).parse_args(argv)
    handlers = {
        "params": cmd_params,
        "eval": cmd_eval,
        "verify": cmd_verify,
        "integrate": cmd_integrate,
        "selftest": cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"papperitz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateWronskian as exc:
        print(f"papperitz: degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (NoConvergence, NonFiniteParameters, NonFiniteSolution,
            StepLimitExceeded) as exc:
        print(f"papperitz: error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE


if __name__ == "__main__":
    sys.exit(main())

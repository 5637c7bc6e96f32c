"""Command-line interface.

Exit codes: 0 success, 1 usage/parse error (including a negative --seed
or --samples, or a --tol that is negative or not finite), 2 degenerate
parameters, 3 unreachable/excluded evaluation point or path, a path
waypoint beyond |z| = 1e77, a series or an integration that
exhausts its term or step budget (a polynomial of degree 10^4 or more
included), or a value that overflows to an infinity or NaN (derived
parameters included), 4 verification failure.  A library error ends the
command with the exit code its class in papperitz.errors declares.
"""

import argparse
import math
import sys
from typing import List, Optional

from .errors import (DegenerateBasis, NonFinitePath, PapperitzError,
                     PathTooCloseToSingularity, PointError)
from .params import DegeneracyClass, EquationParams, derive_params

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_UNREACHABLE = 3
EXIT_VERIFY_FAILED = 4

CSV_HEADER = ["z_re", "z_im", "y_re", "y_im", "dy_re", "dy_im", "residual_abs"]


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    """Parse the "RE,IM" literal; rejects NaN and infinities."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"complex literal must be RE,IM: {text!r}")
    return _finite_complex(parts[0], parts[1])


def _finite_complex(re_text: str, im_text: str) -> complex:
    """The complex number of the literal "re_text,im_text"."""
    try:
        re, im = float(re_text), float(im_text)
    except ValueError as exc:
        raise UsageError(f"bad complex literal {re_text + ',' + im_text!r}: "
                         f"{exc}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise UsageError(f"complex literal must be finite: "
                         f"{re_text + ',' + im_text!r}")
    return complex(re, im)


def render_complex(x: complex) -> list:
    return [x.real, x.imag]


def _equation(args) -> EquationParams:
    return EquationParams(parse_complex(args.a), parse_complex(args.b),
                          parse_complex(args.c))


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
    p = _equation(args)
    d = derive_params(p)
    if args.as_json:
        _write_json({"params": _params_dict(p), "derived": _derived_dict(d)})
    else:
        for key, val in _derived_dict(d).items():
            print(f"{key} = {val}")
    return EXIT_OK


def _read_points(path: str) -> List[complex]:
    """The z_re,z_im rows of a CSV file; every value must parse as a
    finite number, as for --z.  The first row is the header, where the last
    of a repeated column name counts; blank rows are skipped, and extra
    columns and values are ignored, as the csv module's dict reader reads
    them."""
    import csv
    points: List[complex] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = csv.reader(fh)
            # the index of the last column of each name in the header
            columns = {name: i for i, name in enumerate(next(rows, ()))}
            if not {"z_re", "z_im"} <= columns.keys():
                raise UsageError(f"points file {path!r} needs z_re and z_im columns")
            i_re, i_im = columns["z_re"], columns["z_im"]
            width = max(i_re, i_im) + 1
            try:
                for row in rows:
                    if len(row) >= width:
                        points.append(_finite_complex(row[i_re], row[i_im]))
                    elif row:
                        raise UsageError("missing z_re or z_im value")
            except UsageError as exc:
                raise UsageError(f"points file {path!r}, line "
                                 f"{rows.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UsageError(f"cannot read points file {path!r}: {exc}") from exc
    return points


def _write_json(obj):
    import json
    sys.stdout.write(json.dumps(obj) + "\n")


def _write_rows(header: List[str], rows, as_json: bool, head: dict):
    """Rows of Python floats in the order of header, as CSV, or as JSON
    objects under "rows" after the entries of head, either written as one
    string.  A CSV float is its repr, which holds no delimiter, quote or
    line break: the bytes the csv module's writer writes."""
    if as_json:
        _write_json({**head, "rows": [dict(zip(header, row)) for row in rows]})
    else:
        lines = [",".join(header)]
        lines.extend(",".join(map(repr, row)) for row in rows)
        lines.append("")
        sys.stdout.write("\r\n".join(lines))


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
    p = _equation(args)
    c1 = parse_complex(args.c1)
    c2 = parse_complex(args.c2)
    d = derive_params(p)
    points = _eval_points(args)
    # numpy, the array modules and the oracle load on first use, so that
    # the commands and usage errors that need none of them start without them
    import numpy as np

    from .closed_form import solution_jets
    from .oracle import residual_z
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
        elif isinstance(exc, PointError):
            print(f"point z={points[i]} not evaluable: {exc}", file=sys.stderr)
        else:
            raise exc
        return exc.exit_code
    # tolist() gives Python floats, whose repr the rows rely on
    _write_rows(CSV_HEADER, zip(*(c.tolist() for c in columns)),
                args.format == "json",
                {"params": _params_dict(p), "derived": _derived_dict(d)})
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
    p = _equation(args)
    d = derive_params(p)
    if d.degeneracy is not DegeneracyClass.GENERIC:
        print(f"degenerate parameters ({d.degeneracy.value}); "
              f"verification out of scope", file=sys.stderr)
        return EXIT_DEGENERATE
    import numpy as np

    from . import selftest
    # an overflow fails the check or raises a structured error, as in
    # cmd_eval; both members of a Generic set exist
    with np.errstate(all="ignore"):
        report = selftest.oracle_agreement(p, d)
        ratios = selftest.residual_ratios(
            p, d, np.random.default_rng(args.seed), args.samples)
    # np.max keeps a NaN ratio, which fails the check below
    max_res_ratio = float(np.max(ratios, initial=0.0))
    print(f"max_abs_err = {report.max_abs_err!r}")
    print(f"max_rel_err = {report.max_rel_err!r}")
    print(f"max_residual_ratio = {max_res_ratio!r}")
    ok = report.max_rel_err <= args.tol and max_res_ratio <= args.tol
    print("verify: pass" if ok else "verify: FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_integrate(args) -> int:
    from .oracle import PathSpec, integrate_ivp
    p = _equation(args)
    waypoints = parse_path(args.path)
    try:
        path = PathSpec(waypoints)
    except (PathTooCloseToSingularity, NonFinitePath) as exc:
        print(f"invalid path: {exc}", file=sys.stderr)
        return exc.exit_code
    samples = integrate_ivp(p, path, parse_complex(args.y0),
                            parse_complex(args.dy0))
    _write_rows(CSV_HEADER[:-1],
                ((z.real, z.imag, y.real, y.imag, dy.real, dy.imag)
                 for z, y, dy in samples),
                args.out == "json", {"params": _params_dict(p)})
    return EXIT_OK


def cmd_selftest(args) -> int:
    _check_seed(args.seed)
    from . import selftest
    ok = selftest.run_selftest(seed=args.seed, quick=args.quick)
    print("selftest: pass" if ok else "selftest: FAIL")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


#: Subcommands: name, and the help line, the function adding the arguments
#: and the handler of each.
_COMMANDS = {
    "params": ("derive hypergeometric parameters", _params_arguments,
               cmd_params),
    "eval": ("evaluate the closed-form solution", _eval_arguments, cmd_eval),
    "verify": ("check closed form against the integrator", _verify_arguments,
               cmd_verify),
    "integrate": ("integrate the ODE along a path", _integrate_arguments,
                  cmd_integrate),
    "selftest": ("run the built-in invariant suites", _selftest_arguments,
                 cmd_selftest),
}


def _build_parser(argv: List[str]) -> _Parser:
    """The tree of all five subparsers, for an argv not led by its command,
    so that its help and usage errors name every command.  Only the first
    word that is not an option gets its arguments: the top-level parser
    takes no option values, so that word is the subcommand."""
    command = next((word for word in argv if not word.startswith("-")), None)
    parser = _Parser(prog="papperitz",
                     description="Closed-form solutions of "
                                 "(1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y = 0")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(sp)
    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """argv parsed as the tree of _build_parser parses it.  A request led by
    its command is parsed by that command's parser alone: the tree hands
    that subparser every word after the command, and building the tree
    costs more than a one-point evaluation.  The one error the tree's
    top-level parser adds, for words the subparser leaves over, is reported
    in its words."""
    if not argv or argv[0] not in _COMMANDS:
        return _build_parser(argv).parse_args(argv)
    command = argv[0]
    parser = _Parser(prog=f"papperitz {command}")
    _COMMANDS[command][1](parser)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        from gettext import gettext
        message = gettext("unrecognized arguments: %s") % " ".join(extras)
        parser.exit(EXIT_USAGE, f"papperitz: error: {message}\n")
    args.command = command
    return args


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command of argv (sys.argv[1:] by default) and return its exit
    code; argparse exits by SystemExit on a usage error or help.  No object
    is carried from one call to the next."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"papperitz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PapperitzError as exc:
        print(f"papperitz: error: {exc}", file=sys.stderr)
        return exc.exit_code

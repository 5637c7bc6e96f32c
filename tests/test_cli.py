import csv
import io
import json
import math

import pytest

from papperitz import cli


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex():
    assert cli.parse_complex("1.5,-0.25") == complex(1.5, -0.25)
    for bad in ("1.5", "1,2,3", "a,b", "nan,0", "0,inf"):
        with pytest.raises(cli.UsageError):
            cli.parse_complex(bad)


def test_complex_literal_round_trip():
    values = [0.1, -1.5e-300, 3.141592653589793, 2**-52, -0.0]
    for re in values:
        for im in values:
            z = complex(re, im)
            rendered = f"{z.real!r},{z.imag!r}"
            assert cli.parse_complex(rendered) == z


def test_params_trivial(capsys):
    code, out, _ = run_cli(capsys, "params", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["derived"]["lambda"] == [1.0, 0.0]
    assert data["derived"]["gamma"] == [2.0, 0.0]
    assert data["derived"]["degeneracy"] == "Generic"


def test_params_complex(capsys):
    code, out, _ = run_cli(capsys, "params", "--a", "1,0", "--b", "0,0",
                           "--c", "1,0", "--json")
    assert code == 0
    lam = json.loads(out)["derived"]["lambda"]
    s = math.sqrt(2) / 2
    assert abs(lam[0] - s) < 1e-12 and abs(lam[1] - s) < 1e-12


def test_params_degenerate_reports_not_fails(capsys):
    code, out, _ = run_cli(capsys, "params", "--a", "0,0", "--b", "-0.25,0",
                           "--c", "0,0", "--json")
    assert code == 0
    assert json.loads(out)["derived"]["degeneracy"] == "RepeatedExponent"


def test_params_text_output(capsys):
    code, out, _ = run_cli(capsys, "params", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0")
    assert code == 0
    assert "lambda = [1.0, 0.0]" in out


def test_usage_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "params", "--a", "bogus", "--b", "0,0",
                           "--c", "0,0")
    assert code == 1
    assert "error" in err


def test_unknown_command_exit_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_eval_elementary(capsys):
    code, out, _ = run_cli(capsys, "eval", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--c1", "0,2", "--c2", "0,0",
                           "--z", "3,0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [f.strip() for f in rows[0].keys()] == cli.CSV_HEADER
    assert abs(float(rows[0]["y_re"]) - 3) < 1e-12
    assert abs(float(rows[0]["y_im"]) - (-1)) < 1e-12


def test_eval_constant_solution(capsys):
    code, out, _ = run_cli(capsys, "eval", "--a", "0.5,0", "--b", "0,0",
                           "--c", "0,0", "--c1", "0,0", "--c2", "1,0",
                           "--z", "0,0.5")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert abs(float(row["y_re"]) - 1) < 1e-12
    assert abs(float(row["y_im"])) < 1e-12
    assert float(row["residual_abs"]) <= 1e-10


def test_eval_pole_exit_3(capsys):
    code, _, err = run_cli(capsys, "eval", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--z", "0,-1")
    assert code == 3
    assert "-1" in err


def test_eval_unreachable_exit_3(capsys):
    # z = -sqrt(3): t = e^{-i pi/3}, all region moduli about 1
    code, _, err = run_cli(capsys, "eval", "--a", "0.3,0.1", "--b", "0.2,0",
                           "--c", "0.1,0.2", "--z", "-1.7320508075688772,0")
    assert code == 3
    assert "not evaluable" in err


def test_eval_degenerate_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--a", "0,0", "--b", "-0.25,0",
                           "--c", "0,0", "--c1", "1,0", "--c2", "1,0",
                           "--z", "0,2")
    assert code == 2
    assert "degenerate" in err.lower()


def test_eval_points_file(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    pts.write_text("z_re,z_im\n3.0,0.0\n0.5,1.5\n")
    code, out, _ = run_cli(capsys, "eval", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--c1", "0,2", "--points", str(pts))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert abs(float(rows[1]["y_re"]) - 0.5) < 1e-12


def test_eval_csv_json_round_trip(capsys):
    args = ("--a", "0.3,0.2", "--b", "0.7,-0.1", "--c", "0.2,0.4",
            "--c1", "1,0.5", "--c2", "0.25,0", "--z", "0.5,1.5",
            "--z", "-1,2")
    code, out_csv, _ = run_cli(capsys, "eval", *args, "--format", "csv")
    assert code == 0
    code, out_json, _ = run_cli(capsys, "eval", *args, "--format", "json")
    assert code == 0
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    json_rows = json.loads(out_json)["rows"]
    assert len(csv_rows) == len(json_rows) == 2
    for crow, jrow in zip(csv_rows, json_rows):
        for key in cli.CSV_HEADER:
            assert float(crow[key]) == jrow[key]  # bit-exact round trip


def test_verify_elementary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("max_rel_err")][0]
    assert float(line.split("=")[1]) <= 1e-8


def test_verify_generic(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "1,0", "--b", "0,0",
                           "--c", "1,0", "--tol", "1e-6")
    assert code == 0


def test_verify_degenerate_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--a", "0,0", "--b", "-0.25,0",
                           "--c", "0,0")
    assert code == 2


def test_verify_impossible_tol_exit_4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--a", "1,0", "--b", "0,0",
                           "--c", "1,0", "--tol", "1e-18")
    assert code == 4
    assert "FAIL" in out


def test_verify_seed_deterministic(capsys):
    args = ("verify", "--a", "1,0", "--b", "0,0", "--c", "1,0",
            "--tol", "1e-6", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_integrate_trivial(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--path", "0,0;2,0",
                           "--y0", "1,0", "--dy0", "0,0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert abs(float(rows[-1]["y_re"]) - 1) < 1e-10
    code, out, _ = run_cli(capsys, "integrate", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--path", "0,0;2,0",
                           "--y0", "0,0", "--dy0", "1,0")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert abs(float(rows[-1]["y_re"]) - 2) < 1e-9


def test_integrate_bad_path_exit_1(capsys):
    code, _, err = run_cli(capsys, "integrate", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--path", "0,0", "--y0", "1,0",
                           "--dy0", "0,0")
    assert code == 1


def test_integrate_near_singularity_exit_3(capsys):
    code, _, err = run_cli(capsys, "integrate", "--a", "0,0", "--b", "0,0",
                           "--c", "0,0", "--path", "0,0.95;0,1.05",
                           "--y0", "1,0", "--dy0", "0,0")
    assert code == 3


def test_selftest_quick(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--quick", "--seed", "3")
    assert code == 0
    assert "selftest: pass" in out
    assert out.count("/") >= 4  # per-suite pass counts


def test_selftest_seed_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "selftest", "--quick", "--seed", "5")
    _, out2, _ = run_cli(capsys, "selftest", "--quick", "--seed", "5")
    assert out1 == out2


def test_selftest_detects_mutation(capsys, monkeypatch):
    # sanity check: corrupting the parameter derivation must trip the suites
    from papperitz import closed_form
    from papperitz.closed_form import EquationParams, derive_params

    real = derive_params

    def mutated(p):
        return real(EquationParams(p.a, p.b, -p.c))

    monkeypatch.setattr(closed_form, "derive_params", mutated)
    code, out, _ = run_cli(capsys, "selftest", "--quick", "--seed", "3")
    assert code == 4
    assert "FAIL" in out


EVAL_ABC = ("--a", "0.3,0.1", "--b", "0.2,0", "--c", "0.1,0.2")


def _points_file(tmp_path, rows, header="z_re,z_im"):
    path = tmp_path / "points.csv"
    path.write_text(header + "\n" + "".join(f"{r}\n" for r in rows))
    return str(path)


def test_eval_points_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "absent.csv")
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", missing)
    assert code == 1 and out == ""
    assert "absent.csv" in err


def test_eval_points_missing_column(tmp_path, capsys):
    path = _points_file(tmp_path, ["0.5,1.5"], header="z_re,zz")
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", path)
    assert code == 1 and out == ""
    assert "points.csv" in err and "z_im" in err


def test_eval_points_unparsable_value(tmp_path, capsys):
    path = _points_file(tmp_path, ["0.5,1.5", "abc,1"])
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", path)
    assert code == 1 and out == ""
    assert "points.csv" in err and "line 3" in err


@pytest.mark.parametrize("bad", ["nan,1", "0.5,inf", "-inf,2"])
def test_eval_points_nonfinite_value(tmp_path, capsys, bad):
    path = _points_file(tmp_path, ["0.5,1.5", bad])
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", path)
    assert code == 1 and out == ""
    assert "points.csv" in err and "line 3" in err and "finite" in err


def test_eval_no_convergence_exit_3(capsys, monkeypatch):
    from papperitz import hypergeom

    monkeypatch.setattr(hypergeom, "MAX_TERMS", 5)
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--z", "0.5,1.5")
    assert code == 3 and out == ""
    assert err.startswith("papperitz: error:") and len(err.splitlines()) == 1
    assert "did not converge" in err


def test_integrate_step_limit_exit_3(capsys, monkeypatch):
    import functools

    from papperitz.oracle import IntegrationControl

    tiny = IntegrationControl(max_steps=3)
    monkeypatch.setattr(cli, "integrate_ivp",
                        functools.partial(cli.integrate_ivp, ctrl=tiny))
    code, out, err = run_cli(capsys, "integrate", *EVAL_ABC, "--path", "0,0;2,0",
                             "--y0", "1,0", "--dy0", "0,0")
    assert code == 3 and out == ""
    assert err.startswith("papperitz: error:") and len(err.splitlines()) == 1
    assert "step budget" in err


def test_eval_at_z_equals_i_exit_3(capsys):
    # t = 0: the power t^(lambda-2) of the second derivative has no value
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--z", "0,1")
    assert code == 3 and out == ""
    assert "not evaluable" in err


def test_verify_negative_samples_exit_1(capsys):
    code, out, err = run_cli(capsys, "verify", "--a", "1,0", "--b", "0,0",
                             "--c", "1,0", "--samples", "-5")
    assert code == 1 and out == ""
    assert "--samples" in err


def test_selftest_default_seed_passes(capsys):
    # seed 0 is the default; its Pfaff check once drew |t/(t-1)| = 0.994
    code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0
    assert out.endswith("selftest: pass\n")


# Points of every strategy: with these generic parameters the two members
# take different Pfaff strategies, and a = 2, b = 3, c = 0 (with c2 = 0)
# makes the first member a polynomial times t^lambda.
BATCH_CASES = [
    (("--a", "0.3,0.1", "--b", "0.2,0", "--c", "0.1,0.2", "--c2", "0.4,-0.2"),
     ["0.5,1.5", "-1,2", "0.2,0.9", "3,-1.2", "1.2,0.3", "0.6,0.2",
      "-0.9,0.1", "4,-1.5", "0.1,0.4", "-3.1,-1.3"]),
    (("--a", "2,0", "--b", "3,0", "--c", "0,0", "--c2", "0,0"),
     ["0,0", "0.5,1.5", "3,-2", "-1.5,-0.5", "0.2,-4"]),
]


def _csv_rows(out):
    lines = out.splitlines()
    return lines[0], lines[1:]


@pytest.mark.parametrize("args,points", BATCH_CASES)
def test_points_rows_match_single_points(tmp_path, capsys, args, points):
    # one --z request per point against one --points request, in order and
    # shuffled: each row must be the same bytes
    singles = []
    for z in points:
        code, out, err = run_cli(capsys, "eval", *args, "--z", z)
        assert code == 0, err
        singles.append(_csv_rows(out)[1][0])
    path = _points_file(tmp_path, points)
    code, out, _ = run_cli(capsys, "eval", *args, "--points", path)
    assert code == 0
    assert _csv_rows(out)[1] == singles
    order = list(range(len(points)))[::-1]
    order = order[1::2] + order[::2]
    path = _points_file(tmp_path, [points[i] for i in order])
    code, out, _ = run_cli(capsys, "eval", *args, "--points", path)
    assert code == 0
    assert _csv_rows(out)[1] == [singles[i] for i in order]


def test_batch_cases_cover_every_strategy():
    from papperitz.closed_form import (BasisMember, EquationParams,
                                       basis_hyp_params, derive_params)
    from papperitz.hypergeom import EvalStrategy, select_strategy
    from papperitz.mobius import z_to_t

    seen = set()
    for args, points in BATCH_CASES:
        p = EquationParams(*(cli.parse_complex(args[i]) for i in (1, 3, 5)))
        d = derive_params(p)
        members = [BasisMember.FIRST] + [BasisMember.SECOND] * (args[-1] != "0,0")
        for z in points:
            t = z_to_t(cli.parse_complex(z))
            for which in members:
                seen.add(select_strategy(basis_hyp_params(d, which), t))
    assert seen == set(EvalStrategy) - {EvalStrategy.UNREACHABLE}
    assert any(args[-1] == "0,0" for args, _ in BATCH_CASES)  # c2 = 0


def test_points_first_failure_decides(tmp_path, capsys):
    # 3rd point is the pole z = -i, 5th is unreachable (z = -sqrt(3))
    rows = ["0.5,1.5", "-1,2", "0,-1", "0.2,0.9", "-1.7320508075688772,0"]
    path = _points_file(tmp_path, rows)
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", path)
    assert code == 3 and out == ""
    assert err.startswith("point z=-1j not evaluable")
    assert len(err.splitlines()) == 1
    # with the pole gone, the unreachable point is the first failure
    path = _points_file(tmp_path, rows[:2] + rows[3:])
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", path)
    assert code == 3 and out == ""
    assert "-1.7320508075688772" in err and "no evaluation strategy" in err


def test_points_degenerate_basis_exit_2(tmp_path, capsys):
    path = _points_file(tmp_path, ["0,2", "0.5,1.5", "0,-1"])
    code, out, err = run_cli(capsys, "eval", "--a", "0,0", "--b", "-0.25,0",
                             "--c", "0,0", "--c1", "1,0", "--c2", "1,0",
                             "--points", path)
    assert code == 2 and out == ""
    assert "degenerate basis at z=2j" in err


@pytest.mark.parametrize("command,option", [
    ("params", "--json"), ("eval", "--points"), ("verify", "--samples"),
    ("integrate", "--dy0"), ("selftest", "--quick")])
def test_subcommand_help_lists_its_options(capsys, command, option):
    # a request builds only its own subcommand's arguments
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert option in capsys.readouterr().out


ZERO_ABC = ("--a", "0,0", "--b", "0,0", "--c", "0,0")


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_integrate_non_finite_exit_3(capsys, out_format):
    # y'' = 0 from y = y' = 1e308: y overflows, and a NaN step once passed
    # the error test as err = 0
    code, out, err = run_cli(capsys, "integrate", *ZERO_ABC,
                             "--path", "0.5,0;3,0", "--y0", "1e308,0",
                             "--dy0", "1e308,0", "--out", out_format)
    assert code == 3 and out == ""
    assert err.startswith("papperitz: error:") and len(err.splitlines()) == 1
    assert "not finite at z=(3+0j)" in err


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_eval_non_finite_exit_3(capsys, out_format):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning may leak
        code, out, err = run_cli(capsys, "eval", *ZERO_ABC, "--c1", "1e308,1e308",
                                 "--z", "3,0", "--format", out_format)
    assert code == 3 and out == ""
    assert err.startswith("point z=(3+0j) not evaluable") and "not finite" in err
    assert len(err.splitlines()) == 1


def test_points_non_finite_row_decides_in_order(tmp_path, capsys):
    # with c1 = 1e307, y ~ c1 * z / 2 overflows at z = 1000 but not at 1 or 2
    args = ("eval", *ZERO_ABC, "--c1", "1e307,0", "--points")
    code, out, err = run_cli(capsys, *args,
                             _points_file(tmp_path, ["1,0", "1000,0", "2,0"]))
    assert code == 3 and out == ""
    assert err.startswith("point z=(1000+0j) not evaluable")
    assert len(err.splitlines()) == 1
    # a point that fails before the overflowing row decides instead
    code, out, err = run_cli(capsys, *args,
                             _points_file(tmp_path, ["1,0", "0,-1", "1000,0"]))
    assert code == 3 and out == ""
    assert err.startswith("point z=-1j not evaluable")
    code, out, _ = run_cli(capsys, *args, _points_file(tmp_path, ["1,0", "2,0"]))
    assert code == 0 and len(out.splitlines()) == 3


VERIFY_ABC = ("--a", "1,0", "--b", "0,0", "--c", "1,0")

#: Inputs that ended in a traceback, or in a verdict on a bad option value,
#: with the exit code each now gives.
BAD_INPUT_CASES = [
    (("selftest", "--seed", "-1", "--quick"), 1),
    (("verify", *VERIFY_ABC, "--seed", "-1"), 1),
    (("verify", *VERIFY_ABC, "--tol", "nan"), 1),
    (("verify", *VERIFY_ABC, "--tol", "-1"), 1),
    (("verify", *VERIFY_ABC, "--tol", "inf"), 1),
    # (1-a)^2 overflows
    (("params", "--a", "1e200,0", "--b", "0,0", "--c", "0,0"), 3),
    # delta is infinite
    (("params", "--a", "0,0", "--b", "1e308,0", "--c", "0,0", "--json"), 3),
    (("eval", "--a", "0,0", "--b", "1e308,0", "--c", "0,0", "--z", "0.5,1"), 3),
    (("verify", "--a", "0,0", "--b", "1e308,0", "--c", "0,0"), 3),
    # a segment of length 1e300, then one longer than the largest float
    (("integrate", *ZERO_ABC, "--path", "0,0;1e300,0", "--y0", "1,0",
      "--dy0", "0,0"), 3),
    (("integrate", *ZERO_ABC, "--path", "-1e308,0;1e308,0", "--y0", "1,0",
      "--dy0", "0,0"), 3),
    # the second member is a polynomial of degree ~2e150
    (("eval", "--a", "0,0", "--b", "1e300,0", "--c", "0,0", "--c2", "1,0",
      "--z", "0.5,1"), 3),
]


@pytest.mark.parametrize("args,expected", BAD_INPUT_CASES,
                         ids=[" ".join(args) for args, _ in BAD_INPUT_CASES])
def test_bad_input_exits_with_one_line(capsys, args, expected):
    code, out, err = run_cli(capsys, *args)
    assert code == expected and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    if expected == 1:
        assert err.startswith("papperitz: error: --")

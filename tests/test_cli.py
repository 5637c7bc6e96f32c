import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    from papperitz import params
    from papperitz.params import EquationParams, derive_params

    real = derive_params

    def mutated(p):
        return real(EquationParams(p.a, p.b, -p.c))

    monkeypatch.setattr(params, "derive_params", mutated)
    code, out, _ = run_cli(capsys, "selftest", "--quick", "--seed", "3")
    assert code == 4
    assert "FAIL" in out


def test_hypergeom_suite_counts_a_broken_pfaff_identity(monkeypatch):
    # the suite reaches raw_series only in its Pfaff check, so a relative
    # error of 1e-6 there breaks that identity in every draw
    import numpy as np

    from papperitz import hypergeom, selftest

    real = hypergeom.raw_series
    monkeypatch.setattr(hypergeom, "raw_series",
                        lambda p, w: real(p, w) * (1 + 1e-6))
    name, fails, total = selftest.suite_hypergeom_identities(
        np.random.default_rng(3), 8)
    assert (name, fails, total) == ("hypergeom-identities", 8, 8)


def test_residual_suite_counts_a_nan_ratio(monkeypatch):
    import numpy as np

    from papperitz import selftest

    monkeypatch.setattr(selftest, "residual_z",
                        lambda p, jet, z: complex("nan+nanj"))
    assert selftest.suite_residuals(np.random.default_rng(3), 2, 3) == (
        "closed-form-residuals", 12, 12)


@pytest.mark.parametrize("seed", [2, 7])
def test_verify_runs_the_selftest_checks(capsys, seed):
    import numpy as np

    from papperitz import selftest
    from papperitz.params import EquationParams, derive_params

    code, out, _ = run_cli(capsys, "verify", "--a", "0.3,0.1", "--b", "0.2,0",
                           "--c", "0.1,0.2", "--seed", str(seed),
                           "--samples", "12")
    p = EquationParams(0.3 + 0.1j, 0.2, 0.1 + 0.2j)
    d = derive_params(p)
    report = selftest.oracle_agreement(p, d)
    ratios = selftest.residual_ratios(p, d, np.random.default_rng(seed), 12)
    assert code == 0 and len(ratios) == 24
    assert out.splitlines()[:3] == [
        f"max_abs_err = {report.max_abs_err!r}",
        f"max_rel_err = {report.max_rel_err!r}",
        f"max_residual_ratio = {max(ratios)!r}"]


def test_verify_nan_residual_ratio_fails(capsys):
    # a fifth of the sampled points give the first member NaN jets, and
    # no fault: the NaN ratio is the reported maximum, not dropped
    code, out, err = run_cli(capsys, "verify", "--a", "-80,5", "--b", "0,0",
                             "--c", "0,0", "--samples", "20")
    assert code == 4 and err == ""
    assert "max_residual_ratio = nan\n" in out
    assert out.endswith("verify: FAIL\n")


EVAL_ABC = ("--a", "0.3,0.1", "--b", "0.2,0", "--c", "0.1,0.2")


def _points_file(tmp_path, rows, header="z_re,z_im"):
    path = tmp_path / "points.csv"
    path.write_text(header + "\n" + "".join(f"{r}\n" for r in rows))
    return str(path)


@pytest.mark.parametrize("points", [None, []], ids=["no-option", "header-only"])
def test_eval_without_points_exit_1(tmp_path, capsys, points):
    args = () if points is None else ("--points", _points_file(tmp_path, points))
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, *args)
    assert code == 1 and out == ""
    assert err == ("papperitz: error: no evaluation points given "
                   "(use --z or --points)\n")


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


def test_eval_points_missing_value(tmp_path, capsys):
    path = _points_file(tmp_path, ["0.5,1.5", "0.25"])
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", path)
    assert code == 1 and out == ""
    assert err == (f"papperitz: error: points file {path!r}, line 3: "
                   f"missing z_re or z_im value\n")


def test_eval_points_file_with_bom(tmp_path, capsys):
    # spreadsheet programs save CSV files with a UTF-8 byte order mark
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"z_re,z_im\n0.5,1.5\n-1,2\n")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    first, second = (run_cli(capsys, "eval", *EVAL_ABC, "--points", str(p))
                     for p in (plain, bom))
    assert first[0] == 0 and second == first


def test_eval_points_undecodable_bytes(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_bytes(b"z_re,z_im\n0.5,\xff1.5\n")
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--points", str(path))
    assert code == 1 and out == ""
    assert err.startswith("papperitz: error: cannot read points file")


def _seeded_floats(seed, count):
    import numpy as np

    rng = np.random.default_rng(seed)
    mantissas = rng.uniform(-10, 10, count)
    exponents = rng.integers(-320, 308, count)
    drawn = [float(m) * 10.0 ** int(e) for m, e in zip(mantissas, exponents)]
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, 1e308, -1e308,
               1.0, -3.0, 12345678.0, 2.0 ** 53, 1e22, 0.1, 1 / 3]
    return special + drawn + [float(round(m)) for m in mantissas[:20]]


def test_rows_write_floats_as_repr(capsys):
    floats = (-0.0, 5e-324, 1e16, 1e308, 0.1, 1 / 3)
    more = _seeded_floats(5, 385)
    rows = [floats, floats[::-1]] + [tuple(more[i:i + 6]) for i in range(0, len(more), 6)]
    cli._write_rows(["f"] * 6, iter(rows), False, {})
    assert capsys.readouterr().out == "".join(
        ",".join(row) + "\r\n" for row in [["f"] * 6] + [map(repr, r) for r in rows])
    cli._write_rows(list("abcdef"), iter(rows), True, {"head": 1})
    out = capsys.readouterr().out
    assert out == json.dumps({"head": 1, "rows": [dict(zip("abcdef", r))
                                                  for r in rows]}) + "\n"
    assert [tuple(r.values()) for r in json.loads(out)["rows"]] == rows


def _reference_finite_complex(re_text, im_text, literal):
    try:
        re, im = float(re_text), float(im_text)
    except ValueError as exc:
        raise cli.UsageError(f"bad complex literal {literal!r}: {exc}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise cli.UsageError(f"complex literal must be finite: {literal!r}")
    return complex(re, im)


def _reference_read_points(path):
    """The points reader as it was written with csv.DictReader: the
    reference whose points and error messages cli._read_points keeps."""
    points = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            if not {"z_re", "z_im"} <= set(reader.fieldnames or ()):
                raise cli.UsageError(f"points file {path!r} needs z_re and z_im columns")
            for row in reader:
                re, im = row["z_re"], row["z_im"]
                try:
                    if re is None or im is None:
                        raise cli.UsageError("missing z_re or z_im value")
                    points.append(_reference_finite_complex(re, im, f"{re},{im}"))
                except cli.UsageError as exc:
                    raise cli.UsageError(f"points file {path!r}, line "
                                         f"{reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise cli.UsageError(f"cannot read points file {path!r}: {exc}") from exc
    return points


# points files that a reader may get wrong, as bytes, or None for no file
ODD_POINTS_FILES = {
    "missing file": None,
    "plain": b"z_re,z_im\n0.5,1.5\n-1,2\n",
    "blank lines": b"z_re,z_im\n\n0.5,1.5\n\n\n-1,2\n\n",
    "blank first line": b"\nz_re,z_im\n0.5,1.5\n",
    # the dict reader's fieldnames property, read after it skips blank rows,
    # sets its line_num to the line of the row itself
    "blank lines before a bad row": b"z_re,z_im\n0.5,1.5\n\n\nabc,1\n",
    "blank lines before a short row": b"z_re,z_im\n\n0.25\n",
    "repeated column": b"z_re,z_im,z_re\n0.5,1.5,3\n-1,2,4\n",
    "repeated column, short row": b"z_re,z_im,z_re\n0.5,1.5,3\n-1,2\n",
    "extra columns": b"id,z_im,x,z_re\n7,1.5,q,0.5\n8,2,r,-1\n",
    "extra values": b"z_re,z_im\n0.5,1.5,9,9\n-1,2,\n",
    "short row": b"z_re,z_im\n0.5,1.5\n0.25\n",
    "quoted values": b'"z_re","z_im"\n"0.5"," 1.5"\n"-1","2"\n',
    "quoted comma": b'z_re,z_im\n"0.5,1",2\n',
    "embedded newline": b'z_re,z_im\n0.5,1.5\n"-1\n",2\n"x\ny",3\n',
    "crlf": b"z_re,z_im\r\n0.5,1.5\r\n\r\n-1,2\r\n",
    "bom": b"\xef\xbb\xbfz_re,z_im\n0.5,1.5\n",
    "header only": b"z_re,z_im\n",
    "empty": b"",
    "missing column": b"z_re,zz\n0.5,1.5\n",
    "nan": b"z_re,z_im\n0.5,1.5\nnan,1\n",
    "unparsable": b"z_re,z_im\n0.5,1.5\n0.5,1.5j\n",
    "undecodable": b"z_re,z_im\n0.5,\xff1.5\n",
    "field too large": b"z_re,z_im\n0.5," + b"1" * (csv.field_size_limit() + 1) + b"\n",
}


@pytest.mark.parametrize("name", list(ODD_POINTS_FILES))
def test_read_points_matches_dict_reader(tmp_path, name):
    path = tmp_path / "points.csv"
    if ODD_POINTS_FILES[name] is not None:
        path.write_bytes(ODD_POINTS_FILES[name])
    answers = []
    for read in (_reference_read_points, cli._read_points):
        try:
            answers.append(read(str(path)))
        except cli.UsageError as exc:
            answers.append((type(exc), str(exc)))
    assert answers[0] == answers[1]


def _reference_write_rows(header, rows, as_json, head):
    """The rows writer as it was written with csv.writer and json.dump."""
    if as_json:
        json.dump({**head, "rows": [dict(zip(header, row)) for row in rows]},
                  sys.stdout)
        sys.stdout.write("\n")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)


def _requests_with_each_writer(capsys, monkeypatch, argv):
    answers = []
    for write in (_reference_write_rows, cli._write_rows):
        monkeypatch.setattr(cli, "_write_rows", write)
        answers.append(run_cli(capsys, *argv))
    assert answers[0][0] == 0, answers[0][2]
    return answers


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_requests_render_as_the_old_writers(tmp_path, capsys, monkeypatch,
                                            out_format):
    import numpy as np

    # 150 points in |t| <= 0.65, as an eval_batch request sends them
    rng = np.random.default_rng(8)
    t = 0.65 * np.sqrt(rng.uniform(size=150)) * np.exp(2j * np.pi * rng.uniform(size=150))
    z = 1j * (1 + t) / (1 - t)
    path = _points_file(tmp_path, [f"{w.real!r},{w.imag!r}" for w in z.tolist()])
    args, _ = BATCH_CASES[0]
    batch = _requests_with_each_writer(
        capsys, monkeypatch, ["eval", *args, "--points", path, "--format", out_format])
    assert batch[0] == batch[1]
    assert len(batch[1][1].splitlines()) == (1 if out_format == "json" else 151)
    integrate = _requests_with_each_writer(
        capsys, monkeypatch, ["integrate", *EVAL_ABC, "--path", "0.5,3;4,3;4,-3;2.5,0.8",
                              "--y0", "1,0.5", "--dy0", "-0.25,2", "--out", out_format])
    assert integrate[0] == integrate[1]


def test_params_json_renders_as_json_dump(capsys):
    from papperitz.params import EquationParams, derive_params

    for abc in [("0.3,0.1", "0.2,0", "0.1,0.2"), ("1,0", "0,0", "1,0"),
                ("-0.0,5e-324", "1e16,1e-05", "3,-7")]:
        code, out, err = run_cli(capsys, "params", "--a", abc[0], "--b", abc[1],
                                 "--c", abc[2], "--json")
        p = EquationParams(*map(cli.parse_complex, abc))
        expected = io.StringIO()
        json.dump({"params": cli._params_dict(p),
                   "derived": cli._derived_dict(derive_params(p))}, expected)
        assert (code, out, err) == (0, expected.getvalue() + "\n", "")


def test_eval_no_convergence_exit_3(capsys, monkeypatch):
    from papperitz import hypergeom

    monkeypatch.setattr(hypergeom, "MAX_TERMS", 5)
    code, out, err = run_cli(capsys, "eval", *EVAL_ABC, "--z", "0.5,1.5")
    assert code == 3 and out == ""
    assert err.startswith("papperitz: error:") and len(err.splitlines()) == 1
    assert "did not converge" in err


def test_integrate_step_limit_exit_3(capsys, monkeypatch):
    from papperitz import oracle

    monkeypatch.setattr(oracle, "MAX_STEPS", 3)
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


def test_verify_samples_above_bound_exit_1(capsys):
    # refused before any work: the samples' time and memory have no other
    # bound (one past the bound runs for seconds if it is not refused)
    code, out, err = run_cli(capsys, "verify", "--a", "1,0", "--b", "0,0",
                             "--c", "1,0", "--samples", "100001")
    assert code == 1 and out == ""
    assert err == ("papperitz: error: --samples must be at most 100000, "
                   "got 100001\n")


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
    # a byte order mark, CRLF line ends and blank lines change no byte
    marked = tmp_path / "marked.csv"
    marked.write_bytes("\ufeffz_re,z_im\r\n\r\n".encode()
                       + "".join(f"{z}\r\n\r\n" for z in points).encode())
    assert run_cli(capsys, "eval", *args, "--points", str(marked)) == (0, out, "")
    order = list(range(len(points)))[::-1]
    order = order[1::2] + order[::2]
    path = _points_file(tmp_path, [points[i] for i in order])
    code, out, _ = run_cli(capsys, "eval", *args, "--points", path)
    assert code == 0
    assert _csv_rows(out)[1] == [singles[i] for i in order]


def test_batch_cases_cover_every_strategy():
    from papperitz.closed_form import BasisMember, basis_hyp_params
    from papperitz.hypergeom import EvalStrategy, select_strategy
    from papperitz.mobius import forward_jets
    from papperitz.params import EquationParams, derive_params

    seen = set()
    for args, points in BATCH_CASES:
        p = EquationParams(*(cli.parse_complex(args[i]) for i in (1, 3, 5)))
        d = derive_params(p)
        members = [BasisMember.FIRST] + [BasisMember.SECOND] * (args[-1] != "0,0")
        for z in points:
            t = forward_jets(cli.parse_complex(z))[0][0]
            for which in members:
                seen.add(select_strategy(basis_hyp_params(d, which), t))
    assert seen == set(EvalStrategy) - {EvalStrategy.UNREACHABLE}
    assert any(args[-1] == "0,0" for args, _ in BATCH_CASES)  # c2 = 0


def test_points_request_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma, ~1.3 MB of memory, on a request whose
    # points take several strategies: the eval path must not use it
    args, points = BATCH_CASES[0]
    argv = ["eval", *args, "--points", _points_file(tmp_path, points)]
    script = ("import sys\nfrom papperitz import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_startup_leaves_numpy_unimported():
    # params, integrate, --help and the usage errors use no array code:
    # numpy and the array modules load with the first eval, verify or
    # selftest request
    requests = [
        ["params", *EVAL_ABC],
        ["integrate", *EVAL_ABC, "--path", "2,0;3,1", "--y0", "1,0",
         "--dy0", "0,0"],
        ["--help"],
        ["params", "--a", "0,0"],
        ["eval", *EVAL_ABC],
        ["eval", *EVAL_ABC, "--z", "nan,0"],
        ["verify", *EVAL_ABC, "--tol", "nan"],
        ["selftest", "--seed", "-1"],
        ["eval", *EVAL_ABC, "--z", "0.5,1.5"],
    ]
    script = ("import contextlib, io, sys\nfrom papperitz import cli\n"
              "heavy = ('numpy', 'papperitz.mobius', 'papperitz.hypergeom',\n"
              "         'papperitz.closed_form', 'papperitz.selftest')\n"
              f"for argv in {requests!r}:\n"
              "    sink = io.StringIO()\n"
              "    with contextlib.redirect_stdout(sink), "
              "contextlib.redirect_stderr(sink):\n"
              "        try:\n"
              "            code = cli.main(argv)\n"
              "        except SystemExit as exc:\n"
              "            code = exc.code\n"
              "    print(code, [m for m in heavy if m in sys.modules])\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0 []"] * 3 + ["1 []"] * 5 + [
        "0 ['numpy', 'papperitz.mobius', 'papperitz.hypergeom', "
        "'papperitz.closed_form']"]


def test_startup_leaves_dataclasses_unimported():
    # the value classes are NamedTuples: importing the CLI loads neither
    # dataclasses nor the inspect module it pulls in, and no request does
    # (numpy, which verify loads, imports inspect but not dataclasses)
    requests = [
        ["params", *EVAL_ABC],
        ["integrate", *EVAL_ABC, "--path", "2,0;3,1", "--y0", "1,0",
         "--dy0", "0,0"],
        ["verify", "--a", "1,0", "--b", "0,0", "--c", "1,0", "--samples", "3"],
    ]
    script = ("import contextlib, io, sys\nbefore = set(sys.modules)\n"
              "from papperitz import cli\n"
              "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
              f"for argv in {requests!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = cli.main(argv)\n"
              "    print(code, 'dataclasses' in set(sys.modules) - before)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]"] + ["0 False"] * 3


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


DESCRIPTION = cli._build_parser().description


def _whole_tree():
    """The reference tree: all five subparsers, each with its arguments."""
    parser = cli._Parser(prog="papperitz", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in cli._COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _answer(capsys, argv):
    """Exit code, stdout and stderr of argv through cli.main."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


INTEGRATE_ARGS = ("--path", "2,0;3,1", "--y0", "1,0", "--dy0", "0,0")
USAGE_CORPUS = [
    [], ["-h"], ["--help"], ["--he"], ["-x"], ["--"],
    ["bogus"], ["bogus", *EVAL_ABC], ["ev"], ["ev", *EVAL_ABC, "--z", "1,1"],
    ["-h", "eval"], ["--bogus", "eval", *EVAL_ABC, "--z", "1,1"],
    ["--", "eval", *EVAL_ABC, "--z", "1,1"], ["--help", "params"],
    *([command, "-h"] for command in cli._COMMANDS),
    ["eval", "--help"], ["eval", "--he"],
    ["params", *EVAL_ABC], ["eval", *EVAL_ABC, "--z", "0.5,1.5"],
    ["verify", "--a", "1,0", "--b", "0,0", "--c", "1,0", "--samples", "2"],
    ["integrate", *EVAL_ABC, *INTEGRATE_ARGS], ["selftest", "--quick"],
    ["params"], ["eval", "--a", "0,0"], ["integrate", *EVAL_ABC, "--y0", "1,0"],
    ["params", *EVAL_ABC, "--bogus"], ["params", *EVAL_ABC, "extra"],
    ["eval", *EVAL_ABC, "--z", "1,1", "params"], ["eval", "eval"],
    ["eval", *EVAL_ABC, "--z", "1,1", "--format", "xml"],
    ["eval", *EVAL_ABC, "--z=-0.5,1"], ["eval", *EVAL_ABC, "--", "--z", "1,1"],
    ["params", *EVAL_ABC, "--js"], ["eval", *EVAL_ABC, "--po", "missing.csv"],
    ["verify", *EVAL_ABC, "--samples", "x"], ["selftest", "--seed", "-1"],
    # words left over after an option value, which the top-level parser
    # reports, and the option forms a subparser alone must read as the tree
    ["eval", *EVAL_ABC, "--z", "1,1", "extra", "--bogus"],
    ["eval", *EVAL_ABC, "--z", "1,1", "--form", "json"],
    ["eval", *EVAL_ABC, "--z", "1,1", "-h"], ["params", *EVAL_ABC, "--help"],
    ["eval", *EVAL_ABC, "--z="], ["eval", *EVAL_ABC, "--z=1,1", "--format=json"],
    ["eval", *EVAL_ABC, "--z", "1,1", "--"],
    ["eval", *EVAL_ABC, "--z", "1,1", "--", "extra"], ["eval", "--", *EVAL_ABC],
    ["eval", *EVAL_ABC, "--z", "1,1", "--z", "0.5,1.5"],
    # words left over after each command, which its parser hands to the tree
    ["params", *EVAL_ABC, "--json", "extra", "--bogus"],
    ["verify", "--a", "1,0", "--b", "0,0", "--c", "1,0", "extra"],
    ["verify", "--a", "1,0", "extra", "--samples", "x"],
    ["integrate", *EVAL_ABC, *INTEGRATE_ARGS, "extra"],
    ["integrate", *EVAL_ABC, "extra", "--y0", "1,0"],
    ["selftest", "--quick", "extra"], ["selftest", "x", "--", "y"],
    ["selftest", "--quick", "extra", "-h"],
]


def test_usage_help_and_errors_match_the_whole_tree(capsys, monkeypatch):
    # every argv, led by its command or not, exits with the code and prints
    # the bytes that the tree of all five subparsers gives, at every
    # terminal width: the reference parses each argv with the tree, whatever
    # cli._parse_args would build
    for columns in (None, "40", "80", "200"):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        for argv in USAGE_CORPUS:
            answer = _answer(capsys, argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_parse_args",
                          lambda argv: _whole_tree().parse_args(argv))
                assert _answer(capsys, argv) == answer, (columns, argv)


@pytest.mark.parametrize("argv,parsers", [
    (["params", *EVAL_ABC], 1), (["eval", *EVAL_ABC, "--z", "0.5,1.5"], 1),
    (["integrate", *EVAL_ABC, *INTEGRATE_ARGS], 1), (["selftest", "-h"], 1),
    (["eval", "--a", "0,0"], 1), (["-h", "eval"], 6), ([], 6),
    (["--bogus", "eval", *EVAL_ABC, "--z", "1,1"], 6), (["ev"], 6),
    (["eval", *EVAL_ABC, "--z", "1,1", "extra"], 7),
    (["selftest", "--quick", "x"], 7)])
def test_parsers_built_per_request(capsys, monkeypatch, argv, parsers):
    # a request led by its command builds that command's parser alone, and
    # the tree's six as well if that parser leaves words over; any other
    # argv builds the tree's six
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    _answer(capsys, argv)
    assert len(built) == parsers, built


def test_one_process_answers_as_fresh_processes(tmp_path):
    # no object is carried from one request to the next: each answer of a
    # mixed sequence sent through one process's cli.main is the exit code,
    # stdout and stderr of the same argv in a fresh process
    sequence = [
        ["eval", *EVAL_ABC, "--z", "0.5,1.5", "--z", "-1,2"],
        ["eval", *EVAL_ABC, "--z", "0.2,0.9"],
        ["eval", *EVAL_ABC, "--points", _points_file(tmp_path, ["0,2", "1,1"])],
        ["integrate", *EVAL_ABC, *INTEGRATE_ARGS],
        ["params", *EVAL_ABC, "--json"],
        ["eval", *EVAL_ABC, "--z", "1,1", "extra"],
        ["eval", *EVAL_ABC, "--z", "1,1", "--format", "xml"],
        ["eval", *EVAL_ABC, "--z", "1,1"],
        ["integrate", *EVAL_ABC, *INTEGRATE_ARGS, "--out", "json", "extra"],
        ["integrate", *EVAL_ABC, *INTEGRATE_ARGS, "--out", "json"],
    ]
    script = ("import contextlib, io, json\nfrom papperitz import cli\n"
              "answers = []\n"
              f"for argv in {sequence!r}:\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(out), "
              "contextlib.redirect_stderr(err):\n"
              "        try:\n"
              "            code = cli.main(argv)\n"
              "        except SystemExit as exc:\n"
              "            code = exc.code\n"
              "    answers.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(answers))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    answers = json.loads(done.stdout)
    assert len(answers) == len(sequence)
    for argv, answer in zip(sequence, answers):
        fresh = subprocess.run([sys.executable, "-m", "papperitz", *argv],
                               capture_output=True, env=env)
        assert answer == [fresh.returncode, fresh.stdout.decode(),
                          fresh.stderr.decode()], argv
    assert [code for code, _, _ in answers] == [0, 0, 0, 0, 0, 1, 1, 0, 1, 0]


def test_import_leaves_oracle_unloaded():
    # the oracle loads with the first eval, verify or integrate request
    script = ("import contextlib, io, sys\nfrom papperitz import cli\n"
              "print('papperitz.oracle' in sys.modules)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    cli.main({['params', *EVAL_ABC]!r})\n"
              "print('papperitz.oracle' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "False"]


ZERO_ABC =("--a", "0,0", "--b", "0,0", "--c", "0,0")


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
    # waypoints beyond |z| = 1e77, where (1 + z^2)^2 overflows: 1e300, then
    # -1e308 and 1e308, a segment longer than the largest float
    (("integrate", *ZERO_ABC, "--path", "0,0;1e300,0", "--y0", "1,0",
      "--dy0", "0,0"), 3),
    (("integrate", *ZERO_ABC, "--path", "-1e308,0;1e308,0", "--y0", "1,0",
      "--dy0", "0,0"), 3),
    # the second member is a polynomial of degree ~2e150
    (("eval", "--a", "0,0", "--b", "1e300,0", "--c", "0,0", "--c2", "1,0",
      "--z", "0.5,1"), 3),
    # |z + i| overflows: the map's jets are not finite, and z is not the
    # pole z = -i
    (("eval", *ZERO_ABC, "--z", "1.5e308,1.5e308"), 3),
    # t rounds into the guard band of the branch cut, and z is not on it
    (("eval", *ZERO_ABC, "--z", "1e12,1e12"), 3),
    # (z + i)^2 overflows
    (("eval", *ZERO_ABC, "--z", "1e160,1e160"), 3),
    # Gamma overflows in the coefficients of the (1-t) connection formula
    (("eval", "--a", "0,300", "--b", "0,0", "--c", "0,0", "--z", "5,0.1"), 3),
    # the series coefficients overflow, and the series does not converge
    (("verify", "--a", "0,300", "--b", "0,0", "--c", "0,0"), 3),
]


@pytest.mark.parametrize("args,expected", BAD_INPUT_CASES,
                         ids=[" ".join(args) for args, _ in BAD_INPUT_CASES])
def test_bad_input_exits_with_one_line(capsys, args, expected):
    code, out, err = run_cli(capsys, *args)
    assert code == expected and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "pole" not in err
    if expected == 1:
        assert err.startswith("papperitz: error: --")


@pytest.mark.parametrize("args,expected", BAD_INPUT_CASES,
                         ids=[" ".join(args) for args, _ in BAD_INPUT_CASES])
def test_bad_input_leaks_no_warning(capsys, args, expected):
    import warnings

    # pytest keeps warnings off stderr: make them errors instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(capsys, *args)
    assert code == expected


@pytest.mark.parametrize("z,message", [
    ("1e12,1e12", "t=(0.999999999999-1e-12j) lies within 1e-12 of the branch cut"),
    ("3e12,0", "lies within 1e-12 of the branch cut"),
    ("-3e12,5", "lies within 1e-12 of the branch cut"),
    ("0,-5e12", "t=(1.0000000000004-0j) lies on the branch cut [1, inf)"),
    ("1e160,1e160", "is too large for the forward map: its jets overflow at "
                    "|z+i|=1.41421e+160"),
    ("1.5e308,1.5e308", "is too large for the forward map: its jets overflow at "
                        "|z+i|=inf"),
])
def test_large_z_names_its_fault(capsys, z, message):
    # only z = -5e12 i is on the cut; the others round into its guard band
    # or overflow the map
    code, out, err = run_cli(capsys, "eval", "--a", "0.3,0", "--b", "0.2,0",
                             "--c", "0.1,0", "--z", z)
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    assert message in err and "pole" not in err


@pytest.mark.parametrize("far", ["1e100", "1e160"])
def test_integrate_refuses_a_waypoint_beyond_the_bound(capsys, far):
    # at 1e100 (1 + z^2)^2 overflowed and y' froze with exit 0; at 1e160
    # the solution was blamed for the overflow
    code, out, err = run_cli(capsys, "integrate", "--a", "0.3,0.1", "--b", "0.2,0",
                             "--c", "0.1,0.2", "--path", f"2,0;{far},0",
                             "--y0", "1,0", "--dy0", "0,0")
    assert code == 3 and out == ""
    assert err == (f"invalid path: waypoint ({float(far):g}+0j) lies beyond "
                   f"|z| = 1e+77, where the equation's coefficients overflow\n")


def test_eval_second_basis_invalid_exit_2(capsys):
    # gamma = 1 + delta = 3, so the second member has gamma = -1
    code, out, err = run_cli(capsys, "eval", "--a", "1,0", "--b", "1,-0.3",
                             "--c", "0.3,0", "--c2", "1,0", "--z", "0.5,2")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("degenerate basis at z=(0.5+2j): second basis member invalid: ")


def _concrete_errors():
    """The error classes of papperitz.errors that no other class there
    subclasses, by name."""
    from papperitz import errors

    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.PapperitzError)]
    return sorted((c for c in classes
                   if not any(o is not c and issubclass(o, c) for o in classes)),
                  key=lambda c: c.__name__)


@pytest.mark.parametrize("error", _concrete_errors(), ids=lambda c: c.__name__)
def test_error_class_decides_exit_code(capsys, monkeypatch, error):
    # raised from any subcommand, a library error ends the command with the
    # code its class declares, on one stderr line and without a traceback
    from papperitz.errors import EvaluationUnreachable

    degenerate = {"DegenerateBasis", "DegenerateWronskian", "InvalidGamma"}
    assert error.exit_code == (2 if error.__name__ in degenerate else 3)
    if error is EvaluationUnreachable:
        exc = error(2j, 2.0, 2.0, 2.2)
    else:
        exc = error("the fault")

    def handler(args):
        raise exc

    for command in ("params", "verify"):
        help_line, add_arguments, _ = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command, (help_line, add_arguments, handler))
        code, out, err = run_cli(capsys, command, *ZERO_ABC)
        assert (code, out) == (error.exit_code, "")
        assert err.splitlines() == [f"papperitz: error: {exc}"]

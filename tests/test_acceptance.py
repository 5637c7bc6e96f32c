"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from papperitz import cli
from papperitz.closed_form import (
    BasisMember,
    DegeneracyClass,
    EquationParams,
    Jet2,
    derive_params,
    eval_basis,
    eval_solution,
    fit_ivp,
)
from papperitz.errors import DegenerateWronskian
from papperitz.hypergeom import HypParams, gauss_2f1, gauss_2f1_jet
from papperitz.mobius import principal_power
from papperitz.oracle import (
    PathSpec,
    compare_closed_numeric,
    residual_scale,
    residual_z,
)
from papperitz.selftest import (
    random_equation,
    random_generic_equation,
    random_hyp_params,
    sample_reachable_point,
)


def _report(name, elapsed, limit):
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_parameter_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p = random_equation(rng)
        d = derive_params(p)
        a, b, c = p.a, p.b, p.c
        scale = 1 + abs(d.lam) ** 2 + abs(b) + abs(c)
        assert abs(d.lam ** 2 - (1 - a) * d.lam - (b + 1j * c)) <= 1e-12 * scale
        assert abs(d.gamma - (2 * d.lam + a)) <= 1e-12 * (1 + abs(d.gamma))
        assert abs(d.alpha + d.beta - (1 + 2 * d.lam - a)) \
            <= 1e-12 * (1 + abs(d.alpha) + abs(d.beta))
        assert abs(d.alpha * d.beta - (d.lam ** 2 + (1 - a) * d.lam
                                       - (b - 1j * c))) <= 1e-12 * scale
        assert abs(d.delta ** 2 - ((1 - a) ** 2 + 4 * (b + 1j * c))) \
            <= 1e-12 * (1 + abs(d.delta) ** 2)
        assert abs(d.delta_star ** 2 - ((1 - a) ** 2 + 4 * (b - 1j * c))) \
            <= 1e-12 * (1 + abs(d.delta_star) ** 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 parameter-identity suite", elapsed, 1)


def test_criterion_2_hypergeometric_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(200):
        p = random_hyp_params(rng)
        r = 0.6 * math.sqrt(rng.uniform(0, 1))
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        f = gauss_2f1(p, t)
        sym = gauss_2f1(HypParams(p.beta, p.alpha, p.gamma), t)
        assert abs(f - sym) <= 1e-12 * max(abs(f), 1.0)
        eul = (principal_power(1 - t, p.gamma - p.alpha - p.beta)
               * gauss_2f1(HypParams(p.gamma - p.alpha, p.gamma - p.beta,
                                     p.gamma), t))
        assert abs(f - eul) <= 1e-12 * max(abs(f), 1.0)
        if abs(t) <= 0.5 and t.real < 0.5:
            from papperitz.hypergeom import raw_series
            pf = (principal_power(1 - t, -p.beta)
                  * raw_series(HypParams(p.gamma - p.alpha, p.beta, p.gamma),
                               t / (t - 1)))
            assert abs(f - pf) <= 1e-12 * max(abs(f), 1.0)
        h = 1e-6
        fd = (gauss_2f1(p, t + h) - gauss_2f1(p, t - h)) / (2 * h)
        dv = gauss_2f1_jet(p, t)[1]
        assert abs(dv - fd) <= 1e-6 * max(abs(dv), 1.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("2 hypergeometric identity suite", elapsed, 10)


def test_criterion_3_closed_form_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(200):
        p, d = random_generic_equation(rng)
        for _ in range(20):
            z = sample_reachable_point(d, rng)
            for which in BasisMember:
                jet = eval_basis(d, which, z)
                assert abs(residual_z(p, jet, z)) \
                    <= 1e-8 * residual_scale(z, jet)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("3 closed-form residual suite", elapsed, 30)


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    path = PathSpec([2j, 1 + 2j, 2 + 2j])
    for _ in range(20):
        p, d = random_generic_equation(rng)
        report = compare_closed_numeric(p, d, 1.0, 0.3, path)
        assert report.max_rel_err <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("4 oracle agreement", elapsed, 30)


def test_criterion_5_elementary_solutions():
    start = time.perf_counter()
    # (i) a = b = c = 0: first basis linear in z
    p = EquationParams(0, 0, 0)
    d = derive_params(p)
    zs = [complex(-1 + 0.2 * k, 1.5) for k in range(11)]
    vals = [eval_basis(d, BasisMember.FIRST, z).y for z in zs]
    for u, v, w in zip(vals, vals[1:], vals[2:]):
        assert abs(u - 2 * v + w) <= 1e-10
    for z in zs:
        assert abs(eval_solution(d, 2j, 0, z).y - (z - 1j)) <= 1e-10
    # (ii) (0.5, 0, 0): second basis is the constant 1
    p2 = EquationParams(0.5, 0, 0)
    d2 = derive_params(p2)
    for z in (0.5j, 1 + 1j, -2 + 0.5j):
        j = eval_basis(d2, BasisMember.SECOND, z)
        assert abs(j.y - 1) <= 1e-14
        assert abs(j.dy) <= 1e-14 and abs(j.d2y) <= 1e-14
    # (iii) hand-computed jet of ((z+i)/(z-i))^p annihilated by the ODE
    for a in (0, 0.3):
        for pw in (0.5, 1.0, 1.5):
            pf = EquationParams(a, pw**2, 1j * pw * (a - 1))
            df = derive_params(pf)
            assert min(abs(df.lam + pw), abs(df.lam2 + pw)) <= 1e-12
            for z in (0.5 + 1.2j, 2.0 + 0.7j, -1.0 + 2.0j):
                g = (z + 1j) / (z - 1j)
                gp = -2j / (z - 1j) ** 2
                gpp = 4j / (z - 1j) ** 3
                jet = Jet2(principal_power(g, pw),
                           pw * principal_power(g, pw - 1) * gp,
                           pw * (pw - 1) * principal_power(g, pw - 2) * gp * gp
                           + pw * principal_power(g, pw - 1) * gpp)
                assert abs(residual_z(pf, jet, z)) \
                    <= 1e-10 * residual_scale(z, jet)
    _report("5 elementary-solution checks", time.perf_counter() - start, 30)


def test_criterion_6_kamke_special_case():
    # (1+z^2)^2 y'' + A z (1+z^2) y' + B y = 0 is the a = A/2, b = B/4,
    # c = 0 instance
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    for A, B in ((1, 1), (3, -2)):
        p = EquationParams(A / 2, B / 4, 0)
        d = derive_params(p)
        assert d.degeneracy is DegeneracyClass.GENERIC
        for _ in range(10):
            z = sample_reachable_point(d, rng)
            for which in BasisMember:
                jet = eval_basis(d, which, z)
                q = 1 + z * z
                kamke = q * q * jet.d2y + A * z * q * jet.dy + B * jet.y
                assert abs(kamke) <= 1e-8 * residual_scale(z, jet)
    _report("6 Kamke special case", time.perf_counter() - start, 30)


def test_criterion_7_degeneracy_detection():
    start = time.perf_counter()
    d = derive_params(EquationParams(0, -0.25, 0))
    assert d.degeneracy is DegeneracyClass.REPEATED_EXPONENT
    # (0,0,0): 2 - gamma = 0 resolves via the polynomial escape
    p0 = EquationParams(0, 0, 0)
    d0 = derive_params(p0)
    assert d0.degeneracy is DegeneracyClass.GENERIC
    j = eval_basis(d0, BasisMember.SECOND, 2j)
    assert abs(j.y - 1) <= 1e-14 and abs(j.dy) <= 1e-14  # F == constant
    with pytest.raises(DegenerateWronskian):
        fit_ivp(derive_params(EquationParams(0, -0.25, 0)), 2j, 1.0, 0.0)
    _report("7 degeneracy detection", time.perf_counter() - start, 30)


def test_criterion_8_cli_contract(capsys):
    start = time.perf_counter()
    # exit 0
    assert cli.main(["params", "--a", "0,0", "--b", "0,0", "--c", "0,0"]) == 0
    # exit 1: unparseable literal
    assert cli.main(["params", "--a", "oops", "--b", "0,0", "--c", "0,0"]) == 1
    # exit 2: degenerate basis with nonzero coefficient
    assert cli.main(["eval", "--a", "0,0", "--b", "-0.25,0", "--c", "0,0",
                     "--c1", "1,0", "--c2", "1,0", "--z", "0,2"]) == 2
    # exit 3: the excluded point z = -i
    assert cli.main(["eval", "--a", "0,0", "--b", "0,0", "--c", "0,0",
                     "--z", "0,-1"]) == 3
    # exit 4: verification demanded beyond attainable accuracy
    assert cli.main(["verify", "--a", "1,0", "--b", "0,0", "--c", "1,0",
                     "--tol", "1e-18"]) == 4
    capsys.readouterr()

    # CSV/JSON round-trip, bit-exact
    args = ["eval", "--a", "0.3,0.2", "--b", "0.7,-0.1", "--c", "0.2,0.4",
            "--c1", "1,0.5", "--c2", "0.25,0", "--z", "0.5,1.5"]
    assert cli.main(args + ["--format", "csv"]) == 0
    out_csv = capsys.readouterr().out
    assert cli.main(args + ["--format", "json"]) == 0
    out_json = capsys.readouterr().out
    crow = next(csv.DictReader(io.StringIO(out_csv)))
    jrow = json.loads(out_json)["rows"][0]
    for key in cli.CSV_HEADER:
        assert float(crow[key]) == jrow[key]

    # full selftest with a fixed seed, deterministic, under 2 minutes
    assert cli.main(["selftest", "--seed", "1"]) == 0
    out1 = capsys.readouterr().out
    assert cli.main(["selftest", "--seed", "1"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("8 CLI contract", elapsed, 120)

import numpy as np
import pytest

from papperitz.closed_form import (
    BasisMember,
    EquationParams,
    Jet2,
    derive_params,
    eval_basis,
    eval_basis_t_jet,
    eval_solution,
)
from papperitz.errors import (
    NonFinitePath,
    NonFiniteSolution,
    PathTooCloseToSingularity,
    StepLimitExceeded,
)
from papperitz.mobius import z_to_t
from papperitz.oracle import (
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    IntegrationControl,
    PathSpec,
    VerifyReport,
    compare_closed_numeric,
    finite_difference_jet,
    integrate_ivp,
    residual_scale,
    residual_t,
    residual_z,
)
from papperitz.selftest import (
    DEFAULT_PATH,
    random_generic_equation,
    sample_reachable_point,
)


def test_residual_z_values():
    p = EquationParams(0, 0, 0)
    jet = Jet2(3 - 1j, 1, 0)  # y = z - i at z = 3
    assert residual_z(p, jet, 3.0) == 0
    p = EquationParams(0, 1, 1)
    assert abs(residual_z(p, Jet2(1, 0, 0), 2.0) - 12) < 1e-14


def test_residual_t_values():
    p = EquationParams(0, 0, 0)
    # y(t) = t/(1-t): y(0.5)=1, y'=1/(1-t)^2=4, y''=2/(1-t)^3=16
    jet = Jet2(1, 4, 16, coord="t")
    assert abs(residual_t(p, jet, 0.5)) < 1e-14
    p = EquationParams(0.3, 1.1, -0.4)
    t = 0.2 + 0.1j
    expected = (p.b - 1j * p.c) * t - (p.b + 1j * p.c)
    assert abs(residual_t(p, Jet2(1, 0, 0, coord="t"), t) - expected) < 1e-14


def test_residual_coordinate_mismatch():
    p = EquationParams(0, 0, 0)
    with pytest.raises(ValueError):
        residual_t(p, Jet2(1, 0, 0, coord="z"), 0.5)


def test_residuals_vanish_together():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, d = random_generic_equation(rng)
        z = sample_reachable_point(d, rng)
        t = z_to_t(z)
        for which in BasisMember:
            jz = eval_basis(d, which, z)
            jt = eval_basis_t_jet(d, which, t)
            assert abs(residual_z(p, jz, z)) <= 1e-8 * residual_scale(z, jz)
            scale_t = (abs(t) ** 2 * abs(1 - t) + 1) * (
                abs(jt.y) + abs(jt.dy) + abs(jt.d2y))
            assert abs(residual_t(p, jt, t)) <= 1e-8 * scale_t


def test_path_validation():
    PathSpec([0, 2.0])
    with pytest.raises(ValueError):
        PathSpec([0])
    with pytest.raises(PathTooCloseToSingularity):
        PathSpec([0.95j, 1.05j])
    # segment passing near +i even though endpoints are far from it
    with pytest.raises(PathTooCloseToSingularity):
        PathSpec([-2 + 1j, 2 + 1j])


def test_integration_control_validation():
    with pytest.raises(ValueError):
        IntegrationControl(rel_tol=0)
    with pytest.raises(ValueError):
        IntegrationControl(max_steps=0)


def test_integrate_trivial_dynamics():
    p = EquationParams(0, 0, 0)  # y'' = 0 along any path
    path = PathSpec([0, 2.0])
    out = integrate_ivp(p, path, 1.0, 0.0)
    z, y, dy = out[-1]
    assert z == 2.0
    assert abs(y - 1) < 1e-12 and abs(dy) < 1e-12
    out = integrate_ivp(p, path, 0.0, 1.0)
    assert abs(out[-1][1] - 2.0) < 1e-10


def test_integrate_step_limit():
    p = EquationParams(0, 1, 0)
    with pytest.raises(StepLimitExceeded):
        integrate_ivp(p, PathSpec([0, 1.0]), 1.0, 0.0,
                      IntegrationControl(max_steps=3))


def test_integrate_self_convergence_single():
    p = EquationParams(0, 1, 0)
    path = PathSpec([0, 1.0])
    a = integrate_ivp(p, path, 1.0, 0.5, IntegrationControl(rel_tol=1e-9))[-1]
    b = integrate_ivp(p, path, 1.0, 0.5, IntegrationControl(rel_tol=5e-10))[-1]
    assert abs(a[1] - b[1]) <= 1e-9 * max(abs(a[1]), 1.0)


def test_integrate_tolerance_ladder():
    # tightening rel_tol never worsens the endpoint error against a
    # tight-tolerance reference
    rng = np.random.default_rng(32)
    path = PathSpec([2j, 1 + 2j])
    for _ in range(10):
        p, d = random_generic_equation(rng)
        ref = integrate_ivp(p, path, 1.0, 0.2,
                            IntegrationControl(rel_tol=1e-13, abs_tol=1e-14))[-1][1]
        errs = []
        for tol in (1e-5, 1e-7, 1e-9, 1e-11):
            end = integrate_ivp(p, path, 1.0, 0.2,
                                IntegrationControl(rel_tol=tol,
                                                   abs_tol=tol * 1e-2))[-1][1]
            errs.append(abs(end - ref))
        for worse, better in zip(errs, errs[1:]):
            assert better <= worse + 1e-14 * max(abs(ref), 1.0)


def test_path_independence():
    rng = np.random.default_rng(33)
    direct = PathSpec([2j, 2 + 2j])
    detour = PathSpec([2j, 1 + 3j, 2 + 2j])
    ctrl = IntegrationControl(rel_tol=1e-11)
    for _ in range(5):
        p, _ = random_generic_equation(rng)
        a = integrate_ivp(p, direct, 1.0, 0.3, ctrl)[-1][1]
        b = integrate_ivp(p, detour, 1.0, 0.3, ctrl)[-1][1]
        assert abs(a - b) <= 1e-8 * max(abs(a), 1.0)


def test_integrator_output_satisfies_ode_reconstruction():
    rng = np.random.default_rng(34)
    p, _ = random_generic_equation(rng)
    out = integrate_ivp(p, PathSpec([2j, 1 + 2j, 2 + 2j]), 1.0, 0.0)
    for z, y, dy in out:
        q = 1 + z * z
        d2y = -(2 * p.a * z * q * dy + 4 * (p.b + p.c * z) * y) / (q * q)
        jet = Jet2(y, dy, d2y)
        assert abs(residual_z(p, jet, z)) <= 1e-8 * residual_scale(z, jet)


def test_compare_closed_numeric_elementary():
    p = EquationParams(0, 0, 0)
    d = derive_params(p)
    report = compare_closed_numeric(p, d, 2j, 0, PathSpec([2j, 1 + 2j]))
    assert report.max_abs_err <= 1e-9
    # both sides are y = z - i
    for z, closed, *_ in report.samples:
        assert abs(closed - (z - 1j)) <= 1e-10


def test_compare_closed_numeric_generic():
    p = EquationParams(1, 0, 1)
    d = derive_params(p)
    report = compare_closed_numeric(p, d, 1.0, 0.0,
                                    PathSpec([2j, 1 + 2j, 2 + 2j]))
    assert report.max_rel_err <= 1e-6
    assert report.max_abs_err == max(s[3] for s in report.samples)


def test_compare_closed_numeric_degenerate():
    from papperitz.errors import DegenerateBasis

    p = EquationParams(0, -0.25, 0)
    d = derive_params(p)
    with pytest.raises(DegenerateBasis):
        compare_closed_numeric(p, d, 1.0, 1.0, PathSpec([2j, 1 + 2j]))


def test_finite_difference_jet_polynomials():
    jet = finite_difference_jet(lambda z: z, 0.7 + 0.2j, 1e-4)
    assert abs(jet.y - (0.7 + 0.2j)) < 1e-14
    assert abs(jet.dy - 1) < 1e-8
    assert abs(jet.d2y) < 1e-6
    jet = finite_difference_jet(lambda z: z * z, 1 + 1j, 1e-4)
    assert abs(jet.y - 2j) < 1e-14
    assert abs(jet.dy - 2 * (1 + 1j)) <= 1e-7 * abs(2 * (1 + 1j))
    assert abs(jet.d2y - 2) < 1e-5


def test_finite_difference_matches_analytic_jets():
    rng = np.random.default_rng(35)
    count = 0
    while count < 20:
        p, d = random_generic_equation(rng)
        z = sample_reachable_point(d, rng)
        which = BasisMember.FIRST if rng.uniform() < 0.5 else BasisMember.SECOND
        analytic = eval_basis(d, which, z)
        fd = finite_difference_jet(
            lambda w: eval_basis(d, which, w).y, z, 1e-4)
        assert abs(fd.dy - analytic.dy) <= 1e-5 * max(abs(analytic.dy), 1.0)
        assert abs(fd.d2y - analytic.d2y) <= 1e-4 * max(abs(analytic.d2y), 1.0)
        count += 1


def _loop_rhs(p, z, y, v):
    q = 1 + z * z
    return v, -(2 * p.a * z * q * v + 4 * (p.b + p.c * z) * y) / (q * q)


def _loop_integrate_ivp(p, path, y0, dy0, ctrl=IntegrationControl()):
    """integrate_ivp as a loop over the tableau: the reference that the
    written-out stages must match bit for bit.  Its sum() adds in plain
    order, as on CPython 3.11; a sum() that compensates complex sums
    would round differently."""
    y, v = complex(y0), complex(dy0)
    out = [(path.waypoints[0], y, v)]
    steps = 0
    for z0, z1 in zip(path.waypoints, path.waypoints[1:]):
        seg_len = abs(z1 - z0)
        if seg_len == 0.0:
            out.append((z1, y, v))
            continue
        u = (z1 - z0) / seg_len
        s = 0.0
        h = min(seg_len, 0.1)
        while s < seg_len:
            h = min(h, seg_len - s)
            if steps >= ctrl.max_steps:
                raise StepLimitExceeded(f"step budget {ctrl.max_steps} "
                                        f"exhausted at z={z0 + s * u}")
            steps += 1
            ky = [0j] * 7
            kv = [0j] * 7
            for i in range(7):
                yi, vi = y, v
                for j, aij in enumerate(_DP_A[i]):
                    if aij != 0.0:
                        yi += h * aij * ky[j]
                        vi += h * aij * kv[j]
                zi = z0 + (s + _DP_C[i] * h) * u
                fy, fv = _loop_rhs(p, zi, yi, vi)
                ky[i] = u * fy
                kv[i] = u * fv
            y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ky))
            v5 = v + h * sum(b * k for b, k in zip(_DP_B5, kv))
            ey = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ky))
            ev = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, kv))
            err = 0.0
            for e_part, s_part in ((ey.real, y5.real), (ey.imag, y5.imag),
                                   (ev.real, v5.real), (ev.imag, v5.imag)):
                sc = ctrl.abs_tol + ctrl.rel_tol * abs(s_part)
                err = max(err, abs(e_part) / sc)
            if err <= 1.0:
                s += h
                y, v = y5, v5
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        out.append((z1, y, v))
    return out


#: The benchmark's integrate_path polyline, length ~19.4, in Re z > 0.
BENCH_PATH = (0.5 + 3j, 4 + 3j, 4 - 3j, 0.5 - 3j, 2.5 + 0.8j, 0.7 + 1.8j)

#: The default control and those of test_integrate_tolerance_ladder: the
#: generic equations reject steps at each, and y'' = 0 from (1, 0) takes
#: steps of zero error estimate.
BIT_IDENTITY_CONTROLS = [IntegrationControl()] + [
    IntegrationControl(rel_tol=tol, abs_tol=tol * 1e-2)
    for tol in (1e-5, 1e-7, 1e-9, 1e-11)] + [
    IntegrationControl(rel_tol=1e-13, abs_tol=1e-14)]


@pytest.mark.parametrize("waypoints", [
    DEFAULT_PATH, BENCH_PATH, (2j, 1 + 2j, 1 + 2j, 2 + 2j)])
def test_integrate_matches_loop_form_bit_for_bit(waypoints):
    rng = np.random.default_rng(36)
    path = PathSpec(waypoints)
    cases = [(random_generic_equation(rng)[0], 1.0, 0.3) for _ in range(20)]
    cases.append((EquationParams(0, 0, 0), 1.0, 0.0))
    for p, y0, dy0 in cases:
        for ctrl in BIT_IDENTITY_CONTROLS:
            got = integrate_ivp(p, path, y0, dy0, ctrl)
            want = _loop_integrate_ivp(p, path, y0, dy0, ctrl)
            assert got == want
            assert repr(got) == repr(want)  # signed zeros too


@pytest.mark.parametrize("max_steps", [3, 50])
def test_step_limit_message_matches_loop_form(max_steps):
    p = EquationParams(0.3 + 0.1j, 0.2, 0.1 + 0.2j)
    path = PathSpec(BENCH_PATH)
    ctrl = IntegrationControl(max_steps=max_steps)
    with pytest.raises(StepLimitExceeded) as got:
        integrate_ivp(p, path, 1.0, 0.3, ctrl)
    with pytest.raises(StepLimitExceeded) as want:
        _loop_integrate_ivp(p, path, 1.0, 0.3, ctrl)
    assert str(got.value) == str(want.value)
    assert f"step budget {max_steps} exhausted" in str(got.value)


def test_integrate_non_finite_raises():
    # y'' = 0 from y = y' = 1e308 overflows; a NaN step has error estimate
    # NaN, which max() drops, so without the check it was accepted
    p = EquationParams(0, 0, 0)
    with pytest.raises(NonFiniteSolution, match=r"not finite at z=\(3\+0j\)"):
        integrate_ivp(p, PathSpec([0.5, 3.0]), 1e308, 1e308)
    with pytest.raises(NonFiniteSolution):
        integrate_ivp(p, PathSpec([0.5, 3.0]), complex("nan"), 0)
    assert integrate_ivp(p, PathSpec([0.5, 3.0]), 1e307, 0)[-1][1] == 1e307


def _pointwise_compare(p, d, c1, c2, path, ctrl=IntegrationControl()):
    """compare_closed_numeric with one eval_solution call per waypoint."""
    start_jet = eval_solution(d, c1, c2, path.waypoints[0])
    numeric = integrate_ivp(p, path, start_jet.y, start_jet.dy, ctrl)
    report = VerifyReport()
    for z, y_num, _ in numeric:
        y_closed = eval_solution(d, c1, c2, z).y
        abs_err = abs(y_closed - y_num)
        rel_err = abs_err / max(abs(y_closed), 1e-300)
        report.samples.append((z, y_closed, y_num, abs_err))
        report.max_abs_err = max(report.max_abs_err, abs_err)
        report.max_rel_err = max(report.max_rel_err, rel_err)
    return report


def test_compare_closed_numeric_matches_pointwise_report():
    rng = np.random.default_rng(37)
    paths = [PathSpec(DEFAULT_PATH), PathSpec((2j, 1 + 2j, 1 + 2j, 2 + 2j))]
    for _ in range(10):
        p, d = random_generic_equation(rng)
        for path in paths:
            got = compare_closed_numeric(p, d, 1.0, 0.3, path)
            want = _pointwise_compare(p, d, 1.0, 0.3, path)
            assert repr(got) == repr(want)
            assert all(type(s[1]) is complex for s in got.samples)


def test_path_segments_of_any_finite_length():
    PathSpec([0, 1e300])
    PathSpec([1.5e308 + 1.5e308j, 1.6e308 + 1.6e308j])
    # a long segment passing through +i, measured without a square
    with pytest.raises(PathTooCloseToSingularity):
        PathSpec([-1e300 + 1j, 1e300 + 1j])
    with pytest.raises(NonFinitePath):
        PathSpec([0, -1e308, 1e308])


def _squared_length_distance(z0, z1, w):
    """Distance from w to [z0, z1] by the squared length, as PathSpec once
    measured it: the reference for verdicts where it does not overflow."""
    d = z1 - z0
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(w - z0)
    s = min(1.0, max(0.0, ((w - z0) * d.conjugate()).real / L2))
    return abs(z0 + s * d - w)


def test_path_verdicts_match_the_squared_length_distance():
    rng = np.random.default_rng(37)
    paths = [DEFAULT_PATH, BENCH_PATH]
    for _ in range(3000):
        n = int(rng.integers(2, 6))
        paths.append(tuple(rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)))
    verdicts = set()
    for waypoints in paths:
        want = all(_squared_length_distance(z0, z1, s) >= 0.1
                   for z0, z1 in zip(waypoints, waypoints[1:]) for s in (1j, -1j))
        try:
            PathSpec(waypoints)
            got = True
        except PathTooCloseToSingularity:
            got = False
        assert got == want, waypoints
        verdicts.add(got)
    assert verdicts == {True, False}

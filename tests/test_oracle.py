import cmath
import math
from collections import Counter

import numpy as np
import pytest

from papperitz import oracle
from papperitz.closed_form import (
    BasisMember,
    _member_t_jets,
    eval_basis,
    eval_solution,
    is_reachable,
)
from papperitz.errors import (
    NonFinitePath,
    NonFiniteSolution,
    PathTooCloseToSingularity,
    StepLimitExceeded,
)
from papperitz.mobius import forward_jets
from papperitz.oracle import (
    MAX_WAYPOINT_MODULUS,
    _DP_A,
    _DP_B4,
    _DP_B5,
    _DP_C,
    PathSpec,
    _finite_sample,
    integrate_ivp,
    residual_scale,
    residual_z,
)
from papperitz.params import EquationParams, Jet2, derive_params
from papperitz.selftest import (
    DEFAULT_PATH,
    VerifyReport,
    compare_closed_numeric,
    random_generic_equation,
    sample_reachable_point,
)


def test_residual_z_values():
    p = EquationParams(0, 0, 0)
    jet = Jet2(3 - 1j, 1, 0)  # y = z - i at z = 3
    assert residual_z(p, jet, 3.0) == 0
    p = EquationParams(0, 1, 1)
    assert abs(residual_z(p, Jet2(1, 0, 0), 2.0) - 12) < 1e-14


def residual_t(p, y, dy, d2y, t):
    """t^2(1-t) y'' + t[a - (2-a)t] y' + [(b-ic)t - (b+ic)] y: the equation
    in the t-plane, a reference for the t-jets of the basis members."""
    return (t * t * (1 - t) * d2y
            + t * (p.a - (2 - p.a) * t) * dy
            + ((p.b - 1j * p.c) * t - (p.b + 1j * p.c)) * y)


def finite_difference_jet(f, z, h):
    """Central-difference jet of a pointwise function."""
    fp = f(z + h)
    fm = f(z - h)
    f0 = f(z)
    return Jet2(f0, (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / (h * h))


def test_residual_t_values():
    p = EquationParams(0, 0, 0)
    # y(t) = t/(1-t): y(0.5)=1, y'=1/(1-t)^2=4, y''=2/(1-t)^3=16
    assert abs(residual_t(p, 1, 4, 16, 0.5)) < 1e-14
    p = EquationParams(0.3, 1.1, -0.4)
    t = 0.2 + 0.1j
    expected = (p.b - 1j * p.c) * t - (p.b + 1j * p.c)
    assert abs(residual_t(p, 1, 0, 0, t) - expected) < 1e-14


def test_residuals_vanish_together():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p, d = random_generic_equation(rng)
        z = sample_reachable_point(d, rng)
        t = forward_jets(z)[0][0]
        for which in BasisMember:
            jz = eval_basis(d, which, z)
            jt, fault = _member_t_jets(d, which, np.array([t]))
            assert fault is None
            y, dy, d2y = jt[:, 0]
            assert abs(residual_z(p, jz, z)) <= 1e-8 * residual_scale(z, jz)
            scale_t = (abs(t) ** 2 * abs(1 - t) + 1) * (
                abs(y) + abs(dy) + abs(d2y))
            assert abs(residual_t(p, y, dy, d2y, t)) <= 1e-8 * scale_t


def test_path_validation():
    PathSpec([0, 2.0])
    with pytest.raises(ValueError):
        PathSpec([0])
    with pytest.raises(PathTooCloseToSingularity):
        PathSpec([0.95j, 1.05j])
    # segment passing near +i even though endpoints are far from it
    with pytest.raises(PathTooCloseToSingularity):
        PathSpec([-2 + 1j, 2 + 1j])


def test_integrate_trivial_dynamics():
    p = EquationParams(0, 0, 0)  # y'' = 0 along any path
    path = PathSpec([0, 2.0])
    out = integrate_ivp(p, path, 1.0, 0.0)
    z, y, dy = out[-1]
    assert z == 2.0
    assert abs(y - 1) < 1e-12 and abs(dy) < 1e-12
    out = integrate_ivp(p, path, 0.0, 1.0)
    assert abs(out[-1][1] - 2.0) < 1e-10


def test_integrate_step_limit(monkeypatch):
    p = EquationParams(0, 1, 0)
    monkeypatch.setattr(oracle, "MAX_STEPS", 3)
    with pytest.raises(StepLimitExceeded):
        integrate_ivp(p, PathSpec([0, 1.0]), 1.0, 0.0)


def test_integrate_self_convergence_single(monkeypatch):
    p = EquationParams(0, 1, 0)
    path = PathSpec([0, 1.0])
    monkeypatch.setattr(oracle, "STEP_REL_TOL", 1e-9)
    a = integrate_ivp(p, path, 1.0, 0.5)[-1]
    monkeypatch.setattr(oracle, "STEP_REL_TOL", 5e-10)
    b = integrate_ivp(p, path, 1.0, 0.5)[-1]
    assert abs(a[1] - b[1]) <= 1e-9 * max(abs(a[1]), 1.0)


def _set_tolerances(monkeypatch, rel_tol, abs_tol):
    monkeypatch.setattr(oracle, "STEP_REL_TOL", rel_tol)
    monkeypatch.setattr(oracle, "STEP_ABS_TOL", abs_tol)


def test_integrate_tolerance_ladder(monkeypatch):
    # tightening the relative tolerance never worsens the endpoint error
    # against a tight-tolerance reference
    rng = np.random.default_rng(32)
    path = PathSpec([2j, 1 + 2j])
    for _ in range(10):
        p, d = random_generic_equation(rng)
        _set_tolerances(monkeypatch, 1e-13, 1e-14)
        ref = integrate_ivp(p, path, 1.0, 0.2)[-1][1]
        errs = []
        for tol in (1e-5, 1e-7, 1e-9, 1e-11):
            _set_tolerances(monkeypatch, tol, tol * 1e-2)
            end = integrate_ivp(p, path, 1.0, 0.2)[-1][1]
            errs.append(abs(end - ref))
        for worse, better in zip(errs, errs[1:]):
            assert better <= worse + 1e-14 * max(abs(ref), 1.0)


def test_path_independence(monkeypatch):
    rng = np.random.default_rng(33)
    direct = PathSpec([2j, 2 + 2j])
    detour = PathSpec([2j, 1 + 3j, 2 + 2j])
    monkeypatch.setattr(oracle, "STEP_REL_TOL", 1e-11)
    for _ in range(5):
        p, _ = random_generic_equation(rng)
        a = integrate_ivp(p, direct, 1.0, 0.3)[-1][1]
        b = integrate_ivp(p, detour, 1.0, 0.3)[-1][1]
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


def _loop_stage(p, u, z, y, v):
    """k = u * (y', y'') at the stage point (z, y, y')."""
    q = 1 + z * z
    return u * v, u * (-(2 * p.a * z * q * v + 4 * (p.b + p.c * z) * y) / (q * q))


def _loop_integrate_ivp(p, path, y0, dy0, log=None):
    """integrate_ivp as the textbook first-same-as-last loop over the
    tableau: the reference that the written-out stages must match bit for
    bit.  It reads the same step-control constants of the oracle at each
    call.  It evaluates stage 1 at every step and reuses nothing; stage 7 is
    evaluated at the new solution y + h*sum(b*k for stages 1-6).  Its sum()
    adds in plain order, as on CPython 3.11; a sum() that compensates
    complex sums would round differently.  Each step appends (its segment,
    whether it was accepted, its stage 1, its stage 7, its error estimate,
    whether it was shortened to end on the segment's end) to log, if
    given."""
    y, v = complex(y0), complex(dy0)
    out = [(path.waypoints[0], y, v)]
    steps = 0
    for seg, (z0, z1) in enumerate(zip(path.waypoints, path.waypoints[1:])):
        seg_len = abs(z1 - z0)
        if seg_len == 0.0:
            out.append((z1, y, v))
            continue
        u = (z1 - z0) / seg_len
        s = 0.0
        h = min(seg_len, 0.1)
        while s < seg_len:
            shortened = seg_len - s < h
            h = min(h, seg_len - s)
            if steps >= oracle.MAX_STEPS:
                raise StepLimitExceeded(f"step budget {oracle.MAX_STEPS} "
                                        f"exhausted at z={z0 + s * u}")
            steps += 1
            ky = [0j] * 7
            kv = [0j] * 7
            for i in range(6):
                yi, vi = y, v
                for j, aij in enumerate(_DP_A[i]):
                    yi += h * aij * ky[j]
                    vi += h * aij * kv[j]
                ky[i], kv[i] = _loop_stage(p, u, z0 + (s + _DP_C[i] * h) * u, yi, vi)
            y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ky[:6]))
            v5 = v + h * sum(b * k for b, k in zip(_DP_B5, kv[:6]))
            ky[6], kv[6] = _loop_stage(p, u, z0 + (s + _DP_C[6] * h) * u, y5, v5)
            ey = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ky))
            ev = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, kv))
            err = 0.0
            for e_part, s_part in ((ey.real, y5.real), (ey.imag, y5.imag),
                                   (ev.real, v5.real), (ev.imag, v5.imag)):
                sc = oracle.STEP_ABS_TOL + oracle.STEP_REL_TOL * abs(s_part)
                err = max(err, abs(e_part) / sc)
            if log is not None:
                log.append((seg, err <= 1.0, (ky[0], kv[0]), (ky[6], kv[6]),
                            err, shortened))
            if err <= 1.0:
                s += h
                y, v = y5, v5
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h *= factor
        out.append((z1, y, v))
    return out


def _count_reuses(log):
    """Check that each step's stage 1, evaluated afresh by the loop, is bit
    for bit the stage integrate_ivp reuses in its place: the last step's
    stage 7 after an acceptance, its stage 1 after a rejection.  A
    segment's first step has nothing to reuse.  Returns how many steps
    reused each."""
    reused = {"k7": 0, "k1": 0}
    for (seg, accepted, k1, k7, *_), (next_seg, _, next_k1, *_) in zip(log, log[1:]):
        if next_seg == seg:
            assert repr(next_k1) == repr(k7 if accepted else k1)
            reused["k7" if accepted else "k1"] += 1
    return reused


def _count_branches(log):
    """How many steps took each branch of the step control: an error
    estimate of zero (factor 5), a factor clipped at 5, clipped at 0.2 or in
    between, and a segment's last step shortened to end on its end."""
    taken = Counter()
    for *_, err, shortened in log:
        if err == 0.0:
            taken["zero"] += 1
        else:
            f = 0.9 * err ** -0.2
            taken["5" if f >= 5.0 else "0.2" if f <= 0.2 else "between"] += 1
        taken["shortened"] += shortened
    return taken


#: The benchmark's integrate_path polyline, length ~19.4, in Re z > 0.
BENCH_PATH = (0.5 + 3j, 4 + 3j, 4 - 3j, 0.5 - 3j, 2.5 + 0.8j, 0.7 + 1.8j)

#: The default (relative, absolute) tolerances and those of
#: test_integrate_tolerance_ladder: the generic equations reject steps at
#: each, and y'' = 0 from (1, 0) takes steps of zero error estimate.
BIT_IDENTITY_TOLERANCES = [(oracle.STEP_REL_TOL, oracle.STEP_ABS_TOL)] + [
    (tol, tol * 1e-2) for tol in (1e-5, 1e-7, 1e-9, 1e-11)] + [(1e-13, 1e-14)]


@pytest.mark.parametrize("waypoints", [
    DEFAULT_PATH, BENCH_PATH, (2j, 1 + 2j, 1 + 2j, 2 + 2j)])
def test_integrate_matches_loop_form_bit_for_bit(waypoints, monkeypatch):
    rng = np.random.default_rng(36)
    path = PathSpec(waypoints)
    cases = [(random_generic_equation(rng)[0], 1.0, 0.3) for _ in range(20)]
    cases.append((EquationParams(0, 0, 0), 1.0, 0.0))
    # y'' = 0 from y = y' = -0: every stage is a zero whose signs follow u,
    # so they change at a segment's start
    cases.append((EquationParams(0, 0, 0), -0.0, complex(-0.0, -0.0)))
    reused, taken = Counter(), Counter()
    for p, y0, dy0 in cases:
        for rel_tol, abs_tol in BIT_IDENTITY_TOLERANCES:
            _set_tolerances(monkeypatch, rel_tol, abs_tol)
            got = integrate_ivp(p, path, y0, dy0)
            log = []
            want = _loop_integrate_ivp(p, path, y0, dy0, log)
            assert got == want
            assert repr(got) == repr(want)  # signed zeros too
            reused.update(_count_reuses(log))
            taken.update(_count_branches(log))
    assert reused["k7"] > 0 and reused["k1"] > 0
    for branch in ("zero", "5", "0.2", "between", "shortened"):
        assert taken[branch] > 0, branch


def test_a_float_meets_a_complex_as_complex_f_0():
    # integrate_ivp keeps the loop form's bits with its weights, the 1 of
    # z*z + 1 and h held complex only while a float or int met by a complex
    # turns into complex(f, 0.0) first, as on CPython 3.11.  CPython 3.14
    # computes complex*float and complex+float part by part (gh-69639),
    # which differs at signed zeros, infinities and NaN: this test fails
    # there and names the assumption.
    values = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -0.3)
    for x in values:
        for y in values:
            w = complex(x, y)
            for k in values:
                assert repr(w * k) == repr(w * complex(k)), (w, k)
            assert repr(w + 1) == repr(w + (1 + 0j)), w


def test_integrator_keeps_its_digits_along_the_benchmark_path():
    # the closed form against the integrator at the default control, for
    # 10 Generic sets, a check that does not rest on the loop form.  The
    # closed form reaches no set at 0.5-3j (|t| = 1.96, |1-t| = 0.97), so
    # the path is integrated whole and compared at its other 5 waypoints.
    # The worst error read 6.78e-8 at the seven-evaluation step that the
    # first-same-as-last one replaced; the bound is less than twice that.
    rng = np.random.default_rng(38)
    path = PathSpec(BENCH_PATH)
    worst = 0.0
    for _ in range(10):
        p, d = random_generic_equation(rng)
        start = eval_solution(d, 1.0, 0.3, BENCH_PATH[0])
        numeric = integrate_ivp(p, path, start.y, start.dy)
        checked = [(z, y) for z, y, _ in numeric if is_reachable(d, z)]
        assert len(checked) == 5
        for z, y_num in checked:
            y_closed = eval_solution(d, 1.0, 0.3, z).y
            worst = max(worst, abs(y_closed - y_num) / abs(y_closed))
    assert worst <= 1.2e-7


@pytest.mark.parametrize("max_steps", [3, 50])
def test_step_limit_message_matches_loop_form(max_steps, monkeypatch):
    p = EquationParams(0.3 + 0.1j, 0.2, 0.1 + 0.2j)
    path = PathSpec(BENCH_PATH)
    monkeypatch.setattr(oracle, "MAX_STEPS", max_steps)
    with pytest.raises(StepLimitExceeded) as got:
        integrate_ivp(p, path, 1.0, 0.3)
    with pytest.raises(StepLimitExceeded) as want:
        _loop_integrate_ivp(p, path, 1.0, 0.3)
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


def test_overflow_takes_the_loop_forms_path(monkeypatch):
    # integrate_ivp drops the sums' zero terms and lets stage 7 share stage
    # 6's point, which leaves finite values as they are; inf*0 is NaN, so
    # runs that overflow mid-path check that their non-finite values take
    # the loop's steps and raise its messages: at the first waypoint that is
    # not finite, and with a budget one step short of it
    assert _DP_C[5] == _DP_C[6] == 1.0
    rng = np.random.default_rng(39)
    runs = 0
    for i in range(100):
        p = random_generic_equation(rng)[0]
        y0, dy0 = (10 ** rng.uniform(290, 308, 2)
                   * np.exp(2j * np.pi * rng.uniform(size=2))).tolist()
        path = PathSpec(BENCH_PATH if i % 2 else DEFAULT_PATH)
        monkeypatch.setattr(oracle, "MAX_STEPS", 5000)
        log = []
        out = _loop_integrate_ivp(p, path, y0, dy0, log)
        first = next((k for k, (_, y, v) in enumerate(out)
                      if not (cmath.isfinite(y) and cmath.isfinite(v))), None)
        if first is None:
            continue
        with pytest.raises(NonFiniteSolution) as want:
            _finite_sample(*out[first])
        with pytest.raises(NonFiniteSolution) as got:
            integrate_ivp(p, path, y0, dy0)
        assert str(got.value) == str(want.value)
        monkeypatch.setattr(oracle, "MAX_STEPS",
                            sum(seg < first for seg, *_ in log) - 1)
        with pytest.raises(StepLimitExceeded) as want:
            _loop_integrate_ivp(p, path, y0, dy0)
        with pytest.raises(StepLimitExceeded) as got:
            integrate_ivp(p, path, y0, dy0)
        assert str(got.value) == str(want.value)
        runs += 1
        if runs == 20:
            break
    assert runs == 20


def _pointwise_compare(p, d, c1, c2, path):
    """compare_closed_numeric with one eval_solution call per waypoint."""
    start_jet = eval_solution(d, c1, c2, path.waypoints[0])
    numeric = integrate_ivp(p, path, start_jet.y, start_jet.dy)
    samples, max_abs_err, max_rel_err = [], 0.0, 0.0
    for z, y_num, _ in numeric:
        y_closed = eval_solution(d, c1, c2, z).y
        abs_err = abs(y_closed - y_num)
        rel_err = abs_err / max(abs(y_closed), 1e-300)
        samples.append((z, y_closed, y_num, abs_err))
        max_abs_err = max(max_abs_err, abs_err)
        max_rel_err = max(max_rel_err, rel_err)
    return VerifyReport(samples, max_abs_err, max_rel_err)


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


def test_path_waypoints_within_the_coefficient_bound():
    # (1 + z^2)^2 is finite on the disk, and so on every segment in it
    for z in MAX_WAYPOINT_MODULUS * np.exp(1j * np.linspace(0, np.pi, 7)):
        q = complex(z) ** 2 + 1
        assert cmath.isfinite(q * q)
    PathSpec([0, MAX_WAYPOINT_MODULUS])
    PathSpec([-1e77, 1e77j, 1e77])
    # a long segment passing through +i, measured without a square
    with pytest.raises(PathTooCloseToSingularity):
        PathSpec([-1e77 + 1j, 1e77 + 1j])
    for far in (math.nextafter(1e77, math.inf), 1e100j, -1e308, 1.5e308 + 1.5e308j):
        with pytest.raises(NonFinitePath) as exc:
            PathSpec([2, far])
        assert str(exc.value) == (f"waypoint {complex(far)} lies beyond |z| = 1e+77, "
                                  f"where the equation's coefficients overflow")
        assert exc.value.exit_code == 3


def _mp_first_member(p, z):
    """y1 = t^lambda F(alpha, beta; gamma; t) and dy1/dz at z, in mpmath at
    200 digits, which resolve 1 - t = 2i/(z+i) at |z| = 1e77."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(200):
        a, b, c, z = (mpmath.mpc(v) for v in (p.a, p.b, p.c, z))
        delta = mpmath.sqrt((1 - a) ** 2 + 4 * (b + 1j * c))
        delta_star = mpmath.sqrt((1 - a) ** 2 + 4 * (b - 1j * c))
        alpha = 1 - a + (delta + delta_star) / 2
        beta = 1 - a + (delta - delta_star) / 2
        gamma = 1 + delta
        lam = (1 - a + delta) / 2
        t = (z - 1j) / (z + 1j)
        f = mpmath.hyp2f1(alpha, beta, gamma, t)
        df = alpha * beta / gamma * mpmath.hyp2f1(alpha + 1, beta + 1, gamma + 1, t)
        y = mpmath.power(t, lam) * f
        dy = (lam / t * y + mpmath.power(t, lam) * df) * 2j / (z + 1j) ** 2
        return complex(y), complex(dy)


def test_integrator_keeps_its_digits_out_to_the_waypoint_bound():
    # y1 from z = 2 to |z| = 1e77; past ~1.2e77 (1 + z^2)^2 overflowed, y''
    # read 0 and the error grew to 1.8e-4 at 1.2e77 and 25 at 1e80
    p = EquationParams(0.3 + 0.1j, 0.2, 0.1 + 0.2j)
    y0, dy0 = _mp_first_member(p, 2)
    for far in (1e77, 1e77j):
        y, dy = _mp_first_member(p, far)
        _, y_num, dy_num = integrate_ivp(p, PathSpec([2, far]), y0, dy0)[-1]
        assert abs(y_num - y) <= 1e-8 * abs(y)
        assert abs(dy_num - dy) <= 1e-8 * abs(dy)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"),
                                 complex(1, float("nan"))])
def test_path_names_a_waypoint_that_is_not_finite(bad):
    with pytest.raises(NonFinitePath) as exc:
        PathSpec([2j, bad, 2 + 2j])
    assert str(exc.value) == f"waypoint {bad} is not finite"
    assert exc.value.exit_code == 3


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

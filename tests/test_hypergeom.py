import math

import numpy as np
import pytest

from papperitz.errors import (
    EvaluationUnreachable,
    InvalidGamma,
    NoConvergence,
    NonFiniteParameters,
    OnBranchCut,
)
from papperitz.hypergeom import (
    EvalStrategy,
    gauss_2f1,
    gauss_2f1_jet,
    raw_series,
    select_strategy,
)
from papperitz.mobius import principal_power
from papperitz.params import HypParams
from papperitz.selftest import random_hyp_params

# F(1,1,2,t) = -ln(1-t)/t; frozen values at t = 0.5 from the closed form:
#   F      = 2 ln 2
#   dF/dt  = 1/(t(1-t)) + ln(1-t)/t^2      -> 4 + 4 ln(1/2)
#   d2F/dt2 (symbolic differentiation)     -> 3.090354888959125
LOG_F = 2 * math.log(2)                      # 1.3862943611198906
LOG_F1 = 4 + 4 * math.log(0.5)               # 1.2274112777602189
LOG_F2 = 3.090354888959125


def test_params_validation():
    HypParams(1.0, 2.0, 0.5)  # fine
    with pytest.raises(InvalidGamma):
        HypParams(1.0, 2.0, 0.0)
    with pytest.raises(InvalidGamma):
        HypParams(1.0, 2.0, -3.0)
    # polynomial escape: alpha = -k with k <= |round(gamma)|
    HypParams(-2.0, 2.0, -3.0)
    HypParams(1.0, -3.0, -3.0)
    with pytest.raises(InvalidGamma):
        HypParams(-5.0, 2.0, -3.0)


def test_raw_series_values():
    assert raw_series(HypParams(1.3 + 1j, -0.2, 0.7), 0.0) == 1
    # (1-w)^2 at w=0.3, three-term truncation
    assert abs(raw_series(HypParams(-2, 1, 1), 0.3) - 0.49) < 1e-15
    assert abs(raw_series(HypParams(1, 1, 2), 0.5) - LOG_F) < 1e-14


def test_raw_series_outside_disk():
    with pytest.raises(NoConvergence):
        raw_series(HypParams(1, 1, 2), 1.5)
    # truncation makes any argument legal
    assert abs(raw_series(HypParams(-1, 1, 2), 4.0) - (1 - 2.0)) < 1e-14


def test_select_strategy_regions():
    p = HypParams(0.3 + 0.1j, 1.2, 0.8 - 0.4j)
    assert select_strategy(p, 0.1) is EvalStrategy.DIRECT_SERIES
    # |t|=9, |t/(t-1)|=0.9, |1-t|=10: nothing applies
    assert select_strategy(p, -9.0) is EvalStrategy.UNREACHABLE
    assert select_strategy(HypParams(-3, 1.2, 0.8), 123.0) \
        is EvalStrategy.POLYNOMIAL_TRUNCATION
    # Pfaff region: t/(t-1) small for t near large negative
    assert select_strategy(p, -1.5) in (EvalStrategy.PFAFF_ON_ALPHA,
                                        EvalStrategy.PFAFF_ON_BETA)
    # 1-t region, non-integer gamma-alpha-beta
    assert select_strategy(p, 0.9 + 0.2j) \
        is EvalStrategy.ONE_MINUS_T_CONNECTION


def test_unreachable_reports_moduli():
    p = HypParams(0.3, 1.2, 0.8)
    with pytest.raises(EvaluationUnreachable) as exc:
        gauss_2f1(p, -9.0)
    assert exc.value.t == -9.0
    assert abs(exc.value.mod_pfaff - 0.9) < 1e-12


def test_gauss_2f1_values():
    assert gauss_2f1(HypParams(0.77 - 2j, 1.1, 3.3), 0.0) == 1
    # F(2,1,2,t) = F(1,2,2,t) = (1-t)^{-1}
    assert abs(gauss_2f1(HypParams(2, 1, 2), 0.5) - 2.0) < 1e-14
    assert abs(gauss_2f1(HypParams(1, 1, 2), 0.5) - LOG_F) < 1e-14


def test_gauss_2f1_branch_cut():
    with pytest.raises(OnBranchCut):
        gauss_2f1(HypParams(0.3, 1.2, 0.8), 1.2)
    with pytest.raises(OnBranchCut):
        gauss_2f1(HypParams(0.3, 1.2, 0.8), 1.0 + 1e-14j)


def test_one_route_array_decides_strategy_reach_and_error():
    # a seeded grid of t over the cut, its guard band and t = 1, for random
    # triples, triples whose series or Pfaff transform truncates, and one
    # with integer gamma - alpha - beta
    from papperitz.hypergeom import BRANCH_CUT_TOL, gauss_2f1_jets

    rng = np.random.default_rng(14)
    tol = BRANCH_CUT_TOL
    re = [1.0, 1 - 2 * tol, 1 - tol, 1 - tol / 2, 1 + tol / 10, 1.2, 3.0, 0.5, -9.0, 0.9]
    im = [0.0, -0.0, tol / 2, -tol, tol, 2 * tol, -3 * tol, 1e-14, 0.2]
    t = np.array([complex(x, y) for x in re for y in im]
                 + list(rng.uniform(0.9, 1.5, 40) + 1j * rng.uniform(-3 * tol, 3 * tol, 40)))
    t = t[rng.permutation(len(t))]
    on_cut = (np.abs(t.imag) <= tol) & (t.real >= 1 - tol)
    triples = [random_hyp_params(rng) for _ in range(6)] + [
        HypParams(-3, 1.2 + 0.5j, 0.8), HypParams(1.0, -3.0, -3.0),
        HypParams(2, 1, 2), HypParams(0.5, 0.5, 1.0), HypParams(0.3, 1.2, 0.8)]
    for p in triples:
        reached = np.array([select_strategy(p, x) is not EvalStrategy.UNREACHABLE
                            for x in t])
        if p.truncation_degree() is None:
            assert not reached[on_cut].any()
        else:
            assert reached.all()
        fault = gauss_2f1_jets(p, t)[1]
        assert (fault is None) == reached.all()
        if fault is not None:
            assert fault[0] == int(reached.argmin())
        for x, ok in zip(t.tolist(), reached.tolist()):
            try:
                gauss_2f1(p, x)
                raised = None
            except (EvaluationUnreachable, OnBranchCut) as exc:
                raised = exc
            assert (raised is None) == ok
            if raised is not None and abs(x.imag) <= tol and x.real >= 1 - tol:
                assert isinstance(raised, OnBranchCut)
                exact = x.imag == 0 and x.real >= 1
                assert ("lies on the branch cut" in str(raised)) == exact
                assert (f"within {tol:g} of the branch cut" in str(raised)) != exact


def test_derivative_values():
    p = HypParams(1.5 - 0.5j, 0.7, 2.2 + 1j)
    at0 = gauss_2f1_jet(p, 0.0)[1]
    assert abs(at0 - p.alpha * p.beta / p.gamma) < 1e-14
    assert abs(gauss_2f1_jet(HypParams(1, 1, 2), 0.5)[1] - LOG_F1) < 1e-13


def test_second_derivative_values():
    p = HypParams(1.5 - 0.5j, 0.7, 2.2 + 1j)
    expected = (p.alpha * (p.alpha + 1) * p.beta * (p.beta + 1)
                / (p.gamma * (p.gamma + 1)))
    assert abs(gauss_2f1_jet(p, 0.0)[2] - expected) < 1e-13
    assert abs(gauss_2f1_jet(HypParams(1, 1, 2), 0.5)[2] - LOG_F2) < 1e-12


def test_degenerate_gamma():
    # a gamma within tolerance of 0 is already unbuildable without the
    # polynomial escape, so the rejection happens at construction
    with pytest.raises(InvalidGamma):
        HypParams(0.5, 0.7, 1e-12)
    # escaped construction (alpha = 0) keeps the derivative finite
    assert gauss_2f1_jet(HypParams(0, 0.7, 1e-12), 0.1)[1] == 0


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        p = random_hyp_params(rng)
        r = 0.5 * math.sqrt(rng.uniform(0, 1))
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        fd = (gauss_2f1(p, t + h) - gauss_2f1(p, t - h)) / (2 * h)
        dv = gauss_2f1_jet(p, t)[1]
        assert abs(dv - fd) <= 1e-6 * max(abs(dv), 1.0)


def test_second_derivative_matches_finite_differences():
    rng = np.random.default_rng(9)
    h = 1e-4
    for _ in range(20):
        p = random_hyp_params(rng)
        r = 0.5 * math.sqrt(rng.uniform(0, 1))
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        fd = (gauss_2f1(p, t + h) - 2 * gauss_2f1(p, t)
              + gauss_2f1(p, t - h)) / h**2
        dv = gauss_2f1_jet(p, t)[2]
        assert abs(dv - fd) <= 1e-5 * max(abs(dv), 1.0)


def test_symmetry_euler_pfaff():
    rng = np.random.default_rng(10)
    for _ in range(200):
        p = random_hyp_params(rng)
        r = 0.6 * math.sqrt(rng.uniform(0, 1))
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        f = gauss_2f1(p, t)
        sym = gauss_2f1(HypParams(p.beta, p.alpha, p.gamma), t)
        assert abs(f - sym) <= 1e-13 * max(abs(f), 1.0)
        eul = (principal_power(1 - t, p.gamma - p.alpha - p.beta)
               * gauss_2f1(HypParams(p.gamma - p.alpha, p.gamma - p.beta,
                                     p.gamma), t))
        assert abs(f - eul) <= 1e-12 * max(abs(f), 1.0)
        if abs(t) <= 0.5 and t.real < 0.5:
            pf = (principal_power(1 - t, -p.beta)
                  * raw_series(HypParams(p.gamma - p.alpha, p.beta, p.gamma),
                               t / (t - 1)))
            assert abs(f - pf) <= 1e-12 * max(abs(f), 1.0)


def test_polynomial_matches_horner():
    # independent oracle: explicit Pochhammer coefficients + np.polyval
    rng = np.random.default_rng(12)
    for n in range(6):
        beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gamma = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
        coeffs = []
        for k in range(n + 1):
            num = den = 1.0 + 0j
            for j in range(k):
                num *= (-n + j) * (beta + j)
                den *= (gamma + j) * (j + 1)
            coeffs.append(num / den)
        for _ in range(5):
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            horner = np.polyval(coeffs[::-1], w)
            got = gauss_2f1(HypParams(-n, beta, gamma), w)
            assert abs(got - horner) <= 1e-14 * max(abs(horner), 1.0)


def test_pfaff_polynomial_escape():
    # gamma - alpha = 0 lets the Pfaff route truncate: F(2,1,2,t) = 1/(1-t)
    p = HypParams(2, 1, 2)
    t = 3.0 + 4.0j
    assert select_strategy(p, t) in (EvalStrategy.PFAFF_ON_ALPHA,
                                     EvalStrategy.PFAFF_ON_BETA)
    assert abs(gauss_2f1(p, t) - 1 / (1 - t)) < 1e-14


def test_one_minus_t_connection_against_series(monkeypatch):
    # cross-check the connection formula against the direct series where
    # both converge: t near 1 but still inside the unit disk
    from papperitz import hypergeom

    monkeypatch.setattr(hypergeom, "REGION_CUTOFF", 0.45)
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        p = random_hyp_params(rng)
        s = p.gamma - p.alpha - p.beta
        # keep the Gamma coefficients well conditioned
        if abs(s.real - round(s.real)) < 0.15 and abs(s.imag) < 0.15:
            continue
        t = complex(rng.uniform(0.75, 0.95), rng.uniform(0.05, 0.25))
        if select_strategy(p, t) is not EvalStrategy.ONE_MINUS_T_CONNECTION:
            continue
        direct = raw_series(p, t)
        conn = gauss_2f1(p, t)
        assert abs(direct - conn) <= 1e-9 * max(abs(direct), 1.0)
        checked += 1


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64).tobytes()


def _mixed_points(p, rng, n=120):
    t = rng.uniform(-2.5, 2.5, n) + 1j * rng.uniform(-2.5, 2.5, n)
    return t[[select_strategy(p, x) is not EvalStrategy.UNREACHABLE for x in t]]


def test_kernel_row_independent_of_batch_order_blocks_and_cache(monkeypatch):
    from papperitz import hypergeom
    from papperitz.hypergeom import gauss_2f1_jets, series_jets

    rng = np.random.default_rng(41)
    for _ in range(4):
        p = random_hyp_params(rng)
        t = _mixed_points(p, rng)
        whole, fault = gauss_2f1_jets(p, t)
        assert fault is None
        alone = np.array([gauss_2f1_jets(p, t[i:i + 1])[0][:, 0]
                          for i in range(len(t))]).T
        assert _bits(alone) == _bits(whole)
        perm = rng.permutation(len(t))
        assert _bits(gauss_2f1_jets(p, t[perm])[0]) == _bits(whole[:, perm])
        for block_terms in (500, 1 << 13):
            monkeypatch.setattr(hypergeom, "BLOCK_TERMS", block_terms)
            assert _bits(gauss_2f1_jets(p, t)[0]) == _bits(whole)
        monkeypatch.undo()
        # a longer table starts with the bits of a shorter one
        for shift in (None, complex(p.gamma - p.alpha - p.beta)):
            longer, _ = hypergeom._jet_coefficients(p, 512, shift)
            shorter, _ = hypergeom._jet_coefficients(p, 256, shift)
            assert _bits(longer[:, :256]) == _bits(shorter)
        assert gauss_2f1_jet(p, complex(t[0])) == tuple(whole[:, 0].tolist())
    # the block size only decides which points share a block: the rows at
    # BLOCK_TERMS are those at the former 1 << 13, for every series kind
    w = 0.95 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    w[:4] = [0.95, -0.95j, 0.95 * np.exp(2j), -0.9]
    generic = random_hyp_params(rng)
    cases = [
        (generic, w, None),  # direct, as for Pfaff's transformed argument
        (generic, w, complex(generic.gamma - generic.alpha - generic.beta)),  # connection
        (HypParams(-30, 0.5 + 0.5j, 1.3), 3 * w, None),  # polynomial
        (HypParams(-2500, 1, 2500.5), w, None),  # polynomial longer than a block
        (HypParams(20, 19.5 + 1j, 1.5), w[:40], None),  # summed over several passes
    ]
    assert hypergeom.BLOCK_TERMS < 1 << 13
    for p, args, shift in cases:
        now, fault = series_jets(p, args, shift)
        assert fault is None
        monkeypatch.setattr(hypergeom, "BLOCK_TERMS", 1 << 13)
        assert _bits(series_jets(p, args, shift)[0]) == _bits(now)
        monkeypatch.undo()
        # the pass width decides how fast the kernel runs, and no value
        for width in (1, 2, 3, 1000):
            monkeypatch.setattr(hypergeom, "_PASS_COLUMNS", width)
            again, again_fault = series_jets(p, args, shift)
            assert _bits(again) == _bits(now) and again_fault is fault
        monkeypatch.undo()


def test_kernel_reports_the_first_failing_point(monkeypatch):
    from papperitz import hypergeom
    from papperitz.hypergeom import gauss_2f1_jets, series_jets

    p = HypParams(0.3 + 0.1j, 1.2, 0.8 - 0.4j)
    t = np.array([0.1, -9.0, 1.5, 0.2])  # unreachable, then on the cut
    _, fault = gauss_2f1_jets(p, t)
    assert fault[0] == 1 and isinstance(fault[1], EvaluationUnreachable)
    _, fault = gauss_2f1_jets(p, t[[0, 2, 1]])
    assert fault[0] == 1 and isinstance(fault[1], OnBranchCut)
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 60)
    _, fault = series_jets(p, np.array([0.5, 0.9, 1.2]))
    assert fault[0] == 1 and isinstance(fault[1], NoConvergence)


def test_kernel_faults_independent_of_pass_width(monkeypatch):
    from papperitz import hypergeom
    from papperitz.hypergeom import series_jets

    def fault_of(*args):
        i, exc = series_jets(*args)[1]
        return i, type(exc), str(exc)

    slow = HypParams(20, 19.5 + 1j, 1.5)
    w = 0.5 * np.exp(1j * np.linspace(-0.5, 0.5, 9))
    w[5] = 0.2  # released within the budget; its neighbours are not
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 140)
    arrays = [(slow, w[4:]), (slow, np.append(w[5:], 1.5)),
              (HypParams(-141, 1.5, 2.5), w)]
    expected = [fault_of(p, args) for p, args in arrays]
    assert [f[0] for f in expected] == [0, 1, 0]
    for width in (1, 2, 3, 128, 1000):
        monkeypatch.setattr(hypergeom, "_PASS_COLUMNS", width)
        assert [fault_of(p, args) for p, args in arrays] == expected


def test_polynomial_table_stops_before_vanishing_gamma_factor():
    # gamma = -2 with alpha = -2: the factor (gamma + 2) is never formed
    p = HypParams(-2, 0.5 + 0.5j, -2)
    w = 3.0 - 1.0j
    c1 = p.alpha * p.beta / p.gamma
    c2 = c1 * (p.alpha + 1) * (p.beta + 1) / ((p.gamma + 1) * 2)
    f, f1, f2 = gauss_2f1_jet(p, w)
    assert abs(f - (1 + c1 * w + c2 * w * w)) <= 1e-14 * abs(f)
    assert abs(f1 - (c1 + 2 * c2 * w)) <= 1e-14 * abs(f1)
    assert abs(f2 - 2 * c2) <= 1e-14 * abs(f2)


# Worst error (relative to max(|F|, 1)) of F, F' and F'' against mpmath at
# the seeded points of _jet_points, by strategy: ten times the worst the
# point-by-point evaluation before one-pass jets gave at the same points.
JET_TOLERANCE = {
    EvalStrategy.DIRECT_SERIES: (1.8e-14, 2.5e-14, 1.6e-13),
    EvalStrategy.PFAFF_ON_ALPHA: (2.3e-14, 2.0e-14, 1.3e-14),
    EvalStrategy.PFAFF_ON_BETA: (2.7e-14, 1.8e-14, 2.1e-14),
    EvalStrategy.ONE_MINUS_T_CONNECTION: (5.2e-13, 3.8e-12, 3.1e-12),
    EvalStrategy.POLYNOMIAL_TRUNCATION: (1.1e-14, 1.0e-14, 6.4e-15),
}


def _jet_points(strategy, n=25):
    """Seeded (params, t) pairs that the region policy gives to strategy."""
    rng = np.random.default_rng(list(EvalStrategy).index(strategy) + 50)
    pairs = []
    while len(pairs) < n:
        if strategy is EvalStrategy.POLYNOMIAL_TRUNCATION:
            p = HypParams(-int(rng.integers(0, 6)),
                          complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                          complex(rng.uniform(0.5, 2), rng.uniform(-2, 2)))
        else:
            p = random_hyp_params(rng)
        t = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if select_strategy(p, t) is strategy and abs(t.imag) > 1e-3:
            pairs.append((p, t))
    return pairs


def _mp_jet(p, t):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a, b, c, x = (mpmath.mpc(v) for v in (p.alpha, p.beta, p.gamma, t))
        return (complex(mpmath.hyp2f1(a, b, c, x)),
                complex(a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, x)),
                complex(a * (a + 1) * b * (b + 1) / (c * (c + 1))
                        * mpmath.hyp2f1(a + 2, b + 2, c + 2, x)))


@pytest.mark.parametrize("strategy", list(JET_TOLERANCE), ids=lambda s: s.value)
def test_jets_against_mpmath(strategy):
    pytest.importorskip("mpmath")
    worst = [0.0, 0.0, 0.0]
    for p, t in _jet_points(strategy):
        got = gauss_2f1_jet(p, t)
        for k, ref in enumerate(_mp_jet(p, t)):
            worst[k] = max(worst[k], abs(got[k] - ref) / max(abs(ref), 1.0))
    for k, tol in enumerate(JET_TOLERANCE[strategy]):
        assert worst[k] <= tol, (k, worst[k])


def test_kernel_sums_again_the_points_it_has_not_released(monkeypatch):
    # large alpha, beta: the terms grow for ~60 steps before they decay, and
    # each point is released after 150-200 terms, in the kernel's second pass
    from papperitz import hypergeom
    from papperitz.hypergeom import series_jets

    mpmath = pytest.importorskip("mpmath")
    p = HypParams(20, 19.5 + 1j, 1.5)
    w = 0.5 * np.exp(1j * np.linspace(-0.5, 0.5, 9))  # no cancellation
    whole, fault = series_jets(p, w)
    assert fault is None
    monkeypatch.setattr(hypergeom, "BLOCK_TERMS", 700)
    assert _bits(series_jets(p, w)[0]) == _bits(whole)
    for x, got in zip(w, whole[0]):
        ref = complex(mpmath.hyp2f1(p.alpha, p.beta, p.gamma, x))
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_polynomial_beyond_the_term_budget_fails_no_convergence(monkeypatch):
    from papperitz import hypergeom
    from papperitz.hypergeom import series_jets

    w = np.array([0.5, 2.0])
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 40)
    values, fault = series_jets(HypParams(-39, 1.5, 2.5), w)  # 40 terms
    assert fault is None and np.isfinite(values).all()
    _, fault = series_jets(HypParams(-40, 1.5, 2.5), w)  # 41 terms
    assert fault[0] == 0 and isinstance(fault[1], NoConvergence)
    monkeypatch.undo()
    # degree ~2e150: refused before any table is built
    huge = HypParams(1, -2e150, -2e150)
    with pytest.raises(NoConvergence, match="polynomial of degree 2e"):
        raw_series(huge, 0.5)
    assert series_jets(huge, np.zeros(0))[1] is None


def test_kernel_reports_a_coefficient_overflow(monkeypatch):
    from papperitz import hypergeom
    from papperitz.hypergeom import series_jets

    # c_n of this triple overflow from n ~ 670 on, while the terms c_n w^n
    # at |w| ~ 0.6 would peak near 1e172 and stay finite
    p = HypParams(2 - 600j, 1 - 300j, 2 - 300j)
    w = np.array([0.01, 0.02j, 0.54 - 0.31j, 0.6])
    shift = complex(p.gamma - p.alpha - p.beta)
    for s in (None, shift):
        with np.errstate(over="ignore", invalid="ignore"):
            values, fault = series_jets(p, w, s)
            released, none = series_jets(p, w[:2], s)
            for width in (1, 2, 3, 1000):
                monkeypatch.setattr(hypergeom, "_PASS_COLUMNS", width)
                again = series_jets(p, w, s)
                assert _bits(again[0][:, :2]) == _bits(values[:, :2])
                assert (again[1][0], str(again[1][1])) == (fault[0], str(fault[1]))
            monkeypatch.undo()
        # the points released before the overflow keep their values
        assert none is None and np.isfinite(released).all()
        assert _bits(values[:, :2]) == _bits(released)
        assert fault[0] == 2 and isinstance(fault[1], NonFiniteParameters)
        assert "overflow" in str(fault[1])


def test_coefficient_overflow_warns_nothing():
    # outside the CLI's np.errstate too, an overflowing table is reported
    # by the kernel's fault alone, not by numpy RuntimeWarnings
    import warnings

    from papperitz.hypergeom import series_jets

    p = HypParams(2 - 600j, 1 - 300j, 2 - 300j)
    for s in (None, complex(p.gamma - p.alpha - p.beta)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, fault = series_jets(p, [0.54 - 0.31j], s)
        assert fault[0] == 0 and isinstance(fault[1], NonFiniteParameters)


def _first_failure_alone(p, w, shift):
    """Values of the points before the first failure met by a loop of
    one-point calls, and that failure as (index, type, message)."""
    from papperitz.hypergeom import series_jets

    values = []
    for i in range(len(w)):
        one, fault = series_jets(p, w[i:i + 1], shift)
        if fault is not None:
            return np.array(values).T, (i, type(fault[1]), str(fault[1]))
        values.append(one[:, 0])
    return np.array(values).T, None


def test_kernel_faults_across_blocks_match_one_point_calls(monkeypatch):
    # arrays of 48 points, three blocks or more at every setting below, each
    # mixing points released in the first pass, points summed over later
    # passes and failing points, some in the third block
    from papperitz import hypergeom
    from papperitz.hypergeom import series_jets

    angles = np.exp(1j * np.linspace(-2.5, 2.5, 48))
    slow = HypParams(20, 19.5 + 1j, 1.5)
    # within 1000 terms, |w| = 0.05 and 0.2 are released in the first pass,
    # 0.5 and 0.7 in later ones, and 0.9 not at all
    w = np.resize([0.05, 0.5, 0.2, 0.7], 48) * angles
    w[[37, 45]] *= 0.9 / abs(w[[37, 45]])
    outside = w.copy()
    outside[20] = 1.5
    late_outside = w.copy()
    late_outside[41] = 1.5j
    # the coefficients of this triple overflow at term 668: |w| = 0.01 is
    # released in the first pass, 0.3 and 0.5 in later ones, 0.62 not at all
    huge = HypParams(2 - 600j, 1 - 300j, 2 - 300j)
    v = np.resize([0.01, 0.3, 0.01, 0.5], 48) * angles
    v[[38, 46]] *= 0.62 / abs(v[[38, 46]])
    shift = complex(huge.gamma - huge.alpha - huge.beta)
    arrays = [(slow, w, None), (slow, outside, None), (slow, late_outside, None),
              (huge, v, None), (huge, v, shift)]
    monkeypatch.setattr(hypergeom, "MAX_TERMS", 1000)
    expected = [_first_failure_alone(*args) for args in arrays]
    assert [f[0] for _, f in expected] == [37, 20, 37, 38, 38]
    assert [f[1] for _, f in expected] == [NoConvergence] * 3 + [NonFiniteParameters] * 2
    for block_terms in (hypergeom.BLOCK_TERMS, 700):
        for width in (hypergeom._PASS_COLUMNS, 200):
            monkeypatch.setattr(hypergeom, "BLOCK_TERMS", block_terms)
            monkeypatch.setattr(hypergeom, "_PASS_COLUMNS", width)
            assert 48 >= 3 * (block_terms // width)
            for (p, args, s), (alone, fault) in zip(arrays, expected):
                values, (i, exc) = series_jets(p, args, s)
                assert (i, type(exc), str(exc)) == fault
                assert _bits(values[:, :i]) == _bits(alone)


def test_each_call_builds_a_table_per_length(monkeypatch):
    from papperitz import hypergeom
    from papperitz.hypergeom import series_jets

    built = []
    jet_coefficients = hypergeom._jet_coefficients

    def counted(p, length, shift=None):
        built.append(length)
        return jet_coefficients(p, length, shift)

    monkeypatch.setattr(hypergeom, "_jet_coefficients", counted)
    rng = np.random.default_rng(43)
    p = random_hyp_params(rng)
    w = 0.6 * np.sqrt(rng.uniform(0, 1, 150)) * np.exp(2j * np.pi * rng.uniform(0, 1, 150))
    # ten blocks released in one pass: one table, however many blocks
    assert series_jets(p, w)[1] is None and built == [256]
    # over several passes, one table per length the passes reach; with the
    # table the call already holds while it is long enough
    w = 0.9 * np.exp(1j * np.linspace(-0.5, 0.5, 40))
    for width, lengths in ((128, [256, 512, 1024, 2048]), (3, [64, 128, 256, 512, 1024, 2048])):
        monkeypatch.setattr(hypergeom, "_PASS_COLUMNS", width)
        built.clear()
        assert series_jets(HypParams(20, 19.5 + 1j, 1.5), w)[1] is None
        assert built == lengths

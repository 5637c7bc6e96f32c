import cmath
import math
from contextlib import nullcontext

import numpy as np
import pytest

from papperitz.closed_form import (
    BasisMember,
    eval_basis,
    eval_solution,
    fit_ivp,
    wronskian,
)
from papperitz.errors import (
    DegenerateBasis,
    DegenerateWronskian,
    NonFiniteParameters,
    PapperitzError,
)
from papperitz.mobius import principal_power
from papperitz.oracle import residual_scale, residual_z
from papperitz.params import (
    DegeneracyClass,
    EquationParams,
    Jet2,
    derive_params,
)
from papperitz.selftest import (
    random_equation,
    random_generic_equation,
    sample_reachable_point,
)

SQ13 = math.sqrt(13)


def test_equation_params_reject_nonfinite():
    with pytest.raises(ValueError):
        EquationParams(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        EquationParams(0, complex(0, float("inf")), 0)


def test_derive_params_zero_case():
    d = derive_params(EquationParams(0, 0, 0))
    assert d.delta == 1 and d.delta_star == 1
    assert d.lam == 1 and d.lam2 == 0
    assert d.alpha == 2 and d.beta == 1 and d.gamma == 2
    # 2 - gamma = 0 escapes polynomially (beta - gamma + 1 = 0)
    assert d.degeneracy is DegeneracyClass.GENERIC


def test_derive_params_complex_case():
    d = derive_params(EquationParams(1, 0, 1))
    s = math.sqrt(2)
    assert abs(d.delta - s * (1 + 1j)) < 1e-14
    assert abs(d.delta_star - s * (1 - 1j)) < 1e-14
    assert abs(d.lam - s / 2 * (1 + 1j)) < 1e-14
    assert abs(d.alpha - s) < 1e-14
    assert abs(d.beta - s * 1j) < 1e-14
    assert abs(d.gamma - (1 + s * (1 + 1j))) < 1e-14
    # lambda satisfies the indicial equation: lam^2 = b + ic = i
    assert abs(d.lam ** 2 - 1j) < 1e-14


def test_derive_params_real_case():
    d = derive_params(EquationParams(2, 3, 0))
    assert abs(d.delta - SQ13) < 1e-14
    assert d.delta == d.delta_star
    assert abs(d.lam - (-1 + SQ13) / 2) < 1e-14
    assert abs(d.alpha - (-1 + SQ13)) < 1e-14
    assert abs(d.beta - (-1)) < 1e-14
    assert abs(d.gamma - (1 + SQ13)) < 1e-14


def test_parameter_identities_random():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        p = random_equation(rng)
        d = derive_params(p)
        a, b, c = p.a, p.b, p.c
        scale = 1 + abs(d.lam) ** 2 + abs(b) + abs(c)
        assert abs(d.lam ** 2 - (1 - a) * d.lam - (b + 1j * c)) <= 1e-12 * scale
        # second exponent is the other root of the indicial equation
        assert abs(d.lam2 ** 2 - (1 - a) * d.lam2 - (b + 1j * c)) <= 1e-12 * scale
        assert abs(d.gamma - (2 * d.lam + a)) <= 1e-12 * (1 + abs(d.gamma))
        assert abs(d.alpha + d.beta - (1 + 2 * d.lam - a)) \
            <= 1e-12 * (1 + abs(d.alpha) + abs(d.beta))
        assert abs(d.alpha * d.beta - (d.lam ** 2 + (1 - a) * d.lam
                                       - (b - 1j * c))) <= 1e-12 * scale
        assert abs(d.delta ** 2 - ((1 - a) ** 2 + 4 * (b + 1j * c))) \
            <= 1e-12 * (1 + abs(d.delta) ** 2)
        assert abs(d.delta_star ** 2 - ((1 - a) ** 2 + 4 * (b - 1j * c))) \
            <= 1e-12 * (1 + abs(d.delta_star) ** 2)
        assert abs(d.lam + d.lam2 - (1 - a)) <= 1e-12 * (1 + abs(d.lam))
        assert abs(d.lam - d.lam2 - d.delta) <= 1e-12 * (1 + abs(d.delta))
        assert abs(1 + d.lam - d.gamma - d.lam2) <= 1e-12 * (1 + abs(d.lam))


def test_c_zero_forces_equal_roots():
    rng = np.random.default_rng(22)
    for _ in range(100):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        d = derive_params(EquationParams(a, b, 0))
        assert d.delta == d.delta_star
        assert abs(d.beta - (1 - a)) <= 1e-12 * (1 + abs(d.beta))


def test_degeneracy_classification():
    assert derive_params(EquationParams(0, -0.25, 0)).degeneracy \
        is DegeneracyClass.REPEATED_EXPONENT
    assert derive_params(EquationParams(0, 0, 0)).degeneracy \
        is DegeneracyClass.GENERIC
    # gamma = 1 + delta = -1 needs delta = -2: impossible for a principal
    # root, so the first member is always valid;
    # a = 4, b = c = 0 gives beta = -3 (fine: polynomial) and gamma = 4.
    d = derive_params(EquationParams(4, 0, 0))
    assert d.degeneracy in (DegeneracyClass.GENERIC,
                            DegeneracyClass.SECOND_BASIS_INVALID)


def test_second_basis_invalid_detection():
    # c = 0, beta = 1 - a; second-member gamma 2 - gamma = 1 - delta.
    # pick a with delta = 3: (1-a)^2 + 4b = 9; a = 0, b = 2.
    d = derive_params(EquationParams(0, 2, 0))
    assert abs(d.gamma - 4) < 1e-12
    # second params: alpha-gamma+1 = 0 escapes, so still valid
    assert d.degeneracy is DegeneracyClass.GENERIC


def test_eval_basis_elementary():
    p = EquationParams(0, 0, 0)
    d = derive_params(p)
    j = eval_basis(d, BasisMember.FIRST, 3.0)
    assert abs(j.y - (-0.5 - 1.5j)) < 1e-13  # (z-i)/(2i) at z=3
    assert abs(j.dy - 1 / 2j) < 1e-13
    assert abs(j.d2y) < 1e-13


def test_eval_basis_constant_member():
    p = EquationParams(0.5, 0, 0)
    d = derive_params(p)
    for z in (0.5j, 1 + 1j, -0.3 + 2j):
        j = eval_basis(d, BasisMember.SECOND, z)
        assert abs(j.y - 1) < 1e-14
        assert abs(j.dy) < 1e-14
        assert abs(j.d2y) < 1e-14


def test_eval_basis_polynomial_case():
    p = EquationParams(2, 3, 0)
    d = derive_params(p)
    j = eval_basis(d, BasisMember.FIRST, 0.0)  # t = -1
    # beta = -1: F truncates to 1 - alpha t / gamma
    t = -1.0
    expected = principal_power(t, d.lam) * (1 - d.alpha * t / d.gamma)
    assert abs(j.y - expected) < 1e-12 * max(abs(expected), 1)
    assert abs(residual_z(p, j, 0.0)) <= 1e-10 * residual_scale(0.0, j)


def test_eval_solution_linearity():
    p = EquationParams(0, 0, 0)
    d = derive_params(p)
    j = eval_solution(d, 0, 0, 2.0 + 1j)
    assert j.y == 0 and j.dy == 0 and j.d2y == 0
    j = eval_solution(d, 2j, 0, 3.0)
    assert abs(j.y - (3 - 1j)) < 1e-13


def test_eval_solution_superposition():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p, d = random_generic_equation(rng)
        z = sample_reachable_point(d, rng)
        c1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        j = eval_solution(d, c1, c2, z)
        j1 = eval_solution(d, 1, 0, z)
        j2 = eval_solution(d, 0, 1, z)
        for got, a1, a2 in ((j.y, j1.y, j2.y), (j.dy, j1.dy, j2.dy),
                            (j.d2y, j1.d2y, j2.d2y)):
            want = c1 * a1 + c2 * a2
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_closed_form_residuals():
    rng = np.random.default_rng(24)
    for _ in range(50):
        p, d = random_generic_equation(rng)
        for _ in range(5):
            z = sample_reachable_point(d, rng)
            for which in BasisMember:
                j = eval_basis(d, which, z)
                assert abs(residual_z(p, j, z)) <= 1e-8 * residual_scale(z, j)


def test_elementary_power_family():
    # ((z+i)/(z-i))^p solves the equation when b = p^2, c = i p (a-1)
    for a in (0, 0.3):
        for pw in (0.5, 1.0, 1.5):
            p = EquationParams(a, pw**2, 1j * pw * (a - 1))
            d = derive_params(p)
            assert min(abs(d.lam + pw), abs(d.lam2 + pw)) <= 1e-12
            for z in (0.5 + 1.2j, 2.0 + 0.7j, -1.0 + 2.0j):
                g = (z + 1j) / (z - 1j)
                gp = -2j / (z - 1j) ** 2
                gpp = 4j / (z - 1j) ** 3
                f = principal_power(g, pw)
                df = pw * principal_power(g, pw - 1) * gp
                d2f = (pw * (pw - 1) * principal_power(g, pw - 2) * gp * gp
                       + pw * principal_power(g, pw - 1) * gpp)
                jet = Jet2(f, df, d2f)
                assert abs(residual_z(p, jet, z)) \
                    <= 1e-10 * residual_scale(z, jet)


def test_wronskian_nonzero_generic():
    p = EquationParams(1, 0, 1)
    d = derive_params(p)
    assert abs(wronskian(d, 2j)) > 1e-8


def test_wronskian_vanishes_toward_degeneracy():
    z = 1 + 1.5j
    mags = []
    for delta in (0.1, 0.01, 0.001):
        b = (delta**2 - 1) / 4  # makes Delta = delta for a = 0, c = 0
        p = EquationParams(0, b, 0)
        d = derive_params(p)
        mags.append(abs(wronskian(d, z)))
    assert mags[0] > mags[1] > mags[2]


def test_wronskian_abel_identity():
    rng = np.random.default_rng(25)
    for _ in range(10):
        p, d = random_generic_equation(rng)
        z1 = 1.0 + 1.5j
        z2 = 1.2 + 1.5j
        w1 = wronskian(d, z1)
        w2 = wronskian(d, z2)
        expected = principal_power((1 + z1 * z1) / (1 + z2 * z2), p.a)
        assert abs(w2 / w1 - expected) <= 1e-8 * max(abs(expected), 1.0)


def test_fit_ivp_round_trip():
    rng = np.random.default_rng(26)
    for _ in range(20):
        p, d = random_generic_equation(rng)
        z0 = sample_reachable_point(d, rng)
        c1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        jet = eval_solution(d, c1, c2, z0)
        g1, g2 = fit_ivp(d, z0, jet.y, jet.dy)
        scale = max(abs(c1), abs(c2), 1.0)
        assert abs(g1 - c1) <= 1e-10 * scale
        assert abs(g2 - c2) <= 1e-10 * scale


def test_fit_ivp_dependent_pair_below_threshold():
    # a Generic set whose members agree to ~1e-10: |delta| = 2e-10 lies above
    # DEGENERACY_TOL, and |W(z0)| reads ~6e-17 of its scale at z0 = 2i.  The
    # digits of |W| are round-off there, so only the message's end is fixed.
    d = derive_params(EquationParams(-9, -25, 1e-20))
    assert d.degeneracy is DegeneracyClass.GENERIC
    with pytest.raises(DegenerateWronskian,
                       match=r" below independence threshold at z0=2j$"):
        fit_ivp(d, 2j, 1, 0)


def test_fit_ivp_constant_solution():
    p = EquationParams(0.5, 0, 0)
    d = derive_params(p)
    z0 = 0.5j  # t real in (-1, 0)
    c1, c2 = fit_ivp(d, z0, 1.0, 0.0)
    assert abs(c1) <= 1e-12
    assert abs(c2 - 1) <= 1e-12
    jet = eval_solution(d, c1, c2, z0)
    assert abs(jet.y - 1) <= 1e-12 and abs(jet.dy) <= 1e-12


def test_fit_ivp_degenerate():
    p = EquationParams(0, -0.25, 0)
    d = derive_params(p)
    with pytest.raises(DegenerateWronskian):
        fit_ivp(d, 2j, 1.0, 0.0)


def test_repeated_exponent_blocks_second_member():
    p = EquationParams(0, -0.25, 0)
    d = derive_params(p)
    with pytest.raises(DegenerateBasis):
        eval_basis(d, BasisMember.SECOND, 2j)
    # first member still evaluates and solves the equation
    j = eval_basis(d, BasisMember.FIRST, 2j)
    assert abs(residual_z(p, j, 2j)) <= 1e-8 * residual_scale(2j, j)


def test_is_reachable_matches_evaluation():
    # the grid holds z = i, the pole z = -i and the branch cut below it
    from papperitz.closed_form import is_reachable
    from papperitz.errors import (EvaluationUnreachable, OnBranchCut,
                                  PoleAtMinusI, ZeroBaseNonpositiveExponent)

    rng = np.random.default_rng(31)
    axis = np.linspace(-4, 4, 33)
    grid = [complex(x, y) for x in axis for y in axis]
    for _ in range(2):
        p, d = random_generic_equation(rng)
        for z in grid:
            try:
                eval_solution(d, 1, 1, z)
                excluded = False
            except (EvaluationUnreachable, OnBranchCut, PoleAtMinusI):
                excluded = True
            except ZeroBaseNonpositiveExponent:
                excluded = False  # z = i is reached; its powers have no value
            assert is_reachable(d, z) is (not excluded), z


def test_derive_params_overflow_is_a_structured_error():
    # (1-a)^2 overflows, then 4(b + ic) and 4(b - ic)
    for a, b, c in ((1e200, 0, 0), (0, 1e308, 0), (0, 0, 1e308)):
        with pytest.raises(NonFiniteParameters):
            derive_params(EquationParams(a, b, c))
    d = derive_params(EquationParams(0, 1e300, 0))
    assert d.delta == 2e150 and d.gamma == 2e150


def _first_error(calls):
    """(index, type, message) of the first call that raises, or None."""
    for i, call in enumerate(calls):
        try:
            call()
        except PapperitzError as exc:
            return i, type(exc), str(exc)
    return None


def test_array_faults_equal_point_by_point_faults(monkeypatch):
    from papperitz import closed_form

    rng = np.random.default_rng(52)
    generic = [random_generic_equation(rng)[1] for _ in range(4)]
    pool = [sample_reachable_point(d, rng) for d in generic for _ in range(3)]
    specials = [-1j, complex(-math.sqrt(3), 0), 1j]  # pole, |t| = 1, t = 0
    # a repeated exponent: the second member is degenerate
    repeated = [derive_params(EquationParams(a, b, 0))
                for a, b in ((0, -0.25), (0.5, -0.0625), (3, -1))]
    assert all(d.degeneracy is DegeneracyClass.REPEATED_EXPONENT for d in repeated)
    for d in generic + repeated:
        for _ in range(12):
            points = [specials[rng.integers(3)] if rng.uniform() < 0.2
                      else pool[rng.integers(len(pool))]
                      for _ in range(rng.integers(1, 13))]
            c2 = 0 if rng.uniform() < 0.3 else 0.5 + 0.25j
            jet, fault = closed_form.solution_jets(d, 1, c2, np.array(points))
            expected = _first_error([lambda z=z: eval_solution(d, 1, c2, z)
                                     for z in points])
            assert (fault and (fault[0], type(fault[1]), str(fault[1]))) == expected
            if fault is None:
                assert jet.y.tolist() == [eval_solution(d, 1, c2, z).y for z in points]
            # a loop over points, then members
            expected = _first_error([lambda z=z, which=which: eval_basis(d, which, z)
                                     for z in points for which in BasisMember])
            with pytest.raises(PapperitzError) if expected else nullcontext() as raised:
                closed_form.member_jets(d, list(BasisMember), points)
            if expected:
                assert (type(raised.value), str(raised.value)) == expected[1:]
    # one map evaluation serves every member
    calls = []
    forward_jets = closed_form.forward_jets
    monkeypatch.setattr(closed_form, "forward_jets",
                        lambda z: calls.append(z) or forward_jets(z))
    d, z = generic[0], pool[0]
    for evaluate in (lambda: closed_form.member_jets(d, list(BasisMember), pool[:3]),
                     lambda: closed_form.solution_jets(d, 1, 0.5, np.array(pool[:3])),
                     lambda: closed_form.wronskian(d, z),
                     lambda: closed_form.fit_ivp(d, z, 1.0, 0.0)):
        calls.clear()
        evaluate()
        assert len(calls) == 1


@pytest.mark.parametrize("a,b,c,degeneracy", [
    (0, -0.25, 0, DegeneracyClass.REPEATED_EXPONENT),
    # delta = 2 or 3, so the second member's gamma is -1 or -2, and neither
    # member has an alpha or beta that truncates its series
    (1, 1 - 0.3j, 0.3, DegeneracyClass.SECOND_BASIS_INVALID),
    (0.5, 0.9375, 0, DegeneracyClass.SECOND_BASIS_INVALID),
    (0.5, 2.1875, 0, DegeneracyClass.SECOND_BASIS_INVALID),
    (1, 2.25 - 0.3j, 0.3, DegeneracyClass.SECOND_BASIS_INVALID),
])
def test_degenerate_set_is_not_reachable(a, b, c, degeneracy):
    # the first member evaluates at z, the second does not exist
    from papperitz.closed_form import basis_hyp_params, is_reachable
    from papperitz.errors import InvalidGamma

    d = derive_params(EquationParams(a, b, c))
    assert d.degeneracy is degeneracy
    assert basis_hyp_params(d, BasisMember.FIRST).truncation_degree() is None
    z = 0.5 + 2j
    assert math.isfinite(abs(eval_basis(d, BasisMember.FIRST, z).y))
    with pytest.raises(DegenerateBasis):
        eval_basis(d, BasisMember.SECOND, z)
    assert not is_reachable(d, z)
    # derive_params classes a set, and a Generic one beside it, as
    # SecondBasisInvalid exactly where the second member's parameters fail
    for q in (EquationParams(a, b, c), EquationParams(a, b + 0.01, c)):
        d = derive_params(q)
        try:
            basis_hyp_params(d, BasisMember.SECOND)
            invalid = False
        except DegenerateBasis as exc:
            invalid = isinstance(exc.__cause__, InvalidGamma)
        assert (d.degeneracy is DegeneracyClass.SECOND_BASIS_INVALID) == invalid

"""Seeded self-check suites shared by the CLI and the test suite, and the
comparison of the closed form with the integrator that they and `verify`
run.  The comparison lives here, not in oracle, so that the integrator
stays free of the closed form.

Every suite draws its own values from a caller-provided generator, so a
fixed seed reproduces the exact same report byte for byte.
"""

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

# params.derive_params is looked up at each call, so that a test can
# substitute a corrupted derivation and see the suites fail
from . import closed_form, hypergeom, params
from .closed_form import BasisMember, member_jets, solution_jets
from .hypergeom import gauss_2f1, gauss_2f1_jet
from .mobius import principal_power
from .oracle import (
    IntegrationControl,
    PathSpec,
    integrate_ivp,
    residual_scale,
    residual_z,
)
from .params import (
    DegeneracyClass,
    DerivedParams,
    EquationParams,
    HypParams,
    nonpositive_integer_near,
)

DEFAULT_PATH = (2j, 1 + 2j, 2 + 2j)


def _rand_complex(rng, lo=-2.0, hi=2.0) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def random_equation(rng) -> EquationParams:
    return EquationParams(_rand_complex(rng), _rand_complex(rng),
                          _rand_complex(rng))


def random_generic_equation(rng):
    """(params, derived) pair with Generic degeneracy."""
    while True:
        p = random_equation(rng)
        d = params.derive_params(p)
        if d.degeneracy is DegeneracyClass.GENERIC:
            return p, d


def random_hyp_params(rng) -> HypParams:
    """Valid non-polynomial parameter triple with components in [-2, 2]."""
    while True:
        alpha = _rand_complex(rng)
        beta = _rand_complex(rng)
        gamma = _rand_complex(rng)
        if nonpositive_integer_near(gamma) is not None:
            continue
        hp = HypParams(alpha, beta, gamma)
        if hp.truncation_degree() is None:
            return hp


def sample_reachable_point(d, rng) -> complex:
    """Random upper-half-plane point where both basis members evaluate."""
    while True:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0))
        if abs(z - 1j) < 0.3:
            continue
        if closed_form.is_reachable(d, z):
            return z


Check = Tuple[str, int, int]  # (suite name, failures, total)


def suite_parameter_identities(rng, n: int) -> Check:
    """Algebraic relations among the derived parameters."""
    fails = 0
    for _ in range(n):
        p = random_equation(rng)
        d = params.derive_params(p)
        a, b, c = p.a, p.b, p.c
        scale = 1.0 + abs(d.lam) ** 2 + abs(b) + abs(c)
        ok = abs(d.lam ** 2 - (1 - a) * d.lam - (b + 1j * c)) <= 1e-12 * scale
        ok &= abs(d.lam2 ** 2 - (1 - a) * d.lam2 - (b + 1j * c)) <= 1e-12 * scale
        ok &= abs(d.gamma - (2 * d.lam + a)) <= 1e-12 * (1 + abs(d.gamma))
        ok &= abs(d.alpha + d.beta - (1 + 2 * d.lam - a)) <= 1e-12 * (
            1 + abs(d.alpha) + abs(d.beta))
        ok &= abs(d.alpha * d.beta
                  - (d.lam ** 2 + (1 - a) * d.lam - (b - 1j * c))) <= 1e-12 * scale
        ok &= abs(d.delta ** 2 - ((1 - a) ** 2 + 4 * (b + 1j * c))) <= 1e-12 * (
            1 + abs(d.delta) ** 2)
        ok &= abs(d.delta_star ** 2 - ((1 - a) ** 2 + 4 * (b - 1j * c))) <= 1e-12 * (
            1 + abs(d.delta_star) ** 2)
        ok &= abs(d.lam + d.lam2 - (1 - a)) <= 1e-12 * (1 + abs(d.lam))
        ok &= abs(d.lam - d.lam2 - d.delta) <= 1e-12 * (1 + abs(d.delta))
        if not ok:
            fails += 1
    return ("parameter-identities", fails, n)


def suite_hypergeom_identities(rng, n: int) -> Check:
    """Symmetry, Euler and Pfaff identities plus a derivative cross-check."""
    fails = 0
    for _ in range(n):
        p = random_hyp_params(rng)
        ok = True
        # symmetry, |t| <= 0.6
        r = 0.6 * np.sqrt(rng.uniform(0, 1))
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        f = gauss_2f1(p, t)
        ok &= abs(f - gauss_2f1(HypParams(p.beta, p.alpha, p.gamma), t)) \
            <= 1e-13 * max(abs(f), 1.0)
        # Euler
        s = p.gamma - p.alpha - p.beta
        eul = (principal_power(1 - t, s)
               * gauss_2f1(HypParams(p.gamma - p.alpha, p.gamma - p.beta,
                                     p.gamma), t))
        ok &= abs(f - eul) <= 1e-12 * max(abs(f), 1.0)
        # Pfaff, |t| <= 0.5 with t/(t-1) inside the series region
        while True:
            r = 0.5 * np.sqrt(rng.uniform(0, 1))
            tp = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
            if abs(tp / (tp - 1)) <= hypergeom.REGION_CUTOFF:
                break
        fp = gauss_2f1(p, tp)
        pf = (principal_power(1 - tp, -p.beta)
              * hypergeom.raw_series(HypParams(p.gamma - p.alpha, p.beta,
                                               p.gamma), tp / (tp - 1)))
        ok &= abs(fp - pf) <= 1e-12 * max(abs(fp), 1.0)
        # derivative vs central difference, real h along the real direction
        h = 1e-6
        fd = (gauss_2f1(p, t + h) - gauss_2f1(p, t - h)) / (2 * h)
        dv = gauss_2f1_jet(p, t)[1]
        ok &= abs(dv - fd) <= 1e-6 * max(abs(dv), 1.0)
        if not ok:
            fails += 1
    return ("hypergeom-identities", fails, n)


def suite_residuals(rng, n_draws: int, n_points: int) -> Check:
    """Closed-form basis jets satisfy the ODE pointwise."""
    fails = 0
    total = 0
    for _ in range(n_draws):
        p, d = random_generic_equation(rng)
        points = [sample_reachable_point(d, rng) for _ in range(n_points)]
        for z, jets in zip(points, member_jets(d, list(BasisMember), points)):
            for jet in jets:
                total += 1
                res = abs(residual_z(p, jet, z))
                if res > 1e-8 * residual_scale(z, jet):
                    fails += 1
    return ("closed-form-residuals", fails, total)


@dataclass
class VerifyReport:
    """Per-waypoint closed-form vs numeric comparison."""

    samples: List[Tuple[complex, complex, complex, float]] = field(default_factory=list)
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0


def compare_closed_numeric(p: EquationParams, d: DerivedParams,
                           c1: complex, c2: complex, path: PathSpec,
                           ctrl: IntegrationControl = IntegrationControl()
                           ) -> VerifyReport:
    """Seed the integrator with the closed-form jet at the path start and
    compare values at every waypoint.

    The closed form is evaluated at all waypoints in one call; a point's
    jet is the same alone or in the array.  A failure at the start is
    raised before integrating, one further along after it, as a
    point-by-point evaluation would raise them."""
    closed, fault = solution_jets(d, c1, c2, path.waypoints)
    if fault is not None and fault[0] == 0:
        raise fault[1]
    numeric = integrate_ivp(p, path, complex(closed.y[0]), complex(closed.dy[0]),
                            ctrl)
    if fault is not None:
        raise fault[1]
    report = VerifyReport()
    for (z, y_num, _), y_closed in zip(numeric, closed.y.tolist()):
        abs_err = abs(y_closed - y_num)
        rel_err = abs_err / max(abs(y_closed), 1e-300)
        report.samples.append((z, y_closed, y_num, abs_err))
        report.max_abs_err = max(report.max_abs_err, abs_err)
        report.max_rel_err = max(report.max_rel_err, rel_err)
    return report


def suite_oracle_agreement(rng, n_draws: int) -> Check:
    """Closed form vs independent integration along the standard path."""
    ictrl = IntegrationControl()
    path = PathSpec(DEFAULT_PATH)
    fails = 0
    for _ in range(n_draws):
        p, d = random_generic_equation(rng)
        report = compare_closed_numeric(p, d, 1.0, 0.3, path, ictrl)
        if report.max_rel_err > 1e-6:
            fails += 1
    return ("oracle-agreement", fails, n_draws)


def run_selftest(seed: int = 0, quick: bool = False) -> bool:
    """Run all suites; prints one line per suite and returns overall pass."""
    rng = np.random.default_rng(seed)
    if quick:
        checks = [
            suite_parameter_identities(rng, 200),
            suite_hypergeom_identities(rng, 30),
            suite_residuals(rng, 10, 5),
            suite_oracle_agreement(rng, 2),
        ]
    else:
        checks = [
            suite_parameter_identities(rng, 1000),
            suite_hypergeom_identities(rng, 200),
            suite_residuals(rng, 100, 10),
            suite_oracle_agreement(rng, 10),
        ]
    all_ok = True
    for name, fails, total in checks:
        status = "pass" if fails == 0 else "FAIL"
        print(f"{name}: {total - fails}/{total} {status}")
        all_ok &= fails == 0
    return all_ok

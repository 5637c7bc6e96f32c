"""Seeded self-check suites shared by the CLI and the test suite, and the
two checks that they and `verify` run: the closed form against the
integrator (`oracle_agreement`) and the ODE residual at sampled points
(`residual_ratios`).  The comparison lives here, not in oracle, so that
the integrator stays free of the closed form.

Every suite draws its own values from a caller-provided generator, so a
fixed seed reproduces the exact same report byte for byte.
"""

from typing import List, NamedTuple, Tuple

import numpy as np

# params.derive_params is looked up at each call, so that a test can
# substitute a corrupted derivation and see the suites fail
from . import closed_form, hypergeom, params
from .closed_form import BasisMember, member_jets, solution_jets
from .hypergeom import gauss_2f1
from .mobius import principal_power
from .oracle import PathSpec, integrate_ivp, residual_scale, residual_z
from .params import (
    DegeneracyClass,
    DerivedParams,
    EquationParams,
    HypParams,
    nonpositive_integer_near,
)

DEFAULT_PATH = (2j, 1 + 2j, 2 + 2j)


def _rand_complex(rng) -> complex:
    return complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))


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
        # |t| <= 0.6; F and F' at t, and F at t +- h for the derivative
        # check below, from one kernel call, since a point's value does not
        # depend on its array
        r = 0.6 * np.sqrt(rng.uniform(0, 1))
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        h = 1e-6
        jets, fault = hypergeom.gauss_2f1_jets(p, [t, t + h, t - h])
        if fault is not None:
            raise fault[1]
        (f, f_plus, f_minus), (dv, _, _) = jets[:2].tolist()
        # symmetry
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
        fd = (f_plus - f_minus) / (2 * h)
        ok &= abs(dv - fd) <= 1e-6 * max(abs(dv), 1.0)
        if not ok:
            fails += 1
    return ("hypergeom-identities", fails, n)


def residual_ratios(p: EquationParams, d: DerivedParams, rng, n: int) -> list:
    """|residual_z| / residual_scale of each basis member at each of n
    sampled reachable points, in that order; a NaN ratio is a failure."""
    points = [sample_reachable_point(d, rng) for _ in range(n)]
    return [abs(residual_z(p, jet, z)) / residual_scale(z, jet)
            for z, jets in zip(points, member_jets(d, list(BasisMember), points))
            for jet in jets]


def suite_residuals(rng, n_draws: int, n_points: int) -> Check:
    """Closed-form basis jets satisfy the ODE pointwise."""
    fails = 0
    total = 0
    for _ in range(n_draws):
        ratios = residual_ratios(*random_generic_equation(rng), rng, n_points)
        total += len(ratios)
        fails += sum(not ratio <= 1e-8 for ratio in ratios)
    return ("closed-form-residuals", fails, total)


class VerifyReport(NamedTuple):
    """Per-waypoint closed-form vs numeric comparison."""

    samples: List[Tuple[complex, complex, complex, float]]
    max_abs_err: float
    max_rel_err: float


def compare_closed_numeric(p: EquationParams, d: DerivedParams,
                           c1: complex, c2: complex, path: PathSpec
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
    numeric = integrate_ivp(p, path, complex(closed.y[0]), complex(closed.dy[0]))
    if fault is not None:
        raise fault[1]
    samples, max_abs_err, max_rel_err = [], 0.0, 0.0
    for (z, y_num, _), y_closed in zip(numeric, closed.y.tolist()):
        abs_err = abs(y_closed - y_num)
        samples.append((z, y_closed, y_num, abs_err))
        max_abs_err = max(max_abs_err, abs_err)
        max_rel_err = max(max_rel_err, abs_err / max(abs(y_closed), 1e-300))
    return VerifyReport(samples, max_abs_err, max_rel_err)


def oracle_agreement(p: EquationParams, d: DerivedParams) -> VerifyReport:
    """The closed-form solution 1.0 * first + 0.3 * second member against
    the integrator along DEFAULT_PATH."""
    return compare_closed_numeric(p, d, 1.0, 0.3, PathSpec(DEFAULT_PATH))


def suite_oracle_agreement(rng, n_draws: int) -> Check:
    """Closed form vs independent integration along the standard path."""
    fails = sum(oracle_agreement(*random_generic_equation(rng)).max_rel_err > 1e-6
                for _ in range(n_draws))
    return ("oracle-agreement", fails, n_draws)


#: Each suite with its sizes for --quick and for the full run.
SUITES = [
    (suite_parameter_identities, (200,), (1000,)),
    (suite_hypergeom_identities, (30,), (200,)),
    (suite_residuals, (10, 5), (100, 10)),
    (suite_oracle_agreement, (2,), (10,)),
]


def run_selftest(seed: int = 0, quick: bool = False) -> bool:
    """Run all suites; prints one line per suite and returns overall pass."""
    rng = np.random.default_rng(seed)
    checks = [suite(rng, *(quick_sizes if quick else sizes))
              for suite, quick_sizes, sizes in SUITES]
    all_ok = True
    for name, fails, total in checks:
        status = "pass" if fails == 0 else "FAIL"
        print(f"{name}: {total - fails}/{total} {status}")
        all_ok &= fails == 0
    return all_ok

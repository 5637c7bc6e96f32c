"""Closed-form solution basis of (1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y = 0.

The substitution t = (z-i)/(z+i) turns the equation into a hypergeometric
one; each basis member is a principal power of t times a Gauss function,
with parameters derived from (a, b, c) by principal square roots.
"""

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateBasis,
    DegenerateWronskian,
    InvalidGamma,
    NonFiniteParameters,
    ZeroBaseNonpositiveExponent,
)
from .hypergeom import HypParams, earliest, evaluable, gauss_2f1_jets
from .mobius import any_of, forward_jets, principal_power

#: |delta| below this counts as a repeated Frobenius exponent.
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class EquationParams:
    """Coefficient triple (a, b, c) of the equation."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"coefficient {name}={v} is not finite")


class DegeneracyClass(Enum):
    GENERIC = "Generic"
    REPEATED_EXPONENT = "RepeatedExponent"
    FIRST_BASIS_INVALID = "FirstBasisInvalid"
    SECOND_BASIS_INVALID = "SecondBasisInvalid"


class BasisMember(Enum):
    FIRST = "First"
    SECOND = "Second"


@dataclass(frozen=True)
class Jet2:
    """Value with first and second derivatives, tagged by coordinate; the
    fields are numbers, or arrays over points for the array functions."""

    y: complex
    dy: complex
    d2y: complex
    coord: str = "z"

    def __post_init__(self):
        if self.coord not in ("z", "t"):
            raise ValueError(f"coord must be 'z' or 't', got {self.coord!r}")


@dataclass(frozen=True)
class DerivedParams:
    delta: complex
    delta_star: complex
    lam: complex
    lam2: complex
    alpha: complex
    beta: complex
    gamma: complex
    degeneracy: DegeneracyClass


def _principal_sqrt(w: complex) -> complex:
    w = complex(w)
    if w.imag == 0.0:
        # clear a signed zero: arg stays in (-pi, pi]
        w = complex(w.real, 0.0)
    return cmath.sqrt(w)


def _basis_ok(alpha, beta, gamma) -> bool:
    try:
        HypParams(alpha, beta, gamma)
        return True
    except InvalidGamma:
        return False


def derive_params(p: EquationParams) -> DerivedParams:
    """Frobenius exponents and hypergeometric parameters from (a, b, c).

    delta and delta* are principal square roots; with c = 0 their
    arguments coincide, so they are bit-identical.  Raises
    NonFiniteParameters when a derived value overflows.
    """
    a, b, c = complex(p.a), complex(p.b), complex(p.c)
    try:
        square = (1 - a) ** 2
    except OverflowError as exc:
        raise _overflow(p) from exc
    delta = _principal_sqrt(square + 4 * (b + 1j * c))
    delta_star = _principal_sqrt(square + 4 * (b - 1j * c))
    # (1-a)^2 is finite here, so the sums below are finite when the roots are
    if not (cmath.isfinite(delta) and cmath.isfinite(delta_star)):
        raise _overflow(p)
    lam = (1 - a + delta) / 2
    lam2 = (1 - a - delta) / 2
    alpha = 1 - a + (delta + delta_star) / 2
    beta = 1 - a + (delta - delta_star) / 2
    gamma = 1 + delta

    if abs(delta) <= DEGENERACY_TOL:
        degeneracy = DegeneracyClass.REPEATED_EXPONENT
    elif not _basis_ok(alpha, beta, gamma):
        degeneracy = DegeneracyClass.FIRST_BASIS_INVALID
    elif not _basis_ok(alpha - gamma + 1, beta - gamma + 1, 2 - gamma):
        degeneracy = DegeneracyClass.SECOND_BASIS_INVALID
    else:
        degeneracy = DegeneracyClass.GENERIC

    return DerivedParams(delta, delta_star, lam, lam2,
                         alpha, beta, gamma, degeneracy)


def _overflow(p: EquationParams) -> NonFiniteParameters:
    return NonFiniteParameters(f"a parameter derived from a={p.a}, b={p.b}, "
                               f"c={p.c} overflows to an infinity or NaN")


def basis_hyp_params(d: DerivedParams, which: BasisMember) -> HypParams:
    """Hypergeometric parameters of one basis member; raises DegenerateBasis
    when that member does not exist."""
    if which is BasisMember.FIRST:
        try:
            return HypParams(d.alpha, d.beta, d.gamma)
        except InvalidGamma as exc:
            raise DegenerateBasis(f"first basis member invalid: {exc}") from exc
    if d.degeneracy is DegeneracyClass.REPEATED_EXPONENT:
        raise DegenerateBasis("repeated exponent: the second member "
                              "coincides with the first")
    try:
        return HypParams(d.alpha - d.gamma + 1, d.beta - d.gamma + 1,
                         2 - d.gamma)
    except InvalidGamma as exc:
        raise DegenerateBasis(f"second basis member invalid: {exc}") from exc


def basis_exponent(d: DerivedParams, which: BasisMember) -> complex:
    return d.lam if which is BasisMember.FIRST else d.lam2


def _member_t_jets(d: DerivedParams, which: BasisMember, t: np.ndarray):
    """t-jets of t^e * F(params; t) for one basis member at every t, as a
    (3, n) array, and the fault of the first point that fails."""
    hp = basis_hyp_params(d, which)
    e = basis_exponent(d, which)
    f, fault = gauss_2f1_jets(hp, t)
    if e == 0 or (fault is not None and fault[0] == 0):
        return f, fault
    zero = t == 0
    any_zero = any_of(zero)
    base = np.where(zero, 1, t) if any_zero else t
    p0 = principal_power(base, e)
    p1 = p0 / base
    p2 = p1 / base
    if any_zero:
        # t^(e-1) and t^(e-2) at t = 0 follow the rule of principal_power
        p0[zero] = p1[zero] = p2[zero] = 0
        try:
            for k in range(3):
                principal_power(0j, e - k)
        except ZeroBaseNonpositiveExponent as exc:
            fault = earliest(fault, (int(zero.argmax()), exc))
    return np.array([
        p0 * f[0],
        e * p1 * f[0] + p0 * f[1],
        e * (e - 1) * p2 * f[0] + 2 * e * p1 * f[1] + p0 * f[2],
    ]), fault


def _z_jets(d: DerivedParams, members, z):
    """Sum of coefficient * member over (member, coefficient) pairs, a
    coefficient None standing for 1, as a (3, n) array of z-jets at every z
    of a 1-D array, and the fault of the first point that fails.

    Faults are keyed by (point, stage), stage 0 being the map's pole and
    stage k the k-th member, the order in which a point-by-point evaluation
    meets them.  The values of a failed array are not to be used, so after
    a fault only the points before it are evaluated."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros((3, len(z)), dtype=complex)
    if not members:
        return out, None
    t, tp, tpp, fault = forward_jets(z)
    faults = [] if fault is None else [((fault[0], 0), fault[1])]
    count = len(z)
    for stage, (which, coef) in enumerate(members, 1):
        first = earliest(*faults)
        if first is not None:
            count = first[0][0]
            if not count:
                break
            t, tp, tpp = t[:count], tp[:count], tpp[:count]
        try:
            jt, fault = _member_t_jets(d, which, t)
        except DegenerateBasis as exc:
            faults.append(((0, stage), exc))
            continue
        if fault is not None:
            faults.append(((fault[0], stage), fault[1]))
        jz = np.array([jt[0], jt[1] * tp, jt[2] * tp * tp + jt[1] * tpp])
        if coef is not None:
            jz *= coef
        out[:, :count] += jz
    return out, earliest(*faults)


def _first_point(jets: np.ndarray, fault, coord: str = "z") -> Jet2:
    if fault is not None:
        raise fault[1]
    return Jet2(*jets[:, 0].tolist(), coord=coord)


def eval_basis_t_jet(d: DerivedParams, which: BasisMember, t: complex) -> Jet2:
    """t-jet of t^e * F(params; t) for one basis member."""
    return _first_point(*_member_t_jets(d, which, np.array([complex(t)])),
                        coord="t")


def eval_basis(d: DerivedParams, which: BasisMember, z: complex) -> Jet2:
    """z-jet of one basis member, by the chain rule through t(z)."""
    return _first_point(*_z_jets(d, [(which, None)], [complex(z)]))


def solution_jets(d: DerivedParams, c1: complex, c2: complex, z):
    """Jets of c1 * (first member) + c2 * (second member) at every z of a
    1-D array: a Jet2 of arrays, and the first point that fails, as
    (index, exception), or None.  The points fail in the order a
    point-by-point evaluation would meet them, and the values of a failed
    array are not to be used.

    A coefficient that is exactly zero skips its member, so a degenerate
    member is tolerated when it does not contribute.
    """
    members = [(which, c) for which, c in ((BasisMember.FIRST, c1),
                                           (BasisMember.SECOND, c2)) if c != 0]
    jets, fault = _z_jets(d, members, z)
    if fault is not None:
        fault = (fault[0][0], fault[1])
    return Jet2(*jets, coord="z"), fault


def eval_solution(d: DerivedParams, c1: complex, c2: complex, z: complex) -> Jet2:
    """Jet of c1 * (first member) + c2 * (second member) at one z."""
    jet, fault = solution_jets(d, c1, c2, [complex(z)])
    return _first_point(np.array([jet.y, jet.dy, jet.d2y]), fault)


def wronskian(d: DerivedParams, z: complex) -> complex:
    """y1 y2' - y2 y1' at z."""
    j1 = eval_basis(d, BasisMember.FIRST, z)
    j2 = eval_basis(d, BasisMember.SECOND, z)
    return j1.y * j2.dy - j2.y * j1.dy


def fit_ivp(d: DerivedParams, z0: complex, y0: complex, dy0: complex):
    """Constants (c1, c2) matching (y0, dy0) at z0, by Cramer's rule."""
    if d.degeneracy is DegeneracyClass.REPEATED_EXPONENT:
        raise DegenerateWronskian("repeated exponent: the Wronskian of the "
                                  "closed-form pair vanishes identically")
    j1 = eval_basis(d, BasisMember.FIRST, z0)
    j2 = eval_basis(d, BasisMember.SECOND, z0)
    w = j1.y * j2.dy - j2.y * j1.dy
    scale = abs(j1.y) * abs(j2.dy) + abs(j2.y) * abs(j1.dy)
    if abs(w) < 1e-10 * scale:
        raise DegenerateWronskian(f"|W(z0)|={abs(w):.3g} below independence "
                                  f"threshold at z0={z0}")
    c1 = (y0 * j2.dy - j2.y * dy0) / w
    c2 = (j1.y * dy0 - y0 * j1.dy) / w
    return c1, c2


def is_reachable(d: DerivedParams, z: complex) -> bool:
    """True when both basis members can be evaluated at z by the region
    policy (and z is off the map's pole and the branch cut)."""
    t, _, _, fault = forward_jets(complex(z))
    if fault is not None:
        return False
    for which in BasisMember:
        try:
            hp = basis_hyp_params(d, which)
        except DegenerateBasis:
            return False
        if not evaluable(hp, t)[0]:
            return False
    return True

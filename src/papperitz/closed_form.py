"""Closed-form solution basis of (1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y = 0.

The substitution t = (z-i)/(z+i) turns the equation into a hypergeometric
one; each basis member is a principal power of t times a Gauss function,
with parameters derived from (a, b, c) by principal square roots.
"""

from enum import Enum

import numpy as np

from .errors import (
    DegenerateBasis,
    DegenerateWronskian,
    InvalidGamma,
    ZeroBaseNonpositiveExponent,
)
from .hypergeom import (EvalStrategy, earliest, first_point, gauss_2f1_jets,
                        select_strategy)
from .mobius import any_of, forward_jets, principal_power
from .params import (DegeneracyClass, DerivedParams, HypParams, Jet2,
                     second_member_params)


class BasisMember(Enum):
    FIRST = "First"
    SECOND = "Second"


def basis_hyp_params(d: DerivedParams, which: BasisMember) -> HypParams:
    """Hypergeometric parameters of one basis member; raises DegenerateBasis
    when that member does not exist."""
    if which is BasisMember.FIRST:
        # gamma = 1 + delta has Re gamma >= 1: it is never a nonpositive integer
        return HypParams(d.alpha, d.beta, d.gamma)
    if d.degeneracy is DegeneracyClass.REPEATED_EXPONENT:
        raise DegenerateBasis("repeated exponent: the second member "
                              "coincides with the first")
    try:
        return second_member_params(d.alpha, d.beta, d.gamma)
    except InvalidGamma as exc:
        raise DegenerateBasis(f"second basis member invalid: {exc}") from exc


def _member_t_jets(d: DerivedParams, which: BasisMember, t: np.ndarray):
    """t-jets of t^e * F(params; t) for one basis member at every t, as a
    (3, n) array, and the fault of the first point that fails."""
    hp = basis_hyp_params(d, which)
    e = d.lam if which is BasisMember.FIRST else d.lam2
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


def basis_jets(d: DerivedParams, members, z):
    """z-jets of each of a list of basis members at every z of a 1-D array,
    as an array of shape (members, 3, n), and the first point that fails,
    as (index, exception), or None; the values of a failed array are not
    to be used.

    The map's jets are computed once.  Each member is evaluated only at the
    points before the first fault met so far, the map's or an earlier
    member's, so the last fault met is the first a point-by-point
    evaluation meets; with no member, no point is evaluated and none fails."""
    z = np.asarray(z, dtype=complex)
    jets = np.zeros((len(members), 3, len(z)), dtype=complex)
    if not members:
        return jets, None
    t, tp, tpp, fault = forward_jets(z)
    for row, which in enumerate(members):
        count = len(z) if fault is None else fault[0]
        if not count:
            break
        t, tp, tpp = t[:count], tp[:count], tpp[:count]
        try:
            jt, found = _member_t_jets(d, which, t)
        except DegenerateBasis as exc:
            fault = (0, exc)
            break
        if found is not None:
            fault = found
        jets[row, :, :count] = jt[0], jt[1] * tp, jt[2] * tp * tp + jt[1] * tpp
    return jets, fault


def member_jets(d: DerivedParams, members, points) -> list:
    """Jet2 of each of a list of basis members at each point, from one
    array evaluation, as a tuple per point; a point's jets are those it
    gets alone.  Raises the error a point-by-point evaluation meets first."""
    jets, fault = basis_jets(d, members, points)
    if fault is not None:
        raise fault[1]
    per_point = jets.transpose(2, 0, 1).tolist()  # point, member, jet
    return [tuple(Jet2(*jet) for jet in at_point) for at_point in per_point]


def eval_basis(d: DerivedParams, which: BasisMember, z: complex) -> Jet2:
    """z-jet of one basis member, by the chain rule through t(z)."""
    return member_jets(d, [which], [complex(z)])[0][0]


def solution_jets(d: DerivedParams, c1: complex, c2: complex, z):
    """Jets of c1 * (first member) + c2 * (second member) at every z of a
    1-D array: a Jet2 of arrays, and the first point that fails, as
    (index, exception), or None.  The points fail in the order a
    point-by-point evaluation would meet them, and the values of a failed
    array are not to be used.

    A coefficient that is exactly zero skips its member, so a degenerate
    member is tolerated when it does not contribute.
    """
    terms = [(which, c) for which, c in zip(BasisMember, (c1, c2)) if c != 0]
    jets, fault = basis_jets(d, [which for which, _ in terms], z)
    out = np.zeros((3, len(z)), dtype=complex)
    for jz, (_, c) in zip(jets, terms):
        jz *= c
        out += jz
    return Jet2(*out), fault


def eval_solution(d: DerivedParams, c1: complex, c2: complex, z: complex) -> Jet2:
    """Jet of c1 * (first member) + c2 * (second member) at one z."""
    jet, fault = solution_jets(d, c1, c2, [complex(z)])
    return Jet2(*first_point(np.array([jet.y, jet.dy, jet.d2y]), fault))


def wronskian(d: DerivedParams, z: complex) -> complex:
    """y1 y2' - y2 y1' at z."""
    j1, j2 = member_jets(d, list(BasisMember), [complex(z)])[0]
    return j1.y * j2.dy - j2.y * j1.dy


def fit_ivp(d: DerivedParams, z0: complex, y0: complex, dy0: complex):
    """Constants (c1, c2) matching (y0, dy0) at z0, by Cramer's rule."""
    if d.degeneracy is DegeneracyClass.REPEATED_EXPONENT:
        raise DegenerateWronskian("repeated exponent: the Wronskian of the "
                                  "closed-form pair vanishes identically")
    j1, j2 = member_jets(d, list(BasisMember), [complex(z0)])[0]
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
        if select_strategy(hp, t[0]) is EvalStrategy.UNREACHABLE:
            return False
    return True

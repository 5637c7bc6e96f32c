"""Independent mpmath reference for y = c1*y1 + c2*y2 and its z-derivative.

Nothing here imports papperitz: the parameters, the principal powers and
the Gauss functions are recomputed in mpmath at DPS digits, with dF/dt from
the contiguous relation F' = (alpha*beta/gamma) F(alpha+1, beta+1, gamma+1).
"""

import math
from dataclasses import dataclass

import mpmath

DPS = 30

#: Digits reported for a value that matches its reference exactly.
MAX_DIGITS = 17.0


@dataclass(frozen=True)
class Reference:
    """Reference value and derivative, with the scales errors are taken
    against: |c1||y1| + |c2||y2| for y and |c1||y1'| + |c2||y2'| for y'."""

    y: complex
    dy: complex
    y_scale: float
    dy_scale: float


def _members(a, b, c):
    """(lambda, alpha, beta, gamma) of both basis members."""
    a, b, c = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c)
    delta = mpmath.sqrt((1 - a) ** 2 + 4 * (b + 1j * c))
    delta_star = mpmath.sqrt((1 - a) ** 2 + 4 * (b - 1j * c))
    alpha = 1 - a + (delta + delta_star) / 2
    beta = 1 - a + (delta - delta_star) / 2
    gamma = 1 + delta
    return (((1 - a + delta) / 2, alpha, beta, gamma),
            ((1 - a - delta) / 2, alpha - gamma + 1, beta - gamma + 1, 2 - gamma))


def _member_jet(lam, alpha, beta, gamma, t, dt_dz):
    f = mpmath.hyp2f1(alpha, beta, gamma, t)
    df = alpha * beta / gamma * mpmath.hyp2f1(alpha + 1, beta + 1, gamma + 1, t)
    p = mpmath.power(t, lam)
    dy_dt = lam * mpmath.power(t, lam - 1) * f + p * df
    return p * f, dy_dt * dt_dz


def solution(a: complex, b: complex, c: complex, c1: complex, c2: complex,
             z: complex) -> Reference:
    """Principal-branch closed-form value of c1*y1 + c2*y2 at z."""
    with mpmath.workdps(DPS):
        z = mpmath.mpc(z)
        t = (z - 1j) / (z + 1j)
        dt_dz = 2j / (z + 1j) ** 2
        (y1, dy1), (y2, dy2) = (_member_jet(*m, t, dt_dz) for m in _members(a, b, c))
        return Reference(
            complex(c1 * y1 + c2 * y2), complex(c1 * dy1 + c2 * dy2),
            float(abs(c1) * abs(y1) + abs(c2) * abs(y2)),
            float(abs(c1) * abs(dy1) + abs(c2) * abs(dy2)))


def digits(value: complex, ref_value: complex, scale: float) -> float:
    """-log10 of the error of value relative to scale, capped at MAX_DIGITS;
    0 for a value that is not finite."""
    err = abs(value - ref_value)
    if not math.isfinite(err):
        return 0.0
    if err == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(err / scale))

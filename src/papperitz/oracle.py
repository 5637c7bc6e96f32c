"""Independent verification: ODE residuals and a complex-path integrator.

Nothing here touches the hypergeometric machinery: the integrator sees
only the raw ODE coefficients, so agreement with the closed form is a
genuine two-sided check.
"""

import cmath
import math
from typing import List, NamedTuple, Sequence, Tuple

from .errors import (
    NonFinitePath,
    NonFiniteSolution,
    PathTooCloseToSingularity,
    StepLimitExceeded,
)
from .params import EquationParams, Jet2

_SINGULARITIES = (1j, -1j)

#: Least distance a path keeps from each singular point.
MIN_SINGULARITY_DISTANCE = 0.1

#: Largest |z| of a waypoint: the largest power of ten whose fourth power is
#: a float, since (1 + z^2)^2 in y'' overflows once |z| passes ~1.16e77.
MAX_WAYPOINT_MODULUS = 1e77


def _segment_distance(z0: complex, z1: complex, w: complex) -> float:
    """Distance from point w to the segment [z0, z1]; no square is formed."""
    d = z1 - z0
    length = abs(d)
    if length == 0.0:
        return abs(w - z0)
    u = d / length
    s = min(length, max(0.0, ((w - z0) * u.conjugate()).real))
    return abs(z0 + s * u - w)


class PathSpec(NamedTuple("PathSpec", [("waypoints", Tuple[complex, ...])])):
    """Polyline in the z-plane of finite waypoints within |z| <=
    MAX_WAYPOINT_MODULUS, kept clear of the singular points +-i."""

    __slots__ = ()

    def __new__(cls, waypoints: Sequence[complex]):
        waypoints = tuple(complex(w) for w in waypoints)
        if len(waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")
        for w in waypoints:
            if not cmath.isfinite(w):
                raise NonFinitePath(f"waypoint {w} is not finite")
            # hypot and not abs(), which raises where |w| overflows
            if math.hypot(w.real, w.imag) > MAX_WAYPOINT_MODULUS:
                raise NonFinitePath(f"waypoint {w} lies beyond |z| = "
                                    f"{MAX_WAYPOINT_MODULUS:g}, where the "
                                    f"equation's coefficients overflow")
        for z0, z1 in zip(waypoints, waypoints[1:]):
            for s in _SINGULARITIES:
                dist = _segment_distance(z0, z1, s)
                if dist < MIN_SINGULARITY_DISTANCE:
                    raise PathTooCloseToSingularity(
                        f"segment {z0} -> {z1} passes within {dist:.4g} "
                        f"of the singular point {s}"
                    )
        return super().__new__(cls, waypoints)


class IntegrationControl(NamedTuple("IntegrationControl", [
        ("rel_tol", float), ("abs_tol", float), ("max_steps", int)])):
    __slots__ = ()

    def __new__(cls, rel_tol=1e-10, abs_tol=1e-12, max_steps=10 ** 6):
        if not (rel_tol > 0 and abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        return super().__new__(cls, rel_tol, abs_tol, max_steps)


def residual_z(p: EquationParams, jet: Jet2, z: complex) -> complex:
    """(1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y for a z-jet."""
    q = 1 + z * z
    return q * q * jet.d2y + 2 * p.a * z * q * jet.dy + 4 * (p.b + p.c * z) * jet.y


def residual_scale(z: complex, jet: Jet2) -> float:
    """Size reference for residual tolerance checks."""
    return ((1 + abs(z) ** 2) ** 2
            * (abs(jet.y) + abs(jet.dy) + abs(jet.d2y)))


# Dormand-Prince 5(4) tableau; its seventh row would repeat _DP_B5.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
          -92097 / 339200, 187 / 2100, 1 / 40)


def _finite_sample(z: complex, y: complex, v: complex):
    """The waypoint sample (z, y, y'); NonFiniteSolution when y or y' has
    overflowed to an infinity or NaN."""
    if not (cmath.isfinite(y) and cmath.isfinite(v)):
        raise NonFiniteSolution(f"the integrated solution is not finite at "
                                f"z={z}: y={y}, y'={v}")
    return z, y, v


def integrate_ivp(p: EquationParams, path: PathSpec,
                  y0: complex, dy0: complex,
                  ctrl: IntegrationControl = IntegrationControl()
                  ) -> List[Tuple[complex, complex, complex]]:
    """Integrate y'' from the ODE along the polyline; returns (z, y, y')
    at every waypoint, the start included.  Raises NonFiniteSolution when
    y or y' is not finite at a waypoint.

    Steps are DOPRI5's, first same as last (Hairer, Norsett & Wanner,
    Solving ODEs I, II.5): an accepted step's stage 7, evaluated at its y5,
    is the next one's stage 1, a rejected step keeps its stage 1 (c1 = 0),
    and stage 1 is evaluated afresh only where a segment, and so u, starts.

    For finite values the written-out stages make the bits of the textbook
    loop over the tableau (a stage adds (h*a_ij)*k_j, y5 b_k*k_k and the
    error (b_k - b*_k)*k_k in order, as sum() does on CPython 3.11) from
    fewer operations: stage 7 reuses stage 6's z, -2a*z*q, -4(b + c*z) and
    q*q, as c6 = c7 = 1; -2a, -4b and -4c fold in the sign and the 4, exact
    short of overflow or a subnormal product; the sums drop sum()'s start
    and the b2 = b*2 = 0 terms, which leave a finite nonzero sum as it is
    (where a stage overflows they can turn the loop's infinities into NaN,
    and the tests check that the same steps and messages follow).

    CPython 3.11 turns a float met by a complex into complex(f, 0.0) before
    it multiplies or adds, so b_k, b_k - b*_k, the 1 of z*z + 1 and the h of
    y5, y'5 and the error are held complex: the same bits, signed zeros,
    infinities and NaN too, without the promotion.  h*a_ij stays real: a
    float product costs under half a complex one, more than the promotion
    it spares its two uses.  The error norm and step factor are comparisons
    with max()'s and min()'s rule, where a later item replaces the one kept
    only when greater (for min(), smaller): a NaN ratio is dropped, and a
    NaN factor would give 0.2.
    """
    c1, c2, c3, c4, c5, c6, _ = _DP_C
    ((), (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65)) = _DP_A
    w1, _, w3, w4, w5, w6, _ = (complex(b5) for b5 in _DP_B5)
    e1, _, e3, e4, e5, e6, e7 = (complex(b5 - b4)
                                 for b5, b4 in zip(_DP_B5, _DP_B4))
    one = 1 + 0j
    m2a, m4b, m4c = -(2 * p.a), -4 * p.b, -4 * p.c
    max_steps, abs_tol, rel_tol = ctrl.max_steps, ctrl.abs_tol, ctrl.rel_tol
    y, v = complex(y0), complex(dy0)
    out = [_finite_sample(path.waypoints[0], y, v)]
    steps = 0
    for z0, z1 in zip(path.waypoints, path.waypoints[1:]):
        seg_len = abs(z1 - z0)
        if seg_len == 0.0:
            out.append((z1, y, v))
            continue
        u = (z1 - z0) / seg_len
        s = 0.0
        h = min(seg_len, 0.1)
        # each stage: its point z, then k = u * (y', y'') there
        z = z0 + u * (s + c1 * h)
        q = z * z + one
        ky1 = u * v
        kv1 = u * ((m2a * z * q * v + (m4b + m4c * z) * y) / (q * q))
        while s < seg_len:
            if seg_len - s < h:
                h = seg_len - s
            if steps >= max_steps:
                raise StepLimitExceeded(f"step budget {max_steps} "
                                        f"exhausted at z={z0 + s * u}")
            steps += 1
            ha21 = h * a21
            yi = y + ky1 * ha21
            vi = v + kv1 * ha21
            z = z0 + u * (s + c2 * h)
            q = z * z + one
            ky2 = u * vi
            kv2 = u * ((m2a * z * q * vi + (m4b + m4c * z) * yi) / (q * q))
            ha31 = h * a31
            ha32 = h * a32
            yi = y + ky1 * ha31 + ky2 * ha32
            vi = v + kv1 * ha31 + kv2 * ha32
            z = z0 + u * (s + c3 * h)
            q = z * z + one
            ky3 = u * vi
            kv3 = u * ((m2a * z * q * vi + (m4b + m4c * z) * yi) / (q * q))
            ha41 = h * a41
            ha42 = h * a42
            ha43 = h * a43
            yi = y + ky1 * ha41 + ky2 * ha42 + ky3 * ha43
            vi = v + kv1 * ha41 + kv2 * ha42 + kv3 * ha43
            z = z0 + u * (s + c4 * h)
            q = z * z + one
            ky4 = u * vi
            kv4 = u * ((m2a * z * q * vi + (m4b + m4c * z) * yi) / (q * q))
            ha51 = h * a51
            ha52 = h * a52
            ha53 = h * a53
            ha54 = h * a54
            yi = y + ky1 * ha51 + ky2 * ha52 + ky3 * ha53 + ky4 * ha54
            vi = v + kv1 * ha51 + kv2 * ha52 + kv3 * ha53 + kv4 * ha54
            z = z0 + u * (s + c5 * h)
            q = z * z + one
            ky5 = u * vi
            kv5 = u * ((m2a * z * q * vi + (m4b + m4c * z) * yi) / (q * q))
            ha61 = h * a61
            ha62 = h * a62
            ha63 = h * a63
            ha64 = h * a64
            ha65 = h * a65
            yi = y + ky1 * ha61 + ky2 * ha62 + ky3 * ha63 + ky4 * ha64 + ky5 * ha65
            vi = v + kv1 * ha61 + kv2 * ha62 + kv3 * ha63 + kv4 * ha64 + kv5 * ha65
            z = z0 + u * (s + c6 * h)
            q = z * z + one
            azq = m2a * z * q
            bcz = m4b + m4c * z
            qq = q * q
            ky6 = u * vi
            kv6 = u * ((azq * vi + bcz * yi) / qq)
            hc = h + 0j
            y5 = y + (ky1 * w1 + ky3 * w3 + ky4 * w4 + ky5 * w5 + ky6 * w6) * hc
            v5 = v + (kv1 * w1 + kv3 * w3 + kv4 * w4 + kv5 * w5 + kv6 * w6) * hc
            ky7 = u * v5
            kv7 = u * ((azq * v5 + bcz * y5) / qq)
            ey = (ky1 * e1 + ky3 * e3 + ky4 * e4 + ky5 * e5 + ky6 * e6 + ky7 * e7) * hc
            ev = (kv1 * e1 + kv3 * e3 + kv4 * e4 + kv5 * e5 + kv6 * e6 + kv7 * e7) * hc
            r = abs(ey.real) / (abs_tol + rel_tol * abs(y5.real))
            err = r if r > 0.0 else 0.0
            r = abs(ey.imag) / (abs_tol + rel_tol * abs(y5.imag))
            err = r if r > err else err
            r = abs(ev.real) / (abs_tol + rel_tol * abs(v5.real))
            err = r if r > err else err
            r = abs(ev.imag) / (abs_tol + rel_tol * abs(v5.imag))
            err = r if r > err else err
            if err <= 1.0:
                s += h
                y, v = y5, v5
                ky1, kv1 = ky7, kv7
            f = 5.0 if err == 0.0 else 0.9 * err ** -0.2
            h *= f if 0.2 < f < 5.0 else 5.0 if f > 0.2 else 0.2
        out.append(_finite_sample(z1, y, v))
    return out


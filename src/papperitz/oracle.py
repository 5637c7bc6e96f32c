"""Independent verification: ODE residuals and a complex-path integrator.

Nothing here touches the hypergeometric machinery: the integrator sees
only the raw ODE coefficients, so agreement with the closed form is a
genuine two-sided check.
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from .closed_form import DerivedParams, EquationParams, Jet2, solution_jets
from .errors import (
    NonFinitePath,
    NonFiniteSolution,
    PathTooCloseToSingularity,
    StepLimitExceeded,
)

_SINGULARITIES = (1j, -1j)

#: Least distance a path keeps from each singular point.
MIN_SINGULARITY_DISTANCE = 0.1


def _modulus(x: complex) -> float:
    """|x|, or inf where it is larger than the largest float."""
    return math.hypot(x.real, x.imag)


def _segment_distance(z0: complex, z1: complex, w: complex) -> float:
    """Distance from point w to the segment [z0, z1] of finite length, or
    inf where it is larger than the largest float: no square is formed."""
    d = z1 - z0
    length = _modulus(d)
    if length == 0.0:
        return _modulus(w - z0)
    u = d / length
    s = min(length, max(0.0, ((w - z0) * u.conjugate()).real))
    return _modulus(z0 + s * u - w)


@dataclass(frozen=True)
class PathSpec:
    """Polyline in the z-plane kept clear of the singular points +-i, with
    segments of finite length."""

    waypoints: Tuple[complex, ...]

    def __init__(self, waypoints: Sequence[complex]):
        object.__setattr__(self, "waypoints", tuple(complex(w) for w in waypoints))
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least two waypoints")
        for z0, z1 in zip(self.waypoints, self.waypoints[1:]):
            if not math.isfinite(_modulus(z1 - z0)):
                raise NonFinitePath(f"segment {z0} -> {z1} is longer than the "
                                    f"largest float")
            for s in _SINGULARITIES:
                dist = _segment_distance(z0, z1, s)
                if dist < MIN_SINGULARITY_DISTANCE:
                    raise PathTooCloseToSingularity(
                        f"segment {z0} -> {z1} passes within {dist:.4g} "
                        f"of the singular point {s}"
                    )


@dataclass(frozen=True)
class IntegrationControl:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 10 ** 6

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class VerifyReport:
    """Per-waypoint closed-form vs numeric comparison."""

    samples: List[Tuple[complex, complex, complex, float]] = field(default_factory=list)
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0


def residual_z(p: EquationParams, jet: Jet2, z: complex) -> complex:
    """(1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y for a z-jet."""
    if jet.coord != "z":
        raise ValueError("residual_z needs a z-jet")
    q = 1 + z * z
    return q * q * jet.d2y + 2 * p.a * z * q * jet.dy + 4 * (p.b + p.c * z) * jet.y


def residual_t(p: EquationParams, jet: Jet2, t: complex) -> complex:
    """t^2(1-t) y'' + t[a - (2-a)t] y' + [(b-ic)t - (b+ic)] y for a t-jet."""
    if jet.coord != "t":
        raise ValueError("residual_t needs a t-jet")
    return (t * t * (1 - t) * jet.d2y
            + t * (p.a - (2 - p.a) * t) * jet.dy
            + ((p.b - 1j * p.c) * t - (p.b + 1j * p.c)) * jet.y)


def residual_scale(z: complex, jet: Jet2) -> float:
    """Size reference for residual tolerance checks."""
    return ((1 + abs(z) ** 2) ** 2
            * (abs(jet.y) + abs(jet.dy) + abs(jet.d2y)))


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
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

    The seven stages of a step are written out, as DOPRI5 codes do
    (Hairer, Norsett & Wanner, Solving ODEs I, II.5), and every value is
    the one a loop over the tableau gives, bit for bit:
    - a stage adds (h*a_ij)*k_j in the order of j and skips the zero a72;
    - the weighted sums add b_k*k_k in order to 0j, zero weights
      included, as sum() from 0 does on CPython 3.11;
    - 2a is formed once per call instead of once per stage;
    - a real number times or plus a complex is written complex first, as
      in k*w, (b + c*z)*4 and z*z + 1: the same IEEE operations, with one
      failed dispatch to the real number's type fewer.
    """
    c1, c2, c3, c4, c5, c6, c7 = _DP_C
    ((), (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _DP_A
    w1, w2, w3, w4, w5, w6, w7 = _DP_B5
    e1, e2, e3, e4, e5, e6, e7 = (b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))
    two_a, b, c = 2 * p.a, p.b, p.c
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
        while s < seg_len:
            h = min(h, seg_len - s)
            if steps >= max_steps:
                raise StepLimitExceeded(f"step budget {max_steps} "
                                        f"exhausted at z={z0 + s * u}")
            steps += 1
            # each stage: its point z, then k = u * (y', y'') there
            z = z0 + u * (s + c1 * h)
            q = z * z + 1
            ky1 = u * v
            kv1 = u * (-(two_a * z * q * v + (b + c * z) * 4 * y) / (q * q))
            ha21 = h * a21
            yi = y + ky1 * ha21
            vi = v + kv1 * ha21
            z = z0 + u * (s + c2 * h)
            q = z * z + 1
            ky2 = u * vi
            kv2 = u * (-(two_a * z * q * vi + (b + c * z) * 4 * yi) / (q * q))
            ha31 = h * a31
            ha32 = h * a32
            yi = y + ky1 * ha31 + ky2 * ha32
            vi = v + kv1 * ha31 + kv2 * ha32
            z = z0 + u * (s + c3 * h)
            q = z * z + 1
            ky3 = u * vi
            kv3 = u * (-(two_a * z * q * vi + (b + c * z) * 4 * yi) / (q * q))
            ha41 = h * a41
            ha42 = h * a42
            ha43 = h * a43
            yi = y + ky1 * ha41 + ky2 * ha42 + ky3 * ha43
            vi = v + kv1 * ha41 + kv2 * ha42 + kv3 * ha43
            z = z0 + u * (s + c4 * h)
            q = z * z + 1
            ky4 = u * vi
            kv4 = u * (-(two_a * z * q * vi + (b + c * z) * 4 * yi) / (q * q))
            ha51 = h * a51
            ha52 = h * a52
            ha53 = h * a53
            ha54 = h * a54
            yi = y + ky1 * ha51 + ky2 * ha52 + ky3 * ha53 + ky4 * ha54
            vi = v + kv1 * ha51 + kv2 * ha52 + kv3 * ha53 + kv4 * ha54
            z = z0 + u * (s + c5 * h)
            q = z * z + 1
            ky5 = u * vi
            kv5 = u * (-(two_a * z * q * vi + (b + c * z) * 4 * yi) / (q * q))
            ha61 = h * a61
            ha62 = h * a62
            ha63 = h * a63
            ha64 = h * a64
            ha65 = h * a65
            yi = y + ky1 * ha61 + ky2 * ha62 + ky3 * ha63 + ky4 * ha64 + ky5 * ha65
            vi = v + kv1 * ha61 + kv2 * ha62 + kv3 * ha63 + kv4 * ha64 + kv5 * ha65
            z = z0 + u * (s + c6 * h)
            q = z * z + 1
            ky6 = u * vi
            kv6 = u * (-(two_a * z * q * vi + (b + c * z) * 4 * yi) / (q * q))
            ha71 = h * a71
            ha73 = h * a73
            ha74 = h * a74
            ha75 = h * a75
            ha76 = h * a76
            yi = y + ky1 * ha71 + ky3 * ha73 + ky4 * ha74 + ky5 * ha75 + ky6 * ha76
            vi = v + kv1 * ha71 + kv3 * ha73 + kv4 * ha74 + kv5 * ha75 + kv6 * ha76
            z = z0 + u * (s + c7 * h)
            q = z * z + 1
            ky7 = u * vi
            kv7 = u * (-(two_a * z * q * vi + (b + c * z) * 4 * yi) / (q * q))
            y5 = y + (0j + ky1 * w1 + ky2 * w2 + ky3 * w3 + ky4 * w4
                      + ky5 * w5 + ky6 * w6 + ky7 * w7) * h
            v5 = v + (0j + kv1 * w1 + kv2 * w2 + kv3 * w3 + kv4 * w4
                      + kv5 * w5 + kv6 * w6 + kv7 * w7) * h
            ey = (0j + ky1 * e1 + ky2 * e2 + ky3 * e3 + ky4 * e4
                  + ky5 * e5 + ky6 * e6 + ky7 * e7) * h
            ev = (0j + kv1 * e1 + kv2 * e2 + kv3 * e3 + kv4 * e4
                  + kv5 * e5 + kv6 * e6 + kv7 * e7) * h
            err = max(0.0,
                      abs(ey.real) / (abs_tol + rel_tol * abs(y5.real)),
                      abs(ey.imag) / (abs_tol + rel_tol * abs(y5.imag)),
                      abs(ev.real) / (abs_tol + rel_tol * abs(v5.real)),
                      abs(ev.imag) / (abs_tol + rel_tol * abs(v5.imag)))
            if err <= 1.0:
                s += h
                y, v = y5, v5
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        out.append(_finite_sample(z1, y, v))
    return out


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


def finite_difference_jet(f: Callable[[complex], complex], z: complex,
                          h: float, coord: str = "z") -> Jet2:
    """Central-difference jet of a pointwise function."""
    fp = f(z + h)
    fm = f(z - h)
    f0 = f(z)
    return Jet2(f0, (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / (h * h),
                coord=coord)

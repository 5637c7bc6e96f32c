"""Bilinear map between the z-plane and the t-plane, and principal powers.

The map t = (z - i)/(z + i) sends the equation's singular points z = i, -i
to t = 0, infinity and the upper half plane onto the open unit disk.  All
complex powers in this package go through :func:`principal_power`, which
uses the principal logarithm (argument in (-pi, pi]).

Every function takes a number or a 1-D array of points and returns the
same kind: one numpy implementation serves both, so a point gives the same
bits alone or inside an array.
"""

import numpy as np

from .errors import PoleAtMinusI, PoleAtOne, ZeroBaseNonpositiveExponent

_POLE_TOL = 1e-14

# Reductions called as ufunc methods: ndarray.any() and .all() go through a
# Python-level wrapper that costs as much as the work on a few points.
any_of = np.logical_or.reduce
all_of = np.logical_and.reduce


def _points(x) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1)


def _like(result: np.ndarray, x):
    """result as a Python complex when x was a number."""
    return complex(result[0]) if np.ndim(x) == 0 else result


def forward_jets(z):
    """t(z) = (z - i)/(z + i), dt/dz = 2i/(z+i)^2 and d2t/dz2 = -4i/(z+i)^3
    at every point of a 1-D array, and the fault of the first point at the
    pole z = -i, as (index, exception), or None.  The values at and after
    that point are not to be used."""
    zs = _points(z)
    zp = zs + 1j
    pole = np.abs(zp) <= _POLE_TOL * (1.0 + np.abs(zs))
    fault = None
    if any_of(pole):
        i = int(pole.argmax())
        fault = (i, PoleAtMinusI(f"z={complex(zs[i])} is at the pole z=-i "
                                  f"of the forward map"))
        zp = np.where(pole, 1.0, zp)
    zp2 = zp * zp
    return (zs - 1j) / zp, 2j / zp2, -4j / (zp2 * zp), fault


def _forward(z, part: int):
    jets = forward_jets(z)
    if jets[3] is not None:
        raise jets[3][1]
    return _like(jets[part], z)


def z_to_t(z):
    """Forward map (z - i)/(z + i)."""
    return _forward(z, 0)


def t_to_z(t):
    """Inverse map i(1 + t)/(1 - t)."""
    ts = _points(t)
    pole = np.abs(1 - ts) <= _POLE_TOL * (1.0 + np.abs(ts))
    if any_of(pole):
        bad = complex(ts[pole.argmax()])
        raise PoleAtOne(f"t={bad} is at the pole t=1 of the inverse map")
    return _like(1j * (1 + ts) / (1 - ts), t)


def dt_dz(z):
    """First derivative of the forward map: 2i/(z+i)^2."""
    return _forward(z, 1)


def d2t_dz2(z):
    """Second derivative of the forward map: -4i/(z+i)^3."""
    return _forward(z, 2)


def principal_power(w, e: complex):
    """w**e on the principal branch, exp(e * Log w).

    0**e is 0 when Re e > 0 and an error otherwise.
    """
    # adding +0 clears a signed zero, so the negative real axis gets arg = +pi
    ws = _points(w) + 0.0
    e = complex(e)
    zero = ws == 0
    if not any_of(zero):
        return _like(np.exp(e * np.log(ws)), w)
    if not e.real > 0:
        raise ZeroBaseNonpositiveExponent(f"0**({e}) is undefined")
    ws[zero] = 1.0
    out = np.exp(e * np.log(ws))
    out[zero] = 0.0
    return _like(out, w)

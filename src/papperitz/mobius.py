"""Bilinear map from the z-plane to the t-plane, and principal powers.

The map t = (z - i)/(z + i) sends the equation's singular points z = i, -i
to t = 0, infinity and the upper half plane onto the open unit disk.  All
complex powers in this package go through :func:`principal_power`, which
uses the principal logarithm (argument in (-pi, pi]).

Both functions take a number or a 1-D array of points, and one numpy
implementation serves both, so a point gives the same bits alone or inside
an array.
"""

import numpy as np

from .errors import MapOverflow, PoleAtMinusI, ZeroBaseNonpositiveExponent

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
    pole z = -i or where one of the three overflows, as (index, exception),
    or None.  The values at and after that point are not to be used."""
    zs = _points(z)
    zp = zs + 1j
    size = np.abs(zp)
    # an overflowing |z + i| reads inf <= inf: it is not the pole, it overflows below
    pole = (size <= _POLE_TOL * (1.0 + np.abs(zs))) & (size < np.inf)
    if any_of(pole):
        zp = np.where(pole, 1.0, zp)
    # an overflow is reported as the point's fault, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        zp2 = zp * zp
        jets = (zs - 1j) / zp, 2j / zp2, -4j / (zp2 * zp)
    bad = pole | ~all_of(np.isfinite(jets), axis=0)
    if not any_of(bad):
        return (*jets, None)
    i = int(bad.argmax())
    if pole[i]:
        exc = PoleAtMinusI(f"z={complex(zs[i])} is at the pole z=-i of the forward map")
    else:
        exc = MapOverflow(f"z={complex(zs[i])} is too large for the forward map: "
                          f"its jets overflow at |z+i|={size[i]:.6g}")
    return (*jets, (i, exc))


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

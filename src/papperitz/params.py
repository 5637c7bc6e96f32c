"""Parameters of the equation and of its hypergeometric series.

Everything here is scalar arithmetic on Python numbers: the coefficients
(a, b, c), the Frobenius exponents and Gauss parameters derived from them,
the degeneracy rules, and the parameter triple of a Gauss series.  No
numpy is imported, so the commands that need only these start without it.
"""

import cmath
import math
from enum import Enum
from typing import NamedTuple, Optional

from .errors import InvalidGamma, NonFiniteParameters

#: |delta| below this counts as a repeated Frobenius exponent.
DEGENERACY_TOL = 1e-10

#: Proximity rule for "is (numerically) an integer": both the distance to
#: the nearest integer and the imaginary part must be below this.
INTEGER_TOL = 1e-10


# The value classes here and in oracle are NamedTuples: immutable, hashed as
# the tuple of their fields and equal to it.  One that checks its fields
# subclasses one and checks in __new__, which _make and _replace skip: nothing
# calls those.


class EquationParams(NamedTuple("EquationParams",
                                 [("a", complex), ("b", complex), ("c", complex)])):
    """Coefficient triple (a, b, c) of the equation."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        for name, v in zip("abc", (a, b, c)):
            v = complex(v)
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"coefficient {name}={v} is not finite")
        return super().__new__(cls, a, b, c)


class DegeneracyClass(Enum):
    GENERIC = "Generic"
    REPEATED_EXPONENT = "RepeatedExponent"
    SECOND_BASIS_INVALID = "SecondBasisInvalid"


class Jet2(NamedTuple):
    """Value with first and second z-derivatives; the fields are numbers,
    or arrays over points for the array functions."""

    y: complex
    dy: complex
    d2y: complex


class DerivedParams(NamedTuple):
    delta: complex
    delta_star: complex
    lam: complex
    lam2: complex
    alpha: complex
    beta: complex
    gamma: complex
    degeneracy: DegeneracyClass


def near_integer(x: complex) -> bool:
    x = complex(x)
    return abs(x.imag) <= INTEGER_TOL and abs(x.real - round(x.real)) <= INTEGER_TOL


def nonpositive_integer_near(x: complex) -> Optional[int]:
    """If x is integer-close to -k with k >= 0, return k, else None."""
    if not near_integer(x):
        return None
    n = round(complex(x).real)
    return -n if n <= 0 else None


def _truncation_degree(alpha: complex, beta: complex) -> Optional[int]:
    """Degree at which the series terminates, or None if it does not."""
    ks = [k for k in (nonpositive_integer_near(alpha),
                      nonpositive_integer_near(beta)) if k is not None]
    return min(ks) if ks else None


class HypParams(NamedTuple("HypParams", [("alpha", complex), ("beta", complex),
                                          ("gamma", complex)])):
    """Parameter triple (alpha, beta, gamma) of the hypergeometric series.

    A nonpositive-integer gamma = -m is rejected unless alpha or beta is a
    nonpositive integer -k with k <= m, in which case the series truncates
    before the vanishing denominator factor is reached.
    """

    def __new__(cls, alpha, beta, gamma):
        k = _truncation_degree(alpha, beta)
        m = nonpositive_integer_near(gamma)
        if m is not None and (k is None or k > m):
            raise InvalidGamma(
                f"gamma={gamma} is a nonpositive integer and neither "
                f"alpha={alpha} nor beta={beta} truncates the "
                f"series early enough"
            )
        self = super().__new__(cls, alpha, beta, gamma)
        # computed once, outside the fields: every evaluation asks for it
        self._degree = k
        return self

    def truncation_degree(self) -> Optional[int]:
        return self._degree


def _principal_sqrt(w: complex) -> complex:
    w = complex(w)
    if w.imag == 0.0:
        # clear a signed zero: arg stays in (-pi, pi]
        w = complex(w.real, 0.0)
    return cmath.sqrt(w)


def second_member_params(alpha, beta, gamma) -> HypParams:
    """Parameter triple of the second basis member's series, from the first
    member's (alpha, beta, gamma); raises InvalidGamma when it has none."""
    return HypParams(alpha - gamma + 1, beta - gamma + 1, 2 - gamma)


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

    degeneracy = DegeneracyClass.GENERIC
    if abs(delta) <= DEGENERACY_TOL:
        degeneracy = DegeneracyClass.REPEATED_EXPONENT
    else:
        try:
            second_member_params(alpha, beta, gamma)
        except InvalidGamma:
            degeneracy = DegeneracyClass.SECOND_BASIS_INVALID

    return DerivedParams(delta, delta_star, lam, lam2,
                         alpha, beta, gamma, degeneracy)


def _overflow(p: EquationParams) -> NonFiniteParameters:
    return NonFiniteParameters(f"a parameter derived from a={p.a}, b={p.b}, "
                               f"c={p.c} overflows to an infinity or NaN")

"""Gauss hypergeometric function for complex parameters and argument.

Evaluation is by the Maclaurin series inside a disk, with Pfaff argument
reduction and the (1-t) connection formula extending coverage toward the
unit circle.  Everything stays on the principal branch; points no strategy
reaches raise a structured error instead of returning a bad value.

One array kernel, :func:`series_jets`, sums a series and its first two
derivatives in a single pass over an array of arguments, reading the
coefficients from a table built once per parameter triple.  The transforms
take F' and F'' from the jets of their transformed series by the chain
rule.  The functions of one point are wrappers over an array of one, and a
point's value does not depend on the other points of its array.

The series policy is fixed: REL_TOL, MAX_TERMS and REGION_CUTOFF are module
constants, read at each call.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import (
    EvaluationUnreachable,
    InvalidGamma,
    NoConvergence,
    OnBranchCut,
)
from .mobius import all_of, any_of, principal_power

#: Proximity rule for "is (numerically) an integer": both the distance to
#: the nearest integer and the imaginary part must be below this.
INTEGER_TOL = 1e-10

#: Half-width of the guard band around the branch cut t in [1, inf).
BRANCH_CUT_TOL = 1e-12

#: Points times series terms in one block of the kernel.  Its work arrays
#: hold three sums of this many complex terms each, so they stay below
#: ~2 MB whatever the number of points.
BLOCK_TERMS = 1 << 13

#: Stopping rule of the series: a point stops once two consecutive terms of
#: each of its three sums are at most this times that sum's partial sum.
REL_TOL = 1e-15

#: Term budget of one series: a series not released within MAX_TERMS + 1
#: terms, and a polynomial of degree MAX_TERMS or more, fail NoConvergence.
MAX_TERMS = 10000

#: Modulus up to which a series argument (t, t/(t-1) or 1-t) is summed.
REGION_CUTOFF = 0.7

#: A failed point of an array, as (key, exception); the key orders failures
#: the way a point-by-point evaluation would meet them.
Fault = Optional[Tuple[object, Exception]]


def earliest(*faults: Fault) -> Fault:
    """The fault with the lowest key; the first one given on a tie."""
    found = [f for f in faults if f is not None]
    return min(found, key=lambda f: f[0]) if found else None


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


@dataclass(frozen=True)
class HypParams:
    """Parameter triple (alpha, beta, gamma) of the hypergeometric series.

    A nonpositive-integer gamma = -m is rejected unless alpha or beta is a
    nonpositive integer -k with k <= m, in which case the series truncates
    before the vanishing denominator factor is reached.
    """

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        k = _truncation_degree(self.alpha, self.beta)
        # computed once: every evaluation asks for it
        object.__setattr__(self, "_degree", k)
        m = nonpositive_integer_near(self.gamma)
        if m is not None and (k is None or k > m):
            raise InvalidGamma(
                f"gamma={self.gamma} is a nonpositive integer and neither "
                f"alpha={self.alpha} nor beta={self.beta} truncates the "
                f"series early enough"
            )

    def truncation_degree(self) -> Optional[int]:
        return self._degree


class EvalStrategy(Enum):
    DIRECT_SERIES = "DirectSeries"
    PFAFF_ON_ALPHA = "PfaffOnAlpha"
    PFAFF_ON_BETA = "PfaffOnBeta"
    ONE_MINUS_T_CONNECTION = "OneMinusTConnection"
    POLYNOMIAL_TRUNCATION = "PolynomialTruncation"
    UNREACHABLE = "Unreachable"


#: Strategy codes of the array functions: indices into this tuple.
_STRATEGIES = tuple(EvalStrategy)
(_DIRECT, _PFAFF_ALPHA, _PFAFF_BETA, _CONNECTION, _POLYNOMIAL,
 _UNREACHABLE) = range(len(_STRATEGIES))


# -- the kernel ---------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _jet_coefficients(p: HypParams, length: int,
                      shift: Optional[complex] = None) -> np.ndarray:
    """Rows c_n, (n+1) c_{n+1} and (n+1)(n+2) c_{n+2} for n < length, where
    c_n are the series coefficients, the cumulative product of the term
    ratios: summed against w^n they give S, S' and S''.  With a shift s the
    rows are c_n, (s+n) c_n and (s+n)(s+n-1) c_n instead, which give
    w^-s (w^s S), w^(1-s) (w^s S)' and w^(2-s) (w^s S)'' with no
    cancellation between S and its derivatives.  A truncating series stops
    at its degree k, before the factor (gamma + m) that may vanish, and its
    rows are zero beyond it.

    Every entry is computed on its own or by a sequential product, so a
    longer table starts with the bits of a shorter one."""
    k = p.truncation_degree()
    m = length + 2 if k is None else min(length + 2, k + 1)
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    n, n1, falling = _counts(length + 1)
    c = np.zeros(length + 2, dtype=complex)
    c[0] = 1.0
    c[1:m] = (a + n[:m - 1]) * (b + n[:m - 1]) / ((g + n[:m - 1]) * n1[:m - 1])
    np.multiply.accumulate(c[:m], out=c[:m])
    if shift is None:
        return _frozen(falling[:, :length] * np.array([c[:-2], c[1:-1], c[2:]]))
    c = c[:length]
    sn = shift + n[:length]
    return _frozen(np.array([c, sn * c, sn * (sn - 1) * c]))


@functools.lru_cache(maxsize=8)
def _counts(length: int):
    """n, n+1 and the rows 1, n+1, (n+1)(n+2), for n < length."""
    n = np.arange(float(length))
    n1 = n + 1
    return _frozen(n), _frozen(n1), _frozen(np.array([np.ones(length), n1, n1 * (n1 + 1)]))


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only: a cached table is shared by every caller."""
    a.flags.writeable = False
    return a


def _table_length(n_terms: int) -> int:
    """Table length serving n_terms terms: a power of two, so that few
    tables are built per parameter triple."""
    return max(64, 1 << (n_terms - 1).bit_length())


def _initial_terms(radius: float) -> int:
    """Terms summed first for arguments of modulus <= radius: twice the
    count after which radius^n falls below REL_TOL, plus 10.  Over the
    parameters and points of the benchmark's eval workloads (14k series
    points) the stopping rule released every point by then.  It releases a
    point only against its own partial sums, and a point it has not
    released is summed again with four times the terms."""
    if radius == 0:
        return min(3, MAX_TERMS + 1)
    n_terms = 2 * math.log(REL_TOL) / math.log(radius) + 10
    return int(min(n_terms, MAX_TERMS + 1))


def _block_sums(rows: np.ndarray, w: np.ndarray, rel_tol: Optional[float]):
    """Partial sums of the three series at every w, summed over the columns
    of rows, at the column where each point stops, and whether it stopped.

    A point stops at the first column m >= 2 where terms m-1 and m of every
    sum are at most rel_tol times that sum's partial sum; with rel_tol None
    every point takes all columns.  Each point's row of powers, terms and
    partial sums is built by sequential products and sums of its own."""
    count = len(w)
    powers = np.empty((count, rows.shape[1]), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    terms = powers[:, None, :] * rows
    sums = np.add.accumulate(terms, axis=2)
    if rel_tol is None or rows.shape[1] < 3:
        return sums[:, :, -1].T, np.full(count, rel_tol is None)
    small = np.logical_and.reduce(np.abs(terms) <= rel_tol * np.abs(sums), axis=1)
    both = small[:, 1:-1] & small[:, 2:]
    stop = both.argmax(axis=1)
    every = np.arange(count)
    return sums[every, :, stop + 2].T, both[every, stop]


def _block_jets(p: HypParams, w: np.ndarray, n_terms: int,
                shift: Optional[complex]):
    """Sums of one block of points, and the position of the first point the
    stopping rule has not released within MAX_TERMS + 1 terms, or None.  A
    truncating series sums exactly its n_terms = k+1 terms.  Points not
    released are summed again with four times the terms, in blocks of at
    most BLOCK_TERMS terms again."""
    if p.truncation_degree() is not None:
        return _block_sums(_jet_coefficients(p, n_terms, shift), w, None)[0], None
    rows = _jet_coefficients(p, _table_length(n_terms), shift)[:, :n_terms]
    sums, done = _block_sums(rows, w, REL_TOL)
    if all_of(done):
        return sums, None
    retry = np.flatnonzero(~done)
    cap = MAX_TERMS + 1
    if n_terms >= cap:
        return sums, int(retry[0])
    more = min(cap, 4 * n_terms)
    step = max(1, BLOCK_TERMS // more)
    for lo in range(0, len(retry), step):
        idx = retry[lo:lo + step]
        sums[:, idx], stuck = _block_jets(p, w[idx], more, shift)
        if stuck is not None:
            return sums, int(idx[stuck])
    return sums, None


def series_jets(p: HypParams, w, shift: Optional[complex] = None):
    """(S, S', S'') of the Gauss series at every w of a 1-D array, or with a
    shift s the sums w^-s (w^s S), w^(1-s) (w^s S)' and w^(2-s) (w^s S)''.

    Returns a (3, n) array and the fault of the first point that fails, as
    (index, exception), or None.  |w| < 1 is required unless the series
    truncates; a truncating series sums exactly its k+1 terms at any w, and
    one of more than MAX_TERMS terms fails at its first point.  Points are
    summed in blocks of at most BLOCK_TERMS terms."""
    w = np.asarray(w, dtype=complex)
    count, fault = len(w), None
    k = p.truncation_degree()
    if k is not None:
        n_terms = k + 1
        if n_terms > MAX_TERMS:
            # the values of a failed array are not used: sum no point
            count, n_terms = 0, 1
            fault = (0, NoConvergence(f"series for {p} is a polynomial of degree "
                                      f"{k:.6g}, beyond the budget of {MAX_TERMS} terms"))
    else:
        radius = np.abs(w)
        largest = float(np.maximum.reduce(radius, initial=0.0))
        if not largest < 1.0:
            count = int((~(radius < 1.0)).argmax())
            fault = (count, NoConvergence(f"series argument |w|={radius[count]:.6g} "
                                          f"not inside the unit disk and no "
                                          f"truncation applies"))
            # the values of a failed array are not used: stop at the failure
            largest = float(np.maximum.reduce(radius[:count], initial=0.0))
        n_terms = _initial_terms(largest)
    step = max(1, BLOCK_TERMS // n_terms)
    if count == len(w) <= step:
        sums, stuck = _block_jets(p, w, n_terms, shift)
        if stuck is None:
            return sums, None
    out = np.zeros((3, len(w)), dtype=complex)
    for lo in range(0, count, step):
        block = slice(lo, min(lo + step, count))
        out[:, block], stuck = _block_jets(p, w[block], n_terms, shift)
        if stuck is not None:
            i = lo + stuck
            return out, earliest(fault, (i, NoConvergence(
                f"series for {p} at w={complex(w[i])} did not converge within "
                f"{MAX_TERMS} terms")))
    return out, fault


# -- region policy ------------------------------------------------------------

def _regions(p: HypParams, t: np.ndarray):
    """Strategy code of every t and the mask of the points on the branch
    cut, which only a truncating series is evaluated on.  The mask is None
    when every point takes the same strategy and none is on the cut."""
    codes = np.zeros(len(t), dtype=np.intp)  # zero is DirectSeries
    if p.truncation_degree() is not None:
        codes.fill(_POLYNOMIAL)
        return codes, None
    cut = REGION_CUTOFF
    mod_t = np.abs(t)
    direct = mod_t <= cut
    if all_of(direct):
        return codes, None
    codes.fill(_UNREACHABLE)
    mod_1mt = np.abs(1 - t)
    if not near_integer(p.gamma - p.alpha - p.beta):
        codes[mod_1mt <= cut] = _CONNECTION
    # |t/(t-1)| <= cut, without dividing by zero at t = 1
    pfaff = mod_t <= cut * mod_1mt
    # keep the parameter whose partner transforms more tamely
    if abs(p.gamma - p.beta) <= abs(p.gamma - p.alpha):
        codes[pfaff] = _PFAFF_ALPHA
    else:
        codes[pfaff] = _PFAFF_BETA
    # a Pfaff-transformed series that truncates works for any t
    if nonpositive_integer_near(p.gamma - p.beta) is not None:
        codes[t != 1] = _PFAFF_ALPHA
    elif nonpositive_integer_near(p.gamma - p.alpha) is not None:
        codes[t != 1] = _PFAFF_BETA
    codes[direct] = _DIRECT
    on_cut = (np.abs(t.imag) <= BRANCH_CUT_TOL) & (t.real >= 1.0 - BRANCH_CUT_TOL)
    return codes, on_cut


def select_strategy(p: HypParams, t: complex) -> EvalStrategy:
    """Region policy choosing how F(p; t) will be computed."""
    return _STRATEGIES[_regions(p, np.array([complex(t)]))[0][0]]


def evaluable(p: HypParams, t) -> np.ndarray:
    """Mask of the points of a 1-D array of t that gauss_2f1_jets evaluates:
    a strategy reaches them and, unless the series truncates, they are off
    the branch cut."""
    codes, on_cut = _regions(p, np.asarray(t, dtype=complex))
    reached = codes != _UNREACHABLE
    return reached if on_cut is None else reached & ~on_cut


def _region_error(t: complex, on_cut: bool) -> Exception:
    if on_cut:
        return OnBranchCut(f"t={t} lies on the branch cut [1, inf)")
    return EvaluationUnreachable(t, abs(t),
                                 abs(t / (t - 1)) if t != 1 else float("inf"),
                                 abs(1 - t))


# -- strategies -----------------------------------------------------------------

def _pfaff_jets(p: HypParams, t: np.ndarray, on_alpha: bool):
    """F = (1-t)^-a G(t/(t-1)), with a = alpha or beta and G the series at
    the parameters Pfaff's transform gives; F', F'' by the chain rule."""
    if on_alpha:
        a, q = p.alpha, HypParams(p.alpha, p.gamma - p.beta, p.gamma)
    else:
        a, q = p.beta, HypParams(p.gamma - p.alpha, p.beta, p.gamma)
    g, fault = series_jets(q, t / (t - 1))
    u = principal_power(1 - t, -a)
    v = 1 / (1 - t)
    return np.array([
        u * g[0],
        u * v * (a * g[0] - v * g[1]),
        u * v * v * (a * (a + 1) * g[0] - 2 * (a + 1) * v * g[1] + v * v * g[2]),
    ]), fault


#: B_2k / (2k (2k-1)) for k = 1..8, the coefficients of Stirling's series.
_S1, _S2, _S3, _S4, _S5, _S6, _S7, _S8 = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
    -3617 / 122400)

_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _sinpi(z: complex) -> complex:
    """sin(pi z), exact zero at the integers; the argument is reduced first."""
    n = round(z.real)
    s = cmath.sin(math.pi * complex(z.real - n, z.imag))
    return -s if n % 2 else s


def _gamma(z: complex) -> complex:
    """Gamma(z) off the poles: Stirling's series once |z| >= 7, reached by
    Gamma(z) = Gamma(z + 1) / z, and reflection for Re z < 1/2.  Against
    mpmath, its relative error stayed below 1.7e-14 for |Re z|, |Im z| <= 15."""
    if z.real < 0.5:
        return math.pi / (_sinpi(z) * _gamma(1 - z))
    shift = 1 + 0j
    while abs(z) < 7:
        shift *= z
        z += 1
    r = 1 / z
    r2 = r * r
    series = r * (_S1 + r2 * (_S2 + r2 * (_S3 + r2 * (_S4 + r2 * (
        _S5 + r2 * (_S6 + r2 * (_S7 + r2 * _S8)))))))
    return cmath.exp((z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + series) / shift


def _rgamma(z: complex) -> complex:
    """1 / Gamma(z), zero at the poles."""
    if z.real < 0.5:
        return _sinpi(z) * _gamma(1 - z) / math.pi
    return 1 / _gamma(z)


@functools.lru_cache(maxsize=64)
def _connection_coefficients(p: HypParams) -> Tuple[complex, complex]:
    """Gamma-function coefficients of the two terms of the (1-t) formula."""
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    s = g - a - b
    gamma_g = _gamma(g)
    c1 = gamma_g * _gamma(s) * _rgamma(g - a) * _rgamma(g - b)
    c2 = gamma_g * _gamma(-s) * _rgamma(a) * _rgamma(b)
    return c1, c2


def _connection_jets(p: HypParams, t: np.ndarray):
    """F = c1 G(1-t) + c2 (1-t)^s H(1-t), s = gamma - alpha - beta, with G
    and H the two series of the connection formula; F', F'' by the chain
    rule, the derivatives of (1-t)^s H summed as one series each."""
    s = p.gamma - p.alpha - p.beta
    c1, c2 = _connection_coefficients(p)
    w = 1 - t
    g, fault_g = series_jets(HypParams(p.alpha, p.beta, 1 - s), w)
    h, fault_h = series_jets(HypParams(p.gamma - p.alpha, p.gamma - p.beta, 1 + s),
                             w, shift=s)
    ws = c2 * principal_power(w, s)
    v = 1 / w
    return np.array([
        c1 * g[0] + ws * h[0],
        -(c1 * g[1] + ws * v * h[1]),
        c1 * g[2] + ws * v * v * h[2],
    ]), earliest(fault_g, fault_h)


_JETS = {
    _DIRECT: series_jets,
    _POLYNOMIAL: series_jets,
    _PFAFF_ALPHA: functools.partial(_pfaff_jets, on_alpha=True),
    _PFAFF_BETA: functools.partial(_pfaff_jets, on_alpha=False),
    _CONNECTION: _connection_jets,
}


def gauss_2f1_jets(p: HypParams, t):
    """(F, F', F'') on the principal branch at every t of a 1-D array.

    Returns a (3, n) array and the fault of the first point that fails, as
    (index, exception), or None; the values of a failed array are not to be
    used.  Each strategy's points go to the kernel together."""
    t = np.asarray(t, dtype=complex)
    if not len(t):
        return np.zeros((3, 0), dtype=complex), None
    codes, on_cut = _regions(p, t)
    if on_cut is None:
        return _JETS[codes[0]](p, t)
    jets = np.zeros((3, len(t)), dtype=complex)
    bad = on_cut | (codes == _UNREACHABLE)
    faults = []
    if any_of(bad):
        i = int(bad.argmax())
        faults.append((i, _region_error(complex(t[i]), bool(on_cut[i]))))
        if not i:
            return jets, faults[0]
        # the values of a failed array are not used: stop at the failure
        bad[i:] = True
    elif all_of(codes == codes[0]):
        return _JETS[codes[0]](p, t)
    for code in np.unique(codes[~bad]).tolist():
        idx = np.flatnonzero((codes == code) & ~bad)
        jets[:, idx], fault = _JETS[code](p, t[idx])
        if fault is not None:
            faults.append((int(idx[fault[0]]), fault[1]))
    return jets, earliest(*faults)


# -- one point --------------------------------------------------------------------

def _first_point(values: np.ndarray, fault: Fault) -> list:
    if fault is not None:
        raise fault[1]
    return values[:, 0].tolist()


def raw_series(p: HypParams, w: complex) -> complex:
    """Plain series sum; |w| < 1 required unless the series truncates."""
    return _first_point(*series_jets(p, [complex(w)]))[0]


def gauss_2f1_jet(p: HypParams, t: complex):
    """(F, F', F'') at t; the workhorse for chain-rule evaluations."""
    return tuple(_first_point(*gauss_2f1_jets(p, [complex(t)])))


def gauss_2f1(p: HypParams, t: complex) -> complex:
    """F(alpha, beta, gamma; t) on the principal branch."""
    return gauss_2f1_jet(p, t)[0]


"""Gauss hypergeometric function for complex parameters and argument.

Evaluation is by the Maclaurin series inside a disk, with Pfaff argument
reduction and the (1-t) connection formula extending coverage toward the
unit circle.  Everything stays on the principal branch; points no strategy
reaches raise a structured error instead of returning a bad value.

One array kernel, :func:`series_jets`, sums a series and its first two
derivatives together over an array of arguments, in passes that go on until
each point meets the stopping rule, reading the coefficients from tables
that each call builds for itself: the module keeps no cache.  The
transforms take F' and F'' from the jets of their transformed series by
the chain rule.  The functions of one point are wrappers over an array of
one, and a point's value does not depend on the other points of its array.

The series policy is fixed: REL_TOL, MAX_TERMS and REGION_CUTOFF are module
constants, read at each call.
"""

import cmath
import functools
import math
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import (
    EvaluationUnreachable,
    NoConvergence,
    NonFiniteParameters,
    OnBranchCut,
)
from .mobius import all_of, any_of, principal_power
from .params import HypParams, near_integer, nonpositive_integer_near

#: Half-width of the guard band around the branch cut t in [1, inf).
BRANCH_CUT_TOL = 1e-12

#: Points times series columns in one block of the kernel.  A pass holds
#: its BLOCK_TERMS // _PASS_COLUMNS points at _PASS_COLUMNS + 1 columns, the
#: carried one included, so its three-row work arrays take 97 KiB, under
#: glibc's 128 KiB mmap threshold: each block reuses heap memory instead of
#: zero-filling fresh pages.  An eval_batch request made ~2,150 minor page
#: faults at 1 << 13, and makes fewer than one at 1 << 11.
BLOCK_TERMS = 1 << 11

#: Columns a pass of the kernel adds to each point it has not released.  It
#: decides how fast the kernel runs and no value: one pass covers the 97
#: columns after which 0.7^n, the largest |w| summed, falls below REL_TOL.
_PASS_COLUMNS = 128

#: Stopping rule of the series: a point stops once two consecutive terms of
#: each of its three sums are at most this times that sum's partial sum.
REL_TOL = 1e-15

#: Term budget of one series: a series not released within MAX_TERMS + 1
#: terms, and a polynomial of degree MAX_TERMS or more, fail NoConvergence.
MAX_TERMS = 10000

#: Modulus up to which a series argument (t, t/(t-1) or 1-t) is summed.
REGION_CUTOFF = 0.7

#: A failed point of an array, as (index, exception).
Fault = Optional[Tuple[int, Exception]]


def earliest(*faults: Fault) -> Fault:
    """The fault with the lowest index; the first one given on a tie."""
    found = [f for f in faults if f is not None]
    return min(found, key=lambda f: f[0]) if found else None


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

def _jet_coefficients(p: HypParams, length: int, shift: Optional[complex] = None):
    """Rows c_n, (n+1) c_{n+1} and (n+1)(n+2) c_{n+2} for n < length, where
    c_n are the series coefficients, the cumulative product of the term
    ratios: summed against w^n they give S, S' and S''.  With a shift s the
    rows are c_n, (s+n) c_n and (s+n)(s+n-1) c_n instead, which give
    w^-s (w^s S), w^(1-s) (w^s S)' and w^(2-s) (w^s S)'' with no
    cancellation between S and its derivatives.  A truncating series stops
    at its degree k, before the factor (gamma + m) that may vanish, and its
    rows are zero beyond it.  Returns the rows and their first column that
    is not finite, or length when every column is.

    Every entry is computed on its own or by a sequential product, so a
    longer table starts with the bits of a shorter one."""
    k = p.truncation_degree()
    m = length + 2 if k is None else min(length + 2, k + 1)
    a, b, g = complex(p.alpha), complex(p.beta), complex(p.gamma)
    n = np.arange(float(length + 1))
    n1 = n + 1
    c = np.zeros(length + 2, dtype=complex)
    c[0] = 1.0
    # an overflow is reported by the finite column returned, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        c[1:m] = (a + n[:m - 1]) * (b + n[:m - 1]) / ((g + n[:m - 1]) * n1[:m - 1])
        np.multiply.accumulate(c[:m], out=c[:m])
        if shift is None:
            n1 = n1[:length]
            falling = np.array([np.ones(length), n1, n1 * (n1 + 1)])
            table = falling * np.array([c[:-2], c[1:-1], c[2:]])
        else:
            c = c[:length]
            sn = shift + n[:length]
            table = np.array([c, sn * c, sn * (sn - 1) * c])
    finite = all_of(np.isfinite(table), axis=0)
    return table, length if all_of(finite) else int(finite.argmin())


def _table_length(n_terms: int) -> int:
    """Table length serving n_terms terms: a power of two, so that few
    tables are built per call."""
    return max(64, 1 << (n_terms - 1).bit_length())


def series_jets(p: HypParams, w, shift: Optional[complex] = None):
    """(S, S', S'') of the Gauss series at every w of a 1-D array, or with a
    shift s the sums w^-s (w^s S), w^(1-s) (w^s S)' and w^(2-s) (w^s S)''.

    Returns a (3, n) array and the fault of the first point that fails, as
    (index, exception), or None; the values of a failed array are not to be
    used.  |w| < 1 is required unless the series truncates; a truncating
    series sums exactly its k+1 terms at any w, and one of more than
    MAX_TERMS terms fails at its first point.  Points are summed up to the
    first point outside the unit disk, so a point the kernel fails at comes
    first.  A point fails NoConvergence when it is not released within
    MAX_TERMS + 1 terms, and NonFiniteParameters when it is not released
    before the first column of the coefficient table that is not finite.

    The points are summed in passes of _PASS_COLUMNS columns, each pass over
    the points not yet released in blocks of BLOCK_TERMS // _PASS_COLUMNS
    points, and the call builds a longer table only when a pass reaches past
    the one it holds.  A pass starts from the last column of the one before,
    with each live point's partial sums and small-term flag carried over,
    and its powers from the power of the column before that, so each power
    and partial sum is the same sequential product and sum whatever the pass
    width and the block.  (numpy forms the products of an accumulate two
    columns wide with fused multiply-adds, and of a wider one as a scalar
    loop does, so a pass's powers take at least three.)  A point stops at
    the first column m >= 2 where terms m-1 and m of every sum are at most
    REL_TOL times that sum's partial sum; a truncating series sums exactly
    its k+1 columns."""
    w = np.asarray(w, dtype=complex)
    count, fault = len(w), None
    k = p.truncation_degree()
    if k is not None and k + 1 > MAX_TERMS and count:
        # the values of a failed array are not used: sum no point
        count, fault = 0, (0, NoConvergence(f"series for {p} is a polynomial of degree "
                                            f"{k:.6g}, beyond the budget of {MAX_TERMS} terms"))
    elif k is None:
        radius = np.abs(w)
        if not all_of(radius < 1.0):
            # the values of a failed array are not used: stop at the failure
            count = int((~(radius < 1.0)).argmax())
            fault = (count, NoConvergence(f"series argument |w|={radius[count]:.6g} "
                                          f"not inside the unit disk and no "
                                          f"truncation applies"))
    out = np.zeros((3, len(w)), dtype=complex)
    cap = MAX_TERMS + 1 if k is None else k + 1
    step = max(1, BLOCK_TERMS // _PASS_COLUMNS)
    # each live point's index, power of the column before the pass, partial
    # sums and flag; the rule starts at m = 2: the flag of column 0 is False
    live = np.arange(count)
    power = np.ones(count, dtype=complex)
    carried = np.empty((count, 3), dtype=complex)
    flag = np.zeros(count, dtype=bool)
    start, held = 0, 0
    while len(live):
        end = min(start + _PASS_COLUMNS + 1, cap)
        if held < end:
            held = _table_length(end)
            table, finite = _jet_coefficients(p, held, shift)
        if finite <= start + 1:
            # no column is left to release a live point at
            return out, (int(live[0]), NonFiniteParameters(
                f"the series coefficients of {p} overflow at term {finite}, "
                f"before the series at w={complex(w[live[0]])} met its stopping rule"))
        end = min(end, finite)
        rows = table[:, start:end]
        x = w[live]
        done = np.full(len(live), end == cap)
        for lo in range(0, len(live), step):
            b = slice(lo, lo + step)
            every = np.arange(len(x[b]))
            powers = np.empty((len(every), end - start + 1), dtype=complex)
            powers[:, 0] = power[b]
            powers[:, 1:] = x[b, None]
            if not start:
                powers[:, 1] = 1.0  # column 0 is w^0 itself
            np.multiply.accumulate(powers, axis=1, out=powers)
            terms = powers[:, None, 1:] * rows
            if start:
                terms[:, :, 0] = carried[b]
            sums = np.add.accumulate(terms, axis=2)
            if k is None:
                small = np.logical_and.reduce(np.abs(terms) <= REL_TOL * np.abs(sums), axis=1)
                small[:, 0] = flag[b]
                flag[b] = small[:, -1]
                both = small[:, :-1] & small[:, 1:]
                stop = both.argmax(axis=1) + 1
                done[b] = both[every, stop - 1]
            else:
                stop = end - start - 1
            # a point not released yet is written again by a later pass
            out[:, live[b]] = sums[every, :, stop].T
            power[b], carried[b] = powers[:, -2], sums[:, :, -1]
        if all_of(done):
            return out, fault
        keep = ~done
        live, power, carried, flag = live[keep], power[keep], carried[keep], flag[keep]
        if end == cap:
            return out, (int(live[0]), NoConvergence(
                f"series for {p} at w={complex(w[live[0]])} did not converge "
                f"within {MAX_TERMS} terms"))
        start = end - 1
    return out, fault


# -- region policy ------------------------------------------------------------

def _on_cut(t):
    """Whether t, a number or each point of an array, is within BRANCH_CUT_TOL of [1, inf)."""
    return (abs(t.imag) <= BRANCH_CUT_TOL) & (t.real >= 1.0 - BRANCH_CUT_TOL)


def _regions(p: HypParams, t: np.ndarray) -> np.ndarray:
    """Strategy code of every t.  A truncating series is summed at any t;
    otherwise a point on the branch cut is UNREACHABLE."""
    codes = np.zeros(len(t), dtype=np.intp)  # zero is DirectSeries
    if p.truncation_degree() is not None:
        codes.fill(_POLYNOMIAL)
        return codes
    cut = REGION_CUTOFF
    mod_t = np.abs(t)
    direct = mod_t <= cut
    if all_of(direct):
        return codes  # no point is on the cut
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
    codes[_on_cut(t)] = _UNREACHABLE
    return codes


def select_strategy(p: HypParams, t: complex) -> EvalStrategy:
    """Region policy choosing how F(p; t) will be computed: UNREACHABLE
    where gauss_2f1 raises its region error."""
    return _STRATEGIES[_regions(p, np.array([complex(t)]))[0]]


def _region_error(t: complex) -> Exception:
    if not _on_cut(t):
        return EvaluationUnreachable(t, abs(t), abs(t / (t - 1)), abs(1 - t))
    where = "on" if t.imag == 0 and t.real >= 1 else f"within {BRANCH_CUT_TOL:g} of"
    return OnBranchCut(f"t={t} lies {where} the branch cut [1, inf)")


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
    try:
        c1, c2 = _connection_coefficients(p)
    except (OverflowError, ZeroDivisionError):
        # the values of a failed array are not used
        return np.zeros((3, len(t)), dtype=complex), (0, NonFiniteParameters(
            f"the Gamma-function coefficients of the (1-t) formula for {p} "
            f"are out of floating-point range"))
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
    used.  The first point on the cut or out of reach is recorded, then
    each strategy's other points go to the kernel together."""
    t = np.asarray(t, dtype=complex)
    codes = _regions(p, t)
    bad = codes == _UNREACHABLE
    faults = []
    if any_of(bad):
        i = int(bad.argmax())
        faults.append((i, _region_error(complex(t[i]))))
    jets = np.zeros((3, len(t)), dtype=complex)
    # sorted(set()) and not np.unique, which imports numpy.ma (~1.3 MB)
    for code in sorted(set(codes.tolist()) - {_UNREACHABLE}):
        idx = (codes == code).nonzero()[0]
        jets[:, idx], fault = _JETS[code](p, t[idx])
        if fault is not None:
            faults.append((int(idx[fault[0]]), fault[1]))
    return jets, earliest(*faults)


# -- one point --------------------------------------------------------------------

def first_point(values: np.ndarray, fault: Fault) -> list:
    """The values of the first point of an array; raises its fault."""
    if fault is not None:
        raise fault[1]
    return values[:, 0].tolist()


def raw_series(p: HypParams, w: complex) -> complex:
    """Plain series sum; |w| < 1 required unless the series truncates."""
    return first_point(*series_jets(p, [complex(w)]))[0]


def gauss_2f1_jet(p: HypParams, t: complex):
    """(F, F', F'') at t; the workhorse for chain-rule evaluations."""
    return tuple(first_point(*gauss_2f1_jets(p, [complex(t)])))


def gauss_2f1(p: HypParams, t: complex) -> complex:
    """F(alpha, beta, gamma; t) on the principal branch."""
    return gauss_2f1_jet(p, t)[0]


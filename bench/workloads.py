"""Seeded request streams for the benchmark workloads.

Every input is drawn from numpy's default_rng(seed) and nothing here calls
into papperitz, so the program never picks or filters its own inputs.  Each
workload is an endless stream of CLI requests; the runner takes as many as
fit in its measuring time.

The parameters of each request, and eval_single's z, are the next point of
a Kronecker sequence (Roberts' R_d) shifted by a seeded uniform offset.
Each point is uniform in its box, as an independent draw would be, but any
run of consecutive points covers the box evenly, so the mix of costs and
the share of unreachable points in a run vary far less from seed to seed.
"""

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

import reference

#: Half-width of the box [-2,2]^2 for each of a, b, c and c2, as in selftest.
PARAM_BOX = 2.0

#: eval_batch: points per request, the t-disk they are drawn from, and the
#: radius of the three series regions |t|, |t/(t-1)|, |1-t| <= 0.7 that
#: decides which draws are kept.  150 points (~40 ms) keep a request
#: hypergeom-bound, while a 20 s run, whose requests are each sent in 6
#: passes, still holds ~55 parameter sets: with 20 the mix of costs drawn
#: from the seed alone moved the timing metrics by 6%.
BATCH_POINTS = 150
BATCH_DISK = 0.95
REGION_RADIUS = 0.7

#: eval_batch rows per request checked against mpmath.  mpmath needs ~4 ms
#: per row against ~0.3 ms of program time, so checking every row would
#: outlast the run many times over.
BATCH_CHECKED_ROWS = 16

#: Tolerance of eval answers: 1e-8, the default --tol of `papperitz verify`.
EVAL_TOL_DIGITS = 8.0

#: Tolerance of integrate answers: 1e-3.  The integrator controls only its
#: local error (rel_tol 1e-10 per step) and states no global bound.  Along
#: PATH the error of y1 + c2*y2 grows as one member outgrows the other, the
#: more so the smaller |c2|: over 10 runs of ~480 requests the worst value
#: kept 4.5 to 5.7 digits, and the tail thins about a hundredfold per digit.
#: 1e-3 still rejects any wrong solution; accuracy_digits reports the loss.
INTEGRATE_TOL_DIGITS = 3.0

#: eval_single: z is uniform in [-4,4]^2, the ROADMAP's coverage box.
SINGLE_BOX = 4.0

#: integrate_path: a fixed polyline of length ~19.4 in Re z > 0 that keeps
#: at least 0.5 from +-i.  Re z > 0 is Im t < 0, away from both the cut
#: t in [1, inf) of F and the cut t <= 0 of the powers t^lambda, so the
#: closed form can be checked at every waypoint.  Waypoints stay off the
#: real z axis, where |t| = 1.
PATH = (0.5 + 3j, 4 + 3j, 4 - 3j, 0.5 - 3j, 2.5 + 0.8j, 0.7 + 1.8j)


@dataclass(frozen=True)
class Request:
    """One CLI request and what its check needs to know."""

    argv: Tuple[str, ...]
    a: complex
    b: complex
    c: complex
    c2: complex
    #: evaluation points in order, or the path's waypoints
    points: Tuple[complex, ...]
    #: eval_batch: the bytes of the --points file, passed by path
    points_csv: Optional[bytes] = None
    #: rows checked against mpmath; None checks every row
    checked_rows: Optional[Tuple[int, ...]] = None
    #: integrate_path: mpmath reference at the start of the path
    start: Optional[reference.Reference] = None
    #: exit 3 (point unreachable) is a documented answer for this request
    may_be_unreachable: bool = False
    #: a checked value fails when its error, relative to the reference
    #: scale, exceeds 10**-tol_digits
    tol_digits: float = EVAL_TOL_DIGITS


def fmt_complex(z: complex) -> str:
    """The CLI's RE,IM literal, exact for doubles."""
    return f"{float(z.real)!r},{float(z.imag)!r}"


class Draws:
    """The seeded generator of one stream: `rng` for independent draws and
    next_point() for the shifted R_d sequence in [0,1)^dims."""

    def __init__(self, seed: int, dims: int):
        self.rng = np.random.default_rng(seed)
        phi = 2.0
        for _ in range(64):  # phi is the positive root of x**(dims+1) = x + 1
            phi = (1 + phi) ** (1 / (dims + 1))
        self._alpha = (1 / phi) ** np.arange(1, dims + 1) % 1
        self._shift = self.rng.uniform(size=dims)
        self._n = 0

    def next_point(self) -> np.ndarray:
        self._n += 1
        return (self._shift + self._n * self._alpha) % 1


def _complex_in_box(u, half_width: float) -> complex:
    """The point of [-half_width, half_width]^2 at u in [0,1)^2."""
    return complex(half_width * (2 * u[0] - 1), half_width * (2 * u[1] - 1))


def _draw_params(draws: Draws):
    """a, b, c and c2 (with c1 = 1), each uniform in the parameter box, and
    the coordinates of the sequence point past the eight they used."""
    while True:
        u = draws.next_point()
        a, b, c, c2 = (_complex_in_box(u[i:i + 2], PARAM_BOX) for i in range(0, 8, 2))
        if c2 != 0:
            return (a, b, c, c2), u[8:]


def _param_args(a, b, c):
    return ("--a", fmt_complex(a), "--b", fmt_complex(b), "--c", fmt_complex(c))


def _batch_points(rng) -> Tuple[complex, ...]:
    kept = []
    while len(kept) < BATCH_POINTS:
        r = BATCH_DISK * np.sqrt(rng.uniform(size=BATCH_POINTS))
        t = r * np.exp(1j * rng.uniform(-math.pi, math.pi, size=BATCH_POINTS))
        keep = ((np.abs(t) <= REGION_RADIUS)
                | (np.abs(t / (t - 1)) <= REGION_RADIUS)
                | (np.abs(1 - t) <= REGION_RADIUS))
        kept.extend(t[keep])
    t = np.array(kept[:BATCH_POINTS])
    return tuple(complex(z) for z in 1j * (1 + t) / (1 - t))


def eval_batch(draws: Draws) -> Request:
    (a, b, c, c2), _ = _draw_params(draws)
    rng = draws.rng
    points = _batch_points(rng)
    csv_text = "z_re,z_im\n" + "".join(fmt_complex(z) + "\n" for z in points)
    checked = rng.choice(BATCH_POINTS, size=BATCH_CHECKED_ROWS, replace=False)
    return Request(("eval",) + _param_args(a, b, c) + ("--c2", fmt_complex(c2)),
                   a, b, c, c2, points, points_csv=csv_text.encode(),
                   checked_rows=tuple(sorted(int(i) for i in checked)))


def eval_single(draws: Draws) -> Request:
    (a, b, c, c2), rest = _draw_params(draws)
    z = _complex_in_box(rest, SINGLE_BOX)
    argv = (("eval",) + _param_args(a, b, c)
            + ("--c2", fmt_complex(c2), "--z", fmt_complex(z), "--format", "json"))
    return Request(argv, a, b, c, c2, (z,), may_be_unreachable=True)


def integrate_path(draws: Draws) -> Request:
    (a, b, c, c2), _ = _draw_params(draws)
    start = reference.solution(a, b, c, 1, c2, PATH[0])
    argv = (("integrate",) + _param_args(a, b, c)
            + ("--path", ";".join(fmt_complex(w) for w in PATH),
               "--y0", fmt_complex(start.y), "--dy0", fmt_complex(start.dy)))
    return Request(argv, a, b, c, c2, PATH, start=start,
                   tol_digits=INTEGRATE_TOL_DIGITS)


#: Each workload and the dimension of its sequence: eight coordinates for
#: a, b, c and c2, and two more for eval_single's z.
WORKLOADS = {"eval_batch": (eval_batch, 8), "eval_single": (eval_single, 10),
             "integrate_path": (integrate_path, 8)}

#: Percentile of request_tail_ms on each workload: the highest with ten
#: requests beyond it in a 20 s run, but p95 on eval_single, whose p99 (the
#: 16th slowest of ~1600 requests) spread 11% from seed to seed.  It is
#: fixed, so that a faster program, which fits more requests into a run, is
#: measured at the same percentile; a run of a slower one sends enough
#: requests to keep ten beyond it.
TAIL_PERCENTILE = {"eval_batch": 75.0, "eval_single": 95.0, "integrate_path": 90.0}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """The endless request stream of a workload; equal seeds give equal streams."""
    make, dims = WORKLOADS[workload]
    draws = Draws(seed, dims)
    while True:
        yield make(draws)

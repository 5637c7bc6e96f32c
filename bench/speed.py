"""Host speed probe.

The benchmark's host is a share of a machine whose speed drifts with the
load of its neighbours: over minutes the same requests ran 15-40% slower or
faster, which no length of run averages away.  The probe is a fixed loop of
pure-Python complex arithmetic, like the program's series sums and
integrator stages, timed every PROBE_EVERY seconds of request time through
a run.  Timing metrics are scaled by REFERENCE_S / (10th percentile of the
probe's times), which gives them at the host speed at which the probe's
10th percentile was REFERENCE_S.  The probe is code of the benchmark, so a
change to the program cannot change it.

    python3 bench/speed.py      # prints the probe's 10th percentile here
"""

import statistics
from time import perf_counter

#: 10th percentile of the probe's time on the host the benchmark was
#: written on (a 2-vCPU share of an Intel Xeon at 2.1 GHz), seconds.
REFERENCE_S = 1.0e-3

#: Request time between two probes, seconds.
PROBE_EVERY = 0.1


def probe() -> float:
    """Seconds one pass of the fixed loop takes."""
    start = perf_counter()
    z = 0.45 + 0.3j
    a, b, c = 0.5 + 0.1j, 0.7 - 0.2j, 1.1 + 0.3j
    term, total = 1 + 0j, 0j
    for n in range(900):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
    y, h = total, 0.01
    for _ in range(120):
        stages = [y]
        for _ in range(6):
            stages.append(y + h * sum(0.1 * k for k in stages))
        y = y + h * sum(stages) / 7
    return perf_counter() - start


class SpeedProbe:
    """Probe times of one run, taken between requests."""

    def __init__(self):
        self.times = []
        self._since = 0.0

    def after(self, request_s: float):
        """Note a request's time; probe once PROBE_EVERY has gone by."""
        self._since += request_s
        if self._since >= PROBE_EVERY:
            self._since = 0.0
            self.times.append(probe())

    def low_s(self) -> float:
        """10th percentile of the probe times; one probe is made if none was."""
        if not self.times:
            self.times.append(probe())
        return statistics.quantiles(self.times, n=10)[0] if len(self.times) > 1 else self.times[0]

    def scale(self) -> float:
        """Factor that takes this run's times to the reference host speed."""
        return REFERENCE_S / self.low_s()


if __name__ == "__main__":
    p = SpeedProbe()
    for _ in range(300):
        p.times.append(probe())
    print(f"probe 10th percentile {p.low_s() * 1e3:.4f} ms over {len(p.times)} probes")

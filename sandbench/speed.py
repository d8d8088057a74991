"""Host speed, sampled while the benchmark runs, to correct its timings.

The benchmark runs on a few cores of a shared host.  Other tenants slow
each core by up to about half, in spells of seconds to minutes, and the
slowdown shows in CPU time as much as in wall time, so no statistic over
the program's own timings removes it.  While a timed command runs, a
``SIGALRM`` timer interrupts it every ``INTERVAL`` seconds and times a fixed
kernel of the simulator's kind of work: Python arithmetic, small NumPy
arrays and a 7x7 solve.  A command's corrected time is its wall time less
the kernel's, scaled by the mean of ``REFERENCE_S / kernel seconds`` over
the samples taken inside it: the time the command would have taken at the
reference speed.  The kernel belongs to the benchmark, so a change to
sandwalk cannot move it.  The raw wall times stay in the run's report.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.05  # seconds between kernel samples
KERNEL_ROUNDS = 40
REFERENCE_S = 5e-4  # kernel seconds at the reference speed

# Bound at import, so that a traced numpy.linalg.solve never sees the kernel.
_solve = np.linalg.solve
_ones = np.ones(7)


def kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_ROUNDS):
        q = i * 1e-3
        m = np.zeros((7, 7))
        for j in range(7):
            m[j, j] = 2.0 + math.cos(q + j)
        m[0, 1] = m[1, 0] = 0.1 * math.sin(q)
        acc += float(_solve(m, _ones)[0])
    return acc


def kernel_s() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Speedometer:
    """Samples the kernel on a timer while entered; corrects intervals with it."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.times: list[float] = []  # end of each sample
        self.kernel: list[float] = []  # its kernel seconds
        self.intervals: list[tuple[float, float]] = []  # (raw, corrected) seconds
        self._previous = None

    def _sample(self, signum, frame) -> None:
        d = kernel_s()
        self.times.append(perf_counter())
        self.kernel.append(d)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the reference speed."""
        lo = bisect.bisect_right(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        inside = self.kernel[lo:hi]
        busy = sum(inside)
        if not inside:  # shorter than the interval: the nearest sample, or one now
            inside = self.kernel[hi - 1:hi] or [kernel_s()]
        corrected = (t1 - t0 - busy) * statistics.fmean(REFERENCE_S / d for d in inside)
        self.intervals.append((t1 - t0, corrected))
        return corrected

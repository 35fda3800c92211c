"""Machine speed sampled while the workload runs, to rescale its timings.

The benchmark shares its cores with other work.  On such a machine the same
code runs up to twice as slow for minutes at a time, which would swamp most
changes to the program.  While a ``SpeedProbe`` is active, a SIGALRM
handler times a fixed pure-Python loop every ``PERIOD_S``; the handler runs
in the benchmark's own thread, between the program's bytecodes, so it sees
the same core in the same state.  ``scaled(start, end)`` takes the loop's own
time out of an interval and multiplies the rest by
``REFERENCE_S / median loop time around the interval``: the time the work
would have taken on an uncontended core.  Raw wall times stay in the run
record.  The loop is small enough to stay in the first-level caches, so a
program change that only adds cache pressure would slow the loop a little
and be under-reported by the same small share.

A fresh interpreter is too short-lived to sample this way, so a cold start
is rescaled differently: it is timed right after a start of the same
interpreter that only imports numpy (``REFERENCE_START_ARGS``), which slows
down with the machine the same way, and reported as
``REFERENCE_START_S * program start / reference start``.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

PERIOD_S = 0.05
WINDOW_S = 0.5  # loop samples this close to an interval set its speed
# median duration of _reference_loop on an unloaded core of the machine the
# benchmark was calibrated on (Intel Xeon, 2 vCPUs, Python 3.11)
REFERENCE_S = 0.00013
# the reference cold start and its median wall time on the calibration machine
REFERENCE_START_ARGS = ["-c", "import numpy"]
REFERENCE_START_S = 0.2
# samples kept (27 minutes at PERIOD_S); the lists are allocated up front
# because a list grown inside the handler can land on top of the heap, keep
# the program's freed arrays from going back to the system and add their
# size to the peak resident memory the benchmark reports
CAPACITY = 1 << 15


def _reference_loop() -> float:
    total = 0.0
    for i in range(1, 600):
        x = i * 1e-3
        total += (x + 1.0) * math.log1p(x) - x * math.log(x)
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self._starts = [0.0] * CAPACITY
        self._durations = [0.0] * CAPACITY
        self.count = 0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        if self.count == CAPACITY:
            return
        start = time.perf_counter()
        _reference_loop()
        self._starts[self.count] = start
        self._durations[self.count] = time.perf_counter() - start
        self.count += 1

    @property
    def durations(self) -> list[float]:
        return self._durations[: self.count]

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, lo: float, hi: float) -> list[float]:
        i = bisect.bisect_left(self._starts, lo, 0, self.count)
        j = bisect.bisect_right(self._starts, hi, 0, self.count)
        return self._durations[i:j]

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval's work would take at reference speed."""
        busy = end - start - sum(self._between(start, end))
        nearby = self._between(start - WINDOW_S, end + WINDOW_S)
        if not nearby:
            raise RuntimeError("no speed sample near the interval; is the probe active?")
        return busy * REFERENCE_S / statistics.median(nearby)

"""Calibrated seconds: instance times rescaled to a fixed machine speed.

On a shared host the CPU this runs on changes speed by up to 1.6x. The
speed flips within tens of milliseconds and the mix of fast and slow drifts
over minutes, so raw times of one corpus differ by up to 60% between runs a
few minutes apart. The change is uniform across interpreted code: the ratio
of a library call's time to a fixed pure-Python loop run next to it stays
within a few percent while both swing.

So while timed passes run, a SIGALRM handler times ``reference_loop`` every
SAMPLE_INTERVAL_S of wall time, sampling the machine's speed during the
measured work itself. An instance's time, less the time its handlers took,
is rescaled by REFERENCE_NOMINAL_S over the mean reference time sampled
within WINDOW_S of it. A library change cannot move the reference, so
calibrated times compare commits fairly.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from typing import Iterator, List

REFERENCE_NOMINAL_S = 0.001
SAMPLE_INTERVAL_S = 0.02
WINDOW_S = 0.06


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work (bytecode dispatch,
    int, dict and Fraction arithmetic) that never calls the library."""
    t0 = perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        acc += i * i
        table[i & 255] = acc
    x = Fraction(1, 3)
    for i in range(60):
        x = x * Fraction(7, 5) + Fraction(1, i + 2)
    return perf_counter() - t0


class SpeedSampler:
    """Reference-loop times sampled from a timer signal, with their start
    times and the total time spent in the handler."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.refs: List[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.refs.append(reference_loop())
        self.stamps.append(t0)
        self.spent += perf_counter() - t0

    @contextmanager
    def running(self) -> Iterator["SpeedSampler"]:
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_NOMINAL_S over the mean reference time sampled within
        WINDOW_S of [start, end], the window widened to two samples at least."""
        if not self.stamps:
            self._sample(signal.SIGALRM, None)
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        while hi - lo < 2 and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return REFERENCE_NOMINAL_S / statistics.fmean(self.refs[lo:hi])


def references(count: int) -> List[float]:
    return [reference_loop() for _ in range(count)]

"""Host-speed calibration for the timed metrics.

The benchmark runs on shared hosts whose speed drifts: the same pure
Python loop can run 30-50% slower for minutes at a time, whatever the
program does, and a run's raw seconds then say more about the host than
about the program. So a run interleaves a fixed calibration sample with
its operations: an integer loop and a set/dict neighbourhood walk, the
kinds of work the package does, run with the garbage collector off so
that the program's heap does not change its cost. The sample never calls
the package, so a faster program shows as faster while a slower host
slows both.

A time is reported in reference seconds: the measured seconds times
``REF_S`` over the median sample time near the measurement. On a host
where a sample takes ``REF_S`` they are plain seconds.
"""

from __future__ import annotations

import gc
import random
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

# About the median sample time on a shared 2-vCPU x86-64 VM with CPython
# 3.11. Any fixed value would do; this one keeps the reported figures
# close to seconds.
REF_S = 0.004
EVERY_S = 0.05      # sample after this much operation time ...
MAX_REPS = 5        # ... up to this many samples after a long operation
WINDOW_S = 1.0      # samples this close to a measurement scale it
MIN_SAMPLES = 5     # or else the nearest this many

_rng = random.Random(5)
_ADJ = {v: set(_rng.sample(range(200), 12)) for v in range(200)}


def _loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i % 7
    return total


def _walk() -> int:
    total = 0
    for v in range(0, 200, 4):
        reach: set[int] = set()
        for u in _ADJ[v]:
            reach |= _ADJ[u]
        total += len(reach - _ADJ[v])
        degrees = {x: len(_ADJ[x]) for x in reach}
        total += sorted(degrees.items())[0][1]
    return total


class Speedometer:
    """Calibration samples of one run: when each was taken, how long it took."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._since = 0.0

    def sample(self, reps: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                start = perf_counter()
                _loop()
                _walk()
                end = perf_counter()
                self.at.append((start + end) / 2)
                self.took.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def after_op(self, elapsed: float) -> None:
        """Sample once per ``EVERY_S`` of operation time."""
        self._since += elapsed
        if self._since >= EVERY_S:
            self.sample(min(MAX_REPS, int(self._since / EVERY_S)))
            self._since = 0.0

    def scale(self, start: float, end: float) -> float:
        """Factor from measured to reference seconds for [start, end]."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REF_S / median(self.took[lo:hi])

    def overall(self) -> float:
        """Factor over the whole run, for display."""
        return REF_S / median(self.took)

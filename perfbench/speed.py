"""Machine-speed reference, so that timings from a shared machine compare.

On a machine shared with other work the interpreter's speed drifts: the same
pure-Python loop runs up to 40% faster or slower from one ten-second stretch
to the next.  That drift is larger than the changes the benchmark must
detect.  The benchmark therefore times a fixed reference task between items
and scales each item's time by ``NOMINAL_S / reference time`` around it.  The reference uses only the standard library (``Fraction``, dicts,
tuples and sorting, like the program), so a change to the program does not
change it; the drift of the machine affects both alike and cancels.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from fractions import Fraction
from time import perf_counter

# Duration of one reference task on the machine the benchmark was tuned on
# (2-vCPU x86-64 container, Python 3.11).  Scaled times read as times on a
# machine running at that speed.
NOMINAL_S = 0.0045
SAMPLE_EVERY_S = 0.5
REPEATS = 5
# Samples this close to an item are averaged for its scale factor.
WINDOW_S = 2.0


def reference_task() -> Fraction:
    acc = Fraction(0)
    table: dict = {}
    for k in range(1, 160):
        p = Fraction(k % 7 + 1, k % 5 + 2)
        acc += p * Fraction(3, k + 1) - Fraction(1, k % 3 + 1)
        key = (k % 11, k % 13)
        table[key] = table.get(key, Fraction(0)) + p
    sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return acc


def reference_seconds() -> float:
    """Median of a few timed reference tasks, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = perf_counter()
            reference_task()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class SpeedLog:
    """Reference samples taken at points of a run's busy time."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self, busy: float) -> None:
        self.at.append(busy)
        self.seconds.append(reference_seconds())

    def due(self, busy: float) -> bool:
        return not self.at or busy - self.at[-1] >= SAMPLE_EVERY_S

    def factor(self, busy: float) -> float:
        """NOMINAL_S over the mean sample within WINDOW_S of ``busy``.

        The window always includes the samples just before and after.
        """
        k = bisect.bisect_right(self.at, busy)
        lo = min(bisect.bisect_left(self.at, busy - WINDOW_S), max(0, k - 1))
        hi = max(bisect.bisect_right(self.at, busy + WINDOW_S), k + 1)
        return NOMINAL_S / statistics.fmean(self.seconds[lo:hi])

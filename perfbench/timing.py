"""Times in reference seconds.

The benchmark runs on shared hosts whose single-thread speed can swing by
a factor of two for seconds at a time (a busy neighbour on the same
core).  While a timed stretch runs, an interval timer interrupts it every
INTERVAL seconds to time one small fixed calibration unit (exact
Fraction, dict and big-integer work, like the package's own inner loops).
A stretch's wall time, less the time spent in those interruptions, is
then scaled by CAL_REF times the mean calibration speed over the stretch:
the result is the time the stretch would take on a host where the unit
takes CAL_REF seconds.  Both sides of a comparison run the same unit, so
the ratio between two commits is the ratio of their wall times at equal
host speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

CAL_REF = 0.0009
INTERVAL = 0.05
MIN_SAMPLES = 4


def calibration_unit() -> float:
    """Wall time of one fixed unit of pure-Python exact arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 160):
        acc += Fraction(i % 13 - 6, i % 97 + 1)
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + (i * 12345678901) ** 2
    if acc.denominator == 0 or not table:
        raise AssertionError("calibration unit lost its work")
    return time.perf_counter() - start


class SpeedSampler:
    """Samples host speed during timed stretches.

    Use as a context manager around the timed code; `mark()` before a
    stretch and `since(mark)` after it give (reference seconds, wall
    seconds) for the stretch.  Short stretches with fewer than MIN_SAMPLES
    samples of their own use the most recent MIN_SAMPLES samples.
    """

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.speeds: list[float] = []  # 1 / calibration time, per sample
        self.spent = 0.0  # seconds spent sampling
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        self.speeds.append(1 / calibration_unit())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        calibration_unit()  # the first unit pays for cold caches
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.speeds), self.spent

    def since(self, mark: tuple[float, int, float]) -> tuple[float, float]:
        start, first, spent = mark
        wall = time.perf_counter() - start - (self.spent - spent)
        speeds = self.speeds[first:]
        if len(speeds) < MIN_SAMPLES:
            speeds = self.speeds[-MIN_SAMPLES:]
        return wall * CAL_REF * sum(speeds) / len(speeds), wall

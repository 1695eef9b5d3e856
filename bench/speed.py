"""Times scaled to a reference machine speed, measured alongside the work.

On a shared 2-CPU machine the same pure-Python loop took anywhere from
45 to 85 ms from one second to the next, so raw wall times of identical
work spread by ±30 % between runs.  While a ``Speedometer`` is active,
a timer signal interrupts the main thread every INTERVAL_S and times a
fixed probe loop written in benchmark code.  ``seconds(a, b)`` converts the wall interval [a, b] into
seconds at the reference speed, at which the probe takes PROBE_REF_S:
each stretch of time is weighted by PROBE_REF_S over the duration of the
nearby probes, and the probes' own time is taken out.

The probe does not call halinlab, so a change to the program cannot move
the yardstick.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
PROBE_ITERATIONS = 800
PROBE_REF_S = 2e-4  # the unit: one probe loop at reference speed
SMOOTHING = 5  # probes per running median


def probe() -> int:
    """Fixed interpreter work: integer and bit arithmetic, list and dict traffic."""
    acc, table, seen = 0, [0] * 64, {}
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 63] ^= acc
        if acc & 7 == 0:
            seen[acc & 1023] = i
    return acc + len(seen) + table[0]


class Speedometer:
    """Context manager sampling machine speed with SIGALRM (main thread only)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._factors: list[float] | None = None
        self._bounds: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.durations:
            self._sample(None, None)
        return False

    def _prepare(self) -> None:
        if self._factors is not None:
            return
        half = SMOOTHING // 2
        d = self.durations
        smooth = [statistics.median(d[max(0, i - half) : i + half + 1]) for i in range(len(d))]
        self._factors = [PROBE_REF_S / s for s in smooth]
        # Probe i stands for the stretch between the midpoints to its neighbours.
        self._bounds = [(a + b) / 2 for a, b in zip(self.starts, self.starts[1:])]

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds spent on work (not probes) in [a, b];
        call it once sampling has stopped."""
        self._prepare()
        factors, bounds = self._factors, self._bounds
        total = 0.0
        i = bisect.bisect_right(bounds, a)
        t = a
        while t < b:
            end = bounds[i] if i < len(bounds) and bounds[i] < b else b
            total += (end - t) * factors[i]
            t, i = end, i + 1
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        for j in range(lo, hi):
            if self.starts[j] + self.durations[j] <= b:
                total -= self.durations[j] * factors[j]
        return max(total, 0.0)

"""Host-speed calibration.

The benchmark box is a 2-vCPU virtual machine whose speed drifts with the
load of its neighbours: the same computation takes from 1.0x to 2.0x its
fastest time, in phases that last from seconds to minutes (NOTES.md shows
the measurements). Raw wall times of two runs therefore differ by more than
the bounds a regression check needs.

So every run interleaves short bursts of a fixed kernel (small BLAS matmul,
elementwise exp, a Python loop and a pass over arrays larger than the
caches; about 2 ms) with the program's work and
reports every stretch of time between bursts multiplied by REF_S / (median
duration of the NEAREST bursts around it). Times are then "seconds on a host
where one burst takes 2 ms". The kernel never touches ncgn, so a change to the program moves the
normalized times exactly as it moves the raw ones; only the host's drift
cancels. Raw times are printed beside the normalized ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REF_S = 2e-3   # reported times are scaled to a host where one burst takes 2 ms
NEAREST = 15   # bursts whose median gives the host speed at one moment


class HostClock:
    """Runs calibration bursts and keeps their (start, duration)."""

    def __init__(self, span=None):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64))
        self._v = rng.standard_normal(2000)
        # 4 MB operands, larger than the caches: the bursts see memory
        # bandwidth contention as well as CPU contention
        self._x = rng.standard_normal(1 << 19)
        self._y = rng.standard_normal(1 << 19)
        self._z = np.empty_like(self._x)
        self._span = span  # the tracer's span runner, so bursts are not self time
        self.starts, self.durations = [], []

    def _kernel(self):
        total = 0.0
        for _ in range(15):
            total += float((self._a @ self._a).sum())
            total += float(np.exp(self._v * 1e-3).sum())
            total += sum(range(300))
        for _ in range(2):
            np.add(self._x, self._y, out=self._z)
            np.multiply(self._z, 0.5, out=self._z)
        return total

    def burst(self):
        """Run one burst; return the clock read that ends it."""
        start = perf_counter()
        if self._span is None:
            self._kernel()
        else:
            self._span("perfbench.calibration", self._kernel, (), {})
        end = perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        return end

    def factor_at(self, t):
        """REF_S over the median of the NEAREST bursts around time ``t``."""
        i = bisect.bisect_left(self.starts, t)
        lo = max(0, min(i - NEAREST // 2, len(self.starts) - NEAREST))
        return REF_S / statistics.median(self.durations[lo:lo + NEAREST])

    def normalized(self, start, end):
        """Time in [start, end] outside bursts, each stretch between two
        bursts scaled by the host speed around it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        total, t = 0.0, start
        for j in range(lo, hi):
            total += (self.starts[j] - t) * self.factor_at(0.5 * (t + self.starts[j]))
            t = self.starts[j] + self.durations[j]
        return total + (end - t) * self.factor_at(0.5 * (t + end))

    def burst_time_between(self, start, end):
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.durations[lo:hi])

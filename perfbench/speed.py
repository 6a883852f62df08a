"""Machine speed, for timings that do not drift with the machine's load.

On a shared two-core machine the same Python code runs up to 1.7 times
slower for stretches of seconds to minutes, so raw timings of identical
runs spread by 20-30%.  The benchmark therefore times a fixed pure-Python
computation that shares no code with a2cent between ops, and scales every
timing by REFERENCE_S / (its median time around the timed interval):
timings read as on a machine where the reference takes REFERENCE_S.  The run also prints the
raw figures.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.004  # the reference computation's time on an unloaded machine
INTERVAL_S = 0.25  # least wall time between two timings of the reference
WINDOW_S = 0.5  # an op's factor uses the timings within this of its midpoint


def reference_work():
    """Tuple rotations, lexicographic minima and dict updates, the operations
    a2cent's strip and necklace code spends its time on."""
    seq = tuple(range(14))
    seen = {}
    for r in range(1500):
        k = r % 14
        rotation = seq[k:] + seq[:k]
        key = min(rotation[j:] + rotation[:j] for j in range(0, 14, 2))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Speed:
    """Timings of the reference computation, taken between ops."""

    def __init__(self):
        self.starts = []
        self.samples = []

    def sample(self):
        """Time the reference, unless it was timed less than INTERVAL_S ago."""
        if self.starts and time.perf_counter() - self.starts[-1] < INTERVAL_S:
            return
        # a collection would charge the reference for the size of the heap
        gc.disable()
        try:
            start = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            gc.enable()

    def factor(self, t):
        """REFERENCE_S over the median reference time within WINDOW_S of time
        t, or over the nearest one when none is that close."""
        lo = bisect.bisect_left(self.starts, t - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            k = bisect.bisect_left(self.starts, t)
            if k == len(self.starts) or (k and t - self.starts[k - 1] < self.starts[k] - t):
                k -= 1
            near = [self.samples[k]]
        return REFERENCE_S / statistics.median(near)

"""Times in reference seconds: wall time scaled by a fixed calibration kernel.

The speed of a shared machine swings by up to two times over seconds,
which no length of run averages out, and a per-process CPU clock swings
with it.  So each timed interval is bracketed by runs of a fixed
calibration kernel, and its wall time is scaled by REF_S over the mean
kernel time before and after it.  The kernel allocates and hashes small
objects as the package does, so it slows with the machine as the
package does; the kernel itself never changes, so a slower package
still shows in full.
"""

from __future__ import annotations

import time

REF_S = 150e-6  # kernel time on a quiet 2.1 GHz Xeon core
_now = time.perf_counter


def _calibration_kernel() -> int:
    """Fixed work that uses no klrcalc code: small tuples, frozensets, a dict."""
    seen = {}
    rows = []
    for i in range(150):
        key = frozenset((i % 11, i * 7 % 13, (i & 3) + 20))
        seen[key] = seen.get(key, 0) + 1
        rows.append(tuple(sorted(key)))
    return len(seen) + len(set(rows))


def kernel_s() -> float:
    """Mean time of two back-to-back runs of the calibration kernel.

    The mean, not the minimum: an interval feels the average slowdown of
    the machine while it runs, and on a noisy machine the faster of two
    runs reads too fast, which made short intervals read too slow.
    """
    t0 = _now()
    _calibration_kernel()
    _calibration_kernel()
    return (_now() - t0) / 2


class Clock:
    """Wall times, each with the kernel time around it.

    `kernel` runs the calibration kernel and returns its time; a traced
    session passes one that runs it inside a span, so that the enclosing
    span does not count the kernel as its own time.
    """

    def __init__(self, kernel=kernel_s):
        self._kernel = kernel
        self.kernel_s = []
        self.wall_s = []

    def measure(self, fn, *args):
        """Call fn(*args), record its wall time, return its result."""
        before = self._kernel()
        t0 = _now()
        try:
            return fn(*args)
        finally:
            self.record(_now() - t0, before)

    def record(self, wall: float, kernel_before: float) -> None:
        """Record a wall time measured elsewhere, right after the interval."""
        self.wall_s.append(wall)
        self.kernel_s.append((kernel_before + self._kernel()) / 2)

    def reference_s(self) -> list:
        return [wall * REF_S / kernel for wall, kernel in zip(self.wall_s, self.kernel_s)]

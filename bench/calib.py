"""Machine-speed sampling used to steady the benchmark's timings.

On a shared machine the same op can take anywhere from 1x to 2x its usual
wall time for stretches of several seconds, and CPU time rises with wall
time, so the slowdown comes from outside the process. While an op runs, a
timer signal runs a fixed calibration kernel every ``INTERVAL`` seconds: one
untimed call to bring it back into the caches the op has evicted, then two
timed calls, of which the faster counts. An op's time is then rescaled to
the machine speed at which the kernel takes ``KERNEL_REF_S``:

    scaled = (wall - time spent sampling) * KERNEL_REF_S / median(kernel)

The kernel touches nothing of the program under test, so a change to the
program moves the scaled time exactly as it moves the wall time at fixed
machine speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.2
# median kernel time on the reference machine (see README); the scaled
# times are seconds of a machine running at that speed
KERNEL_REF_S = 1.3e-3

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])


def kernel() -> float:
    """Small numpy calls, tuple/dict work and a plain float loop, in about
    equal shares of time: the kinds of work the program's ops spend their
    time on."""
    s = 0.0
    for _ in range(40):
        s += float(np.linalg.eigvalsh(_A)[0]) + float((_A @ _A).sum())
    d = {}
    for i in range(300):
        t = (i % 3, i % 5, i % 7)
        d[t] = d.get(t, 0) + 1
        s += abs(0.37 * i - 0.5 * t[1]) + t[0] * t[2]
    x = 0.3
    for i in range(3500):
        x = x * 1.0000001 + 0.5 * i - (i % 3)
        s += x if x > s else -x
    return s + len(d)


class Sampler:
    """Runs ``kernel`` on SIGALRM every ``INTERVAL`` seconds while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.spent: list[float] = []  # time of each tick, all three calls
        self.durations: list[float] = []  # the faster timed call
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        kernel()
        t3 = time.perf_counter()
        self.starts.append(t0)
        self.spent.append(t3 - t0)
        self.durations.append(min(t2 - t1, t3 - t2))

    def __enter__(self):
        for _ in range(5):  # first calls pay for lazy numpy set-up
            kernel()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(net, factor) for the interval [t0, t1]: wall time minus the
        sampling time inside it, and KERNEL_REF_S over the median kernel time
        of the samples within one interval of it."""
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL)
        inside = [d for s, d in zip(self.starts[lo:hi], self.spent[lo:hi]) if t0 <= s < t1]
        near = self.durations[lo:hi]
        if not near:
            raise RuntimeError("no calibration sample near the timed interval")
        return (t1 - t0) - sum(inside), KERNEL_REF_S / statistics.median(near)

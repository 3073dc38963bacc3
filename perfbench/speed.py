"""The machine's speed, sampled while the timed loop runs.

On a shared host the same Python code runs up to about 1.7x slower for
stretches of seconds to minutes (another tenant on the sibling core or the
memory bus), long enough that a whole run can land in a slow or a fast
stretch.  So the benchmark times a fixed reference kernel every
``INTERVAL_S`` from a SIGALRM handler in its own process, and divides each
task's time by the kernel's median time around that task relative to
``REFERENCE_S``.  A timed figure then reads as seconds on a machine where
the kernel takes ``REFERENCE_S``.

The kernel is Fraction arithmetic over a dict with tuple keys and a
small-int modular loop, in about equal parts, like valtool's rings over Q
and GF(p); it uses no valtool code, so a change to valtool moves task times
and leaves the kernel alone.  Garbage collection is off while it runs, so
the size of valtool's heap does not reach the kernel either.  The handler's
own time is taken out of the task it interrupts.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.03
# the kernel's median time on a 2-vCPU x86_64 VM, CPython 3.11, in its fast
# stretches; a fixed scale, so figures of different commits compare
REFERENCE_S = 0.0008
NEIGHBOURS = 8   # samples taken on each side of a task, besides those in it


def kernel():
    acc = {}
    for i in range(1, 61):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + Fraction(i, 7) * Fraction(3, i + 1)
    s = 0
    for i in range(1, 3400):
        s = (s * 31 + i * i) % 10007
    return acc, s


def time_kernel():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slowness(samples=15):
    """Kernel median now over the reference: above 1 on a slow stretch."""
    return statistics.median(time_kernel() for _ in range(samples)) \
        / REFERENCE_S


class SpeedProbe:
    """Samples the kernel on a timer while in a ``with`` block."""

    def __init__(self):
        self.stamps = []      # perf_counter at each sample
        self.durations = []   # kernel time of each sample
        self.spent = 0.0      # handler time so far, to take out of tasks
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.durations.append(time_kernel())
        self.stamps.append(t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowness(self, t0, t1):
        """Kernel median over the reference, from the samples taken in
        [t0, t1] and ``NEIGHBOURS`` on each side; call after the block."""
        if not self.durations:
            self._sample(None, None)
        lo = max(0, bisect.bisect_left(self.stamps, t0) - NEIGHBOURS)
        hi = bisect.bisect_right(self.stamps, t1) + NEIGHBOURS
        return statistics.median(self.durations[lo:hi]) / REFERENCE_S

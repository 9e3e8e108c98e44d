"""Machine-speed reference for the benchmark's timings.

On a shared host the speed of the machine itself moves under the
benchmark: on a 2-CPU Xeon virtual machine a fixed pure-Python loop took
31-61 ms within ten seconds with no CPU time stolen, and the same 1 s
`equiv` op took 0.6-1.6 s within a minute.  A loop run on the other CPU
tracked this only at times.  So while the ops run, a SIGALRM handler in
the benchmark's own process times a fixed pure-Python loop (small
objects, float arithmetic, method calls and a dict, like jet arithmetic)
every PERIOD_S, in the middle of whatever op is running, and every op is
reported at the reference speed:

    scaled = (elapsed - handler time) * REFERENCE_S
             / mean(loop times within the op)

A program that does more work still reads slower, because the loop is
the benchmark's own code and does not change with the program.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# loop time that defines the reference speed, about its median on the
# host above, so scaled times read close to wall times there
REFERENCE_S = 2.3e-3
LOOP_STEPS = 4000
PERIOD_S = 0.025


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


def loop_seconds():
    """Time of the reference loop now, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x, acc, seen = _Pair(1.0001, 0.5), _Pair(1.0, 0.0), {}
        for i in range(LOOP_STEPS):
            acc = acc.mul(x)
            seen[i & 63] = acc.a
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probe:
    """Times the reference loop every PERIOD_S from a SIGALRM handler for
    the life of a ``with`` block; then scales intervals given by their
    ``time.monotonic()`` ends."""

    def __init__(self):
        self.times, self.loops = [], []
        self.busy = 0.0  # seconds spent in the handler

    def tick(self, signum=None, frame=None):
        """Time the loop once now (the SIGALRM handler)."""
        start = time.monotonic()
        seconds = loop_seconds()
        self.times.append(start + seconds / 2)
        self.loops.append(seconds)
        self.busy += time.monotonic() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, elapsed, start, end):
        """``elapsed`` seconds of the interval [start, end] at the
        reference speed, from the loop times within it; with fewer than
        two, the nearest one on each side counts too."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        loops = self.loops[lo:hi]
        if not loops:
            raise RuntimeError("the speed probe recorded no loop times")
        return elapsed * REFERENCE_S * len(loops) / sum(loops)

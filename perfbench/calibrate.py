"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core swings by a third or more, in phases
of seconds to minutes, and those phases move every timing of a run alike.
The benchmark therefore measures the speed of the machine while it runs: a
timer signal interrupts the process every INTERVAL_S and runs a fixed
pure-Python reference (`reference`, no trimod code) once.  A timed stretch
[t0, t1] is then rescaled by

    REF_MS / median(reference times sampled in [t0 - WINDOW_S, t1 + WINDOW_S])

that is, reported as the time it would have taken with the reference running
at REF_MS, a round figure near the reference's median time from the timer on
a 2-vCPU Intel Xeon VM under Python 3.11.  A change that makes trimod slower
or faster moves the rescaled times as it moves wall time; a slower or faster
phase of the machine moves the reference along with trimod and cancels out.

Time spent in the reference is left out of every timing: `clock()` is
`time.perf_counter()` less the time spent in the signal handler so far.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_MS = 1.0
INTERVAL_S = 0.02
WINDOW_S = 0.1


def reference():
    """About 1 ms of the kind of work trimod does: many small tuples, lists,
    dicts, sets and slotted objects with arithmetic methods.  Of several
    candidates, this mix followed trimod's own speed most closely from one
    phase of the machine to the next."""
    groups = {}
    for i in range(400):
        groups.setdefault((i % 17, i % 13, i % 7), []).append(i * i % 101)
    ranked = sorted((sum(v), k) for k, v in groups.items())
    shapes = {frozenset(k) | {total % 5} for total, k in ranked}
    xs = [_Elt(i, i * 7 % 13) for i in range(60)]
    products = {}
    for i, x in enumerate(xs):
        y = x * xs[i * 5 % 60]
        products[y.a % 11, y.b % 7] = y
    rows = [[(r * c + r) % 5 for c in range(12)] for r in range(12)]
    return len(shapes), len(products), sum(len(set(col)) for col in zip(*rows))


class _Elt:
    """a + b*sqrt(2) mod 97."""
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __mul__(self, o):
        return _Elt((self.a * o.a + 2 * self.b * o.b) % 97, (self.a * o.b + self.b * o.a) % 97)


class Calibrator:
    """Samples the reference on a timer; rescales timed stretches by it."""

    def __init__(self):
        self.times = []      # start of each reference sample (perf_counter)
        self.seconds = []    # its duration
        self.excluded = 0.0  # handler time so far, left out of clock()
        self._busy = False
        self._previous = None

    def clock(self):
        return time.perf_counter() - self.excluded

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.seconds.append(t1 - t0)
        self._busy = False
        self.excluded += time.perf_counter() - t0

    def sample(self):
        """One reference sample now, outside any timing."""
        self._handler(None, None)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def scale(self, t0, t1):
        """REF_MS over the median reference time around the stretch [t0, t1].

        t0 and t1 are perf_counter readings, as `since` returns them.
        """
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        window = self.seconds[lo:hi] or self.seconds
        return REF_MS / 1000 / statistics.median(window)

    def stretch(self):
        """Marks a point for `since`."""
        return time.perf_counter(), self.excluded

    def since(self, mark):
        """(seconds since mark without reference time, mark's time, now)."""
        t0, e0 = mark
        t1 = time.perf_counter()
        return (t1 - t0) - (self.excluded - e0), t0, t1

"""Job times normalized to a fixed reference loop.

The speed of a shared host drifts by up to a factor of two over a few
seconds, and the drift is common to all interpreted code. So a short
reference loop is timed just before a piece of work, every 25 ms
while it runs, and just after it. The work's wall time is scaled by
REFERENCE_S over the mean of those reference times. The result is in
seconds on a host that runs the reference loop in REFERENCE_S. The loop
is stdlib only and frozen here: wrapper-object field arithmetic over
GF(13), like the package's inner loops. No change to the package can
alter its speed.
"""

import signal
import time

# The reference loop's time on the quiet host of the seed measurements.
REFERENCE_S = 2.0e-4


class _Element:
    __slots__ = ("field", "val")

    def __init__(self, field, val):
        self.field = field
        self.val = val

    def __add__(self, other):
        if other.field is not self.field:
            raise ValueError("field mismatch")
        return _Element(self.field, (self.val + other.val) % self.field[0])

    def __mul__(self, other):
        if other.field is not self.field:
            raise ValueError("field mismatch")
        if not self.val or not other.val:
            return _Element(self.field, 0)
        p, exp, log = self.field
        return _Element(self.field, exp[(log[self.val] + log[other.val]) % (p - 1)])

    def __bool__(self):
        return self.val != 0


def _field(p, g):
    exp = [1] * (p - 1)
    for i in range(1, p - 1):
        exp[i] = exp[i - 1] * g % p
    log = [0] * p
    for i, v in enumerate(exp):
        log[v] = i
    return (p, exp, log)


_F13 = _field(13, 2)
_XS = [_Element(_F13, v) for v in range(1, 13)]


def _loop():
    acc = _Element(_F13, 1)
    for a in _XS:
        for x in [a * b for b in _XS]:
            if x:
                acc = acc + x * a
    return acc.val


def reference_seconds():
    """Fastest of three passes of the reference loop."""
    best = None
    for _ in range(3):
        t = time.perf_counter()
        _loop()
        took = time.perf_counter() - t
        best = took if best is None else min(best, took)
    return best


class Clock:
    """Times one piece of work at a time.

    The reference loop is sampled before the work, every INTERVAL_S
    while it runs (from a SIGALRM handler, between bytecodes), and after
    it.  The samples' own time is taken out of the wall time, and their
    mean sets the scale factor.  Consecutive pieces of work share the
    sample between them.
    """

    INTERVAL_S = 0.025

    def __init__(self):
        self.last = reference_seconds()
        self._active = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self._active:
            t = time.perf_counter()
            self._samples.append(reference_seconds())
            self._spent += time.perf_counter() - t

    def start(self):
        self._samples = [self.last]
        self._spent = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self._t0 = time.perf_counter()

    def stop(self):
        """(wall seconds, normalized seconds, scale factor)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._active = False
        wall = time.perf_counter() - self._t0 - self._spent
        self.last = reference_seconds()
        self._samples.append(self.last)
        factor = REFERENCE_S * len(self._samples) / sum(self._samples)
        return wall, wall * factor, factor

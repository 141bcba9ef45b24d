"""Correction for the drift of the host's speed.

On the 2-core host where this benchmark was defined, the speed of the whole
machine drifts over seconds to minutes: a fixed pure-Python loop ran between
155 and 274 times per two-second window within one minute, and one survey
corpus ran at 14 to 24 items per second in consecutive runs.  Every time the
benchmark reports is therefore measured as process CPU time and scaled to
a nominal host speed.

CPU time leaves out the stretches in which the hypervisor runs other guests
on this virtual CPU (steal time): in 0.2 s blocks of reference timings,
wall time per reference rose to 2.3 times its median while CPU time stayed
within 1.3 times, and the blocks' coefficient of variation fell from 0.20
(wall) to 0.11 (CPU).  The package is single-threaded and does no I/O while
items run, so its CPU time is its wall time on an unshared CPU.  What CPU
time does not remove, a slower CPU under contention, the scaling does: while
it runs, the benchmark times a fixed reference computation between items, as
often as keeps the reference at DUTY of the run's time, so that a long item
is followed by several timings and short items by one every few items.  The
speed also moves within a second (300 ms means of back-to-back reference
timings varied by 25% within 20 s), so each measured time is multiplied by
NOMINAL_S / (median of the NEAREST reference timings closest to it in time),
and a set-up by NOMINAL_S / (median of AROUND reference timings on each side
of it).  Aggregate per-layer times use the median reference time of the
whole run.

The reference is exact Fraction arithmetic, the kind of work all three
workloads do, using only the standard library, so no change to the package
can move it.  Measured over 14 rounds of the three workloads in one process,
scaling wall times by the run's median reference time alone cut the
round-to-round coefficient of variation of items_per_s from 0.14 to 0.06
(charts), 0.085 to 0.05 (search) and 0.15 to 0.07 (survey).  The scaling is
not exact: in phases when the host ran about 1.6 times faster, the reference
sped up more than the charts items did, and scaled charts throughput read
about 8% lower.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction
from typing import Any, Callable

# about the reference's median time on the host above; any fixed value
# works, this one keeps scaled times close to wall-clock times there
NOMINAL_S = 0.0008
# share of the run's time spent timing the reference between items
DUTY = 0.02
# reference timings that scale one measured time
NEAREST = 9
# reference timings on each side of a `timed` call
AROUND = 5
clock = time.perf_counter  # places timings in time and paces the run
cpu = time.process_time  # measures durations

_ROOTS = tuple(Fraction(n, d) for n, d in ((5, 1), (-7, 3), (11, 1), (13, 2), (-17, 1), (4, 1), (-9, 5), (2, 1)))


def reference() -> tuple[Fraction, Fraction]:
    """Horner evaluation and a product of linear factors over Fractions."""
    value = Fraction(0)
    x = Fraction(3, 7)
    for k in range(1, 60):
        value = value * x + Fraction(k, k + 2)
    poly = [Fraction(3, 2)]
    for root in _ROOTS:
        out = [Fraction(0)] * (len(poly) + 1)
        for i, a in enumerate(poly):
            out[i] -= a * root
            out[i + 1] += a
        poly = out
    return value, poly[0]


class HostSpeed:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.stamps: list[float] = []  # the middle of each reference timing
        self._spent = 0.0  # the sum of self.times
        self._first = clock()

    def sample(self) -> None:
        start, cpu_start = clock(), cpu()
        reference()
        cpu_end, end = cpu(), clock()
        self.times.append(cpu_end - cpu_start)
        self.stamps.append((start + end) / 2)
        self._spent += end - start

    def maybe_sample(self) -> None:
        """Time the reference until it has taken DUTY of the time since this
        object was made."""
        while self._spent < DUTY * (clock() - self._first):
            self.sample()

    def factor(self) -> float:
        """Multiply an aggregate time of the run by this to get it at nominal
        speed."""
        return NOMINAL_S / statistics.median(self.times)

    def factor_at(self, when: float) -> float:
        """The same for a time measured around the moment `when`, from the
        NEAREST reference timings closest to it."""
        k = bisect.bisect(self.stamps, when)
        lo, hi = k, k  # the window is stamps[lo:hi]
        while hi - lo < min(NEAREST, len(self.stamps)):
            if hi == len(self.stamps) or (lo > 0 and when - self.stamps[lo - 1] < self.stamps[hi] - when):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.times[lo:hi])

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """(fn(), its CPU time at nominal speed, its measured CPU time); the
        scale comes from AROUND reference timings on each side of the call."""
        first = len(self.times)
        for _ in range(AROUND):
            self.sample()
        start = cpu()
        result = fn()
        elapsed = cpu() - start
        for _ in range(AROUND):
            self.sample()
        return result, elapsed * NOMINAL_S / statistics.median(self.times[first:]), elapsed

"""The machine's pace, measured by fixed reference tasks timed between calls.

On a shared machine the speed of one CPU drifts by a fifth and more, over
seconds and over whole sets of runs, while the program stays the same.  The
benchmark therefore times a fixed reference task next to the work it measures
and scales each timed interval by ``(ref_s / median(reference times around
it)) ** exponent``.  A reported time is then the time on a machine that runs
the reference in exactly ``ref_s`` seconds; the raw wall times are reported
beside it.

Two references serve two kinds of interval.  In-process calls and set-up are
paced by ``kernel``: ``KERNEL_REPS`` rounds of dict, tuple and Fraction work,
the operations the program's exact arithmetic is built from, run between
calls once every ``SAMPLE_EVERY_S`` seconds.  Cold starts are paced by
``numpy_start``, a start of the same interpreter that imports numpy and
nothing else: process start-up and library loading slow with the machine
less than interpreted code does, and the kernel would over-correct them.  No
reference runs inside a timed interval, and neither imports anything from the
program.

The exponents are measured.  Over 50 runs of 25 s on the four workloads, in
which a run's median kernel time ranged from 0.95 to 1.89 ms, scaling calls
by the kernel at exponent 1 over-corrected: the scaled times still fell as
the kernel time rose, with log-log slopes from -0.08 to -0.28 where a
perfect pace gives 0.  ``KERNEL_EXPONENT`` is therefore 0.8.  Cold starts
followed the numpy start with a log-log slope of 0.96 over 27 runs, so they
keep exponent 1.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter
from typing import Callable

KERNEL_REPS = 440
KERNEL_REF_S = 1e-3
KERNEL_EXPONENT = 0.8
NUMPY_START_REF_S = 0.1
SAMPLE_EVERY_S = 0.02
WINDOW_S = 0.5  # slack on each side of an interval when choosing its samples
MIN_SAMPLES = 5


def kernel() -> Fraction:
    acc, table = Fraction(0), {}
    for i in range(KERNEL_REPS):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0) + i
        acc += Fraction(table[key] % 5 + 1, i % 3 + 1)
    return acc


def numpy_start() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)


class Pace:
    """Times of one reference task taken over a run, in the order they were taken."""

    def __init__(self, task: Callable[[], object], ref_s: float, exponent: float = 1.0):
        self.task, self.ref_s, self.exponent = task, ref_s, exponent
        self.when: list[float] = []
        self.seconds: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        self.task()
        t1 = perf_counter()
        self.when.append(t1)
        self.seconds.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        """A sample, if the last one is at least ``SAMPLE_EVERY_S`` old."""
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``ref_s`` over the median reference time from ``start - WINDOW_S``
        to ``end + WINDOW_S`` (or over the ``MIN_SAMPLES`` samples nearest the
        interval when the window holds fewer), to the power ``exponent``."""
        lo = bisect_left(self.when, start - WINDOW_S)
        hi = bisect_right(self.when, end + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.when, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.when) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return (self.ref_s / statistics.median(self.seconds[lo:hi])) ** self.exponent

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3

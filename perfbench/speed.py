"""Reference-speed samples for normalising times on a shared machine.

On a small shared host the speed of a core drifts by up to 2x over seconds
to minutes, so raw wall times of one workload spread by 15-30 % between
runs.  The worker therefore times a fixed piece of exact `Fraction`
arithmetic (standard library only) on the same core as the program: right
before and after every operation, and every SAMPLE_EVERY_S seconds while it
runs, from a timer signal.  An operation's time, less the time spent in
those samples, is scaled by REF_S over the median sample: the seconds the
operation would take at the speed at which the reference takes REF_S.  The
set-up child samples right after its timed import instead (`edge_sample`).
Raw times are kept in the result record.  Samples run with the garbage collector
off, so whatever the program leaves on the heap cannot slow the reference
and flatter the program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.005
SAMPLE_EVERY_S = 0.25
EDGE_REPS = 3

# Fractions with 60-bit numerators and 40-bit denominators: of the probes
# tried, products of these tracked the slow-down of verify, sweep and gen
# under contention best (log-log slopes 0.87-1.11).
_VALUES = [Fraction((i * 7919) ** 3 % 10**18 - 5 * 10**17, (i * 104729) % 10**12 + 1) for i in range(150)]


def reference() -> float:
    """Seconds for one run of the reference computation, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(5):
            shifted = _VALUES[k:] + _VALUES[:k]
            total += sum((x * y for x, y in zip(_VALUES, shifted)), Fraction(0))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def edge_sample() -> float:
    """Median of EDGE_REPS reference runs."""
    return statistics.median(reference() for _ in range(EDGE_REPS))


class Sampler:
    """Reference samples around and, by SIGALRM, during one timed call at a time."""

    def __init__(self):
        self.samples: list[float] = []
        self.in_call_s = 0.0
        self.intervals: list[tuple[float, float]] = []  # perf_counter spans of all in-call samples

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference())
        t1 = time.perf_counter()
        self.in_call_s += t1 - t0
        self.intervals.append((t0, t1))

    def around(self, fn):
        """Run fn(); returns its result and its seconds less the sampling done inside it."""
        self.samples = [reference() for _ in range(EDGE_REPS)]
        self.in_call_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self.samples += [reference() for _ in range(EDGE_REPS)]
        return result, elapsed - self.in_call_s

    def scale(self) -> float:
        return REF_S / statistics.median(self.samples)

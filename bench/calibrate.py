"""Timings normalised to a reference host speed.

The benchmark runs on shared hosts whose speed swings by half or more
within seconds: a fixed pure-Python loop takes 4.7 ms in one second and
8.3 ms in the next.  CPU time swings with wall time, so it does not help.
So every gated timing is normalised: a fixed reference loop is timed
right before and right after the measured work, on the same CPU, and the
work's time is scaled by ``REF_UNIT_S`` over the mean of those two loop
times, raised to ``ALPHA``.  A timing then reads as if the host had run at
the speed at which the loop takes ``REF_UNIT_S``.  The loop never calls
``simkg``, so a change to the program moves the normalised figure by the
same share as the raw one.

``pin()`` keeps the benchmark and every process it starts on one CPU, so
that the loop and the measured work share the core whose speed the loop
reads.
"""

from __future__ import annotations

import gc
import os
import time

# About the loop's time on an uncontended core of the 2-vCPU VM the
# benchmark was tuned on; any fixed value would do.
REF_UNIT_S = 0.005
SLICE_S = 0.1
# The program slows less than the loop when the host slows: fitted over
# runs whose loop time ranged 3.6-8 ms, its time goes as the loop time to
# the power 0.72-0.84 per sample (r = 0.81-0.94) and 0.74-0.91 per run.
ALPHA = 0.8


def pin() -> None:
    """Pin this process, and the children it starts later, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _unit() -> int:
    d = {}
    for i in range(20000):
        d[str(i)] = i * i
    return sum(d.values())


def unit_time() -> float:
    """Mean time of the reference loop over about ``SLICE_S``, with the
    garbage collector off so that a collection of the caller's heap does
    not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start, n = time.perf_counter(), 0
        while True:
            _unit()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SLICE_S:
                return elapsed / n
    finally:
        if enabled:
            gc.enable()


class Normaliser:
    """Times the reference loop between pieces of measured work.

    ``factor()`` times the loop again and returns the factor for the work
    done since the previous call: ``REF_UNIT_S`` over the mean of the two
    loop times around it, raised to ``ALPHA``.
    """

    def __init__(self):
        self.last = unit_time()

    def factor(self) -> float:
        now = unit_time()
        factor = (2 * REF_UNIT_S / (self.last + now)) ** ALPHA
        self.last = now
        return factor

"""The host's current CPU speed, from a fixed pure-Python loop.

On a small shared host the CPU speed swings by up to 60 % over seconds to
minutes while nothing in the benchmark changes: a 2-vCPU VM ran this loop
in 8.8 to 13.6 ms within one minute, and a 250-trial desk campaign in 0.37
to 0.59 s with it. Timing the loop right before and after each measured
interval and scaling the interval by ``REFERENCE_S`` over the loop's time
gives the interval in reference seconds: the time it would take on a host
that runs the loop in ``REFERENCE_S``. Over the same minute the scaled
campaign times stayed within 6 %.
"""

from __future__ import annotations

import math
import time

REFERENCE_S = 0.010  # the unit: a reference second runs the loop in 10 ms


def loop_s() -> float:
    """Wall time of the fixed loop (about 10 ms), interpreter-bound like the engine."""
    begin = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(40000):
        x = i * 0.5
        acc += math.sqrt(x) / (1.0 + x)
        table[i & 255] = (acc, i)
    return time.perf_counter() - begin

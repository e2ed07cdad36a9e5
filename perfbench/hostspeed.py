"""Host-speed calibration: a fixed pure-Python kernel timed next to every op.

On a shared host, other tenants slow the same code by up to 1.8x, in phases
that last from seconds to minutes, so raw timings of one run depend on the
phases it met.  Every op is timed between two runs of this kernel, and its
time is scaled by NOMINAL_S over the kernel's mean time around it: a timing
then reads as seconds on a host where the kernel takes NOMINAL_S.  The
kernel is interpreter-bound work on small ints, tuples, dicts and strings;
over 30-second windows on a contended 2-CPU host it brought the spread
(interquartile range over median) of per-op medians from 10-21% down to
1-2%, for the big-integer ops of ``deep`` as well.

The kernel is part of the benchmark's definition: changing it, or
NOMINAL_S, changes every timing, so it stays as it is.
"""

from __future__ import annotations

import time

NOMINAL_S = 1.0e-3  # the kernel's time on the uncontended 2-CPU host it was tuned on


def kernel() -> int:
    table = {}
    total = 0
    for i in range(3000):
        key = (i, i + 1, i % 7)
        table[key] = total
        total += len(str(i)) + key[2]
    return total + len(table)


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start

"""The reference loop: how fast the machine runs plain Python right now.

The host's core is shared, so the same code runs up to 1.8x slower
while a neighbour is busy, and the share of slow time drifts over
minutes.  A fixed loop timed right next to a measurement tells how fast
the machine was at that time; dividing by it leaves the program's own
share.  Standard library only, so it runs before anything is imported.
"""
from __future__ import annotations

import statistics
import time
from typing import Callable, Sequence

#: runs of the loop in one block
RUNS = 10

#: iterations of one run, about 2 ms of pure Python
ITERATIONS = 30_000

#: the loop's time on the host that "reference seconds" refer to
NOMINAL_S = 2e-3


def block(clock: Callable[[], float] = time.perf_counter) -> list[float]:
    """Time RUNS runs of the loop."""
    times = []
    for _ in range(RUNS):
        t0 = clock()
        acc = 0
        for i in range(ITERATIONS):
            acc += i * i % 7
        times.append(clock() - t0)
    return times


def ref_seconds(seconds: float, before: Sequence[float],
                after: Sequence[float]) -> float:
    """``seconds`` scaled to a host where one run takes NOMINAL_S.

    The divisor is the median of the blocks timed right before and right
    after the measurement, so both sides saw the same machine speed.
    """
    return seconds * NOMINAL_S / statistics.median([*before, *after])

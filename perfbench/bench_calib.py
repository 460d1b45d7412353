"""Machine-speed calibration for the end-to-end metrics.

On a virtual machine shared with other tenants, the speed of the same
code drifts by 20–40% over minutes. ``Calibrator`` samples a fixed
pure-Python loop (heap, dict, deque and small-object work, like the
simulator's inner loops) between the timed units of a run, and the
fastest sample estimates how fast the machine is at the moment: the
uncontended speed, which the simulator's own speed follows. The timed
metrics are scaled to a reference speed with it.

The loop imports nothing from ``repro``, so no change to the program
can change it; a program that gets 10% faster still reads 10% faster.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from typing import List

#: The fastest calibration sample, in seconds, on the reference machine
#: (a 2-vCPU virtual machine, Python 3.11). Scaled metrics read like raw
#: metrics measured on that machine when it is not contended.
REFERENCE_S = 0.030
#: Least time between two samples.
INTERVAL_S = 0.5
#: Items served per sample (~30 ms on the reference machine).
SAMPLE_ITEMS = 30_000


class _Item:
    __slots__ = ("key", "size", "hops")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.hops = 0


def sample() -> float:
    """Seconds one pass of the fixed loop takes, garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list = []
        queues = {k: deque() for k in range(64)}
        seq = served = 0
        for i in range(256):
            heapq.heappush(heap, (i * 0.001, i, i % 64))
        while served < SAMPLE_ITEMS:
            now, s, k = heapq.heappop(heap)
            queue = queues[k]
            queue.append(_Item(s, 200 + s % 7))
            if len(queue) > 2:
                queue.popleft().hops += 1
                served += 1
            seq += 1
            heapq.heappush(
                heap, (now + 0.001 + (seq % 13) * 1e-5, seq, (k * 7 + 3) % 64)
            )
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Calibrator:
    """Samples the loop at most every ``INTERVAL_S`` between timed units."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` has passed since the last one.
        Call it only between timed units: the sample is not timed."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(sample())
            self._last = time.perf_counter()

    @property
    def speed(self) -> float:
        """Machine speed relative to the reference (2.0: twice as fast)."""
        if not self.samples:
            self.samples.append(sample())
        return REFERENCE_S / min(self.samples)

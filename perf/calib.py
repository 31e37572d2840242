"""Calibration ticks: the clock host-time metrics are expressed against.

This host's speed drifts by up to 1.5x within hundreds of ms to tens of
s (measured: 160 back-to-back identical repeats of ``fabric_forward``
took 0.52-1.23 s each, wall equal to CPU time), so raw wall time is not
comparable between two invocations a minute apart. A fixed pure-Python
loop (a tick) run throughout each measured interval slows down with
the workload; dividing by the ticks' time cancels most of the drift
(log-log slope of repeat time against tick time: 0.98-1.07).

The loop mixes what the simulator does per event — object creation,
heap push/pop, dict stores, method and closure calls — because under
contention that scales differently from bare arithmetic: normalising
by an arithmetic-only loop left a 5-8% spread where this one left 3%.
"""

from __future__ import annotations

import heapq
import time

#: What one tick takes on the baseline host in its fast regime. A
#: calibrated second is a wall second on a host that ticks in exactly
#: this time; only ratios between commits matter, so it is never tuned.
TICK_REF_S = 0.001
_TICK_ITERATIONS = 800
#: A spin is this many ticks back to back (~30 ms).
SPIN_TICKS = 32


class _Item:
    __slots__ = ("value", "meta")

    def __init__(self, value: int) -> None:
        self.value = value
        self.meta: dict[int, int] = {}

    def step(self, key: int) -> int:
        self.meta[key & 7] = self.value + key
        return self.value ^ key


def _tick() -> float:
    """Run the fixed loop once; returns the wall seconds it took."""
    started = time.perf_counter()
    heap: list[tuple[float, int, _Item]] = []
    total = 0
    for index in range(_TICK_ITERATIONS):
        item = _Item(index)
        heapq.heappush(heap, (float((index * 7919) % 1000), index, item))
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].step(index)
        total += (lambda: item.step(total & 255))()
    return time.perf_counter() - started


class Ticker:
    """Accumulates ticks and turns them into a calibration factor.

    ``tick`` can be scheduled as an event-loop callback at evenly spaced
    virtual times, so that the host's speed is sampled throughout a
    measured interval rather than at its two ends (it drifts within
    hundreds of ms); ``spin`` brackets an interval that cannot be
    sampled from inside."""

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0

    def tick(self) -> None:
        self.total_s += _tick()
        self.count += 1

    def spin(self) -> None:
        for _ in range(SPIN_TICKS):
            self.tick()

    def factor(self) -> float:
        """Multiplier that turns wall time measured while these ticks
        ran into calibrated time."""
        return TICK_REF_S * self.count / self.total_s

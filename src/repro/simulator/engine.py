"""Discrete-event simulation engine.

A minimal, deterministic event loop. The ordering contract is explicit
and load-bearing (FlexScale's cross-shard handoff protocol relies on
it):

* Events execute in ascending ``(time, seq)`` order, where ``seq`` is
  the monotonically increasing *insertion* counter of this loop.
* Two events scheduled for the same virtual time therefore run in the
  exact order they were scheduled — never in heap-internal, id-based,
  or otherwise incidental order.
* ``schedule_at`` stores the *exact* absolute time it was given (no
  ``now + (time - now)`` float round trip), so an event handed across
  process boundaries with a precomputed absolute timestamp executes at
  a bit-identical time on any loop.

Callers that inject externally-produced events (the FlexScale shard
runtime draining a handoff queue) must therefore insert them in a
canonical order of their own — e.g. sorted by ``(time, packet_id)`` —
before scheduling; the loop then preserves that order exactly. All
FlexNet experiments execute inside one :class:`EventLoop` — packet
arrivals, reconfiguration steps, controller decisions, and attack
ramps are all just scheduled callbacks.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from collections.abc import Callable

from repro.errors import SimulationError


class EventLoop:
    """A deterministic discrete-event loop with seconds as virtual time.

    See the module docstring for the explicit ``(time, seq)`` ordering
    contract.
    """

    def __init__(self):
        #: heap of ``(time, seq, callback)`` — the ordering key is spelled
        #: out so the tie-break rule is part of the API, not an
        #: implementation accident; ``seq`` is unique, so callbacks are
        #: never compared.
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the event's sequence number — the tie-break half of the
        ``(time, seq)`` ordering contract."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (self._now + delay, sequence, callback))
        return sequence

    def schedule_at(self, time: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` at an absolute virtual time; returns the
        event's sequence number, like :meth:`schedule`.

        The given timestamp is stored exactly (no relative-delay round
        trip), so cross-loop handoffs that carry absolute times stay
        bit-identical to the loop that produced them.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} s, before current time {self._now} s"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (time, sequence, callback))
        return sequence

    def _drain(self, end_time: float) -> None:
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            self._now, _, callback = heappop(heap)
            callback()

    def run_until(self, end_time: float) -> None:
        """Process events with time <= ``end_time``; advance the clock."""
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time}) is before current time {self._now}"
            )
        self._drain(end_time)
        self._now = end_time

    def run(self) -> None:
        """Drain every pending event."""
        self._drain(math.inf)

    def pending(self) -> int:
        return len(self._heap)

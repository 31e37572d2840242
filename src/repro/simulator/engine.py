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
* ``schedule_series(times, fire)`` is consecutive ``schedule_at``
  calls, one per entry in input order, spelled once: entry ``i`` runs
  under the ``(times[i], first + i)`` key the ``i``-th call would have
  got, ``first`` being the counter's value when the series is
  scheduled, and the counter moves by ``len(times)`` at once. Only the
  earliest unfired entry sits in the heap, and it pushes the next one
  (a stable sort by time is the ``(time, seq)`` order) when it fires.
  Times that never decrease are that order already: the series fires
  them by position and keeps no index list, so ``times`` may be a
  sequence computed on read and the series holds O(1). Every time is
  checked against ``now`` before a seq is taken, and
  :meth:`EventLoop.pending` counts the unfired entries.
* A time is a number no earlier than ``now``: a NaN, which compares
  false with everything and would stall the loop at the heap top, is
  rejected like a time in the past, before a seq is taken.
* A continuation may run inline instead of being pushed: a caller that
  would ``schedule_at(time, ...)`` an event which is certain to be the
  loop's next pop may run it at once, without the push. It is certain
  when ``time`` is strictly earlier than the heap top (an equal time
  loses the tie, since the entry already in the heap has the lower
  seq), within the end time of the drain in progress (``-inf`` outside
  a drain) and no earlier than ``now``. The inline run takes the seq
  the push would have taken (``_sequence += 1``) and sets the clock a
  pop would have set (``_now = time``), so the ``(time, seq)`` order,
  every later tie-break and the event count stay what the push gave.
  The packet transport (:class:`repro.simulator.network.Network`) is
  the one such caller.

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
from collections.abc import Callable, Sequence
from heapq import heappop, heappush
from itertools import islice
from operator import le

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
        #: the end time of the drain in progress (``-inf`` outside one):
        #: an event at or before it is popped by this drain.
        self._end_time = -math.inf
        #: series entries not yet in the heap (each series holds one there).
        self._waiting = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the event's sequence number — the tie-break half of the
        ``(time, seq)`` ordering contract."""
        if not delay >= 0:
            if math.isnan(delay):
                raise _refused(delay, self._now)
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
        if not time >= self._now:
            raise _refused(time, self._now)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (time, sequence, callback))
        return sequence

    def schedule_series(self, times: Sequence[float], fire: Callable[[int], None]) -> None:
        """Schedule ``fire(i)`` at ``times[i]`` for every ``i``: the events,
        keys and counter of one :meth:`schedule_at` per entry in input
        order (entry ``i`` runs under ``(times[i], first + i)``, ``first``
        being the counter's value now), holding one heap slot at a time.

        Every time is checked first, so a time before ``now`` (or a NaN)
        raises before any sequence number is taken. The loop keeps
        ``times`` until the last entry fires; the caller must not change
        it.
        """
        now = self._now
        # Times that never decrease (every pair compares, so none is a
        # NaN) are already in (time, seq) order: the series fires them
        # by position, and only the earliest is checked against ``now``.
        ordered = all(map(le, times, islice(times, 1, None)))
        checked = (times[0],) if ordered and times else times
        if not all(time >= now for time in checked):
            raise _refused(next(time for time in checked if not time >= now), now)
        first = self._sequence
        self._sequence = first + len(times)
        if times:
            positions = range(len(times))
            order = positions if ordered else sorted(positions, key=times.__getitem__)
            _Series(self, times, first, fire, order).push_first()

    def _drain(self, end_time: float) -> None:
        heap = self._heap
        outer = self._end_time
        self._end_time = end_time
        try:
            while heap and heap[0][0] <= end_time:
                self._now, _, callback = heappop(heap)
                callback()
        finally:
            self._end_time = outer

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
        """Events not yet run, unfired series entries included."""
        return len(self._heap) + self._waiting


def _refused(time: float, now: float) -> SimulationError:
    """Why a loop at ``now`` refuses ``time``: a NaN (it compares false
    with everything, so at the heap top it would stop the drain) or a
    time in the past."""
    if math.isnan(time):
        return SimulationError(f"cannot schedule at {time} s: not a time")
    return SimulationError(f"cannot schedule at {time} s, before current time {now} s")


class _Series:
    """One :meth:`EventLoop.schedule_series`: the heap holds it under
    the key of its earliest unfired entry. Firing that entry pushes the
    next key first, so the series stays in the heap while ``fire`` runs
    and after ``fire`` raises, as consecutive ``schedule_at`` calls
    would have left the rest of their events."""

    __slots__ = ("_loop", "_times", "_first", "_fire", "_order", "_position")

    def __init__(
        self, loop: EventLoop, times: Sequence[float], first: int, fire, order: Sequence[int]
    ):
        self._loop = loop
        self._times = times
        self._first = first
        self._fire = fire
        #: the entries in (time, first + i) order: a stable sort by
        #: time, or ``range(len(times))`` when the times never decrease.
        self._order = order
        self._position = 0

    def push_first(self) -> None:
        index = self._order[0]
        self._loop._waiting += len(self._order) - 1
        heappush(self._loop._heap, (self._times[index], self._first + index, self))

    def __call__(self) -> None:
        order = self._order
        position = self._position
        index = order[position]
        position += 1
        self._position = position
        if position < len(order):
            following = order[position]
            loop = self._loop
            loop._waiting -= 1
            heappush(loop._heap, (self._times[following], self._first + following, self))
        self._fire(index)

"""Discrete-event loop tests."""

import math

import pytest

from repro.errors import SimulationError
from repro.simulator.engine import EventLoop


class TestScheduling:
    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.run()
        assert order == ["a", "b"]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("first"))
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run()
        assert order == ["first", "second"]

    def test_tie_break_is_time_then_sequence(self):
        # The documented (time, seq) ordering: scheduling order decides
        # ties even when registrations interleave across timestamps —
        # FlexScale's cross-shard replay depends on this being exact.
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("t2-first"))
        loop.schedule(1.0, lambda: order.append("t1-first"))
        loop.schedule(2.0, lambda: order.append("t2-second"))
        loop.schedule(1.0, lambda: order.append("t1-second"))
        loop.run()
        assert order == ["t1-first", "t1-second", "t2-first", "t2-second"]

    def test_tie_break_survives_schedule_at(self):
        loop = EventLoop()
        order = []
        first = loop.schedule_at(3.0, lambda: order.append("a"))
        second = loop.schedule(3.0, lambda: order.append("b"))
        third = loop.schedule_at(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]
        # the returned sequence numbers are the tie-break key itself
        assert first < second < third

    def test_pending_count(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert loop.pending() == 2
        loop.run_until(1.0)
        assert loop.pending() == 1

    def test_now_advances_during_run(self):
        loop = EventLoop()
        seen = []
        loop.schedule(0.5, lambda: seen.append(loop.now))
        loop.schedule(1.5, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [0.5, 1.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventLoop().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("entry", ["schedule", "schedule_at"])
    def test_a_nan_time_is_rejected_before_a_seq_is_taken(self, entry):
        """Regression: a NaN passed the ``time < now`` check, and at the
        heap top it stopped the drain: ``run()`` returned with events
        still pending."""
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(SimulationError, match=r"^cannot schedule at nan s: not a time$"):
            getattr(loop, entry)(math.nan, lambda: fired.append("nan"))
        assert (loop._sequence, loop.pending()) == (1, 1)
        loop.run()
        assert fired == [1] and loop.pending() == 0

    def test_schedule_at_absolute(self):
        loop = EventLoop()
        loop.run_until(5.0)
        seen = []
        loop.schedule_at(7.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [7.0]

    def test_nested_scheduling(self):
        loop = EventLoop()
        order = []

        def outer():
            order.append("outer")
            loop.schedule(1.0, lambda: order.append("inner"))

        loop.schedule(1.0, outer)
        loop.run()
        assert order == ["outer", "inner"]


class TestRunUntil:
    def test_stops_at_boundary(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(3.0, lambda: seen.append(3))
        loop.run_until(2.0)
        assert seen == [1]
        assert loop.now == 2.0
        loop.run_until(4.0)
        assert seen == [1, 3]

    def test_boundary_inclusive(self):
        loop = EventLoop()
        seen = []
        loop.schedule(2.0, lambda: seen.append(1))
        loop.run_until(2.0)
        assert seen == [1]

    def test_a_drain_keeps_its_end_time_across_a_nested_drain(self):
        """A flight inlines a hop only within the end time of the drain
        in progress: a nested drain has its own, the outer one gets its
        own back, and outside a drain (or after a raise) it is -inf."""
        loop = EventLoop()
        seen = []

        def outer():
            seen.append(loop._end_time)
            loop.run_until(1.5)
            seen.append(loop._end_time)

        def inner():
            seen.append(loop._end_time)
            raise RuntimeError("inner")

        loop.schedule_at(1.0, outer)
        loop.schedule_at(1.25, lambda: seen.append(loop._end_time))
        loop.run_until(2.0)
        assert seen == [2.0, 1.5, 2.0] and loop._end_time == -math.inf
        loop.schedule_at(3.0, inner)
        with pytest.raises(RuntimeError):
            loop.run()
        assert seen[-1] == math.inf and loop._end_time == -math.inf

    def test_backwards_run_until_rejected(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(SimulationError):
            loop.run_until(1.0)


class TestSeries:
    def test_entries_run_in_time_then_input_order(self):
        loop = EventLoop()
        order = []
        loop.schedule_series([2.0, 1.0, 2.0, 1.0], order.append)
        assert (loop._sequence, loop.pending()) == (4, 4)
        # One entry in the heap at a time, under the key the i-th
        # schedule_at call would have given it: (times[i], first + i).
        assert [key[:2] for key in loop._heap] == [(1.0, 1)]
        loop.run_until(1.0)
        assert [key[:2] for key in loop._heap] == [(2.0, 0)]
        assert loop.pending() == 2
        loop.run()
        assert order == [1, 3, 0, 2]

    def test_an_event_scheduled_between_keeps_its_place(self):
        loop = EventLoop()
        order = []
        loop.schedule_at(1.0, lambda: order.append("before"))
        loop.schedule_series([1.0, 1.0], order.append)
        loop.schedule_at(1.0, lambda: order.append("after"))
        loop.run()
        assert order == ["before", 0, 1, "after"]

    def test_a_time_before_now_raises_before_anything_is_reserved(self):
        loop = EventLoop()
        loop.run_until(1.0)
        fired = []
        with pytest.raises(
            SimulationError, match=r"^cannot schedule at 0\.5 s, before current time 1\.0 s$"
        ):
            loop.schedule_series([1.0, 0.5, 0.25], fired.append)
        assert (loop._sequence, loop.pending(), loop._heap) == (0, 0, [])
        loop.run()
        assert fired == []

    @pytest.mark.parametrize(
        "times", [[math.nan, 1.0, 0.5], [1.0, math.nan, 0.5], [1.0, 0.5, math.nan]]
    )
    def test_a_nan_time_raises_wherever_it_sits(self, times):
        """Regression: ``min()`` over a list with a NaN depends on where
        the NaN sits, so ``[nan, 1.0, 0.5]`` was scheduled, and ``run()``
        then fired none of the three entries."""
        loop = EventLoop()
        fired = []
        with pytest.raises(SimulationError, match=r"^cannot schedule at nan s: not a time$"):
            loop.schedule_series(times, fired.append)
        assert (loop._sequence, loop.pending(), loop._heap) == (0, 0, [])
        loop.run()
        assert fired == []

    def test_an_empty_series_reserves_nothing(self):
        loop = EventLoop()
        loop.schedule_series([], lambda index: None)
        assert (loop._sequence, loop.pending(), loop._heap) == (0, 0, [])

"""Discrete-event loop tests."""

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

    def test_backwards_run_until_rejected(self):
        loop = EventLoop()
        loop.run_until(5.0)
        with pytest.raises(SimulationError):
            loop.run_until(1.0)

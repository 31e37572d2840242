"""Consistent-update scheduler tests."""

import pytest

from repro.control.scheduler import plan_schedule
from repro.runtime.consistency import ConsistencyLevel


class TestPerDevice:
    def test_all_start_together(self):
        schedule = plan_schedule(
            ConsistencyLevel.PER_PACKET_PER_DEVICE,
            ["a", "b", "c"],
            {"a": 0.3, "b": 0.2, "c": 0.1},
        )
        assert schedule.window_s == {"a": 0.3, "b": 0.2, "c": 0.1}

    def test_makespan(self):
        schedule = plan_schedule(
            ConsistencyLevel.PER_PACKET_PER_DEVICE, ["a", "b"], {"a": 0.3, "b": 0.5}
        )
        assert schedule.makespan_s == pytest.approx(0.5)


class TestPerPacketPath:
    def test_windows_stretched_downstream(self):
        schedule = plan_schedule(
            ConsistencyLevel.PER_PACKET_PATH,
            ["a", "b", "c"],
            {"a": 0.4, "b": 0.1, "c": 0.1},
            guard_s=0.01,
        )
        # downstream windows outlast the decision window
        assert schedule.window_s["b"] >= 0.4 + 0.01
        assert schedule.window_s["c"] >= 0.4 + 0.02

    def test_own_cost_respected_when_larger(self):
        schedule = plan_schedule(
            ConsistencyLevel.PER_PACKET_PATH,
            ["a", "b"],
            {"a": 0.1, "b": 5.0},
        )
        assert schedule.window_s["b"] == pytest.approx(5.0)

    def test_empty_path(self):
        schedule = plan_schedule(ConsistencyLevel.PER_PACKET_PATH, [], {})
        assert schedule.window_s == {}
        assert schedule.makespan_s == 0.0


class TestPerFlow:
    def test_same_shape_as_path(self):
        flow = plan_schedule(
            ConsistencyLevel.PER_FLOW, ["a", "b"], {"a": 0.2, "b": 0.2}
        )
        path = plan_schedule(
            ConsistencyLevel.PER_PACKET_PATH, ["a", "b"], {"a": 0.2, "b": 0.2}
        )
        assert flow.window_s == path.window_s

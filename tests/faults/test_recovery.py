"""RetryPolicy, RecoveryManager, HealthMonitor, and a fault plan's
crashes and restarts as control actions."""

import pytest

from repro.core.flexnet import FlexNet
from repro.faults import (
    DeviceCrash,
    FaultInjector,
    FaultPlan,
    HealthMonitor,
    RetryPolicy,
    TxnState,
)
from repro.runtime.device import DeviceRuntime
from repro.runtime.reconfig import CRASH, DISPATCH, OPEN, RESTART
from repro.simulator.engine import EventLoop
from repro.targets import drmt_switch

from tests.faults.test_journal import Fleet


def make_device(base_program, name="sw1"):
    device = DeviceRuntime(name, drmt_switch(name))
    device.install(base_program)
    return device


class TestRetryPolicy:
    def test_backoff_doubles_from_base(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=2.0, max_backoff_s=1.0)
        assert policy.backoff_s(1) == pytest.approx(0.01)
        assert policy.backoff_s(2) == pytest.approx(0.02)
        assert policy.backoff_s(3) == pytest.approx(0.04)

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_backoff_s=0.5, multiplier=10.0, max_backoff_s=1.0)
        assert policy.backoff_s(5) == 1.0

    def test_total_backoff_sums_retries_only(self):
        policy = RetryPolicy(max_attempts=4, base_backoff_s=0.01, multiplier=2.0)
        # 3 retries: 0.01 + 0.02 + 0.04
        assert policy.total_backoff_s() == pytest.approx(0.07)


class TestRecoveryManager:
    def strand(self, fleet):
        """A window on sw1 from 0.0 to 1.0, crashed at 0.4."""
        fleet.open(0.0, duration=1.0)
        fleet.at(0.4, CRASH)

    def test_restart_resumes_stranded_device(self, base_program):
        fleet = Fleet(base_program)
        self.strand(fleet)
        fleet.at(1.4, RESTART)
        fleet.run(2.0)
        device = fleet.devices["sw1"]
        assert not device.stranded
        assert device.active_program.version == fleet.new_program.version
        assert fleet.recovery.resumed == 1
        (entry,) = fleet.journal.entries
        assert entry.state is TxnState.COMMITTED
        assert entry.resolution == "resume"

    def test_restart_rolls_back_when_configured(self, base_program):
        fleet = Fleet(base_program, resume=False)
        self.strand(fleet)
        fleet.at(1.4, RESTART)
        fleet.run(2.0)
        device = fleet.devices["sw1"]
        assert not device.stranded
        assert device.active_program.version == base_program.version
        assert fleet.recovery.rolled_back == 1
        (entry,) = fleet.journal.entries
        assert entry.state is TxnState.ROLLED_BACK

    def test_crash_event_carries_mid_delta_detail(self, base_program):
        fleet = Fleet(base_program)
        self.strand(fleet)
        fleet.run(0.5)
        assert fleet.recovery.events[-1].detail == "mid-delta txn 0"

    def test_idle_crash_restart_is_clean(self, base_program):
        fleet = Fleet(base_program)
        fleet.at(1.0, CRASH)
        fleet.at(2.0, RESTART)
        fleet.run(3.0)
        assert fleet.recovery.events[-1].kind == "restart"
        assert fleet.recovery.resumed == 0 and fleet.recovery.rolled_back == 0
        assert fleet.kinds() == [(CRASH, CRASH), (RESTART, "restart")]

    def test_deferred_actions_run_after_restart(self, base_program):
        """A start that reaches a crashed device is deferred, and its
        restart opens it; another device's start is delivered."""
        fleet = Fleet(base_program, names=("sw1", "nic1"))
        fleet.at(1.0, CRASH)
        fleet.at(1.2, DISPATCH, program=fleet.new_program, duration=0.5)
        fleet.at(1.3, DISPATCH, device="nic1", program=fleet.new_program, duration=0.5)
        fleet.run(1.5)
        assert fleet.kinds()[1:] == [
            (DISPATCH, "deferred_start"), (OPEN, "window_open"), (DISPATCH, "delivered"),
        ]
        assert not fleet.devices["sw1"].in_transition
        fleet.at(2.0, RESTART)
        fleet.run(2.1)
        assert fleet.kinds()[-2:] == [(OPEN, "window_open"), (RESTART, "restart")]
        assert fleet.devices["sw1"].in_transition
        assert fleet.journal.pending_for("sw1").started_at == 2.0

    def test_without_recovery_a_deferred_start_strands(self, base_program):
        fleet = Fleet(base_program, resume=None)
        fleet.at(1.0, CRASH)
        fleet.at(1.2, DISPATCH, program=fleet.new_program, duration=0.5)
        fleet.at(2.0, RESTART)
        fleet.run(3.0)
        assert fleet.kinds() == [(CRASH, CRASH), (DISPATCH, "stranded"), (RESTART, RESTART)]
        assert fleet.devices["sw1"].active_program.version == base_program.version


class TestCrashSchedule:
    """``attach_faults`` schedules a plan's crashes and restarts as
    ``crash`` / ``restart`` control actions."""

    def armed(self, base_program, *crashes):
        net = FlexNet.standard()
        net.install(base_program)
        controller = net.controller
        before = controller.loop.pending()
        controller.attach_faults(FaultInjector(FaultPlan(seed=1, crashes=crashes)))
        return controller, controller.loop.pending() - before

    def test_arm_crashes_and_restarts_on_schedule(self, base_program):
        controller, scheduled = self.armed(
            base_program, DeviceCrash(device="sw1", at_s=1.0, restart_after_s=0.5)
        )
        assert scheduled == 2
        device = controller.devices["sw1"]
        controller.loop.run_until(1.2)
        assert device.crashed
        controller.loop.run_until(2.0)
        assert not device.crashed
        log = controller.orchestrator.log
        assert [(a.time, a.action.kind, a.action.device) for a in log] == [
            (1.0, CRASH, "sw1"), (1.5, RESTART, "sw1"),
        ]

    def test_unknown_device_is_skipped(self, base_program):
        controller, scheduled = self.armed(
            base_program, DeviceCrash(device="ghost", at_s=1.0, restart_after_s=0.5)
        )
        assert scheduled == 0
        controller.loop.run_until(3.0)
        assert controller.orchestrator.log == []


class TestHealthMonitor:
    def test_quarantine_after_threshold_and_release(self, base_program):
        loop = EventLoop()
        device = make_device(base_program)
        quarantined, released = [], []
        monitor = HealthMonitor(
            loop,
            {device.name: device},
            probe_interval_s=0.1,
            failure_threshold=3,
            on_quarantine=quarantined.append,
            on_release=released.append,
        )
        monitor.start()
        device.crash(0.05)
        loop.run_until(0.25)
        assert quarantined == []  # only 2 misses so far
        loop.run_until(0.35)
        assert quarantined == ["sw1"]
        assert "sw1" in monitor.quarantined
        device.restart(0.5)
        loop.run_until(0.7)
        assert released == ["sw1"]
        assert monitor.quarantined == set()

    def test_quarantine_detours_datapath(self, base_program):
        """On a diamond h1-{sw1,sw2}-h2, quarantining sw1 must yield a
        route through sw2."""
        from repro.control.topology import TopologyView

        topology = TopologyView()
        for name in ("h1", "sw1", "sw2", "h2"):
            topology.add_device(name, drmt_switch(name))
        topology.add_link("h1", "sw1")
        topology.add_link("h1", "sw2")
        topology.add_link("sw1", "h2")
        topology.add_link("sw2", "h2")
        assert topology.shortest_path("h1", "h2") in (
            ["h1", "sw1", "h2"], ["h1", "sw2", "h2"],
        )

        loop = EventLoop()
        device = make_device(base_program)
        detours = []
        monitor = HealthMonitor(
            loop,
            {device.name: device},
            probe_interval_s=0.1,
            failure_threshold=3,
            on_quarantine=lambda name: detours.append(
                topology.path_avoiding("h1", "h2", {name})
            ),
        )
        monitor.start()
        device.crash(0.0)
        loop.run_until(1.0)
        assert detours == [["h1", "sw2", "h2"]]

    def test_stop_halts_probing(self, base_program):
        loop = EventLoop()
        device = make_device(base_program)
        quarantined = []
        monitor = HealthMonitor(
            loop,
            {device.name: device},
            probe_interval_s=0.1,
            failure_threshold=1,
            on_quarantine=quarantined.append,
        )
        monitor.start()
        monitor.stop()
        device.crash(0.0)
        loop.run_until(1.0)
        assert quarantined == []

"""FlexHA: replicated controller, fencing epochs, resync sweeps."""

from repro.apps import base_infrastructure, firewall_delta
from repro.control.ha import FlexHA
from repro.core.flexnet import FlexNet
from repro.faults import FaultInjector, FaultPlan
from repro.lang.delta import apply_delta, parse_delta
from repro.runtime.consistency import ConsistencyLevel
from repro.simulator.packet import reset_packet_ids

from tests.conftest import assert_live_facts_fresh


def make_ha_net(seed=42, fencing=True, node_count=3):
    reset_packet_ids()
    net = FlexNet.standard("drmt")
    net.install(base_infrastructure())
    ha = FlexHA(net.controller, node_count=node_count, seed=seed, fencing=fencing)
    return net, net.controller, ha


def settle(controller):
    for device in controller.devices.values():
        device.settle(controller.loop.now)


class TestReplicatedUpdates:
    def test_update_commits_then_executes(self):
        net, controller, ha = make_ha_net()
        controller.loop.run_until(1.0)
        leader = ha.cluster.leader()
        assert leader is not None
        delta_id = ha.submit_update(
            firewall_delta(), consistency=ConsistencyLevel.PER_PACKET_PATH
        )
        assert delta_id == 1
        controller.loop.run_until(3.0)
        settle(controller)
        assert ha.executed_updates == 1
        assert not ha.update_errors
        assert controller.program.version == 2
        assert controller.devices["sw1"].active_program.version == 2
        assert_live_facts_fresh(controller)
        # The command is in the replicated log on every node.
        for node in ha.cluster.nodes.values():
            assert any(
                getattr(command, "delta_id", None) == delta_id
                for command in node.applied_commands
            )

    def test_epoch_stamped_on_devices(self):
        net, controller, ha = make_ha_net()
        controller.loop.run_until(1.0)
        term = ha.cluster.leader().current_term
        assert ha.epoch == term
        assert controller.hub.epoch == term
        for device in controller.devices.values():
            assert device.fencing_epoch == term

    def test_submit_without_leader_returns_none(self):
        net, controller, ha = make_ha_net()
        controller.loop.run_until(1.0)
        for node_id in ha.cluster.nodes:
            ha.cluster.bus.crash(node_id)
        assert ha.submit_update(firewall_delta()) is None

    def test_duplicate_delta_id_not_reexecuted(self):
        net, controller, ha = make_ha_net()
        controller.loop.run_until(1.0)
        leader = ha.cluster.leader()
        from repro.control.ha import HACommand

        command = HACommand(delta_id=99, delta=firewall_delta())
        leader.propose(command)
        leader.propose(command)  # replayed by a re-driving successor
        controller.loop.run_until(3.0)
        settle(controller)
        assert ha.executed_updates == 1
        assert controller.program.version == 2


class TestFailover:
    def run_leader_crash(self, fencing=True, crash_at=5.02):
        net, controller, ha = make_ha_net(fencing=fencing)
        controller.loop.run_until(1.0)
        first_leader = ha.leader_id

        def submit():
            if ha.submit_update(
                firewall_delta(), consistency=ConsistencyLevel.PER_PACKET_PATH
            ) is None:
                controller.loop.schedule(0.05, submit)

        controller.loop.schedule_at(5.0, submit)
        controller.loop.schedule_at(
            crash_at, lambda: ha.cluster.bus.crash(ha.leader_id or first_leader)
        )
        controller.loop.run_until(12.0)
        settle(controller)
        return controller, ha

    def test_leader_crash_mid_transition_converges(self):
        controller, ha = self.run_leader_crash()
        assert ha.executed_updates == 1
        assert not ha.update_errors
        assert controller.devices["sw1"].active_program.version == 2
        assert not controller.devices["sw1"].in_transition
        assert len(ha.failovers) == 1
        downtimes = ha.handoff_downtimes_s()
        assert len(downtimes) == 1
        assert 0.0 < downtimes[0] < 2.0

    def test_new_leader_runs_resync_sweep(self):
        controller, ha = self.run_leader_crash()
        # One sweep from the bootstrap election, one from the fail-over.
        assert ha.resyncs == 2
        assert ha.resync_reads > 0

    def test_failover_status_is_deterministic(self):
        _, ha_first = self.run_leader_crash()
        _, ha_second = self.run_leader_crash()
        assert ha_first.status() == ha_second.status()

    def test_new_leader_epoch_supersedes(self):
        controller, ha = self.run_leader_crash()
        new_term = ha.cluster.leader().current_term
        assert ha.max_term == new_term
        for device in controller.devices.values():
            assert device.fencing_epoch == new_term


class TestFencing:
    def run_partition(self, fencing=True):
        net, controller, ha = make_ha_net(fencing=fencing)
        controller.loop.run_until(1.0)
        first_leader = ha.leader_id

        def split():
            leader_id = ha.leader_id or first_leader
            others = {n for n in ha.cluster.nodes if n != leader_id}
            ha.cluster.bus.partition({leader_id}, others)

        controller.loop.schedule_at(
            5.0,
            lambda: ha.submit_update(
                firewall_delta(), consistency=ConsistencyLevel.PER_PACKET_PATH
            ),
        )
        controller.loop.schedule_at(5.02, split)
        controller.loop.schedule_at(8.0, ha.cluster.bus.heal)
        controller.loop.run_until(12.0)
        settle(controller)
        return controller, ha

    def test_deposed_leader_writes_are_fenced(self):
        controller, ha = self.run_partition(fencing=True)
        # The old leader keeps renewing its lease from the minority side;
        # every renewal bounces off the device watermarks.
        assert ha.epoch_rejections > 0
        assert ha.stale_writes_applied == 0
        assert sum(d.stats.stale_rejections for d in controller.devices.values()) > 0

    def test_unfenced_baseline_applies_stale_writes(self):
        controller, ha = self.run_partition(fencing=False)
        assert ha.stale_writes_applied > 0
        assert ha.epoch_rejections == 0


class TestHealthResync:
    def test_quarantined_then_recovered_device_resynced(self):
        net, controller, ha = make_ha_net()
        injector = FaultInjector(FaultPlan(seed=1))
        controller.attach_faults(injector, recovery=True, monitor=True)
        controller.loop.run_until(1.0)
        # Crash sw1 long enough for the monitor (0.1s probes, threshold 3)
        # to quarantine it, then bring it back.
        controller.loop.schedule_at(2.0, lambda: controller.devices["sw1"].crash(2.0))
        controller.loop.schedule_at(
            3.0, lambda: controller.devices["sw1"].restart(3.0)
        )
        controller.loop.run_until(5.0)
        assert "sw1" not in controller.health.quarantined
        # The release callback reached FlexHA: the device got a targeted
        # resync sweep from the current leader.
        assert ha.health_resyncs >= 1

    def test_release_without_ha_is_harmless(self):
        reset_packet_ids()
        net = FlexNet.standard("drmt")
        net.install(base_infrastructure())
        controller = net.controller
        injector = FaultInjector(FaultPlan(seed=1))
        controller.attach_faults(injector, recovery=True, monitor=True)
        controller.loop.schedule_at(1.0, lambda: controller.devices["sw1"].crash(1.0))
        controller.loop.schedule_at(
            2.0, lambda: controller.devices["sw1"].restart(2.0)
        )
        controller.loop.run_until(4.0)  # must not raise
        assert controller.ha is None


class TestRedrive:
    def test_a_redriven_resize_keeps_the_map(self):
        """The window a dead leader never dispatched is opened with no
        migration: a map the intended version resizes keeps its entries."""
        net, controller, ha = make_ha_net()
        controller.loop.run_until(1.0)
        device = controller.devices["sw1"]
        device.active_instance.maps.state("flow_counts").put((1, 9), 7)
        intended, _ = apply_delta(
            controller.program, parse_delta("delta shrink { resize map flow_counts 1024; }")
        )
        assert ha._redrive(device, intended, device.active_program.version) is not None
        controller.loop.run_until(2.0)
        settle(controller)
        state = device.active_instance.maps.state("flow_counts")
        assert device.active_program.version == intended.version
        assert state._max_entries == 1024
        assert dict(state.items()) == {(1, 9): 7}

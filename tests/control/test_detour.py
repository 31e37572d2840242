"""Routing/placement co-design tests (§3.3 detours)."""

import pytest

from repro.apps.base import base_infrastructure
from repro.control.controller import FlexNetController
from repro.control.topology import TopologyView
from repro.errors import PlacementError, UnknownDeviceError
from repro.lang.delta import parse_delta
from repro.targets import drmt_switch, host
from repro.targets.resources import ResourceVector

BIG_APP = """
delta big {
  add map big_state { key: ipv4.src, ipv4.dst; value: u64; max_entries: 150000; }
  add func big_touch() {
    let v: u64 = map_get(big_state, ipv4.src, ipv4.dst);
    map_put(big_state, ipv4.src, ipv4.dst, v + 1);
  }
  insert big_touch after count_flow;
}
"""


def diamond_controller() -> FlexNetController:
    """h1 - swA - h2 with an off-path swB reachable from both sides.

    swA is small; swB is roomy. Hosts are tiny, so a big app only fits
    via the detour through swB.
    """
    controller = FlexNetController()
    controller.add_device("h1", host("h1", cores=1, memory_mb=1.0, kernel_maps=2))
    controller.add_device(
        "swA", drmt_switch("swA", sram_mb=2.0, tcam_mb=0.3, processors=8, alus=16)
    )
    controller.add_device("swB", drmt_switch("swB"))
    controller.add_device("h2", host("h2", cores=1, memory_mb=1.0, kernel_maps=2))
    controller.add_link("h1", "swA", 1e-6)
    controller.add_link("swA", "h2", 1e-6)
    controller.add_link("h1", "swB", 5e-6)
    controller.add_link("swB", "h2", 5e-6)
    controller.set_datapath_endpoints("h1", "h2")
    controller.install_infrastructure(
        base_infrastructure(acl_size=128, l2_size=256, l3_size=256, flow_entries=2048)
    )
    return controller


class TestDetourPath:
    def test_forced_via(self):
        view = TopologyView()
        for name in ("a", "b", "c", "d"):
            view.add_device(name, None)
        view.add_link("a", "b")
        view.add_link("b", "d")
        view.add_link("a", "c")
        view.add_link("c", "d")
        assert view.detour_path("a", "d", "c") == ["a", "c", "d"]

    def test_loop_rejected(self):
        view = TopologyView()
        for name in ("a", "b", "c"):
            view.add_device(name, None)
        view.add_link("a", "b")
        view.add_link("b", "c")
        # via 'c' from a to b: a-b-c then c-b revisits b
        with pytest.raises(UnknownDeviceError, match="revisits"):
            view.detour_path("a", "b", "c")


class TestControllerDetour:
    def test_default_path_avoids_detour(self):
        controller = diamond_controller()
        assert controller.datapath_path == ["h1", "swA", "h2"]

    def test_big_app_fails_without_detour(self):
        controller = diamond_controller()
        with pytest.raises(PlacementError):
            controller.deploy_app(
                "flexnet://infrastructure/big", parse_delta(BIG_APP)
            )

    def test_detour_reroutes_and_places(self):
        controller = diamond_controller()
        outcome = controller.deploy_app(
            "flexnet://infrastructure/big", parse_delta(BIG_APP), allow_detour=True
        )
        assert controller.datapath_path == ["h1", "swB", "h2"]
        record = controller.app("flexnet://infrastructure/big")
        assert record.devices == ["swB"]
        # the network path now runs through swB
        assert controller.network.path("datapath") == ["h1", "swB", "h2"]

    def test_traffic_flows_after_detour(self):
        from repro.simulator.flowgen import constant_rate
        from repro.simulator.metrics import RunMetrics

        controller = diamond_controller()
        controller.deploy_app(
            "flexnet://infrastructure/big", parse_delta(BIG_APP), allow_detour=True
        )
        controller.loop.run_until(controller.loop.now + 2.0)
        metrics = RunMetrics()
        start = controller.loop.now
        for timed in constant_rate(200, 1.0, start_s=start):
            controller.network.inject(timed.packet, "datapath", timed.time, metrics)
        controller.loop.run_until(start + 3.0)
        assert metrics.delivered == 200
        assert metrics.lost_by_infrastructure == 0
        # the big app actually processed traffic on swB
        swb = controller.devices["swB"].active_instance
        assert len(swb.maps.state("big_state")) > 0


class TestSliceFollowsTheTopology:
    """``FlexNetController.slice()`` is built once per route and
    topology revision; after every change it can see it must read what
    a fresh ``slice_along`` of the route reads."""

    @staticmethod
    def fields(network_slice):
        return [
            (spec.name, spec.target, dict(spec.used.items()), spec.ingress_link_ns)
            for spec in network_slice.devices
        ]

    def assert_fresh(self, controller):
        fresh = controller.topology.slice_along(controller.datapath_path)
        assert self.fields(controller.slice()) == self.fields(fresh)
        return self.fields(fresh)

    def test_a_commit_and_a_release(self):
        controller = diamond_controller()
        before = self.assert_fresh(controller)
        assert controller.slice() is controller.slice()
        controller.topology.commit("swA", ResourceVector(sram_kb=100))
        assert self.assert_fresh(controller) != before
        controller.topology.release("swA", ResourceVector(sram_kb=100))
        assert self.assert_fresh(controller) == before

    def test_a_link_latency(self):
        controller = diamond_controller()
        before = self.assert_fresh(controller)
        controller.add_link("h1", "swA", 3e-6)
        assert self.assert_fresh(controller) != before

    def test_a_device_added_off_the_route(self):
        controller = diamond_controller()
        before = self.assert_fresh(controller)
        controller.add_device("swC", drmt_switch("swC"))
        assert self.assert_fresh(controller) == before

    def test_a_detour(self):
        controller = diamond_controller()
        before = self.assert_fresh(controller)
        controller.deploy_app(
            "flexnet://infrastructure/big", parse_delta(BIG_APP), allow_detour=True
        )
        assert controller.datapath_path == ["h1", "swB", "h2"]
        assert self.assert_fresh(controller) != before

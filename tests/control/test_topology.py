"""Topology view tests."""

import pytest

from repro.control.topology import TopologyView
from repro.errors import UnknownDeviceError
from repro.targets import drmt_switch, host, rmt_switch, smartnic
from repro.targets.resources import ResourceVector


def linear_topology():
    view = TopologyView()
    view.add_device("h1", host("h1"))
    view.add_device("nic1", smartnic("nic1"))
    view.add_device("sw1", drmt_switch("sw1"))
    view.add_device("legacy1", None)
    view.add_device("sw2", rmt_switch("sw2", runtime_capable=False))
    view.add_device("h2", host("h2"))
    for a, b, lat in [
        ("h1", "nic1", 1e-6),
        ("nic1", "sw1", 2e-6),
        ("sw1", "legacy1", 2e-6),
        ("legacy1", "sw2", 2e-6),
        ("sw2", "h2", 1e-6),
    ]:
        view.add_link(a, b, lat)
    return view


class TestConstruction:
    def test_duplicate_device_rejected(self):
        view = TopologyView()
        view.add_device("a", None)
        with pytest.raises(UnknownDeviceError):
            view.add_device("a", None)

    def test_unknown_device_rejected(self):
        with pytest.raises(UnknownDeviceError):
            TopologyView().device("ghost")

    def test_link_requires_devices(self):
        view = TopologyView()
        view.add_device("a", None)
        with pytest.raises(UnknownDeviceError):
            view.add_link("a", "ghost")

    def test_remove_device(self):
        view = linear_topology()
        view.remove_device("legacy1")
        with pytest.raises(UnknownDeviceError):
            view.device("legacy1")


class TestClassification:
    def test_runtime_programmable_set(self):
        view = linear_topology()
        assert "sw1" in view.runtime_programmable_devices
        assert "sw2" not in view.runtime_programmable_devices  # compile-time only
        assert "legacy1" not in view.runtime_programmable_devices

    def test_legacy_set_includes_nonprogrammable_and_compiletime(self):
        view = linear_topology()
        assert set(view.legacy_devices) == {"legacy1", "sw2"}

    def test_programmable_flag(self):
        view = linear_topology()
        assert not view.device("legacy1").programmable
        assert view.device("sw2").programmable


class TestPaths:
    def test_shortest_path(self):
        view = linear_topology()
        path = view.shortest_path("h1", "h2")
        assert path[0] == "h1" and path[-1] == "h2"
        assert "sw1" in path

    def test_no_path_raises(self):
        view = linear_topology()
        view.add_device("island", None)
        with pytest.raises(UnknownDeviceError):
            view.shortest_path("h1", "island")

    def test_equal_cost_arms_break_ties_by_link_order(self):
        # The least-latency path between the corners of a diamond whose
        # two arms cost the same. Which arm wins depends on the order
        # the links were added in, and on the direction of the search.
        def diamond(links):
            view = TopologyView()
            for name in ("a", "left", "right", "b"):
                view.add_device(name, None)
            for x, y in links:
                view.add_link(x, y, 1e-6)
            return view

        view = diamond([("a", "left"), ("a", "right"), ("left", "b"), ("right", "b")])
        assert view.shortest_path("a", "b") == ["a", "left", "b"]
        assert view.path_avoiding("a", "b", set()) == ["a", "left", "b"]
        view = diamond([("a", "right"), ("a", "left"), ("right", "b"), ("left", "b")])
        assert view.shortest_path("a", "b") == ["a", "right", "b"]
        view = diamond([("right", "b"), ("left", "b"), ("a", "left"), ("a", "right")])
        assert view.shortest_path("a", "b") == ["a", "right", "b"]
        assert view.shortest_path("b", "a") == ["b", "left", "a"]
        assert view.detour_path("left", "right", "b") == ["left", "b", "right"]

    def test_path_avoiding_skips_the_avoided_devices(self):
        view = linear_topology()
        view.add_device("bypass", None)
        view.add_link("sw1", "bypass", 5e-6)
        view.add_link("bypass", "sw2", 5e-6)
        assert view.path_avoiding("h1", "h2", {"legacy1"}) == [
            "h1", "nic1", "sw1", "bypass", "sw2", "h2"
        ]
        with pytest.raises(UnknownDeviceError, match="avoiding"):
            view.path_avoiding("h1", "h2", {"legacy1", "bypass"})

    def test_negative_latency_rejected(self):
        view = linear_topology()
        with pytest.raises(ValueError):
            view.add_link("h1", "h2", -1e-6)


class TestSlices:
    def test_slice_skips_nonprogrammable(self):
        view = linear_topology()
        path = view.shortest_path("h1", "h2")
        network_slice = view.slice_along(path)
        assert "legacy1" in path
        assert "legacy1" not in network_slice.names
        assert network_slice.names == ["h1", "nic1", "sw1", "sw2", "h2"]

    def test_slice_ingress_latency_from_links(self):
        view = linear_topology()
        network_slice = view.slice_along(view.shortest_path("h1", "h2"))
        nic = network_slice.device("nic1")
        assert nic.ingress_link_ns == pytest.approx(1e-6 * 1e9)

    def test_slice_reflects_used_resources(self):
        view = linear_topology()
        view.commit("sw1", ResourceVector(sram_kb=100))
        network_slice = view.slice_along(view.shortest_path("h1", "h2"))
        assert network_slice.device("sw1").used["sram_kb"] == 100


class TestLedger:
    def test_commit_release_cycle(self):
        view = linear_topology()
        view.commit("sw1", ResourceVector(sram_kb=50))
        assert view.utilization("sw1") > 0
        view.release("sw1", ResourceVector(sram_kb=50))
        assert view.utilization("sw1") == 0

    def test_nonprogrammable_utilization_zero(self):
        assert linear_topology().utilization("legacy1") == 0.0

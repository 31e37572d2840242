"""Element-level (P4Runtime) binding tests."""

import pytest

from repro.control.p4runtime import P4RuntimeClient, P4RuntimeHub, TableEntry
from repro.errors import ControlPlaneError
from repro.runtime.device import DeviceRuntime
from repro.simulator.packet import make_packet
from repro.simulator.tables import exact, ternary
from repro.targets import drmt_switch


@pytest.fixture
def bound(base_program):
    device = DeviceRuntime("sw1", drmt_switch("sw1"))
    device.install(base_program)
    return device, P4RuntimeClient(device)


class TestTableEntries:
    def test_insert_and_hit(self, bound):
        device, client = bound
        client.insert_entry(
            TableEntry(
                table="acl",
                matches=(ternary(5, 0xFFFFFFFF), ternary(0, 0)),
                action="drop",
                priority=1,
            )
        )
        packet = make_packet(5, 6)
        device.process(packet, 0.0)
        assert packet.dropped
        hits, misses = client.read_counters("acl")
        assert sum(hits) == 1

    def test_delete_entry(self, bound):
        _, client = bound
        entry = TableEntry(
            table="acl",
            matches=(ternary(5, 0xFFFFFFFF), ternary(0, 0)),
            action="drop",
        )
        client.insert_entry(entry)
        assert client.table_size("acl") == 1
        assert client.delete_entry(entry)
        assert client.table_size("acl") == 0

    def test_unknown_table_rejected(self, bound):
        _, client = bound
        with pytest.raises(ControlPlaneError, match="no table"):
            client.insert_entry(
                TableEntry(table="ghost", matches=(exact(1),), action="drop")
            )

    def test_control_time_accumulates(self, bound):
        _, client = bound
        client.table_size("acl")
        client.read_counters("acl")
        assert client.stats.reads == 2
        assert client.stats.control_time_s > 0


class TestMapAccess:
    def test_read_map_after_traffic(self, bound):
        device, client = bound
        device.process(make_packet(9, 10), 0.0)
        contents = client.read_map("flow_counts")
        assert contents[(9, 10)] == 1

    def test_read_single_entry(self, bound):
        device, client = bound
        device.process(make_packet(9, 10), 0.0)
        assert client.read_map_entry("flow_counts", (9, 10)) == 1
        assert client.read_map_entry("flow_counts", (1, 1)) == 0

    def test_write_map_entry(self, bound):
        device, client = bound
        client.write_map_entries("flow_counts", {(7, 7): 55})
        assert device.active_instance.maps.state("flow_counts").get((7, 7)) == 55

    def test_unknown_map_rejected(self, bound):
        _, client = bound
        with pytest.raises(ControlPlaneError, match="no map"):
            client.read_map("ghost")

    def test_no_program_rejected(self):
        device = DeviceRuntime("sw1", drmt_switch("sw1"))
        client = P4RuntimeClient(device)
        with pytest.raises(ControlPlaneError, match="no program"):
            client.read_map("flow_counts")


class TestHub:
    def test_bind_is_idempotent(self, base_program):
        device = DeviceRuntime("sw1", drmt_switch("sw1"))
        device.install(base_program)
        hub = P4RuntimeHub()
        first = hub.bind(device)
        second = hub.bind(device)
        assert first is second

    def test_unknown_client_rejected(self):
        with pytest.raises(ControlPlaneError):
            P4RuntimeHub().client("ghost")

    def test_total_control_time(self, base_program):
        device = DeviceRuntime("sw1", drmt_switch("sw1"))
        device.install(base_program)
        client = P4RuntimeHub().bind(device)
        client.table_size("acl")
        assert client.stats.control_time_s > 0

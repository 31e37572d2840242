"""Packet model tests."""

import copy
import pickle

import pytest

from repro.simulator.flowgen import ConstantRate, PoissonFlows
from repro.simulator.packet import (
    PACKET_ID_SHARD_SHIFT,
    STANDARD_CARRIED,
    FiveTuple,
    Packet,
    Verdict,
    carried_headers,
    make_packet,
    reset_packet_ids,
)


class TestPacket:
    def test_make_packet_standard_headers(self):
        packet = make_packet(src_ip=1, dst_ip=2, proto=6)
        assert packet.get_field("ipv4", "src") == 1
        assert packet.get_field("ipv4", "dst") == 2
        assert "ethernet" in packet.headers
        assert "tcp" in packet.headers

    def test_unique_ids(self):
        assert make_packet(1, 2).packet_id != make_packet(1, 2).packet_id

    def test_absent_field_reads_zero(self):
        assert make_packet(1, 2).get_field("vxlan", "vni") == 0

    def test_set_field(self):
        packet = make_packet(1, 2)
        packet.set_field("ipv4", "ttl", 9)
        assert packet.get_field("ipv4", "ttl") == 9

    def test_verdict_default_forward(self):
        packet = make_packet(1, 2)
        assert packet.verdict is Verdict.FORWARD
        assert not packet.dropped

    def test_latency_requires_delivery(self):
        packet = make_packet(1, 2, created_at=1.0)
        assert packet.latency_s is None
        packet.delivered_at = 1.5
        assert packet.latency_s == 0.5

    def test_meta_defaults(self):
        packet = make_packet(1, 2, vlan_id=7)
        assert packet.meta["vlan_id"] == 7
        assert packet.meta["drop_flag"] == 0


def derived(packet):
    """The headers ``packet.fields`` holds, by a rescan."""
    return frozenset(key[0] for key in packet.fields)


class TestCarriedHeaders:
    """``Packet.headers`` is the packet's validity bits: derived once
    when it is built, and never stale after."""

    def test_after_construction(self):
        packet = make_packet(1, 2)
        assert packet.headers == frozenset({"ethernet", "ipv4", "tcp"}) == derived(packet)
        assert Packet(fields={}).headers == frozenset()
        assert "ethernet" not in Packet(fields={}).headers

    def test_replacing_fields_derives_it_again(self):
        packet = make_packet(1, 2)
        packet.fields = {key: value for key, value in packet.fields.items() if key[0] != "tcp"}
        assert packet.headers == frozenset({"ethernet", "ipv4"}) == derived(packet)
        assert "tcp" not in packet.headers
        packet.fields = {}
        assert packet.headers == frozenset()

    def test_set_field_of_a_new_header_makes_it_valid(self):
        packet = make_packet(1, 2)
        before = packet.headers
        packet.set_field("ipv4", "ttl", 3)
        assert packet.headers is before  # a carried header: nothing to add
        packet.set_field("vxlan", "vni", 42)
        assert "vxlan" in packet.headers
        assert packet.headers == before | {"vxlan"} == derived(packet)
        assert "vxlan" not in before  # the old set is not mutated: copies may share it

    def test_a_pickle_round_trip_keeps_it(self):
        packet = make_packet(1, 2)
        packet.fields = {key: value for key, value in packet.fields.items() if key[0] != "tcp"}
        for clone in (pickle.loads(pickle.dumps(packet)), copy.deepcopy(packet)):
            assert clone == packet
            assert clone.headers == packet.headers == derived(clone)
            clone.set_field("tcp", "flags", 2)
            assert clone.headers == derived(clone)
        assert packet.headers == frozenset({"ethernet", "ipv4"})

    def test_make_packet_shares_the_standard_set(self):
        packet, other = make_packet(1, 2), make_packet(3, 4, proto=17, vlan_id=5)
        assert packet.headers is STANDARD_CARRIED is other.headers
        assert STANDARD_CARRIED == carried_headers(packet.fields)
        packet.set_field("vxlan", "vni", 7)
        assert "vxlan" in packet.headers
        assert other.headers is STANDARD_CARRIED
        assert STANDARD_CARRIED == frozenset({"ethernet", "ipv4", "tcp"})

    def test_a_series_shares_one_set(self):
        rate = ConstantRate(1000.0, 0.005)
        flows = PoissonFlows(5000.0, 0.02, flow_count=4, seed=3)
        shared = rate.packets[0].headers
        for packet in [*rate.packets, *flows.packets]:
            assert packet.headers is shared
            assert packet.headers == derived(packet)

    def test_equality_and_repr_read_the_record(self):
        packet = make_packet(1, 2, created_at=0.5)
        twin = pickle.loads(pickle.dumps(packet))
        assert packet == twin and packet != make_packet(1, 2)
        twin.verdict = Verdict.DROP
        assert packet != twin
        assert repr(packet).startswith("Packet(fields={('ethernet', 'dst'): ")
        assert f"packet_id={packet.packet_id}," in repr(packet)
        with pytest.raises(TypeError):
            hash(packet)


class TestPacketIdNamespaces:
    def test_reset_restarts_default_namespace_at_one(self):
        reset_packet_ids()
        assert make_packet(1, 2).packet_id == 1
        assert make_packet(1, 2).packet_id == 2

    def test_shard_namespace_offsets_counter(self):
        try:
            reset_packet_ids(3)
            first = make_packet(1, 2).packet_id
            second = make_packet(1, 2).packet_id
            assert first == (3 << PACKET_ID_SHARD_SHIFT) + 1
            assert second == first + 1
        finally:
            reset_packet_ids()

    def test_namespaces_cannot_collide(self):
        # A worker would have to allocate 2**48 packets to run into the
        # next shard's namespace.
        try:
            ids = []
            for shard in (0, 1, 2):
                reset_packet_ids(shard)
                ids.append(make_packet(1, 2).packet_id)
            assert len(set(ids)) == 3
            assert ids == sorted(ids)
        finally:
            reset_packet_ids()

    def test_negative_namespace_rejected(self):
        with pytest.raises(ValueError):
            reset_packet_ids(-1)


class TestFiveTuple:
    def test_of_packet(self):
        packet = make_packet(1, 2, proto=17, src_port=5, dst_port=53)
        flow = FiveTuple.of(packet)
        assert flow == FiveTuple(src_ip=1, dst_ip=2, proto=17, src_port=5, dst_port=53)

    def test_hashable_key(self):
        first = FiveTuple.of(make_packet(1, 2))
        second = FiveTuple.of(make_packet(1, 2))
        assert first == second
        assert hash(first) == hash(second)

"""Traffic generator tests."""

import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.flowgen import (
    ConstantRate,
    PoissonFlows,
    RateTimes,
    Series,
    TimedPacket,
    constant_rate,
    merge_streams,
    poisson_flows,
    syn_flood,
    tenant_churn,
)
from repro.simulator.packet import make_packet, reset_packet_ids


class TestConstantRate:
    def test_count_matches_rate_and_duration(self):
        packets = list(constant_rate(100, 2.0))
        assert len(packets) == 200

    def test_even_spacing(self):
        packets = list(constant_rate(10, 1.0))
        gaps = {
            round(second.time - first.time, 9)
            for first, second in zip(packets, packets[1:])
        }
        assert gaps == {0.1}

    def test_start_offset(self):
        packets = list(constant_rate(10, 1.0, start_s=5.0))
        assert packets[0].time == 5.0

    def test_zero_rate_empty(self):
        assert list(constant_rate(0, 1.0)) == []

    def test_vlan_and_ports_propagate(self):
        packet = next(iter(constant_rate(10, 1.0, vlan_id=9, dst_port=443))).packet
        assert packet.meta["vlan_id"] == 9
        assert packet.get_field("tcp", "dport") == 443


class TestConstantRateColumns:
    """``ConstantRate`` is ``list(constant_rate(...))`` taken when it is
    made, computed on read."""

    @pytest.mark.parametrize(
        "rate,duration,start", [(100, 2.0, 0.0), (7, 3.0, 1.25), (0, 1.0, 0.0)]
    )
    def test_the_columns_are_the_list(self, rate, duration, start):
        reset_packet_ids()
        stream = ConstantRate(rate, duration, start_s=start)
        after_stream = make_packet(1, 2).packet_id
        reset_packet_ids()
        listed = list(constant_rate(rate, duration, start_s=start))
        assert make_packet(1, 2).packet_id == after_stream
        assert list(stream.times) == [timed.time for timed in listed]
        assert len(stream.packets) == len(listed)
        assert list(stream.packets) == [timed.packet for timed in listed]
        assert len(stream) == len(listed) and list(stream) == listed
        if listed:
            assert stream[-1] == listed[-1]
        for index in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                stream[index]

    def test_the_block_is_reserved_when_made(self):
        """Ids taken between making the stream and reading it do not
        shift the stream's ids."""
        reset_packet_ids()
        stream = ConstantRate(10, 1.0)
        interloper = make_packet(1, 2)
        assert [packet.packet_id for packet in stream.packets] == list(range(1, 11))
        assert interloper.packet_id == 11

    def test_each_read_builds_a_new_packet(self):
        stream = ConstantRate(10, 1.0)
        first, again = stream.packets[3], stream.packets[3]
        assert first == again and first is not again
        first.fields[("ipv4", "ttl")] = 1
        first.meta["drop_flag"] = 1
        assert stream.packets[4].get_field("ipv4", "ttl") == 64
        assert stream.packets[4].meta["drop_flag"] == 0

    def test_out_of_range_reads_raise(self):
        times = RateTimes(10, 1.0)
        for index in (-1, 10):
            with pytest.raises(IndexError):
                times[index]
        assert len(RateTimes(-5, 1.0)) == len(RateTimes(5, -1.0)) == 0


def test_a_listed_series_reads_back_the_callers_packets():
    """``Series.of`` takes a list's columns once: the caller's own
    packets, read as the list reads (so they can be inspected after a
    run), and a series passes through as it is."""
    listed = list(constant_rate(10, 1.0))
    series = Series.of(listed)
    assert Series.of(series) is series and list(series) == listed
    assert all(series[index].packet is listed[index].packet for index in (0, 3, -1))
    for index in (10, -11):
        with pytest.raises(IndexError):
            series[index]


def test_a_timed_packet_is_a_slotted_record_that_round_trips():
    timed = TimedPacket(0.5, make_packet(1, 2))
    assert not hasattr(timed, "__dict__") and not hasattr(timed.packet, "__dict__")
    assert pickle.loads(pickle.dumps(timed)) == timed


class TestPoissonFlows:
    def test_deterministic_given_seed(self):
        first = [(tp.time, tp.packet.get_field("ipv4", "src")) for tp in poisson_flows(100, 1.0, 10, seed=3)]
        second = [(tp.time, tp.packet.get_field("ipv4", "src")) for tp in poisson_flows(100, 1.0, 10, seed=3)]
        assert first == second

    def test_rate_approximately_respected(self):
        packets = list(poisson_flows(1000, 2.0, 10, seed=1))
        assert 1500 < len(packets) < 2500

    def test_zipf_popularity(self):
        packets = list(poisson_flows(2000, 2.0, 20, seed=2))
        counts = {}
        for tp in packets:
            src = tp.packet.get_field("ipv4", "src")
            counts[src] = counts.get(src, 0) + 1
        ordered = sorted(counts.values(), reverse=True)
        assert ordered[0] > ordered[-1] * 2  # heavy head

    def test_times_within_window(self):
        packets = list(poisson_flows(100, 1.0, 5, seed=4, start_s=2.0))
        assert all(2.0 <= tp.time < 3.0 for tp in packets)

    @pytest.mark.parametrize("flow_count", [1, 2, 7, 64, 300])
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_draws_the_stream_choices_draws(self, seed, flow_count):
        """Each flow is the one ``random.choices`` picks from the same
        generator state, so a seed names the same traffic as before
        the cumulative weights were summed once per stream."""
        rate, duration = 4000.0, 1.0
        rng = random.Random(seed)
        weights = [1.0 / (k + 1) for k in range(flow_count)]
        probabilities = [w / sum(weights) for w in weights]
        expected = []
        time = 0.0
        while True:
            time += rng.expovariate(rate)
            if time >= duration:
                break
            flow = rng.choices(range(flow_count), weights=probabilities)[0]
            expected.append((time, 0x0A000000 | (flow + 1), 10000 + flow))
        observed = [
            (tp.time, tp.packet.get_field("ipv4", "src"), tp.packet.get_field("tcp", "sport"))
            for tp in poisson_flows(rate, duration, flow_count, seed=seed)
        ]
        assert len(expected) > 3000
        assert observed == expected


class TestPoissonFlowsSeries:
    """``PoissonFlows`` is ``list(islice(poisson_flows(...), limit))``
    taken when it is made, with each packet built when it is read."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.sampled_from([50.0, 1_000.0, 20_000.0]),
        flow_count=st.integers(1, 80),
        start=st.sampled_from([0.0, 0.125, 3.0]),
        limit=st.one_of(st.none(), st.integers(0, 300)),
        interloper=st.booleans(),
    )
    def test_the_series_is_the_eager_list(self, seed, rate, flow_count, start, limit, interloper):
        duration = 0.2
        reset_packet_ids()
        series = PoissonFlows(rate, duration, flow_count, seed=seed, start_s=start, limit=limit)
        # Ids taken between making the series and reading it shift nothing.
        after_series = make_packet(1, 2).packet_id if interloper else None
        items = list(series)
        if not interloper:
            after_series = make_packet(1, 2).packet_id
        reset_packet_ids()
        listed = list(islice(poisson_flows(rate, duration, flow_count, seed=seed, start_s=start), limit))
        assert make_packet(1, 2).packet_id == after_series
        assert items == listed
        assert [timed.packet.packet_id for timed in items] == [
            timed.packet.packet_id for timed in listed
        ]
        # As a list reads: length, negative indices, iteration.
        assert len(series) == len(listed) == len(series.times) == len(series.packets)
        if listed:
            assert series[-1] == listed[-1] and series[-len(listed)] == listed[0]
            index = len(listed) // 2
            first, again = series[index], series[index]
            assert first == again == listed[index]
            assert first.packet is not again.packet
            first.packet.fields[("ipv4", "ttl")] = 1
            first.packet.meta["drop_flag"] = 1
            assert series[index].packet == listed[index].packet
        for index in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                series[index]


class TestSynFlood:
    def test_ramp_hold_decay_envelope(self):
        packets = list(syn_flood(2000, ramp_s=1.0, hold_s=1.0, decay_s=1.0, seed=5))
        def count(window):
            return sum(1 for tp in packets if window[0] <= tp.time < window[1])
        ramp_head = count((0.0, 0.3))
        hold = count((1.2, 1.5))
        decay_tail = count((2.7, 3.0))
        assert hold > ramp_head * 2
        assert hold > decay_tail * 2

    def test_all_syn_to_victim(self):
        packets = list(syn_flood(500, 0.5, 0.5, 0.5, victim_ip=77, seed=6))
        assert packets
        for tp in packets:
            assert tp.packet.get_field("ipv4", "dst") == 77
            assert tp.packet.get_field("tcp", "flags") & 0x02

    def test_spoofed_sources_diverse(self):
        packets = list(syn_flood(2000, 0.5, 0.5, 0.5, seed=7))
        sources = {tp.packet.get_field("ipv4", "src") for tp in packets}
        assert len(sources) > len(packets) * 0.9


class TestTenantChurn:
    def test_arrivals_before_departures(self):
        events = tenant_churn(2.0, 5.0, 20.0, seed=8)
        first_seen = {}
        for event in events:
            if event.kind == "arrive":
                assert event.tenant not in first_seen
                first_seen[event.tenant] = event.time
            else:
                assert event.tenant in first_seen
                assert event.time > first_seen[event.tenant]

    def test_sorted_by_time(self):
        events = tenant_churn(3.0, 2.0, 10.0, seed=9)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_deterministic(self):
        assert tenant_churn(2.0, 5.0, 10.0, seed=1) == tenant_churn(2.0, 5.0, 10.0, seed=1)


class TestMerge:
    def test_merge_sorts_by_time(self):
        merged = merge_streams(
            constant_rate(10, 1.0),
            constant_rate(10, 1.0, start_s=0.05),
        )
        times = [tp.time for tp in merged]
        assert times == sorted(times)
        assert len(merged) == 20

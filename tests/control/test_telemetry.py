"""Telemetry collector tests."""

import pytest

from repro.control.telemetry import DigestRecord, TelemetryCollector
from repro.simulator.packet import make_packet


class TestDigestWindow:
    def test_rate_by_key(self):
        collector = TelemetryCollector(window_s=1.0)
        for i in range(10):
            collector.ingest(DigestRecord(time=i * 0.05, program="p", values=(7,)))
        rates = collector.rate_by_key(now=0.5)
        assert rates[7] == pytest.approx(10.0)

    def test_window_eviction(self):
        collector = TelemetryCollector(window_s=0.5)
        collector.ingest(DigestRecord(time=0.0, program="p", values=(7,)))
        collector.ingest(DigestRecord(time=0.9, program="p", values=(7,)))
        rates = collector.rate_by_key(now=1.0)
        assert rates[7] == pytest.approx(2.0)  # 1 digest / 0.5 s

    def test_hottest_key(self):
        collector = TelemetryCollector(window_s=1.0)
        for _ in range(5):
            collector.ingest(DigestRecord(time=0.1, program="p", values=(1,)))
        collector.ingest(DigestRecord(time=0.1, program="p", values=(2,)))
        key, rate = collector.hottest_key(now=0.2)
        assert key == 1
        assert rate == pytest.approx(5.0)

    def test_hottest_key_empty(self):
        assert TelemetryCollector().hottest_key(now=0.0) is None

    def test_total_rate(self):
        collector = TelemetryCollector(window_s=2.0)
        for i in range(4):
            collector.ingest(DigestRecord(time=0.1 * i, program="p", values=(i,)))
        assert collector.total_rate(now=0.5) == pytest.approx(2.0)

    def test_ingest_packet_pulls_digests(self):
        collector = TelemetryCollector()
        packet = make_packet(1, 2)
        packet.digests.append(("prog", (42, 1)))
        packet.digests.append(("prog", (42, 2)))
        collector.ingest_packet(packet, now=0.0)
        assert collector.total_digests == 2
        assert collector.rate_by_key(0.0)[42] > 0

    def test_valueless_digest_ignored_in_rates(self):
        collector = TelemetryCollector()
        collector.ingest(DigestRecord(time=0.0, program="p", values=()))
        assert collector.rate_by_key(0.0) == {}
        assert collector.total_rate(0.0) > 0


class TestBoundedMemory:
    def test_eviction_happens_on_ingest(self):
        """A collector that is never queried must not grow without
        bound: stale records are evicted as new ones arrive."""
        collector = TelemetryCollector(window_s=0.5)
        for i in range(10_000):
            collector.ingest(DigestRecord(time=i * 0.01, program="p", values=(7,)))
        # Only the last window's worth (0.5 s / 0.01 s = ~50) survives.
        assert len(collector._digests) <= 51
        assert collector.total_digests == 10_000

    def test_max_records_caps_bursts(self):
        """A burst faster than the window can evict is hard-capped."""
        collector = TelemetryCollector(window_s=10.0, max_records=100)
        for _ in range(500):
            collector.ingest(DigestRecord(time=1.0, program="p", values=(7,)))
        assert len(collector._digests) == 100
        assert collector.total_digests == 500

    def test_rates_survive_capping(self):
        collector = TelemetryCollector(window_s=1.0, max_records=10)
        for _ in range(50):
            collector.ingest(DigestRecord(time=0.5, program="p", values=(3,)))
        assert collector.rate_by_key(now=0.5)[3] == pytest.approx(10.0)

    def test_event_feed_bounded_and_counted(self):
        collector = TelemetryCollector()
        for i in range(5000):
            collector.ingest_event("crash", "sw1", now=float(i))
        assert collector.total_events == 5000
        assert len(collector.events) == 4096
        assert collector.events[-1].kind == "crash"
        assert collector.events[-1].device == "sw1"


class TestIngestPacket:
    """``ingest_packet`` is one ``ingest`` per digest, with one eviction
    and one cap for the packet."""

    @staticmethod
    def arrivals():
        """Packets of 0–5 digests at rising times (some with a
        valueless digest), so the window and the cap both bite."""
        for index in range(60):
            packet = make_packet(1, 2)
            packet.digests += [(f"p{d}", (index, d)[: d % 3]) for d in range(index % 6)]
            yield packet, index * 0.07

    @pytest.mark.parametrize("window_s, max_records", [(0.5, 100_000), (10.0, 7), (0.2, 4)])
    def test_matches_a_per_record_loop(self, window_s, max_records):
        batched = TelemetryCollector(window_s=window_s, max_records=max_records)
        looped = TelemetryCollector(window_s=window_s, max_records=max_records)
        for packet, now in self.arrivals():
            batched.ingest_packet(packet, now)
            for program, values in packet.digests:
                looped.ingest(DigestRecord(time=now, program=program, values=values))
            assert batched.total_digests == looped.total_digests
            assert list(batched._digests) == list(looped._digests)
        assert len(batched._digests) <= max_records

    def test_a_packet_without_digests_evicts_nothing(self):
        collector = TelemetryCollector(window_s=0.5)
        collector.ingest(DigestRecord(time=0.0, program="p", values=(7,)))
        collector.ingest_packet(make_packet(1, 2), now=9.0)
        assert len(collector._digests) == 1 and collector.total_digests == 1

    def test_record_fields_and_equality(self):
        record = DigestRecord(time=0.5, program="p", values=(7, 8))
        assert (record.time, record.program, record.values) == (0.5, "p", (7, 8))
        assert record == DigestRecord(time=0.5, program="p", values=(7, 8))
        assert record != DigestRecord(time=0.5, program="q", values=(7, 8))
        assert hash(record) == hash(DigestRecord(time=0.5, program="p", values=(7, 8)))

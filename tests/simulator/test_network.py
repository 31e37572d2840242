"""Network transport tests."""

import copy
import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import RunMetrics
from repro.simulator.network import Network
from repro.simulator.packet import Verdict, make_packet


class FakeNode:
    """A configurable PacketProcessor."""

    def __init__(self, name, latency_s=1e-6, drop=False, down_until=0.0):
        self.name = name
        self.latency_s = latency_s
        self.drop = drop
        self.down_until = down_until
        self.seen = []

    def available(self, now):
        return now >= self.down_until

    def process(self, packet, now):
        self.seen.append(packet.packet_id)
        if self.drop:
            packet.meta["drop_flag"] = 1
            packet.verdict = Verdict.DROP
        return self.latency_s


def two_hop_network():
    net = Network(EventLoop())
    a, b_ = FakeNode("a"), FakeNode("b")
    net.add_node(a)
    net.add_node(b_)
    net.add_link("a", "b", 1e-3)
    net.define_path("p", ["a", "b"])
    return net, a, b_


class TestTopology:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node(FakeNode("a"))
        with pytest.raises(SimulationError):
            net.add_node(FakeNode("a"))

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            Network().node("ghost")

    def test_link_requires_nodes(self):
        net = Network()
        net.add_node(FakeNode("a"))
        with pytest.raises(SimulationError):
            net.add_link("a", "ghost")

    def test_path_requires_links(self):
        net = Network()
        net.add_node(FakeNode("a"))
        net.add_node(FakeNode("b"))
        with pytest.raises(SimulationError):
            net.define_path("p", ["a", "b"])

    def test_links_bidirectional(self):
        net, *_ = two_hop_network()
        assert net.link_latency("b", "a") == 1e-3


class TestTransport:
    def test_packet_traverses_path(self):
        net, a, b_ = two_hop_network()
        metrics = RunMetrics()
        packet = make_packet(1, 2)
        net.inject(packet, "p", 0.0, metrics)
        net.loop.run()
        assert a.seen == [packet.packet_id]
        assert b_.seen == [packet.packet_id]
        assert packet.path == ["a", "b"]
        assert metrics.delivered == 1

    def test_latency_accumulates_links_and_processing(self):
        net, a, b_ = two_hop_network()
        a.latency_s = 0.5e-3
        metrics = RunMetrics()
        packet = make_packet(1, 2, created_at=0.0)
        net.inject(packet, "p", 0.0, metrics)
        net.loop.run()
        # link 1ms + processing a 0.5ms (+ b's processing)
        assert packet.latency_s == pytest.approx(1.5e-3 + b_.latency_s, rel=1e-6)

    def test_program_drop_stops_path(self):
        net, a, b_ = two_hop_network()
        a.drop = True
        metrics = RunMetrics()
        net.inject(make_packet(1, 2), "p", 0.0, metrics)
        net.loop.run()
        assert b_.seen == []
        assert metrics.dropped_by_program == 1

    def test_unavailable_node_loses_packet(self):
        net, a, b_ = two_hop_network()
        b_.down_until = 10.0
        metrics, done = RunMetrics(), []
        packet = make_packet(1, 2)
        net.inject(packet, "p", 0.0, metrics, on_done=done.append)
        net.loop.run()
        assert metrics.lost_by_infrastructure == 1
        assert metrics.delivered == 0
        assert packet.verdict is Verdict.LOST and done == [packet]
        assert packet.path == ["a"] and b_.seen == []  # lost unprocessed

    def test_on_done_callback(self):
        net, *_ = two_hop_network()
        done = []
        net.inject(make_packet(1, 2), "p", 0.0, None, on_done=done.append)
        net.loop.run()
        assert len(done) == 1

    def test_explicit_hop_list(self):
        net, a, b_ = two_hop_network()
        metrics = RunMetrics()
        net.inject(make_packet(1, 2), ["a"], 0.0, metrics)
        net.loop.run()
        assert metrics.delivered == 1
        assert b_.seen == []

    def test_empty_path_rejected(self):
        net, *_ = two_hop_network()
        with pytest.raises(SimulationError, match="empty path"):
            net.inject(make_packet(1, 2), [], 0.0)

    def test_unknown_path_rejected(self):
        net, *_ = two_hop_network()
        with pytest.raises(SimulationError, match="unknown path 'q'"):
            net.inject(make_packet(1, 2), "q", 0.0)


def three_hop_network(**kwargs):
    """a -1ms- b -2ms- c, path ``p`` over all three."""
    net = Network(EventLoop(), **kwargs)
    for name in "abc":
        net.add_node(FakeNode(name))
    net.add_link("a", "b", 1e-3)
    net.add_link("b", "c", 2e-3)
    net.define_path("p", ["a", "b", "c"])
    return net


def scheduled_callbacks(net):
    """Every callback handed to ``schedule_at`` from here on, in order."""
    callbacks = []
    schedule_at = net.loop.schedule_at

    def recording(time, callback):
        callbacks.append(callback)
        return schedule_at(time, callback)

    net.loop.schedule_at = recording
    return callbacks


class TestFlight:
    """One reschedulable callable carries a packet over its whole path."""

    def test_one_callback_object_per_packet(self):
        net = three_hop_network()
        callbacks = scheduled_callbacks(net)
        first, second = make_packet(1, 2), make_packet(3, 4)
        net.inject(first, "p", 0.0)
        net.inject(second, "p", 0.0)
        net.loop.run()
        assert first.path == second.path == ["a", "b", "c"]
        assert len(callbacks) == 6  # one event per hop, as ever
        assert len({id(callback) for callback in callbacks}) == 2  # but no per-hop allocation
        # perf/layers.py recognises an arrival by this prefix.
        assert callbacks[0].__qualname__.startswith("Network._schedule_arrival")

    @pytest.mark.parametrize("ending", ["delivered", "dropped", "lost", "handed_off"])
    def test_flight_is_freed_with_its_packet_without_the_cyclic_gc(self, ending):
        """Regression: a self-rescheduling closure is a reference cycle;
        it must be broken when the packet finishes or leaves the shard,
        or flights pile up until a collection (+10% peak RSS)."""
        handoffs = []
        net = three_hop_network(
            owned={"a", "b"} if ending == "handed_off" else None,
            on_handoff=lambda *handoff: handoffs.append(handoff),
        )
        net.node("b").drop = ending == "dropped"
        net.node("b").down_until = 1.0 if ending == "lost" else 0.0
        callbacks = scheduled_callbacks(net)
        gc.collect()
        gc.disable()
        try:
            net.inject(make_packet(1, 2), "p", 0.0)
            flight = weakref.ref(callbacks.pop())
            net.loop.run()
            del callbacks[:]
            assert flight() is None
        finally:
            gc.enable()
        assert len(handoffs) == (ending == "handed_off")

    def test_sequence_numbers_are_one_per_hop(self):
        """N packets x H hops schedule exactly N*H events, so every
        ``seq`` (same-time tie-breaks, the sharded handoff order) is
        what the per-hop transport produced."""
        net = three_hop_network()
        for index in range(5):
            net.inject(make_packet(1, 2), "p", index * 1e-4)
        assert net.loop._sequence == 5
        net.loop.run()
        assert net.loop._sequence == 15

    def test_unknown_node_raises_at_arrival(self):
        net = three_hop_network()
        net.inject(make_packet(1, 2), ["ghost"], 0.0)
        with pytest.raises(SimulationError, match="unknown node 'ghost'"):
            net.loop.run()

    def test_missing_link_raises_after_the_hop(self):
        net = three_hop_network()
        packet = make_packet(1, 2)
        net.inject(packet, ["a", "c"], 0.0)
        with pytest.raises(SimulationError, match="no link 'a' -> 'c'"):
            net.loop.run()
        assert packet.path == ["a"]

    def test_untracked_network_refuses_inflight_arrivals(self):
        with pytest.raises(SimulationError, match="track_inflight"):
            three_hop_network().inflight_arrivals()

    def test_tracked_arrivals_between_two_hops(self):
        """FlexMend's view at a window boundary: the tuples, times and
        sequence numbers the per-hop tracked transport listed (pinned
        from it), and a ``receive``-restored copy finishes identically."""
        net = three_hop_network(track_inflight=True)
        packets = [make_packet(1, 2) for _ in range(3)]
        for index, packet in enumerate(packets):
            net.inject(packet, "p", index * 0.0005)
        net.loop.run_until(0.0015)
        hops = ["a", "b", "c"]
        pending = net.inflight_arrivals()
        assert pending == [
            (0.001501, 4, packets[1], hops, 1),
            (0.002001, 5, packets[2], hops, 1),
            (0.0030020000000000003, 6, packets[0], hops, 2),
        ]
        assert pending[0][3] is pending[1][3]  # a named path is shared, not copied per packet

        restored = three_hop_network(track_inflight=True)
        restored.loop.restore_clock(0.0015)
        copies = []
        for at_time, _seq, packet, path, index in pending:
            copies.append(copy.deepcopy(packet))
            restored.receive(copies[-1], list(path), index, at_time)
        assert [item[0] for item in restored.inflight_arrivals()] == [item[0] for item in pending]
        net.loop.run()
        restored.loop.run()
        assert net.inflight_arrivals() == restored.inflight_arrivals() == []
        assert [packets[1], packets[2], packets[0]] == copies  # path, delivered_at, verdict
        assert [packet.delivered_at for packet in packets] == [
            0.0030030000000000005, 0.003503, 0.0040030000000000005,
        ]


class TestMetrics:
    def test_loss_and_delivery_rates(self):
        net, a, b_ = two_hop_network()
        b_.down_until = 0.0005  # in-flight packets at t<~0 lost at b
        metrics = RunMetrics()
        for i in range(10):
            net.inject(make_packet(1, 2, created_at=i * 0.001), "p", i * 0.001, metrics)
        net.loop.run()
        assert metrics.sent == 10
        assert metrics.delivered + metrics.lost_by_infrastructure == 10
        assert metrics.loss_rate == pytest.approx(
            metrics.lost_by_infrastructure / 10
        )

    def test_latency_percentiles(self):
        from repro.simulator.metrics import LatencyStats

        stats = LatencyStats()
        for value in [1.0, 2.0, 3.0, 4.0, 5.0]:
            stats.record(value)
        assert stats.mean == 3.0
        assert stats.percentile(0.0) == 1.0
        assert stats.percentile(0.99) == 5.0
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0


class TestLatencyReservoir:
    """The percentile reservoir is bounded and seeded: long runs stay
    O(reservoir_size) in memory, exact stats stay exact, and repeated
    runs reproduce the same percentile estimates."""

    def test_memory_bounded_exact_stats_intact(self):
        from repro.simulator.metrics import LatencyStats

        stats = LatencyStats(reservoir_size=256)
        n = 50_000
        for i in range(n):
            stats.record(float(i))
        assert len(stats.samples) == 256
        assert stats.count == n
        assert stats.minimum == 0.0
        assert stats.maximum == float(n - 1)
        assert stats.mean == pytest.approx((n - 1) / 2)
        # The estimate comes from a uniform sample of the stream.
        assert stats.percentile(0.5) == pytest.approx(n / 2, rel=0.15)

    def test_deterministic_across_runs(self):
        from repro.simulator.metrics import LatencyStats

        def run():
            stats = LatencyStats(reservoir_size=64)
            for i in range(5000):
                stats.record(float((i * 7919) % 1000))
            return stats

        first, second = run(), run()
        assert first.samples == second.samples
        assert first.percentile(0.9) == second.percentile(0.9)

    def test_below_cap_percentiles_exact(self):
        from repro.simulator.metrics import LatencyStats

        stats = LatencyStats(reservoir_size=4096)
        for value in range(100):
            stats.record(float(value))
        assert stats.percentile(0.5) == 50.0
        assert stats.percentile(0.99) == 99.0

"""Network transport tests."""

import gc
import math
import weakref
from types import FunctionType

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


def live_flights():
    """The flight closures alive now (the collector tracks functions)."""
    return sum(
        type(thing) is FunctionType and thing.__qualname__.endswith("<locals>.flight")
        for thing in gc.get_objects()
    )


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
        assert callbacks == []  # a flight is made when its packet arrives
        net.loop.run()
        assert first.path == second.path == ["a", "b", "c"]
        # The first hop runs in its injection event, every later hop is
        # one event of its own (the other packet is due first, or at the
        # same time, so no hop is the next pop): one seq per hop, as ever.
        assert len(callbacks) == 4 and net.loop._sequence == 6
        assert len({id(callback) for callback in callbacks}) == 2  # but no per-hop allocation
        # perf/layers.py recognises an arrival by this prefix.
        assert callbacks[0].__qualname__.startswith("Network._schedule_arrival")

    @pytest.mark.parametrize("ending", ["delivered", "dropped", "lost", "handed_off"])
    def test_flight_is_freed_with_its_packet_without_the_cyclic_gc(self, ending):
        """Regression: a self-rescheduling closure is a reference cycle;
        it must be broken when the packet finishes or leaves the shard,
        or flights pile up until a collection (+10% peak RSS). Checked
        for a packet alone on the wire, whose flight runs every hop
        inline and never reaches ``schedule_at``, and for one that a
        competing event forces through the heap."""
        for competing in (False, True):
            handoffs = []
            net = three_hop_network(
                owned={"a", "b"} if ending == "handed_off" else None,
                on_handoff=lambda *handoff: handoffs.append(handoff),
            )
            net.node("b").drop = ending == "dropped"
            net.node("b").down_until = 1.0 if ending == "lost" else 0.0
            if competing:
                # Due before the packet reaches b: the hop a -> b is pushed.
                net.loop.schedule_at(0.5e-3, lambda: None)
            alive, process = [], net.node("b").process

            def counting(packet, now, process=process):
                alive.append(live_flights())
                return process(packet, now)

            net.node("b").process = counting
            callbacks = scheduled_callbacks(net)
            gc.collect()
            gc.disable()
            try:
                net.inject(make_packet(1, 2), "p", 0.0)
                net.loop.run()
                flights = [weakref.ref(callback) for callback in callbacks]
                del callbacks[:]
                if competing:
                    assert flights and all(flight() is None for flight in flights)
                else:
                    assert flights == []  # every hop ran inline
                    # The flight was there while the packet flew (b is
                    # down when the packet is lost, so it counts nothing).
                    assert alive == ([] if ending == "lost" else [1])
                assert live_flights() == 0
            finally:
                gc.enable()
            assert len(handoffs) == (ending == "handed_off")

    def test_a_hop_that_is_not_the_next_pop_goes_through_the_heap(self):
        """An event due before the next hop, or at its very time (it was
        scheduled first, so it wins the tie), makes the flight push."""
        for at in (0.5e-3, 1e-3 + 1e-6):
            net = three_hop_network()
            fired = []
            net.loop.schedule_at(at, lambda: fired.append(net.node("b").seen[:]))
            callbacks = scheduled_callbacks(net)
            packet = make_packet(1, 2)
            net.inject(packet, "p", 0.0)
            net.loop.run()
            assert fired == [[]] and len(callbacks) == 1  # a -> b pushed, b -> c inline
            assert packet.path == ["a", "b", "c"] and net.loop._sequence == 4

    def test_a_hop_past_the_horizon_waits_for_the_next_run(self):
        net = three_hop_network()
        callbacks = scheduled_callbacks(net)
        packet = make_packet(1, 2)
        net.inject(packet, "p", 0.0)
        net.loop.run_until(0.5e-3)
        assert packet.path == ["a"] and net.loop.now == 0.5e-3
        assert (len(callbacks), net.loop._sequence, net.loop.pending()) == (1, 2, 1)
        net.loop.run_until(2e-3)  # b runs, c is due at 3.002 ms
        assert packet.path == ["a", "b"] and len(callbacks) == 2
        net.loop.run()
        assert packet.path == ["a", "b", "c"] and net.loop._sequence == 3
        assert net.loop.now == packet.delivered_at - net.node("c").latency_s

    @pytest.mark.parametrize("latency_s", [-2e-3, math.nan])
    def test_a_hop_the_loop_cannot_take_raises_before_a_seq_is_taken(self, latency_s):
        """Neither a hop before ``now`` nor a NaN arrival runs inline:
        the flight hands it to ``schedule_at``, which refuses it."""
        net = three_hop_network()
        net.node("a").latency_s = latency_s
        net.inject(make_packet(1, 2), "p", 0.0)
        with pytest.raises(SimulationError, match="cannot schedule at"):
            net.loop.run()
        assert net.node("b").seen == [] and net.loop._sequence == 1
        assert net.loop.now == 0.0

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
        with pytest.raises(SimulationError, match="^no link 'a' -> 'c'$"):
            net.loop.run()
        assert packet.path == ["a"]
        assert net.node("a").seen == [packet.packet_id] and net.node("c").seen == []


class TestRoutes:
    """A hop list is resolved once into a route; a topology change drops
    it, and every error is raised where the per-hop lookup raised it."""

    def test_a_relinked_latency_reaches_the_next_packet(self):
        net, *_ = two_hop_network()
        first = make_packet(1, 2, created_at=0.0)
        net.inject(first, "p", 0.0)
        net.loop.run()
        net.add_link("a", "b", 5e-3)
        second = make_packet(1, 2, created_at=1.0)
        net.inject(second, "p", 1.0)
        net.loop.run()
        assert first.latency_s == pytest.approx(1e-3 + 2e-6)
        assert second.latency_s == pytest.approx(5e-3 + 2e-6)

    def test_a_node_added_after_an_unknown_node_failure_is_found(self):
        net, *_ = two_hop_network()
        net.inject(make_packet(1, 2), ["a", "c"], 0.0)
        with pytest.raises(SimulationError, match="no link 'a' -> 'c'"):
            net.loop.run()
        net.inject(make_packet(1, 2), ["c"], 1.0)
        with pytest.raises(SimulationError, match="unknown node 'c'"):
            net.loop.run()
        c = FakeNode("c")
        net.add_node(c)
        net.add_link("a", "c", 1e-3)
        packet = make_packet(1, 2)
        net.inject(packet, ["a", "c"], 2.0)
        net.loop.run()
        assert packet.path == ["a", "c"] and c.seen == [packet.packet_id]

    def test_a_handed_off_hop_tuple_is_received(self):
        """The first shard hands the packet off with its hop list; the
        second receives it as the tuple a handoff carries and delivers
        it at the latency one network gives."""
        handoffs = []
        upstream = three_hop_network(
            owned={"a"}, on_handoff=lambda *handoff: handoffs.append(handoff)
        )
        downstream = three_hop_network(owned={"b", "c"})
        reference = three_hop_network()
        packets = [make_packet(1, 2, created_at=0.0) for _ in range(2)]
        metrics = RunMetrics()
        upstream.inject(packets[0], "p", 0.0)
        upstream.loop.run()
        reference.inject(packets[1], "p", 0.0)
        reference.loop.run()
        (packet, hops, index, arrival), = handoffs
        downstream.receive_series([packet], [tuple(hops)], [index], [arrival], metrics)
        downstream.loop.run()
        assert packet.path == ["a", "b", "c"] and metrics.delivered == 1
        assert packet.latency_s == packets[1].latency_s


class TestInjectionSeries:
    """A run's packets enter the loop as one series: the keys, the
    handoff order and the counts of one ``inject`` per packet."""

    def test_a_time_before_now_is_not_counted_as_sent(self):
        """Regression: a rejected injection counted as sent broke the
        run's sent = delivered + dropped + lost."""
        net = three_hop_network()
        net.loop.run_until(1.0)
        metrics = RunMetrics()
        with pytest.raises(SimulationError, match="at 0.5 s, before current time 1.0 s"):
            net.inject(make_packet(1, 2), "p", 0.5, metrics)
        assert metrics.sent == 0 and net.loop._sequence == 0
        with pytest.raises(SimulationError, match="cannot schedule at 0.5 s"):
            net.inject_series([make_packet(1, 2)] * 2, ["p", "p"], [1.5, 0.5], metrics)
        assert metrics.sent == 0 and net.loop._sequence == 0 and net.loop.pending() == 0

    def test_a_series_is_one_inject_per_packet(self):
        def run(as_series):
            handoffs = []
            net = three_hop_network(
                owned={"a", "b"}, on_handoff=lambda *handoff: handoffs.append(handoff)
            )
            packets = [make_packet(1, 2, created_at=0.0) for _ in range(6)]
            paths = ["p", ["c"], "p", ["b", "c"], ["c"], "p"]
            times = [0.5, 0.0, 0.0, 0.5, 0.25, 0.0]
            metrics = RunMetrics()
            if as_series:
                net.inject_series(packets, paths, times, metrics)
            else:
                for packet, path, at_time in zip(packets, paths, times):
                    net.inject(packet, path, at_time, metrics)
            scheduled = net.loop._sequence
            net.loop.run()
            return (
                [packet.path for packet in packets],
                [(packets.index(packet), hops, index, at) for packet, hops, index, at in handoffs],
                scheduled,
                net.loop._sequence,
                metrics.sent,
            )

        assert run(True) == run(False)
        paths, handoffs, scheduled, _, sent = run(True)
        assert sent == 6 and scheduled == 4  # a handed-off packet takes no seq
        assert [handoff[0] for handoff in handoffs[:2]] == [1, 4]  # in input order


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

"""Property tests for the inline hop: a flight that runs its next hop at
once, when that hop would be the loop's next pop, is the run the heap
gives. Both arms fire the same callbacks in the same order under the
same clock and counter, stop at every horizon in the same state, and
leave every packet and every device the same."""

import dataclasses
from heapq import heappop
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import EventLoop
from repro.simulator.metrics import RunMetrics
from repro.simulator.network import Network
from repro.simulator.packet import Verdict, make_packet, reset_packet_ids


class HeapLoop(EventLoop):
    """The reference arm: its drain never opens the inline window (the
    loop's end time stays ``-inf``), so every hop goes through the heap."""

    def _drain(self, end_time):
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            self._now, _, callback = heappop(heap)
            callback()


# Dyadic values keep every sum exact, so arrival times meet each other,
# injections and control events on the grid: ties are the common case.
latencies = st.sampled_from([0.0, 0.25, 0.5, 1.0])
grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])


def event(loop, log, label):
    """An event that logs ``label`` with the clock and counter it ran under."""
    return lambda: log.append(("event", label, loop.now, loop._sequence))


class Node:
    """A PacketProcessor that logs each hop with the loop's clock and
    counter, drops the packets it is told to, is down until a time, and
    may schedule an event of its own from inside ``process``."""

    def __init__(self, name, loop, log, latency_s, down_until, drops, spawn_s):
        self.name = name
        self.loop = loop
        self.log = log
        self.latency_s = latency_s
        self.down_until = down_until
        self.drops = drops
        self.spawn_s = spawn_s

    def available(self, now):
        return now >= self.down_until

    def process(self, packet, now):
        loop = self.loop
        self.log.append(("hop", self.name, packet.packet_id, now, loop._sequence))
        if packet.packet_id in self.drops:
            packet.verdict = Verdict.DROP
        if self.spawn_s is not None and packet.packet_id % 2:
            label = ("spawned", self.name, packet.packet_id)
            loop.schedule_at(now + self.spawn_s, event(loop, self.log, label))
        return self.latency_s


nodes = st.tuples(
    latencies,  # processing latency
    st.sampled_from([0.0, 0.0, 0.5, 1.25]),  # down until
    st.sets(st.integers(1, 8), max_size=2),  # packet ids it drops
    st.sampled_from([None, None, 0.0, 0.25]),  # delay of the event it spawns
)
scenarios = st.fixed_dictionaries(
    {
        "nodes": st.lists(nodes, min_size=2, max_size=5),
        "links": st.lists(latencies, min_size=4, max_size=4),
        # (time, first hop, hop count)
        "packets": st.lists(st.tuples(grid, st.integers(0, 4), st.integers(1, 5)), max_size=8),
        "events": st.lists(grid, max_size=4),
        "owned": st.one_of(st.none(), st.sets(st.integers(0, 4), min_size=1)),
        "horizons": st.lists(st.sampled_from([0.125, 0.25, 0.625, 1.0, 1.375, 2.5]), max_size=3),
    }
)


def drive(loop_type, scenario):
    """Run ``scenario`` on a loop of ``loop_type``; return the firing log,
    the loop's state at every horizon and at the end, and every packet's
    path, delivery time and verdict."""
    reset_packet_ids()
    loop, log = loop_type(), []
    names = [f"n{index}" for index in range(len(scenario["nodes"]))]
    owned = scenario["owned"]
    net = Network(
        loop,
        owned=None if owned is None else {names[i] for i in owned if i < len(names)},
        on_handoff=lambda packet, hops, index, at: log.append(
            ("handoff", packet.packet_id, index, at, loop.now, loop._sequence)
        ),
    )
    for name, (latency_s, down_until, drops, spawn_s) in zip(names, scenario["nodes"]):
        net.add_node(Node(name, loop, log, latency_s, down_until, drops, spawn_s))
    for source, destination, latency_s in zip(names, names[1:], scenario["links"]):
        net.add_link(source, destination, latency_s)
    for index, at in enumerate(scenario["events"]):
        loop.schedule_at(at, event(loop, log, ("control", index)))
    packets, paths, times = [], [], []
    for at, first, count in scenario["packets"]:
        first %= len(names)
        packets.append(make_packet(1, 2))
        paths.append(names[first:first + count])
        times.append(at)
    net.inject_series(
        packets, paths, times, RunMetrics(),
        lambda packet: log.append(("done", packet.packet_id, loop.now, loop._sequence)),
    )
    states = []
    for horizon in sorted(scenario["horizons"]):
        loop.run_until(max(horizon, loop.now))
        assert all(entry[-2] <= loop.now for entry in log)  # nothing ran past it
        states.append((len(log), loop._sequence, loop.pending(), loop.now))
    loop.run()
    states.append((len(log), loop._sequence, loop.pending(), loop.now))
    outcomes = [(p.path, p.delivered_at, p.verdict) for p in packets]
    return log, states, outcomes


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios)
def test_inline_hops_are_the_heap_run(scenario):
    assert drive(EventLoop, scenario) == drive(HeapLoop, scenario)


def live_run(loop_type, packets, rate_pps, update_at):
    """The standard slice with one live update at ``update_at`` of the
    traffic span, on a controller whose loop is a ``loop_type``."""
    from repro import FlexNet, apps
    from repro.apps import base_infrastructure
    from repro.runtime.consistency import ConsistencyLevel
    from repro.scale import e20_workload

    reset_packet_ids()
    with mock.patch("repro.control.controller.EventLoop", loop_type):
        net = FlexNet.standard()
    assert type(net.loop) is loop_type
    net.install(base_infrastructure())
    net.engine(fastpath=True)
    # A list: ``arrivals`` reads the processed packets after the run,
    # and a series builds a fresh packet on every read.
    traffic = list(e20_workload(packets, rate_pps=rate_pps, seed=7))
    level = ConsistencyLevel.PER_PACKET_PATH
    # An update due exactly when a packet is injected: scheduled before
    # the traffic, it wins the tie with the injection and with any hop.
    at = traffic[int(update_at * (len(traffic) - 1))].time
    net.schedule(at, lambda: net.update(apps.int_probe_delta(), consistency=level))
    report = net.run_traffic(packets=traffic, extra_time_s=0.5, consistency_level=level)
    stats = {name: dataclasses.asdict(d.stats) for name, d in net.controller.devices.items()}
    arrivals = [
        (t.packet.packet_id, t.packet.path, t.packet.delivered_at, t.packet.verdict)
        for t in traffic
    ]
    return report.to_dict(), stats, arrivals, net.loop._sequence, net.loop.now


@settings(max_examples=25, deadline=None)
@given(
    packets=st.integers(1, 120),
    rate_pps=st.sampled_from([200.0, 2_000.0, 20_000.0, 2_000_000.0]),
    update_at=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_a_live_update_runs_the_same_under_inline_hops(packets, rate_pps, update_at):
    """Real devices (queues, transition windows, per-version counts)."""
    assert live_run(EventLoop, packets, rate_pps, update_at) == live_run(
        HeapLoop, packets, rate_pps, update_at
    )

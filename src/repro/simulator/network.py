"""Network-level simulation: nodes, links, paths, and packet transport.

The network is deliberately generic over the node implementation — any
object satisfying :class:`PacketProcessor` can sit on a path. The
concrete node used everywhere is
:class:`repro.runtime.device.DeviceRuntime`, which layers program
versions and hitless reconfiguration on top; keeping the simulator
independent of that machinery keeps the dependency graph acyclic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Protocol

from repro.errors import SimulationError
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import RunMetrics
from repro.simulator.packet import Packet, Verdict


class PacketProcessor(Protocol):
    """What the network needs from a device."""

    name: str

    def available(self, now: float) -> bool:
        """False while the device is drained/reflashing (packets are lost)."""
        ...

    def process(self, packet: Packet, now: float) -> float:
        """Process the packet, mutating it; return processing latency (s)."""
        ...


@dataclass(frozen=True)
class Link:
    source: str
    destination: str
    latency_s: float = 1e-6  # 1 us default intra-rack hop


class Network:
    """Nodes + links + named paths, driven by one event loop.

    A network normally owns every node on every path. Under FlexScale a
    shard's network owns only *its* devices: ``owned`` names that
    subset, and when a packet's next hop falls outside it the network
    calls ``on_handoff(packet, hops, index, arrival_time)`` instead of
    scheduling the arrival locally. The arrival time handed off is the
    exact float the single-process engine would have scheduled
    (``now + (processing_s + link_latency)``), which is what makes
    sharded runs bit-identical to unsharded ones.
    """

    def __init__(
        self,
        loop: EventLoop | None = None,
        owned: set[str] | None = None,
        on_handoff: Callable[[Packet, list[str], int, float], None] | None = None,
    ):
        self.loop = loop or EventLoop()
        self._nodes: dict[str, PacketProcessor] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._paths: dict[str, list[str]] = {}
        self._owned = set(owned) if owned is not None else None
        self._on_handoff = on_handoff

    def adopt_topology(self, other: "Network") -> None:
        """Copy link latencies and named paths from another network
        (shard networks mirror the coordinator's topology tables while
        registering only their owned nodes)."""
        self._links.update(other._links)
        self._paths.update({name: list(hops) for name, hops in other._paths.items()})

    def owns(self, name: str) -> bool:
        return self._owned is None or name in self._owned

    # -- topology -----------------------------------------------------------

    def add_node(self, node: PacketProcessor) -> None:
        if node.name in self._nodes:
            raise SimulationError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node

    def node(self, name: str) -> PacketProcessor:
        if name not in self._nodes:
            raise SimulationError(f"unknown node {name!r}")
        return self._nodes[name]

    @property
    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def add_link(self, source: str, destination: str, latency_s: float = 1e-6) -> None:
        self.node(source)
        self.node(destination)
        self._links[(source, destination)] = Link(source, destination, latency_s)
        self._links[(destination, source)] = Link(destination, source, latency_s)

    def has_link(self, source: str, destination: str) -> bool:
        return (source, destination) in self._links

    def link_latency(self, source: str, destination: str) -> float:
        link = self._links.get((source, destination))
        if link is None:
            raise SimulationError(f"no link {source!r} -> {destination!r}")
        return link.latency_s

    def define_path(self, name: str, hops: list[str]) -> None:
        for previous, current in zip(hops, hops[1:]):
            self.link_latency(previous, current)  # validates links exist
        self._paths[name] = list(hops)

    def path(self, name: str) -> list[str]:
        if name not in self._paths:
            raise SimulationError(f"unknown path {name!r}")
        return list(self._paths[name])

    # -- transport ------------------------------------------------------------

    def inject(
        self,
        packet: Packet,
        path: str | list[str],
        at_time: float,
        metrics: RunMetrics | None = None,
        on_done: Callable[[Packet], None] | None = None,
    ) -> None:
        """Send a packet along a path, starting at ``at_time``."""
        # A named path is shared, not copied: a flight only reads its hops.
        hops = self._paths.get(path) if isinstance(path, str) else list(path)
        if not hops:
            raise SimulationError("empty path" if hops is not None else f"unknown path {path!r}")
        if metrics is not None:
            metrics.record_sent()
        if not self.owns(hops[0]):
            self._on_handoff(packet, hops, 0, at_time)
            return
        self._schedule_arrival(at_time, packet, hops, 0, metrics, on_done)

    def receive(
        self,
        packet: Packet,
        hops: list[str],
        index: int,
        at_time: float,
        metrics: RunMetrics | None = None,
        on_done: Callable[[Packet], None] | None = None,
    ) -> None:
        """Accept a handed-off packet at its exact precomputed arrival
        time (the FlexScale shard runtime calls this after draining its
        handoff queue in canonical order)."""
        self._schedule_arrival(at_time, packet, hops, index, metrics, on_done)

    def _schedule_arrival(
        self,
        at_time: float,
        packet: Packet,
        hops: list[str],
        index: int,
        metrics: RunMetrics | None,
        on_done: Callable[[Packet], None] | None,
    ) -> None:
        """Put the packet in flight: one callable per packet, which runs
        an arrival, advances its own ``index`` and re-schedules *itself*
        for the next hop (so a hop allocates nothing and costs one
        frame above the node). It drops its self-reference when it
        finishes or hands off, so the refcount frees it with the packet."""

        def flight() -> None:
            nonlocal index, flight
            loop = self.loop
            now = loop._now  # noqa: SLF001 - hot path (the ``now`` property is a frame)
            name = hops[index]
            node = self._nodes.get(name)
            if node is None:
                raise SimulationError(f"unknown node {name!r}")
            if not node.available(now):
                packet.verdict = Verdict.LOST
            else:
                processing_s = node.process(packet, now)
                packet.path.append(name)
                # A program drop or queue overflow goes no further.
                if packet.verdict is Verdict.FORWARD:
                    index += 1
                    if index == len(hops):
                        packet.delivered_at = now + processing_s
                    else:
                        link = self._links.get((name, hops[index]))
                        if link is None:
                            raise SimulationError(f"no link {name!r} -> {hops[index]!r}")
                        arrival = now + (processing_s + link.latency_s)
                        if self._owned is None or hops[index] in self._owned:
                            loop.schedule_at(arrival, flight)
                        else:
                            # Cross-shard handoff: ship the exact arrival
                            # timestamp the local schedule would have used.
                            flight = None
                            self._on_handoff(packet, hops, index, arrival)
                        return
            flight = None
            self._finish(packet, metrics, on_done)

        self.loop.schedule_at(at_time, flight)

    def _finish(
        self,
        packet: Packet,
        metrics: RunMetrics | None,
        on_done: Callable[[Packet], None] | None,
    ) -> None:
        if metrics is not None:
            metrics.record_outcome(packet)
        if on_done is not None:
            on_done(packet)

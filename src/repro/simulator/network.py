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
        track_inflight: bool = False,
    ):
        self.loop = loop or EventLoop()
        self._nodes: dict[str, PacketProcessor] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._paths: dict[str, list[str]] = {}
        self._owned = set(owned) if owned is not None else None
        self._on_handoff = on_handoff
        #: FlexMend: every event this network schedules is a packet
        #: arrival, fully described by plain data. With tracking on,
        #: in-flight arrivals are registered until they execute, so a
        #: shard checkpoint can serialize the event loop's contents as
        #: ``(time, seq, packet, hops, index)`` tuples.
        self._inflight: dict[int, tuple] | None = {} if track_inflight else None
        self._inflight_token = 0

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
        hops = self.path(path) if isinstance(path, str) else list(path)
        if not hops:
            raise SimulationError("empty path")
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
        if self._inflight is None:
            self.loop.schedule_at(
                at_time, lambda: self._arrive(packet, hops, index, metrics, on_done)
            )
            return
        self._inflight_token += 1
        token = self._inflight_token

        def run() -> None:
            del self._inflight[token]
            self._arrive(packet, hops, index, metrics, on_done)

        sequence = self.loop.schedule_at(at_time, run)
        self._inflight[token] = (at_time, sequence, packet, hops, index)

    def inflight_arrivals(self) -> list[tuple]:
        """Pending arrivals as plain ``(time, seq, packet, hops, index)``
        data, in the loop's canonical execution order. Only meaningful
        with ``track_inflight=True`` (FlexMend checkpointing)."""
        if self._inflight is None:
            raise SimulationError(
                "inflight_arrivals requires track_inflight=True"
            )
        return sorted(self._inflight.values(), key=lambda item: (item[0], item[1]))

    def _arrive(
        self,
        packet: Packet,
        hops: list[str],
        index: int,
        metrics: RunMetrics | None,
        on_done: Callable[[Packet], None] | None,
    ) -> None:
        now = self.loop.now
        node = self.node(hops[index])
        if not node.available(now):
            packet.verdict = Verdict.LOST
            self._finish(packet, metrics, on_done)
            return
        processing_s = node.process(packet, now)
        packet.path.append(node.name)
        if packet.verdict is not Verdict.FORWARD:
            # program drop or queue overflow — the packet goes no further
            self._finish(packet, metrics, on_done)
            return
        if index + 1 >= len(hops):
            packet.delivered_at = now + processing_s
            self._finish(packet, metrics, on_done)
            return
        hop_latency = processing_s + self.link_latency(hops[index], hops[index + 1])
        if not self.owns(hops[index + 1]):
            # Cross-shard handoff: ship the exact arrival timestamp the
            # local schedule() call would have produced.
            self._on_handoff(packet, hops, index + 1, now + hop_latency)
            return
        self._schedule_arrival(
            now + hop_latency, packet, hops, index + 1, metrics, on_done
        )

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

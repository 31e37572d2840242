"""Network-level simulation: nodes, links, paths, and packet transport.

The network is deliberately generic over the node implementation — any
object satisfying :class:`PacketProcessor` can sit on a path. The
concrete node used everywhere is
:class:`repro.runtime.device.DeviceRuntime`, which layers program
versions and hitless reconfiguration on top; keeping the simulator
independent of that machinery keeps the dependency graph acyclic.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Protocol

from repro.errors import SimulationError
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import RunMetrics
from repro.simulator.packet import Packet, Verdict

# A module constant is a dict hit; ``Verdict.FORWARD`` goes through the
# enum metaclass on every read (CPython 3.11), once per hop.
_FORWARD = Verdict.FORWARD
_LOST = Verdict.LOST


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


#: One hop of a resolved route: ``(name, node, latency to the next hop,
#: next hop owned)``. The last hop's "next hop owned" is None. ``node``
#: is None for a name the network does not know and the latency is None
#: over a missing link; the flight raises on either where the per-hop
#: lookup did (at the arrival, and after the hop's ``process``).
Step = tuple[str, PacketProcessor | None, float | None, bool | None]


class Route:
    """A hop list resolved against the topology: the hops as given
    (what a handoff carries on) and one :data:`Step` per hop."""

    __slots__ = ("hops", "steps")

    def __init__(self, hops: Sequence[str], steps: tuple[Step, ...]):
        self.hops = hops
        self.steps = steps


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

    A hop list is resolved once into a :class:`Route`, kept per named
    path and per hop tuple; any change to the nodes, links or paths
    drops every route. A packet keeps the route it was injected with
    for its whole flight.
    """

    def __init__(
        self,
        loop: EventLoop | None = None,
        owned: set[str] | None = None,
        on_handoff: Callable[[Packet, Sequence[str], int, float], None] | None = None,
    ):
        self.loop = loop or EventLoop()
        self._nodes: dict[str, PacketProcessor] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self._paths: dict[str, list[str]] = {}
        self._routes: dict[str | tuple[str, ...], Route] = {}
        self._owned = set(owned) if owned is not None else None
        self.on_handoff = on_handoff

    def adopt_topology(self, other: "Network") -> None:
        """Copy link latencies and named paths from another network
        (shard networks mirror the coordinator's topology tables while
        registering only their owned nodes)."""
        self._links.update(other._links)
        self._paths.update({name: list(hops) for name, hops in other._paths.items()})
        self._routes.clear()

    # -- topology -----------------------------------------------------------

    def add_node(self, node: PacketProcessor) -> None:
        if node.name in self._nodes:
            raise SimulationError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        self._routes.clear()

    def node(self, name: str) -> PacketProcessor:
        if name not in self._nodes:
            raise SimulationError(f"unknown node {name!r}")
        return self._nodes[name]

    def add_link(self, source: str, destination: str, latency_s: float = 1e-6) -> None:
        self.node(source)
        self.node(destination)
        self._links[(source, destination)] = Link(source, destination, latency_s)
        self._links[(destination, source)] = Link(destination, source, latency_s)
        self._routes.clear()

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
        self._routes.clear()

    def path(self, name: str) -> list[str]:
        if name not in self._paths:
            raise SimulationError(f"unknown path {name!r}")
        return list(self._paths[name])

    # -- transport ------------------------------------------------------------

    def _resolve(self, key: str | tuple[str, ...]) -> Route:
        """The route of ``key`` (a path name or a hop tuple), kept under
        ``key`` until the topology changes."""
        hops = self._paths.get(key) if isinstance(key, str) else key
        if not hops:
            raise SimulationError("empty path" if hops is not None else f"unknown path {key!r}")
        nodes, links, owned = self._nodes, self._links, self._owned
        steps = []
        for index, name in enumerate(hops):
            latency_s, local = None, None
            if index + 1 < len(hops):
                following = hops[index + 1]
                link = links.get((name, following))
                latency_s = None if link is None else link.latency_s
                local = owned is None or following in owned
            steps.append((name, nodes.get(name), latency_s, local))
        route = self._routes[key] = Route(hops, tuple(steps))
        return route

    def inject(
        self,
        packet: Packet,
        path: str | Sequence[str],
        at_time: float,
        metrics: RunMetrics | None = None,
        on_done: Callable[[Packet], None] | None = None,
    ) -> None:
        """Send a packet along a path, starting at ``at_time``: the
        one-packet :meth:`inject_series`."""
        self.inject_series((packet,), [path], (at_time,), metrics, on_done)

    def inject_series(
        self,
        packets: Sequence[Packet],
        paths: str | tuple[str, ...] | list[str | Sequence[str]],
        times: Sequence[float],
        metrics: RunMetrics | None = None,
        on_done: Callable[[Packet], None] | None = None,
    ) -> None:
        """Send ``packets[i]`` along ``paths[i]`` (along ``paths`` when it
        is one route key for every packet: a path name or a hop tuple),
        starting at ``times[i]``.

        The packets whose first hop this network owns arrive as one
        :meth:`EventLoop.schedule_series`: the event keys of one
        ``schedule_at`` per packet in input order, with a packet's flight
        made when it arrives, and ``packets[i]`` read then. The others
        are handed off in input order. Every path is resolved and every
        arrival time checked before a packet is counted as sent."""
        if isinstance(paths, (str, tuple)):
            if len(packets):
                route = self._routes.get(paths) or self._resolve(paths)
                if self._owned is None or route.hops[0] in self._owned:
                    # Every packet from the first hop of one route, which
                    # this network owns: no per-packet list, so lazy
                    # columns stay lazy.
                    self._arrive(packets, route, (), times, metrics, on_done)
                    if metrics is not None:
                        metrics.record_sent(len(packets))
                    return
            paths = [paths] * len(packets)
        routes = self._routes_of(paths)
        count, owned, away = len(routes), self._owned, ()
        here = None if owned is None else [route.hops[0] in owned for route in routes]
        if here is not None and not all(here):
            away = [
                (packet, route.hops, at_time)
                for packet, route, at_time, local in zip(packets, routes, times, here)
                if not local
            ]
            packets, routes, times = (
                list(compress(items, here)) for items in (packets, routes, times)
            )
        self._arrive(packets, routes, [0] * len(routes), times, metrics, on_done)
        if metrics is not None:
            metrics.record_sent(count)
        for packet, hops, at_time in away:
            self.on_handoff(packet, hops, 0, at_time)

    def receive_series(
        self,
        packets: Sequence[Packet],
        hops: Sequence[Sequence[str]],
        indices: Sequence[int],
        times: Sequence[float],
        metrics: RunMetrics | None = None,
        on_done: Callable[[Packet], None] | None = None,
    ) -> None:
        """Accept handed-off packets, ``packets[i]`` at hop ``indices[i]``
        of ``hops[i]`` at its exact precomputed arrival time (the
        FlexScale shard runtime calls this with its handoff queue
        drained in canonical order, which is the input order here)."""
        self._arrive(packets, self._routes_of(hops), indices, times, metrics, on_done)

    def _routes_of(self, paths: Sequence[str | Sequence[str]]) -> list[Route]:
        """The route of each path (a path name or a hop list)."""
        routes = []
        for path in paths:
            key = path if isinstance(path, str) else tuple(path)
            routes.append(self._routes.get(key) or self._resolve(key))
        return routes

    def _arrive(
        self,
        packets: Sequence[Packet],
        routes: Route | Sequence[Route],
        indices: Sequence[int],
        times: Sequence[float],
        metrics: RunMetrics | None,
        on_done: Callable[[Packet], None] | None,
    ) -> None:
        """Schedule ``packets[i]``'s arrival at hop ``indices[i]`` of
        ``routes[i]`` (at the first hop of ``routes`` when it is one
        route) at ``times[i]``, as one series of the loop (a route is
        shared by every flight on its path: a flight only reads it)."""
        fly = self._schedule_arrival

        if isinstance(routes, Route):

            def arrival(index: int) -> None:
                fly(packets[index], routes, 0, metrics, on_done)

        else:

            def arrival(index: int) -> None:
                fly(packets[index], routes[index], indices[index], metrics, on_done)

        self.loop.schedule_series(times, arrival)

    def _schedule_arrival(
        self,
        packet: Packet,
        route: Route,
        index: int,
        metrics: RunMetrics | None,
        on_done: Callable[[Packet], None] | None,
    ) -> None:
        """Run the packet's arrival at hop ``index`` now and keep it in
        flight: one callable per packet, made here on its first arrival
        (not when it is injected), which runs an arrival, advances its
        own ``index`` along the route and re-schedules *itself* for the
        next hop (so a hop allocates nothing and costs one frame above
        the node). A next hop that would be the loop's next pop anyway
        (strictly earlier than the heap top, within the drain's end)
        runs inline in the same call, under the seq and the clock the
        pop would have given it, so a packet alone on the wire runs its
        whole path in one event. It drops its self-reference when it
        finishes or hands off, so the refcount frees it with the packet.
        Every variable it closes over is one more cell per packet for
        the cyclic GC to walk while the packet is in flight, so the route
        carries the hops and the loop is read off ``self`` per call. The
        perf ledger's trace probe (``perf/layers.py``) knows a pushed hop
        by this method's name; an inlined hop is part of the event that
        ran it."""

        def flight() -> None:
            nonlocal index, flight
            loop = self.loop
            heap = loop._heap  # noqa: SLF001 - the inline test reads the heap top
            while True:
                now = loop._now  # noqa: SLF001 - hot path (the ``now`` property is a frame)
                name, node, latency_s, local = route.steps[index]
                if node is None:
                    raise SimulationError(f"unknown node {name!r}")
                if not node.available(now):
                    packet.verdict = _LOST
                    break
                processing_s = node.process(packet, now)
                packet.path.append(name)
                # A program drop or queue overflow goes no further.
                if packet.verdict is not _FORWARD:
                    break
                if local is None:
                    packet.delivered_at = now + processing_s
                    break
                index += 1
                if latency_s is None:
                    raise SimulationError(f"no link {name!r} -> {route.hops[index]!r}")
                arrival = now + (processing_s + latency_s)
                if not local:
                    # Cross-shard handoff: ship the exact arrival
                    # timestamp the local schedule would have used.
                    flight = None
                    self.on_handoff(packet, route.hops, index, arrival)
                    return
                # A next hop that is the loop's next pop runs here, under
                # the seq and the clock the pop would have given it (see
                # the engine's ordering contract). The heap-top compare
                # goes first: it is the one a busy fabric fails.
                if (
                    (not heap or arrival < heap[0][0])
                    and arrival <= loop._end_time  # noqa: SLF001
                    and arrival >= now
                ):
                    loop._sequence += 1  # noqa: SLF001
                    loop._now = arrival  # noqa: SLF001
                    continue
                loop.schedule_at(arrival, flight)
                return
            flight = None
            self._finish(packet, metrics, on_done)

        flight()

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

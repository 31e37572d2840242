"""The controller's global topology view (§1, §3.4).

"The network is piloted by a central controller that maintains a global
view of the topology and traffic patterns, as well as the locations and
resource requirements of the network apps."

The view is an adjacency dict: each device maps its neighbours, in the
order their links were added, to the link latency. It answers the two
questions placement needs: *which path* connects two endpoints (the
least total latency, found by :func:`_least_latency_path`), and *what
slice* (ordered DeviceSpec list) lies along it. It also tracks mixed
deployments — runtime programmable, compile-time programmable, and
non-programmable elements — which §3.4 says network control must be
aware of.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import count

from repro.compiler.plan import DeviceSpec
from repro.compiler.placement import NetworkSlice
from repro.errors import UnknownDeviceError
from repro.targets.base import Target
from repro.targets.resources import ResourceVector


@dataclass
class DeviceInfo:
    name: str
    target: Target | None  # None == non-programmable element
    #: resources committed across all deployed datapaths.
    used: ResourceVector

    @property
    def programmable(self) -> bool:
        return self.target is not None

    @property
    def runtime_programmable(self) -> bool:
        return self.target is not None and self.target.reconfig.hitless


def _least_latency_path(
    adjacency: dict[str, dict[str, float]],
    source: str,
    target: str,
    avoid: set[str] | frozenset[str] = frozenset(),
) -> list[str] | None:
    """The least-latency path ``source`` -> ``target`` that enters no
    node of ``avoid``, or None when there is none.

    Bidirectional Dijkstra. Of several paths of equal cost it returns
    the one the reference search of ``tests/property/
    test_prop_topology.py`` returns, because it searches in the same
    order: the two directions take turns, forward first; each frontier
    pops by ``(distance, push counter)``; neighbours are relaxed in
    link-insertion order; and the meeting node is the first one whose
    two-sided distance is strictly the least seen. A frontier
    is a sorted list rather than a heap: it pops in the same order, and
    the event loop keeps the one heap in ``src/``.
    """
    if source == target:
        return [source]
    done = ({}, {})  # settled distance, per direction
    seen = ({source: 0}, {target: 0})  # best tentative distance
    preds = ({source: None}, {target: None})
    fringe = ([(0, 0, source)], [(0, 1, target)])
    ticket = count(2)
    best = meet = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, node = fringe[direction].pop(0)
        if node in done[direction]:
            continue
        done[direction][node] = dist
        if node in done[1 - direction]:
            return _walk(meet, preds[0])[::-1] + _walk(preds[1][meet], preds[1])
        for neighbour, latency in adjacency[node].items():
            if neighbour in avoid or neighbour in done[direction]:
                continue
            length = dist + latency
            if neighbour not in seen[direction] or length < seen[direction][neighbour]:
                seen[direction][neighbour] = length
                insort(fringe[direction], (length, next(ticket), neighbour))
                preds[direction][neighbour] = node
                if neighbour in seen[1 - direction]:
                    total = length + seen[1 - direction][neighbour]
                    if best is None or best > total:
                        best, meet = total, neighbour
    return None


def _walk(step: str | None, preds: dict) -> list[str]:
    hops = []
    while step is not None:
        hops.append(step)
        step = preds[step]
    return hops


class TopologyView:
    """Mutable global topology + resource ledger."""

    def __init__(self):
        #: device -> {neighbour: link latency}, neighbours in link order.
        self._adjacency: dict[str, dict[str, float]] = {}
        self._devices: dict[str, DeviceInfo] = {}
        self._revision = 0

    # -- construction ---------------------------------------------------------

    def add_device(self, name: str, target: Target | None) -> None:
        if name in self._devices:
            raise UnknownDeviceError(f"device {name!r} already exists")
        self._devices[name] = DeviceInfo(name=name, target=target, used=ResourceVector())
        self._adjacency[name] = {}
        self._revision += 1

    def add_link(self, a: str, b: str, latency_s: float = 1e-6) -> None:
        self.device(a)
        self.device(b)
        if latency_s < 0:
            raise ValueError(f"link {a!r} -- {b!r} has negative latency {latency_s}")
        self._adjacency[a][b] = latency_s
        self._adjacency[b][a] = latency_s
        self._revision += 1

    def remove_device(self, name: str) -> None:
        self.device(name)
        for neighbour in self._adjacency.pop(name):
            if neighbour != name:
                del self._adjacency[neighbour][name]
        del self._devices[name]
        self._revision += 1

    # -- queries --------------------------------------------------------------

    @property
    def revision(self) -> int:
        """Bumped by every change :meth:`slice_along` can see: a device
        added or removed, a link, a commit or a release."""
        return self._revision

    def device(self, name: str) -> DeviceInfo:
        if name not in self._devices:
            raise UnknownDeviceError(f"unknown device {name!r}")
        return self._devices[name]

    @property
    def runtime_programmable_devices(self) -> list[str]:
        return sorted(n for n, d in self._devices.items() if d.runtime_programmable)

    @property
    def legacy_devices(self) -> list[str]:
        """Compile-time-only or non-programmable elements in the mix."""
        return sorted(n for n, d in self._devices.items() if not d.runtime_programmable)

    def link_latency(self, a: str, b: str) -> float:
        neighbours = self._adjacency.get(a, {})
        if b not in neighbours:
            raise UnknownDeviceError(f"no link {a!r} -- {b!r}")
        return neighbours[b]

    def shortest_path(self, source: str, destination: str) -> list[str]:
        self.device(source)
        self.device(destination)
        path = _least_latency_path(self._adjacency, source, destination)
        if path is None:
            raise UnknownDeviceError(f"no path {source!r} -> {destination!r}")
        return path

    def path_avoiding(self, source: str, destination: str, avoid: set[str]) -> list[str]:
        """Shortest path that skips the ``avoid`` devices entirely —
        the health monitor's quarantine detour. Raises when no such
        route exists (the network stays degraded instead)."""
        self.device(source)
        self.device(destination)
        if source in avoid or destination in avoid:
            raise UnknownDeviceError(
                f"cannot route around an endpoint ({sorted(avoid & {source, destination})})"
            )
        path = _least_latency_path(self._adjacency, source, destination, avoid)
        if path is None:
            raise UnknownDeviceError(
                f"no path {source!r} -> {destination!r} avoiding {sorted(avoid)}"
            )
        return path

    def detour_path(self, source: str, destination: str, via: str) -> list[str]:
        """Shortest path forced through ``via`` (§3.3: "routing detours
        to a program component"). Raises if the two legs would revisit a
        node (loops are not routable)."""
        self.device(via)
        first_leg = self.shortest_path(source, via)
        second_leg = self.shortest_path(via, destination)
        revisited = (set(first_leg) & set(second_leg)) - {via}
        if revisited:
            raise UnknownDeviceError(
                f"detour via {via!r} revisits {sorted(revisited)}; no loop-free route"
            )
        return first_leg + second_leg[1:]

    # -- slices ----------------------------------------------------------------

    def slice_along(self, path: list[str]) -> NetworkSlice:
        """Build the compiler's NetworkSlice for a concrete path,
        skipping non-programmable hops (they forward but host nothing)."""
        specs: list[DeviceSpec] = []
        previous: str | None = None
        for name in path:
            info = self.device(name)
            if info.target is None:
                previous = name
                continue
            ingress = self.link_latency(previous, name) * 1e9 if previous is not None else 0.0
            specs.append(
                DeviceSpec(
                    name=name,
                    target=info.target,
                    used=info.used,
                    ingress_link_ns=ingress,
                )
            )
            previous = name
        return NetworkSlice(devices=specs)

    # -- resource ledger ---------------------------------------------------------

    def commit(self, device_name: str, demand: ResourceVector) -> None:
        info = self.device(device_name)
        info.used = info.used + demand
        self._revision += 1

    def release(self, device_name: str, demand: ResourceVector) -> None:
        info = self.device(device_name)
        info.used = info.used - demand
        self._revision += 1

    def utilization(self, device_name: str) -> float:
        info = self.device(device_name)
        if info.target is None:
            return 0.0
        return info.used.utilization_of(info.target.capacity)

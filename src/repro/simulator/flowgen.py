"""Deterministic traffic generation.

Workload generators for the benchmark harness: constant-rate flows,
Poisson arrivals, heavy-tailed flow mixes, SYN-flood attack ramps, and
Poisson tenant churn. All randomness flows through a seeded
``random.Random`` so every experiment is reproducible run-to-run.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, islice

from repro.simulator.packet import (
    STANDARD_CARRIED,
    Packet,
    make_packet,
    reserve_packet_ids,
    standard_headers,
)


#: the size :func:`make_packet` gives a packet.
_SIZE_BYTES = 256


@dataclass(frozen=True, slots=True)
class TimedPacket:
    time: float
    packet: Packet


#: the addresses of :func:`constant_rate`'s flow unless it is given others.
_RATE_SRC_IP, _RATE_DST_IP = 0x0A000001, 0x0A000002


def constant_rate(
    rate_pps: float,
    duration_s: float,
    src_ip: int = _RATE_SRC_IP,
    dst_ip: int = _RATE_DST_IP,
    start_s: float = 0.0,
    vlan_id: int = 0,
    dst_port: int = 80,
) -> Iterator[TimedPacket]:
    """One flow at a fixed packet rate."""
    for time in RateTimes(rate_pps, duration_s, start_s):
        yield TimedPacket(
            time=time,
            packet=make_packet(
                src_ip=src_ip,
                dst_ip=dst_ip,
                vlan_id=vlan_id,
                dst_port=dst_port,
                created_at=time,
            ),
        )


class RateTimes(Sequence[float]):
    """The send times of one flow at a fixed rate, computed when read:
    ``start_s + i * (1 / rate_pps)`` for ``0 <= i < int(duration_s *
    rate_pps)`` (none at a rate that is not positive)."""

    __slots__ = ("_start_s", "_interval", "_count")

    def __init__(self, rate_pps: float, duration_s: float, start_s: float = 0.0):
        positive = rate_pps > 0
        self._start_s = start_s
        self._interval = 1.0 / rate_pps if positive else 0.0
        self._count = max(int(duration_s * rate_pps), 0) if positive else 0

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> float:
        if not 0 <= index < self._count:
            raise IndexError(index)
        return self._start_s + index * self._interval

    def __iter__(self) -> Iterator[float]:
        start_s, interval = self._start_s, self._interval
        return (start_s + index * interval for index in range(self._count))


class Series(Sequence[TimedPacket]):
    """A workload as two columns: ``times[i]`` is when packet
    ``packets[i]`` is sent. Item ``i`` is ``TimedPacket(times[i],
    packets[i])``, so a series reads as the list of its items (``len``,
    negative indices, iteration). Every driver takes this one shape
    (:meth:`of` turns a list into it), and injects the columns as they
    are: a generated series builds each packet when it is read, so a run
    holds only the packets in flight."""

    __slots__ = ("times", "packets")

    def __init__(self, times: Sequence[float], packets: Sequence[Packet]):
        self.times = times
        self.packets = packets

    @classmethod
    def of(cls, workload: Sequence[TimedPacket]) -> "Series":
        """``workload`` itself if it is a series, else its two columns
        (the caller's own packets, read back as they are)."""
        if isinstance(workload, Series):
            return workload
        times, packets = [], []
        for timed in workload:  # read once: ``workload`` may be a generator
            times.append(timed.time)
            packets.append(timed.packet)
        return cls(times, packets)

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: int) -> TimedPacket:
        count = len(self.times)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(index)
        return TimedPacket(self.times[index], self.packets[index])

    def __iter__(self) -> Iterator[TimedPacket]:
        return map(TimedPacket, self.times, self.packets)


class ConstantRate(Series):
    """The items ``constant_rate(rate_pps, duration_s,
    start_s=start_s)`` would yield if drained now, as a series computed
    when read: ``times`` is its :class:`RateTimes`, and a read of
    ``packets[i]`` builds its ``i``-th packet, id included."""

    __slots__ = ()

    def __init__(self, rate_pps: float, duration_s: float, start_s: float = 0.0):
        times = RateTimes(rate_pps, duration_s, start_s)
        fields, meta = standard_headers(_RATE_SRC_IP, _RATE_DST_IP)
        template = (fields, meta, _SIZE_BYTES)
        super().__init__(times, _Copies(times, (template,), None, reserve_packet_ids(len(times))))


class PoissonFlows(Series):
    """``list(islice(poisson_flows(...), limit))`` taken now, as a
    series: the times and each packet's flow are drawn now (the same
    draws, kept as two arrays), and a read of ``packets[i]`` builds the
    ``i``-th packet from its flow's headers, id included."""

    __slots__ = ()

    def __init__(
        self,
        rate_pps: float,
        duration_s: float,
        flow_count: int,
        seed: int = 7,
        start_s: float = 0.0,
        limit: int | None = None,
    ):
        times, flows, templates = array("d"), array("L"), {}
        draws = _poisson_draws(rate_pps, duration_s, flow_count, seed, start_s)
        for time, flow in islice(draws, limit):
            times.append(time)
            flows.append(flow)
            if flow not in templates:
                fields, meta = _flow_headers(flow)
                templates[flow] = (fields, meta, _SIZE_BYTES)
        super().__init__(times, _Copies(times, templates, flows, reserve_packet_ids(len(times))))


class _Copies(Sequence[Packet]):
    """Packet ``i`` of a series, built when read: a copy of the headers
    of its flow's template (``templates[flows[i]]``; the one template
    when ``flows`` is None), created at ``times[i]``, with id ``first +
    i``. Each read builds a new packet. Every template holds
    :func:`standard_headers`, so every packet shares the one set of
    carried headers ``STANDARD_CARRIED``."""

    __slots__ = ("_times", "_templates", "_flows", "_first", "_count")

    def __init__(
        self,
        times: Sequence[float],
        templates,
        flows: Sequence[int] | None,
        first: int,
    ):
        self._times = times
        self._templates = templates
        self._flows = flows
        self._first = first
        self._count = len(times)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> Packet:
        if not 0 <= index < self._count:
            raise IndexError(index)
        flows = self._flows
        fields, meta, size_bytes = self._templates[0 if flows is None else flows[index]]
        return Packet(
            fields.copy(),
            meta.copy(),
            size_bytes,
            self._times[index],
            self._first + index,
            headers=STANDARD_CARRIED,
        )


def _poisson_draws(
    rate_pps: float, duration_s: float, flow_count: int, seed: int, start_s: float
) -> Iterator[tuple[float, int]]:
    """The ``(time, flow)`` of each arrival of :func:`poisson_flows`, in
    order, drawn from ``random.Random(seed)``.

    Flow popularity is Zipf-like (flow k gets weight 1/(k+1)), matching
    the heavy-tailed mixes datacenter monitoring literature assumes.
    Each flow is the one ``rng.choices(range(flow_count),
    weights=probabilities)[0]`` would draw, by the same arithmetic; the
    cumulative weights are summed once per stream, not once per packet.
    """
    rng = random.Random(seed)
    weights = [1.0 / (k + 1) for k in range(flow_count)]
    total_weight = sum(weights)
    probabilities = [w / total_weight for w in weights]
    cumulative = list(accumulate(probabilities))
    time = start_s
    while time < start_s + duration_s:
        time += rng.expovariate(rate_pps)
        if time >= start_s + duration_s:
            break
        yield time, bisect(cumulative, rng.random() * (cumulative[-1] + 0.0), 0, flow_count - 1)


#: the /8 every flow of :func:`poisson_flows` is addressed in.
_FLOW_SUBNET = 0x0A000000


def _flow_headers(flow: int):
    """The headers of every packet of flow ``flow`` of :func:`poisson_flows`."""
    return standard_headers(
        src_ip=_FLOW_SUBNET | (flow + 1), dst_ip=_FLOW_SUBNET | 0xFFFE, src_port=10000 + flow
    )


def poisson_flows(
    rate_pps: float,
    duration_s: float,
    flow_count: int,
    seed: int = 7,
    start_s: float = 0.0,
) -> Iterator[TimedPacket]:
    """Poisson packet arrivals spread over ``flow_count`` flows, with
    Zipf-like flow popularity (the draws of :func:`_poisson_draws`).
    :class:`PoissonFlows` is the same stream as a series."""
    for time, flow in _poisson_draws(rate_pps, duration_s, flow_count, seed, start_s):
        fields, meta = _flow_headers(flow)
        packet = Packet(fields, meta, created_at=time, headers=STANDARD_CARRIED)
        yield TimedPacket(time=time, packet=packet)


def syn_flood(
    peak_pps: float,
    ramp_s: float,
    hold_s: float,
    decay_s: float,
    victim_ip: int = 0x0A0000FE,
    seed: int = 13,
    start_s: float = 0.0,
) -> Iterator[TimedPacket]:
    """A SYN-flood attack: rate ramps linearly to ``peak_pps``, holds,
    then decays. Sources are spoofed uniformly at random (the classic
    pattern a runtime-injected defense must fingerprint)."""
    rng = random.Random(seed)
    time = start_s
    end = start_s + ramp_s + hold_s + decay_s

    def rate_at(t: float) -> float:
        offset = t - start_s
        if offset < ramp_s:
            return peak_pps * (offset / max(ramp_s, 1e-9))
        if offset < ramp_s + hold_s:
            return peak_pps
        remaining = end - t
        return peak_pps * (remaining / max(decay_s, 1e-9))

    while time < end:
        # Floor the instantaneous rate so the ramp's first packets appear
        # promptly even for short attacks (2% of peak, at least 1 pps).
        rate = max(rate_at(time), peak_pps * 0.02, 1.0)
        time += rng.expovariate(rate)
        if time >= end:
            break
        yield TimedPacket(
            time=time,
            packet=make_packet(
                src_ip=rng.randrange(1, 1 << 32),
                dst_ip=victim_ip,
                src_port=rng.randrange(1024, 65535),
                dst_port=80,
                tcp_flags=0x02,  # SYN
                created_at=time,
            ),
        )


@dataclass(frozen=True)
class TenantEvent:
    time: float
    kind: str  # "arrive" | "depart"
    tenant: str


def tenant_churn(
    arrival_rate_per_s: float,
    mean_lifetime_s: float,
    duration_s: float,
    seed: int = 23,
) -> list[TenantEvent]:
    """Poisson tenant arrivals with exponential lifetimes (E12 workload)."""
    rng = random.Random(seed)
    events: list[TenantEvent] = []
    time = 0.0
    index = 0
    while True:
        time += rng.expovariate(arrival_rate_per_s)
        if time >= duration_s:
            break
        index += 1
        name = f"tenant{index}"
        events.append(TenantEvent(time=time, kind="arrive", tenant=name))
        departure = time + rng.expovariate(1.0 / mean_lifetime_s)
        if departure < duration_s:
            events.append(TenantEvent(time=departure, kind="depart", tenant=name))
    events.sort(key=lambda e: (e.time, e.kind == "depart"))
    return events


def merge_streams(*streams: Iterator[TimedPacket]) -> list[TimedPacket]:
    """Merge generators into one time-sorted list."""
    merged = [item for stream in streams for item in stream]
    merged.sort(key=lambda tp: tp.time)
    return merged

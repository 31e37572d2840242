"""Deterministic traffic generation.

Workload generators for the benchmark harness: constant-rate flows,
Poisson arrivals, heavy-tailed flow mixes, SYN-flood attack ramps, and
Poisson tenant churn. All randomness flows through a seeded
``random.Random`` so every experiment is reproducible run-to-run.
"""

from __future__ import annotations

import random
from bisect import bisect
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate

from repro.simulator.packet import Packet, make_packet, reserve_packet_ids


@dataclass(frozen=True, slots=True)
class TimedPacket:
    time: float
    packet: Packet


def constant_rate(
    rate_pps: float,
    duration_s: float,
    src_ip: int = 0x0A000001,
    dst_ip: int = 0x0A000002,
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


class ConstantRate:
    """``list(constant_rate(rate_pps, duration_s, start_s=start_s))``
    taken now, as two columns computed when read: ``times[i]`` and
    ``packets[i]`` are its ``i``-th time and packet, ids included, and a
    read of ``packets[i]`` builds the packet. A run that injects it
    holds only the packets in flight."""

    def __init__(self, rate_pps: float, duration_s: float, start_s: float = 0.0):
        self.times = RateTimes(rate_pps, duration_s, start_s)
        # The first item, taken now, takes the first id of the block;
        # the rest of the block is set aside with it.
        first = next(constant_rate(rate_pps, duration_s, start_s=start_s), None)
        if first is not None:
            reserve_packet_ids(len(self.times) - 1)
        self.packets = _Copies(self.times, first.packet if first is not None else None)


class _Copies(Sequence[Packet]):
    """Packet ``i`` of one flow at ``times``, built when read: the
    headers of ``template``, created at ``times[i]``, with the ``i``-th
    id counted from the template's."""

    __slots__ = ("_times", "_template")

    def __init__(self, times: RateTimes, template: Packet | None):
        self._times = times
        self._template = template

    def __len__(self) -> int:
        return len(self._times)

    def __getitem__(self, index: int) -> Packet:
        time = self._times[index]
        template = self._template
        return Packet(
            fields=dict(template.fields),
            meta=dict(template.meta),
            size_bytes=template.size_bytes,
            created_at=time,
            packet_id=template.packet_id + index,
        )


def poisson_flows(
    rate_pps: float,
    duration_s: float,
    flow_count: int,
    seed: int = 7,
    start_s: float = 0.0,
    vlan_id: int = 0,
    subnet: int = 0x0A000000,
) -> Iterator[TimedPacket]:
    """Poisson packet arrivals spread over ``flow_count`` flows.

    Flow popularity is Zipf-like (flow k gets weight 1/(k+1)), matching
    the heavy-tailed mixes datacenter monitoring literature assumes.
    Each packet's flow is the one ``rng.choices(range(flow_count),
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
        flow = bisect(cumulative, rng.random() * (cumulative[-1] + 0.0), 0, flow_count - 1)
        yield TimedPacket(
            time=time,
            packet=make_packet(
                src_ip=subnet | (flow + 1),
                dst_ip=subnet | 0xFFFE,
                src_port=10000 + flow,
                vlan_id=vlan_id,
                created_at=time,
            ),
        )


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

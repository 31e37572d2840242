"""Consistency checking and levels for runtime updates (§3.4).

The paper requires "application-level, consistent packet processing,
which goes beyond controlling the order of rule updates", with "varied
levels of consistency guarantees". We model three levels:

* ``PER_PACKET_PER_DEVICE`` — every packet is processed by exactly one
  program version *on each device* (the guarantee runtime programmable
  switches provide natively; §2).
* ``PER_PACKET_PATH`` — every packet additionally sees the *same*
  version on every device of its path (needs controller sequencing:
  update devices in reverse path order or tag packets with epochs).
* ``PER_FLOW`` — all packets of one flow see one version (needs
  flow-affine cut-over).

Checkers consume delivered packets and report violations; the scheduler
in :mod:`repro.control.scheduler` is responsible for orchestrating
device updates so the requested level actually holds.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from repro.simulator.packet import FiveTuple, Packet


class ConsistencyLevel(enum.Enum):
    PER_PACKET_PER_DEVICE = "per_packet_per_device"
    PER_PACKET_PATH = "per_packet_path"
    PER_FLOW = "per_flow"


# Module constants: an enum member read goes through the enum
# metaclass (CPython 3.11); the report reads one per packet.
_PER_PACKET_PER_DEVICE = ConsistencyLevel.PER_PACKET_PER_DEVICE
_PER_FLOW = ConsistencyLevel.PER_FLOW


@dataclass
class ConsistencyReport:
    level: ConsistencyLevel
    packets_checked: int = 0
    violations: int = 0
    #: example packet ids for the first few violations (diagnostics).
    examples: list[int] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.violations == 0


class ConsistencyChecker:
    """Accumulates delivered packets and verifies a consistency level.

    A device that was *not* updated during the run trivially reports a
    single version; the interesting signal is packets that crossed a
    transition window.
    """

    def __init__(self, level: ConsistencyLevel, devices_in_update: set[str] | None = None):
        self.level = level
        #: restrict path/flow checks to devices actually being updated;
        #: None means every device on the packet's path.
        self._scope = devices_in_update
        self._packets: list[Packet] = []

    def observe(self, packet: Packet) -> None:
        self._packets.append(packet)

    def _scoped_versions(self, packet: Packet) -> list[int]:
        return [
            version
            for device, version in packet.versions_seen.items()
            if self._scope is None or device in self._scope
        ]

    def report(self) -> ConsistencyReport:
        result = ConsistencyReport(level=self.level)
        if self.level is _PER_FLOW:
            return self._per_flow_report(result)
        for packet in self._packets:
            result.packets_checked += 1
            versions = self._scoped_versions(packet)
            if not versions:
                continue
            if self.level is _PER_PACKET_PER_DEVICE:
                # versions_seen maps device -> one version by construction;
                # a violation would require a device to record two versions
                # for one packet, which the runtime cannot produce unless
                # a partially-applied program leaked through. We verify the
                # invariant holds structurally.
                continue
            if len(set(versions)) > 1:
                result.violations += 1
                if len(result.examples) < 5:
                    result.examples.append(packet.packet_id)
        return result

    def _per_flow_report(self, result: ConsistencyReport) -> ConsistencyReport:
        """Per-flow consistency: each flow crosses the update exactly once
        — its version sequence (in delivery order) must be monotone
        non-decreasing, and each individual packet must be path-consistent.
        A flow that flaps old -> new -> old saw an inconsistent cut-over.
        """
        flow_sequences: dict[FiveTuple, list[int]] = defaultdict(list)
        flow_example: dict[FiveTuple, int] = {}
        for packet in self._packets:
            result.packets_checked += 1
            versions = self._scoped_versions(packet)
            if not versions:
                continue
            flow = FiveTuple.of(packet)
            if len(set(versions)) > 1:
                # mixed versions within one packet: immediate violation
                result.violations += 1
                if len(result.examples) < 5:
                    result.examples.append(packet.packet_id)
                continue
            flow_sequences[flow].append(versions[0])
            flow_example.setdefault(flow, packet.packet_id)
        for flow, sequence in flow_sequences.items():
            if sequence != sorted(sequence):
                result.violations += 1
                if len(result.examples) < 5:
                    result.examples.append(flow_example[flow])
        return result


def version_split(packets: list[Packet], device: str) -> dict[int, int]:
    """How many packets each program version processed on ``device`` —
    the old/new split the §2 transition-window claim is about."""
    split: dict[int, int] = {}
    for packet in packets:
        version = packet.versions_seen.get(device)
        if version is not None:
            split[version] = split.get(version, 0) + 1
    return split

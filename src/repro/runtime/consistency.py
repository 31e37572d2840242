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

Checkers fold each delivered packet into a verdict as it arrives and
report violations; the scheduler in :mod:`repro.control.scheduler` is
responsible for orchestrating device updates so the requested level
actually holds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.simulator.packet import FiveTuple, Packet


class ConsistencyLevel(enum.Enum):
    PER_PACKET_PER_DEVICE = "per_packet_per_device"
    PER_PACKET_PATH = "per_packet_path"
    PER_FLOW = "per_flow"


# Module constants: an enum member read goes through the enum
# metaclass (CPython 3.11); ``observe`` reads one per packet.
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
    """Verifies a consistency level over delivered packets by folding
    each one into the verdict as it is delivered: the checker keeps
    counts, the first few example ids and, for ``PER_FLOW``, one small
    record per flow, never the packets themselves.

    A device that was *not* updated during the run trivially reports a
    single version; the interesting signal is packets that crossed a
    transition window.
    """

    def __init__(self, level: ConsistencyLevel, devices_in_update: set[str] | None = None):
        self.level = level
        #: restrict path/flow checks to devices actually being updated;
        #: None means every device on the packet's path.
        self._scope = devices_in_update
        self._checked = 0
        #: packets that saw more than one version in scope, and the ids
        #: of the first five of them in delivery order.
        self._mixed = 0
        self._mixed_examples: list[int] = []
        #: ``PER_FLOW``: flow -> ``[last version, went backwards, id of
        #: its first single-version packet]``, in order of that packet.
        self._flows: dict[FiveTuple, list] = {}

    def observe(self, packet: Packet) -> None:
        """Fold one delivered packet into the verdict."""
        self._checked += 1
        if self.level is _PER_PACKET_PER_DEVICE:
            # versions_seen maps device -> one version by construction;
            # a violation would require a device to record two versions
            # for one packet, which the runtime cannot produce unless
            # a partially-applied program leaked through. We verify the
            # invariant holds structurally.
            return
        scope = self._scope
        versions = {
            version
            for device, version in packet.versions_seen.items()
            if scope is None or device in scope
        }
        if len(versions) > 1:
            self._mixed += 1
            if len(self._mixed_examples) < 5:
                self._mixed_examples.append(packet.packet_id)
        elif versions and self.level is _PER_FLOW:
            # Per-flow consistency: each flow crosses the update exactly
            # once, so its versions in delivery order never go down; a
            # flow that flaps old -> new -> old saw an inconsistent
            # cut-over.
            (version,) = versions
            flow = FiveTuple.of(packet)
            state = self._flows.get(flow)
            if state is None:
                self._flows[flow] = [version, False, packet.packet_id]
            else:
                if version < state[0]:
                    state[1] = True
                state[0] = version

    def report(self) -> ConsistencyReport:
        """The verdict so far: every packet with mixed versions is one
        violation, and so (``PER_FLOW``) is every flow whose versions
        went backwards. The examples are the first mixed packets, then
        each such flow's first packet, five at most."""
        backwards = [first for _, went_back, first in self._flows.values() if went_back]
        examples = (self._mixed_examples + backwards)[:5]
        return ConsistencyReport(
            level=self.level,
            packets_checked=self._checked,
            violations=self._mixed + len(backwards),
            examples=examples,
        )


def version_split(packets: list[Packet], device: str) -> dict[int, int]:
    """How many packets each program version processed on ``device`` —
    the old/new split the §2 transition-window claim is about."""
    split: dict[int, int] = {}
    for packet in packets:
        version = packet.versions_seen.get(device)
        if version is not None:
            split[version] = split.get(version, 0) + 1
    return split

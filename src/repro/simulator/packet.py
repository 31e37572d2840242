"""Packets and flows for the simulated data plane.

A :class:`Packet` carries header fields as a ``(header, field) -> int``
mapping plus a metadata dict mirroring the datapath metadata FlexBPF
exposes (``ingress_port``, ``vlan_id``, ``drop_flag``...). Packets also
record which program version processed them on each device — the raw
material for the paper's per-packet consistency check ("packets are
either processed by the new program or old one in a consistent
manner").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Packet ids are namespaced: the low bits hold a process-local counter
#: and the bits at and above this shift hold the allocating shard's id.
#: Namespace 0 is the single-process / coordinator namespace; a
#: FlexScale shard worker allocates in its own namespace, so ids are
#: deterministic regardless of how shard execution interleaves and can
#: never collide with coordinator-generated ids.
PACKET_ID_SHARD_SHIFT = 48


class _PacketIdCounter:
    """``itertools.count`` with inspectable/settable state, so FlexMend
    checkpoints can capture the allocator and a restarted shard worker
    resumes id allocation exactly where the dead one left off."""

    __slots__ = ("next_id",)

    def __init__(self, start: int):
        self.next_id = start

    def __next__(self) -> int:
        value = self.next_id
        self.next_id = value + 1
        return value


_packet_ids = _PacketIdCounter(1)


def packet_id_state() -> int:
    """The next packet id this process would allocate (checkpointable)."""
    return _packet_ids.next_id


def set_packet_id_state(next_id: int) -> None:
    """Resume allocation at ``next_id`` (FlexMend shard restore)."""
    _packet_ids.next_id = next_id


def reset_packet_ids(shard: int = 0) -> None:
    """Restart the packet id counter in the given shard namespace.

    Packet ids feed the deterministic cut-over hash that splits traffic
    between program versions inside a transition window, so seeded
    scenario runners (:func:`repro.faults.chaos.run_chaos`) restart the
    counter up front — two same-seed runs then draw identical version
    choices even within one process.

    ``shard`` selects the allocation namespace: ids become
    ``(shard << PACKET_ID_SHARD_SHIFT) + local_counter`` with the local
    counter restarting at 1. FlexScale workers call this with their own
    shard namespace on startup, so a packet allocated *inside* a shard
    gets an id that depends only on the shard and its local allocation
    order — never on cross-shard interleaving. Ids stay unique within a
    run, which is all any consumer relies on.
    """
    if shard < 0:
        raise ValueError(f"shard namespace must be >= 0, got {shard}")
    _packet_ids.next_id = (shard << PACKET_ID_SHARD_SHIFT) + 1


class Verdict(enum.Enum):
    FORWARD = "forward"
    DROP = "drop"  # program decision (e.g. ACL deny)
    LOST = "lost"  # infrastructure loss (drain, queue overflow)


@dataclass
class Packet:
    """One simulated packet."""

    fields: dict[tuple[str, str], int]
    meta: dict[str, int] = field(default_factory=dict)
    size_bytes: int = 256
    created_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: device name -> program version that processed this packet there.
    versions_seen: dict[str, int] = field(default_factory=dict)
    #: device names traversed, in order.
    path: list[str] = field(default_factory=list)
    verdict: Verdict = Verdict.FORWARD
    delivered_at: float | None = None
    #: digests emitted toward the controller while processing.
    digests: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)

    def get_field(self, header: str, field_name: str) -> int:
        return self.fields.get((header, field_name), 0)

    def set_field(self, header: str, field_name: str, value: int) -> None:
        self.fields[(header, field_name)] = value

    def has_header(self, header: str) -> bool:
        for key in self.fields:
            if key[0] == header:
                return True
        return False

    @property
    def dropped(self) -> bool:
        return self.verdict is not Verdict.FORWARD

    @property
    def latency_s(self) -> float | None:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.created_at


def make_packet(
    src_ip: int,
    dst_ip: int,
    proto: int = 6,
    src_port: int = 12345,
    dst_port: int = 80,
    vlan_id: int = 0,
    size_bytes: int = 256,
    created_at: float = 0.0,
    ttl: int = 64,
    tcp_flags: int = 0x10,
) -> Packet:
    """Build a standard ethernet/ipv4/tcp packet matching the header
    layouts used throughout the library's example programs."""
    fields = {
        ("ethernet", "dst"): 0x0000AABBCCDD,
        ("ethernet", "src"): 0x0000DDCCBBAA,
        ("ethernet", "ethertype"): 0x0800,
        ("ipv4", "src"): src_ip,
        ("ipv4", "dst"): dst_ip,
        ("ipv4", "proto"): proto,
        ("ipv4", "ttl"): ttl,
        ("tcp", "sport"): src_port,
        ("tcp", "dport"): dst_port,
        ("tcp", "flags"): tcp_flags,
    }
    meta = {"vlan_id": vlan_id, "ingress_port": 0, "drop_flag": 0, "egress_port": 0}
    return Packet(fields=fields, meta=meta, size_bytes=size_bytes, created_at=created_at)


@dataclass(frozen=True)
class FiveTuple:
    src_ip: int
    dst_ip: int
    proto: int
    src_port: int
    dst_port: int

    @classmethod
    def of(cls, packet: Packet) -> "FiveTuple":
        return cls(
            src_ip=packet.get_field("ipv4", "src"),
            dst_ip=packet.get_field("ipv4", "dst"),
            proto=packet.get_field("ipv4", "proto"),
            src_port=packet.get_field("tcp", "sport"),
            dst_port=packet.get_field("tcp", "dport"),
        )

"""Packets and flows for the simulated data plane.

A :class:`Packet` carries header fields as a ``(header, field) -> int``
mapping, the set of headers it carries (P4's validity bits), and a
metadata dict mirroring the datapath metadata FlexBPF exposes
(``ingress_port``, ``vlan_id``, ``drop_flag``...). Packets also
record which program version processed them on each device — the raw
material for the paper's per-packet consistency check ("packets are
either processed by the new program or old one in a consistent
manner").
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

#: Packet ids are namespaced: the low bits hold a process-local counter
#: and the bits at and above this shift hold the allocating shard's id.
#: Namespace 0 is the single-process / coordinator namespace; a
#: FlexScale shard worker allocates in its own namespace, so ids are
#: deterministic regardless of how shard execution interleaves and can
#: never collide with coordinator-generated ids.
PACKET_ID_SHARD_SHIFT = 48


_packet_ids = itertools.count(1)


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
    global _packet_ids
    if shard < 0:
        raise ValueError(f"shard namespace must be >= 0, got {shard}")
    _packet_ids = itertools.count((shard << PACKET_ID_SHARD_SHIFT) + 1)


def reserve_packet_ids(count: int) -> int:
    """Set the next ``count`` packet ids aside, for a stream that builds
    its packets only when they are sent: they get the ids they would
    have got had they all been built now, whatever else takes ids
    meanwhile. Returns the first id of the block."""
    global _packet_ids
    first = next(_packet_ids)
    _packet_ids = itertools.count(first + count)
    return first


def carried_headers(fields: dict[tuple[str, str], int]) -> frozenset[str]:
    """The headers ``fields`` holds a field of: a packet's validity bits.
    The one place they are derived from the field dict."""
    return frozenset([key[0] for key in fields])


class Verdict(enum.Enum):
    FORWARD = "forward"
    DROP = "drop"  # program decision (e.g. ACL deny)
    LOST = "lost"  # infrastructure loss (drain, queue overflow)


_FORWARD = Verdict.FORWARD


class Packet:
    """One simulated packet (a slotted record: no per-instance dict).

    ``headers`` is the frozenset of headers the packet carries, P4's
    validity bits: every parse, compiled or interpreted, and the
    pass-through lane read header presence from it and never rescan
    ``fields``. It is derived from ``fields`` when the packet is built
    (a packet built from :func:`standard_headers`, by :func:`make_packet`
    or a generated series, shares the one set ``STANDARD_CARRIED``), and
    it never goes stale: assigning ``fields``
    derives it again, and :meth:`set_field` of a header the packet
    lacks adds it, as P4's ``setValid`` does. A
    program cannot add a header: the interpreter and the generated
    function ignore a write to a header the parse did not find. Adding
    a key of a new header to the ``fields`` dict in place bypasses the
    set, so code outside a program adds one through :meth:`set_field`.
    Equality and ``repr`` leave ``headers`` out: ``fields`` decides it.
    """

    __slots__ = (
        "_fields",
        "headers",
        "meta",
        "size_bytes",
        "created_at",
        "packet_id",
        "versions_seen",
        "path",
        "verdict",
        "delivered_at",
        "digests",
    )

    def __init__(
        self,
        fields: dict[tuple[str, str], int],
        meta: dict[str, int] | None = None,
        size_bytes: int = 256,
        created_at: float = 0.0,
        packet_id: int | None = None,
        *,
        headers: frozenset[str] | None = None,
    ):
        self._fields = fields
        self.headers = carried_headers(fields) if headers is None else headers
        self.meta = {} if meta is None else meta
        self.size_bytes = size_bytes
        self.created_at = created_at
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        #: device name -> program version that processed this packet there.
        self.versions_seen: dict[str, int] = {}
        #: device names traversed, in order.
        self.path: list[str] = []
        self.verdict = _FORWARD
        self.delivered_at: float | None = None
        #: digests emitted toward the controller while processing.
        self.digests: list[tuple[str, tuple[int, ...]]] = []

    @property
    def fields(self) -> dict[tuple[str, str], int]:
        return self._fields

    @fields.setter
    def fields(self, fields: dict[tuple[str, str], int]) -> None:
        self._fields = fields
        self.headers = carried_headers(fields)

    def _values(self) -> tuple:
        return (
            self._fields,
            self.meta,
            self.size_bytes,
            self.created_at,
            self.packet_id,
            self.versions_seen,
            self.path,
            self.verdict,
            self.delivered_at,
            self.digests,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        names = ("fields", *self.__slots__[2:])
        return "Packet(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, self._values())
        ) + ")"

    def get_field(self, header: str, field_name: str) -> int:
        return self._fields.get((header, field_name), 0)

    def set_field(self, header: str, field_name: str, value: int) -> None:
        self._fields[(header, field_name)] = value
        if header not in self.headers:
            self.headers = self.headers | {header}

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
    created_at: float = 0.0,
    ttl: int = 64,
    tcp_flags: int = 0x10,
) -> Packet:
    """Build a standard ethernet/ipv4/tcp packet matching the header
    layouts used throughout the library's example programs."""
    fields, meta = standard_headers(
        src_ip, dst_ip, proto, src_port, dst_port, vlan_id, ttl, tcp_flags
    )
    return Packet(fields, meta, created_at=created_at, headers=STANDARD_CARRIED)


def standard_headers(
    src_ip: int,
    dst_ip: int,
    proto: int = 6,
    src_port: int = 12345,
    dst_port: int = 80,
    vlan_id: int = 0,
    ttl: int = 64,
    tcp_flags: int = 0x10,
) -> tuple[dict[tuple[str, str], int], dict[str, int]]:
    """The header fields and metadata :func:`make_packet` gives a packet,
    without taking a packet id."""
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
    return fields, meta


#: the headers :func:`standard_headers` gives every packet, derived once
#: and shared by every packet built from them.
STANDARD_CARRIED = carried_headers(standard_headers(0, 0)[0])


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

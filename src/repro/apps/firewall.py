"""A stateful firewall, deployable at runtime (§1.1 "Real-time security").

Two pieces:

* :func:`firewall_delta` — a delta injecting a connection-tracking map
  and a block table in front of the base program's ACL. Outbound
  packets (from the protected prefix) register the connection; inbound
  packets without a registered connection hit the block table.
* :class:`FirewallManager` — the control-side helper that installs and
  removes block rules through P4Runtime and reads hit counters.
"""

from __future__ import annotations

from repro.control.p4runtime import P4RuntimeClient, TableEntry
from repro.lang import builder as b
from repro.lang.delta import AddFunction, AddMap, AddTable, AddAction, Delta, InsertApply
from repro.lang.ir import MatchKind, TableKey
from repro.lang import ir
from repro.simulator.tables import ternary


#: the prefix the firewall protects (10.0.0.0/8), as address and mask.
_PROTECTED_PREFIX, _PREFIX_MASK = 0x0A000000, 0xFF000000
#: entries of the connection tracker ``fw_conns`` and rules of ``fw_block``.
_CONN_ENTRIES, _BLOCK_SIZE = 16384, 1024


def firewall_delta() -> Delta:
    """Build the runtime firewall injection delta.

    The connection tracker is keyed by (src, dst); outbound traffic from
    the protected prefix registers (dst, src) so return traffic passes.
    Unsolicited inbound traffic to the protected prefix consults the
    ``fw_block`` table (operator-managed block rules).
    """
    from repro.lang.types import BitsType

    conn_map = ir.MapDef(
        name="fw_conns",
        key_fields=(b.field("ipv4.src"), b.field("ipv4.dst")),
        value_type=BitsType(8),
        max_entries=_CONN_ENTRIES,
    )
    track = ir.FunctionDef(
        name="fw_track",
        body=(
            b.if_(
                b.binop(
                    "==",
                    b.binop("&", "ipv4.src", _PREFIX_MASK),
                    _PROTECTED_PREFIX,
                ),
                # Outbound: register the reverse flow.
                [b.map_put("fw_conns", "ipv4.dst", "ipv4.src", 1)],
                # Inbound: drop unsolicited traffic to the protected prefix.
                [
                    b.if_(
                        b.binop(
                            "&&",
                            b.binop(
                                "==",
                                b.binop("&", "ipv4.dst", _PREFIX_MASK),
                                _PROTECTED_PREFIX,
                            ),
                            b.binop(
                                "==", b.map_get("fw_conns", "ipv4.src", "ipv4.dst"), 0
                            ),
                        ),
                        [b.call("mark_drop")],
                    )
                ],
            ),
        ),
    )
    block_drop = ir.ActionDef(name="fw_drop", params=(), body=(b.call("mark_drop"),))
    block = ir.TableDef(
        name="fw_block",
        keys=(
            TableKey(field=b.field("ipv4.src"), match_kind=MatchKind.TERNARY),
            TableKey(field=b.field("ipv4.dst"), match_kind=MatchKind.TERNARY),
        ),
        actions=("fw_drop", "nop"),
        size=_BLOCK_SIZE,
        default_action=ir.ActionCall(action="nop"),
    )
    return Delta(
        name="firewall",
        ops=(
            AddMap(conn_map),
            AddAction(block_drop),
            AddFunction(track),
            AddTable(block),
            InsertApply(element="fw_block", position="before", anchor="acl"),
            InsertApply(element="fw_track", position="after", anchor="fw_block"),
        ),
    )


class FirewallManager:
    """Element-level management of the deployed firewall."""

    def __init__(self, client: P4RuntimeClient):
        self._client = client

    def block_source(self, src_ip: int) -> TableEntry:
        entry = TableEntry(
            table="fw_block",
            matches=(ternary(src_ip, 0xFFFFFFFF), ternary(0, 0)),
            action="fw_drop",
            priority=10,
        )
        self._client.insert_entry(entry)
        return entry

    def block_pair(self, src_ip: int, dst_ip: int) -> TableEntry:
        entry = TableEntry(
            table="fw_block",
            matches=(ternary(src_ip, 0xFFFFFFFF), ternary(dst_ip, 0xFFFFFFFF)),
            action="fw_drop",
            priority=20,
        )
        self._client.insert_entry(entry)
        return entry

    def unblock(self, entry: TableEntry) -> bool:
        return self._client.delete_entry(entry)

    def blocked_count(self) -> int:
        hits, _ = self._client.read_counters("fw_block")
        return sum(hits)

    def tracked_connections(self) -> int:
        return len(self._client.read_map("fw_conns"))

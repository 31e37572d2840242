"""Runtime-deployable NAT (address translation at the edge).

A tenant-flavoured example app: translates a private prefix to a public
address on egress using a rewrite table, and maintains the reverse
mapping for ingress. Demonstrates header rewriting through table
actions populated at runtime.
"""

from __future__ import annotations

from repro.control.p4runtime import P4RuntimeClient, TableEntry
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import AddAction, AddTable, Delta, InsertApply
from repro.lang.types import BitsType
from repro.simulator.tables import exact


def nat_delta(size: int = 2048) -> Delta:
    """Inject NAT rewrite tables (egress snat + ingress dnat)."""
    snat = ir.ActionDef(
        name="nat_rewrite_src",
        params=(("addr", BitsType(32)),),
        body=(b.assign("ipv4.src", b.expr("addr")),),
    )
    dnat = ir.ActionDef(
        name="nat_rewrite_dst",
        params=(("addr", BitsType(32)),),
        body=(b.assign("ipv4.dst", b.expr("addr")),),
    )
    egress = ir.TableDef(
        name="nat_egress",
        keys=(ir.TableKey(field=b.field("ipv4.src"), match_kind=ir.MatchKind.EXACT),),
        actions=("nat_rewrite_src", "nop"),
        size=size,
        default_action=ir.ActionCall(action="nop"),
    )
    ingress = ir.TableDef(
        name="nat_ingress",
        keys=(ir.TableKey(field=b.field("ipv4.dst"), match_kind=ir.MatchKind.EXACT),),
        actions=("nat_rewrite_dst", "nop"),
        size=size,
        default_action=ir.ActionCall(action="nop"),
    )
    return Delta(
        name="nat",
        ops=(
            AddAction(snat),
            AddAction(dnat),
            AddTable(ingress),
            AddTable(egress),
            InsertApply(element="nat_ingress"),
            InsertApply(element="nat_egress", position="after", anchor="nat_ingress"),
        ),
    )


class NatManager:
    """Bindings management: private <-> public address pairs."""

    def __init__(self, client: P4RuntimeClient):
        self._client = client
        self._bindings: dict[int, int] = {}

    def bind(self, private_ip: int, public_ip: int) -> None:
        self._client.insert_entry(
            TableEntry(
                table="nat_egress",
                matches=(exact(private_ip),),
                action="nat_rewrite_src",
                action_args=(public_ip,),
            )
        )
        self._client.insert_entry(
            TableEntry(
                table="nat_ingress",
                matches=(exact(public_ip),),
                action="nat_rewrite_dst",
                action_args=(private_ip,),
            )
        )
        self._bindings[private_ip] = public_ip

    @property
    def bindings(self) -> dict[int, int]:
        return dict(self._bindings)

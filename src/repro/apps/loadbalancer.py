"""A HULA-style load balancer deployable at runtime (§1.1 cites [38]).

Flowlet-free simplification: ECMP over ``path_count`` next hops by
five-tuple hash, with per-path utilization counters the controller can
read to rebalance (shifting the path weights is a runtime delta, not a
reflash).
"""

from __future__ import annotations

from repro.control.p4runtime import P4RuntimeClient, TableEntry
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import AddAction, AddFunction, AddMap, AddTable, Delta, InsertApply
from repro.lang.types import BitsType
from repro.simulator.tables import exact


def load_balancer_delta(path_count: int = 4) -> Delta:
    """Inject hash-based path selection plus per-path load counters.

    The selector function computes ``meta.lb_bucket``; the ``lb_paths``
    table maps bucket -> egress port (populated by the controller, so
    rebalancing is pure rule churn)."""
    if path_count < 1:
        raise ValueError("need at least one path")
    load_map = ir.MapDef(
        name="lb_load",
        key_fields=(b.field("ipv4.dst"),),  # placement key; indexed by bucket
        value_type=BitsType(64),
        max_entries=max(path_count * 4, 64),
    )
    selector = ir.FunctionDef(
        name="lb_select",
        body=(
            b.let(
                "bucket",
                "u32",
                b.hash_of(
                    "ipv4.src", "ipv4.dst", "tcp.sport", "tcp.dport", modulus=path_count
                ),
            ),
            b.assign("meta.lb_bucket", "bucket"),
            b.map_put(
                "lb_load", "bucket", b.binop("+", b.map_get("lb_load", "bucket"), 1)
            ),
        ),
    )
    set_path = ir.ActionDef(
        name="lb_set_path",
        params=(("port", BitsType(16)),),
        body=(b.call("set_port", "port"),),
    )
    paths = ir.TableDef(
        name="lb_paths",
        keys=(ir.TableKey(field=b.field("ipv4.dst"), match_kind=ir.MatchKind.EXACT),),
        actions=("lb_set_path", "nop"),
        size=max(path_count * 16, 64),
        default_action=ir.ActionCall(action="nop"),
    )
    return Delta(
        name="load_balancer",
        ops=(
            AddMap(load_map),
            AddAction(set_path),
            AddFunction(selector),
            AddTable(paths),
            InsertApply(element="lb_select"),
            InsertApply(element="lb_paths", position="after", anchor="lb_select"),
        ),
    )


class LoadBalancerManager:
    """Controller-side path management."""

    def __init__(self, client: P4RuntimeClient, path_count: int = 4):
        self._client = client
        self.path_count = path_count
        self._entries: list[TableEntry] = []

    def set_destination_port(self, dst_ip: int, port: int) -> TableEntry:
        entry = TableEntry(
            table="lb_paths", matches=(exact(dst_ip),), action="lb_set_path",
            action_args=(port,),
        )
        self._client.insert_entry(entry)
        self._entries.append(entry)
        return entry

    def path_loads(self) -> dict[int, int]:
        """Per-bucket packet counts from the data plane."""
        raw = self._client.read_map("lb_load")
        return {key[0]: value for key, value in raw.items()}

    def imbalance(self) -> float:
        """max/mean load ratio (1.0 == perfectly balanced)."""
        loads = list(self.path_loads().values())
        if not loads:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

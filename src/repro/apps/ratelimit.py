"""Per-source rate limiting via P4 meters (tenant SLA policing).

The enforcement table classifies traffic (one rule per policed source);
its meter colours each hit, and the policing function drops RED
packets. The meter rate is reconfigured live through P4Runtime — no
program change needed to change a customer's contracted rate (the
element-level churn the paper distinguishes from structural changes).
"""

from __future__ import annotations

from repro.control.p4runtime import P4RuntimeClient, TableEntry
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import AddAction, AddFunction, AddTable, Delta, InsertApply
from repro.simulator.tables import exact


#: rules the policing table ``rl_classify`` holds.
_CLASSIFY_SIZE = 1024


def rate_limit_delta() -> Delta:
    """Inject the policing table + RED-drop function."""
    classify_action = ir.ActionDef(
        name="rl_mark", params=(), body=(b.assign("meta.rl_hit", 1),)
    )
    classify = ir.TableDef(
        name="rl_classify",
        keys=(ir.TableKey(field=b.field("ipv4.src"), match_kind=ir.MatchKind.EXACT),),
        actions=("rl_mark", "nop"),
        size=_CLASSIFY_SIZE,
        default_action=ir.ActionCall(action="nop"),
    )
    police = ir.FunctionDef(
        name="rl_police",
        body=(
            b.if_(
                b.binop(
                    "&&",
                    b.binop("==", "meta.rl_hit", 1),
                    b.binop("==", "meta.meter_color", 1),  # RED
                ),
                [b.call("mark_drop")],
            ),
        ),
    )
    return Delta(
        name="rate_limit",
        ops=(
            AddAction(classify_action),
            AddTable(classify),
            AddFunction(police),
            InsertApply(element="rl_classify"),
            InsertApply(element="rl_police", position="after", anchor="rl_classify"),
        ),
    )


class RateLimiter:
    """Controller-side policy management over P4Runtime."""

    def __init__(self, client: P4RuntimeClient):
        self._client = client
        self._policed: dict[int, float] = {}

    def police(self, src_ip: int, rate_pps: float, burst_packets: float = 10.0) -> None:
        """Start (or re-rate) policing one source."""
        if src_ip not in self._policed:
            self._client.insert_entry(
                TableEntry(
                    table="rl_classify", matches=(exact(src_ip),), action="rl_mark"
                )
            )
        self._client.set_meter("rl_classify", rate_pps, burst_packets)
        self._policed[src_ip] = rate_pps

    def stats(self) -> tuple[int, int]:
        """(conforming, dropped-eligible) packet counts."""
        return self._client.read_meter("rl_classify")

    @property
    def policed_sources(self) -> dict[int, float]:
        return dict(self._policed)

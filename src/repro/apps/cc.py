"""Live transport/congestion-control customization (§1.1).

"Deploying new transport protocols, for instance, requires changes not
only to host kernels but also telemetry and congestion control (CC)
algorithms at the NICs and switches." This app is that vertical
deployment: one delta that lands components on *different tiers* —

* ``ecn_mark`` — switch-side: mark ECN above a queue threshold
  (DCTCP-style) or stamp INT-style queue depth (HPCC-style);
* ``cc_window`` — host-side: a per-destination rate/window map updated
  from the marks. Its certified op count is deliberately above the
  switch's ``max_function_ops`` so the placement engine *must* put it
  on a host/NIC — demonstrating automatic vertical distribution.

Switching between DCTCP-like and HPCC-like marking at runtime is a
delta swap, the "optimal choice of CC algorithms depends on the mix of
applications and workloads" scenario.
"""

from __future__ import annotations

from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import (
    AddFunction,
    AddMap,
    Delta,
    InsertApply,
    RemoveElements,
)
from repro.lang.types import BitsType


def dctcp_delta(ecn_threshold: int = 20) -> Delta:
    """DCTCP-style: binary ECN mark when queue depth exceeds threshold."""
    mark = ir.FunctionDef(
        name="ecn_mark",
        body=(
            b.if_(
                b.binop(">", "meta.queue_depth", ecn_threshold),
                [b.assign("meta.ecn", 1)],
            ),
        ),
    )
    window = _host_window_function(alpha_shift=4)
    ops = (
        AddMap(_window_map()),
        AddFunction(mark),
        AddFunction(window),
        InsertApply(element="ecn_mark"),
        InsertApply(element="cc_window", position="after", anchor="ecn_mark"),
    )
    return Delta(name="cc_dctcp", ops=ops)


def hpcc_delta() -> Delta:
    """HPCC-style: stamp the precise queue depth for host-side control."""
    mark = ir.FunctionDef(
        name="ecn_mark",
        body=(
            b.assign("meta.int_qdepth", b.expr("meta.queue_depth")),
            # HPCC hosts react to the precise depth, not a binary bit;
            # carry it through the ecn meta key for the host function.
            b.assign("meta.ecn", b.expr("meta.queue_depth")),
        ),
    )
    window = _host_window_function(alpha_shift=2)
    ops = (
        AddMap(_window_map()),
        AddFunction(mark),
        AddFunction(window),
        InsertApply(element="ecn_mark"),
        InsertApply(element="cc_window", position="after", anchor="ecn_mark"),
    )
    return Delta(name="cc_hpcc", ops=ops)


def remove_cc_delta() -> Delta:
    """Retire whichever CC deployment is live."""
    return Delta(
        name="cc_remove",
        ops=(
            RemoveElements(pattern="ecn_mark", kind="function"),
            RemoveElements(pattern="cc_window", kind="function"),
            RemoveElements(pattern="cc_windows", kind="map"),
        ),
    )


def swap_cc_delta(to: str = "hpcc") -> Delta:
    """Runtime CC algorithm swap: remove + re-add in one atomic delta."""
    removal = remove_cc_delta()
    addition = hpcc_delta() if to == "hpcc" else dctcp_delta()
    return Delta(name=f"cc_swap_to_{to}", ops=removal.ops + addition.ops)


def _window_map() -> ir.MapDef:
    return ir.MapDef(
        name="cc_windows",
        key_fields=(b.field("ipv4.dst"),),
        value_type=BitsType(32),
        max_entries=8192,
    )


def _host_window_function(alpha_shift: int) -> ir.FunctionDef:
    """AIMD window update; the repeat block inflates its certified op
    count past any switch's ``max_function_ops``, forcing host/NIC
    placement (that is the point: vertical distribution is automatic)."""
    return ir.FunctionDef(
        name="cc_window",
        body=(
            b.let("w", "u32", b.map_get("cc_windows", "ipv4.dst")),
            b.if_(
                b.binop(">", "meta.ecn", 0),
                # multiplicative decrease
                [b.assign("w", b.binop(">>", "w", alpha_shift))],
                # additive increase
                [b.assign("w", b.binop("+", "w", 1))],
            ),
            b.map_put("cc_windows", "ipv4.dst", "w"),
            # Pacing computation, modelled as a fixed block of arithmetic
            # (keeps the certified cost realistically host-sized).
            b.repeat(
                100,
                [
                    b.let("pace", "u32", b.binop("*", "w", 8)),
                    b.assign("pace", b.binop("+", "pace", 1)),
                ],
            ),
        ),
    )

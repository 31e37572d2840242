"""INT-style telemetry utility functions (§3.4 "utility" functions).

"These 'utility' functions for network control do not have a persistent
footprint inside the network, but are injected in real-time for
maintenance tasks and removed soon after."

:func:`int_probe_delta` injects a per-packet digest of (dst, ttl,
queue depth) — a diagnosis probe an operator summons while chasing an
incident and retires afterwards. :func:`remove_probe_delta` is the
retirement.
"""

from __future__ import annotations

from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import AddFunction, Delta, InsertApply, RemoveElements


def int_probe_delta(sample_shift: int = 0) -> Delta:
    """Emit a digest for every 2^-sample_shift-th packet (0 = all)."""
    if sample_shift:
        body: tuple[ir.Stmt, ...] = (
            b.if_(
                b.binop(
                    "==",
                    b.binop("&", "meta.ingress_port", (1 << sample_shift) - 1),
                    0,
                ),
                [b.call("emit_digest", "ipv4.dst", "ipv4.ttl", "meta.queue_depth")],
            ),
        )
    else:
        body = (b.call("emit_digest", "ipv4.dst", "ipv4.ttl", "meta.queue_depth"),)
    probe = ir.FunctionDef(name="int_probe", body=body)
    return Delta(
        name="int_probe",
        ops=(
            AddFunction(probe),
            InsertApply(element="int_probe"),
        ),
    )


def remove_probe_delta() -> Delta:
    return Delta(
        name="int_probe_remove",
        ops=(RemoveElements(pattern="int_probe", kind="function"),),
    )

"""The standard infrastructure program used across examples and tests.

Implements the operator's "basic functions for the network as well as
utility functions for management and control" (§3 scenario): L2
forwarding, L3 routing, an ACL, flow accounting, and a TTL guard.
"""

from __future__ import annotations

from repro.lang import builder as b
from repro.lang.ir import Program

#: Standard header layouts shared by every program in the library, so
#: tenant extensions compose against the same packet format.
STANDARD_HEADERS: dict[str, dict[str, int]] = {
    "ethernet": {"dst": 48, "src": 48, "ethertype": 16},
    "ipv4": {"src": 32, "dst": 32, "proto": 8, "ttl": 8},
    "tcp": {"sport": 16, "dport": 16, "flags": 8},
}


def standard_builder(name: str) -> b.ProgramBuilder:
    """A builder pre-loaded with the standard headers and parse graph."""
    program = b.ProgramBuilder(name)
    for header, fields in STANDARD_HEADERS.items():
        program.header(header, **fields)
    program.parser(
        "ethernet",
        ("ethernet.ethertype", 0x0800, "ipv4"),
        ("ipv4.proto", 6, "tcp"),
    )
    return program


def base_infrastructure(
    acl_size: int = 1024,
    l2_size: int = 4096,
    l3_size: int = 8192,
    flow_entries: int = 65536,
) -> Program:
    """Build the operator's base program."""
    program = standard_builder("infra")
    program.map("flow_counts", keys=["ipv4.src", "ipv4.dst"], value_type="u64",
                max_entries=flow_entries)
    program.action("drop", [b.call("mark_drop")])
    program.action("forward", [b.call("set_port", "port")], params=[("port", "u16")])
    program.action("nop", [b.call("no_op")])
    program.action("dec_ttl", [b.assign("ipv4.ttl", b.binop("-", "ipv4.ttl", 1))])
    program.table(
        "acl",
        keys=[("ipv4.src", "ternary"), ("ipv4.dst", "ternary")],
        actions=["drop", "nop"],
        size=acl_size,
        default="nop",
    )
    program.table(
        "l2",
        keys=["ethernet.dst"],
        actions=["forward", "nop"],
        size=l2_size,
        default=("forward", (1,)),
    )
    program.table(
        "l3",
        keys=[("ipv4.dst", "lpm")],
        actions=["forward", "dec_ttl", "nop"],
        size=l3_size,
        default=("forward", (1,)),
    )
    program.function(
        "count_flow",
        [
            b.let("c", "u64", b.map_get("flow_counts", "ipv4.src", "ipv4.dst")),
            b.map_put("flow_counts", "ipv4.src", "ipv4.dst", b.binop("+", "c", 1)),
        ],
    )
    program.function(
        "ttl_guard",
        [
            b.if_(
                b.binop("==", "ipv4.ttl", 0),
                [b.call("mark_drop")],
            )
        ],
    )
    program.apply("acl", "l2", "l3", "count_flow", "ttl_guard")
    return program.build()

"""FlexPath parity: what an executor that is *generated* can silently
get wrong, pinned against the interpreter.

Every program below goes through ``differential_check`` (verdicts,
fields, metadata, digests, ops, recirculations, end-state maps and
counters), and ``test_every_ir_construct_is_covered`` walks those same
programs, so a branch of the generator cannot exist without a program
that reaches it. The error cases (an unbound local, a full durable
map) run each arm on its own: both must raise the same error.
"""

import random
import re

import pytest

from repro.analysis.corpus import bundled_programs
from repro.apps.base import STANDARD_HEADERS, standard_builder
from repro.errors import SimulationError
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.maps import MapFullError
from repro.limits import RECIRCULATION_CAP
from repro.scale.workload import composed_program
from repro.simulator import fastpath
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.packet import make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, exact

from tests.conftest import ir_nodes

#: operand values that reach every clamp: zero divisors, shifts at and
#: past 64, the 64-bit edge, and a value above it.
EDGE_VALUES = (0, 1, 2, 3, 5, 63, 64, 65, 200, 255, 256, 1 << 32, (1 << 64) - 1, 1 << 70)


def corpus(count=90, seed=5, **meta_choices):
    """``seeded_corpus`` (header visibility varies) with each named
    metadata key drawn from its choices."""
    rng = random.Random(seed)
    packets = fastpath.seeded_corpus(count, seed=seed)
    for packet in packets:
        for key, choices in meta_choices.items():
            packet.meta[key] = rng.choice(choices)
    return packets


# ---------------------------------------------------------------------------
# Hand-built programs
# ---------------------------------------------------------------------------

ARITHMETIC = {
    kind for kind in ir.BinOpKind if kind not in ir.COMPARISONS and kind not in ir.LOGICALS
}


def operators_program():
    """Every operator over metadata operands: saturating ``-``, ``/``
    and ``%`` by zero, ``<<`` / ``>>`` clamped at 64, ``~`` masked to 64
    bits, ``Let`` truncation, and ``&&`` / ``||`` whose right operand
    costs ops only when it is evaluated."""
    builder = standard_builder("operators")
    builder.map("seen", keys=["ipv4.src"], value_type="u8", max_entries=1024)
    body = [
        b.assign(f"meta.r_{kind.name.lower()}", b.binop(kind.value, "meta.a", "meta.b"))
        for kind in sorted(ARITHMETIC, key=lambda kind: kind.name)
    ]
    body += [
        b.if_(
            b.binop(kind.value, "meta.a", "meta.b"),
            [b.assign(f"meta.c_{kind.name.lower()}", 1)],
            [b.assign(f"meta.c_{kind.name.lower()}", 2)],
        )
        for kind in sorted(ir.COMPARISONS, key=lambda kind: kind.name)
    ]
    costly = b.binop("==", b.hash_of("meta.a", "ipv4.src", modulus=7), 3)
    body += [
        b.assign("meta.inv", ir.UnOp("~", b.expr("meta.a"))),
        b.let("narrow", "u8", b.binop("+", "meta.a", 250)),
        b.assign("meta.narrow", "narrow"),
        b.assign("narrow", b.binop("+", "narrow", 300)),  # an Assign does not truncate
        b.assign("meta.wide", "narrow"),
        b.if_(b.binop("&&", b.binop("<", "meta.a", "meta.b"), costly), [b.assign("meta.land", 1)]),
        b.if_(b.binop("||", b.binop("<", "meta.a", "meta.b"), costly), [], [b.assign("meta.lor", 1)]),
        b.if_(
            ir.UnOp("!", b.binop("||", costly, b.binop("&&", costly, b.binop(">", "meta.b", 2)))),
            [b.map_put("seen", "ipv4.src", b.binop("+", b.map_get("seen", "ipv4.src"), 255))],
            [b.map_delete("seen", "ipv4.src")],
        ),
    ]
    builder.function("operate", body)
    builder.apply("operate")
    return builder.build()


def primitives_program():
    """Every primitive, at every arity the executors special-case."""
    builder = standard_builder("primitives")
    builder.function(
        "fire",
        [
            b.call("set_port"),
            b.call("set_port", "meta.a"),
            b.call("set_queue", b.binop("+", "meta.a", 1), "meta.b"),
            b.call("emit_digest"),
            b.call("emit_digest", "ipv4.src", b.hash_of("tcp.sport", modulus=13)),
            b.call("clone"),
            b.call("clone"),
            b.call("no_op", b.map_get("hits", "ipv4.dst")),
            b.if_(b.binop("==", "meta.b", 0), [b.call("mark_drop")]),
            b.if_(
                b.binop("<", "meta.bounces", "meta.a"),
                [b.assign("meta.bounces", b.binop("+", "meta.bounces", 1)), b.call("recirculate")],
            ),
        ],
    )
    builder.map("hits", keys=["ipv4.dst"], value_type="u16", max_entries=32)
    builder.apply("fire")
    return builder.build()


def loops_program():
    """A ``Repeat`` around an ``If`` around a ``Repeat``: the static
    share of a loop body is charged per iteration, the taken branch per
    visit."""
    builder = standard_builder("loops")
    builder.function(
        "spin",
        [
            b.repeat(
                3,
                [
                    b.if_(
                        b.binop("<", "meta.n", "meta.a"),
                        [b.assign("meta.n", b.binop("+", "meta.n", 1))],
                        [b.repeat(2, [b.assign("meta.m", b.binop("+", "meta.m", "meta.n"))])],
                    )
                ],
            )
        ],
    )
    builder.apply("spin")
    return builder.build()


def deep_if_program(depth):
    """An ``If`` chain deeper than a Python function may nest blocks:
    level ``i`` descends while ``meta.a > i`` and marks where it left."""
    body = [b.assign("meta.bottom", 1)]
    for level in reversed(range(depth)):
        body = [
            b.if_(
                b.binop(">", "meta.a", level),
                [b.assign("meta.reached", level + 1), *body],
                [b.assign("meta.left_at", level)],
            )
        ]
    builder = standard_builder(f"deep_if_{depth}")
    builder.function("descend", [b.let("floor", "u16", "meta.a"), *body, b.assign("meta.floor", "floor")])
    builder.apply("descend")
    return builder.build()


def deep_repeat_program(depth):
    """``Repeat`` nested past Python's 20 static blocks, a local
    assigned at the bottom and read at the top."""
    body = [b.assign("total", b.binop("+", "total", "meta.a"))]
    for level in range(depth):
        body = [b.repeat(2 if level == 3 else 1, body)]
    builder = standard_builder(f"deep_repeat_{depth}")
    builder.function("wind", [b.let("total", "u32", 1), *body, b.assign("meta.total", "total")])
    builder.apply("wind")
    return builder.build()


def deep_apply_program(depth):
    """Apply-ifs nested as deep, a table at the bottom."""
    builder = standard_builder(f"deep_apply_{depth}")
    builder.action("mark", [b.assign("meta.marked", "tag")], params=[("tag", "u8")])
    builder.table("leaf", keys=["ipv4.proto"], actions=["mark"], size=8, default=("mark", (9,)))
    steps = ["leaf"]
    for level in reversed(range(depth)):
        steps = [builder.apply_if(b.binop(">", "meta.a", level), steps)]
    builder.apply(*steps)
    return builder.build()


def recirculating_program():
    """``recirculate`` while ``meta.bounces < meta.limit``: limits above
    ``RECIRCULATION_CAP`` stop at the cap with the flag popped."""
    builder = standard_builder("recirculating")
    builder.function(
        "bounce",
        [
            b.if_(
                b.binop("<", "meta.bounces", "meta.limit"),
                [b.assign("meta.bounces", b.binop("+", "meta.bounces", 1)), b.call("recirculate")],
            ),
            # the second pass re-parses: tcp goes once proto is rewritten
            b.assign("ipv4.proto", 17),
        ],
    )
    builder.apply("bounce")
    return builder.build()


def parserless_program():
    """No parser: every declared header the packet carries is visible,
    and a declared header it does not carry reads 0 and ignores writes."""
    builder = b.ProgramBuilder("parserless")
    for header, fields in STANDARD_HEADERS.items():
        builder.header(header, **fields)
    builder.header("vxlan", vni=24)
    builder.function(
        "touch",
        [
            b.assign("meta.vni", b.binop("+", "vxlan.vni", 1)),
            b.assign("vxlan.vni", 7),
            b.assign("meta.flags", "tcp.flags"),
            b.assign("tcp.flags", b.binop("|", "tcp.flags", 0x100)),  # truncated to 8 bits
        ],
    )
    builder.apply("touch")
    return builder.build()


def branching_apply_program():
    """Tables and functions under nested apply-ifs, a keyless table, a
    table with no default, and a parser whose transitions re-use a
    header and select on one that may be absent."""
    builder = b.ProgramBuilder("branching")
    for header, fields in STANDARD_HEADERS.items():
        builder.header(header, **fields)
    builder.parser(
        "ethernet",
        ("ethernet.ethertype", 0x0800, "ipv4"),
        ("ethernet.ethertype", 0x8100, "ipv4"),
        ("ipv4.proto", 6, "tcp"),
        ("tcp.dport", 443, "ipv4"),
    )
    builder.map("per_port", keys=["tcp.dport"], value_type="u32", max_entries=4,
                persistence="ephemeral")
    builder.action("tag", [b.assign("meta.tag", b.binop("+", "value", "meta.a"))],
                   params=[("value", "u16"), ("unused", "u8")])
    builder.action("drop", [b.call("mark_drop")])
    builder.action("nop", [b.call("no_op")])
    builder.table("always", keys=[], actions=["tag"], size=1, default=("tag", (40, 1)))
    builder.table("ports", keys=[("tcp.dport", "range"), "ipv4.proto"], actions=["tag", "drop"],
                  size=16)
    builder.table("srcs", keys=["ipv4.src"], actions=["tag", "nop"], size=16, default="nop")
    builder.function(
        "count_port",
        [b.map_put("per_port", "tcp.dport", b.binop("+", b.map_get("per_port", "tcp.dport"), 1))],
    )
    builder.apply(
        "always",
        builder.apply_if(
            b.binop("==", "ipv4.proto", 6),
            ["ports", builder.apply_if(b.binop(">", "meta.a", 3), ["count_port"], ["srcs"])],
            [builder.apply_if(b.binop("==", "meta.a", 0), [], ["count_port", "srcs"])],
        ),
    )
    return builder.build()


def unvalidated_program():
    """What only an unvalidated program can hold: a bool stored as an
    int, a map nobody declared (its key is still evaluated and costed),
    a field of a header nobody declared, a ``Let`` that leaks out of its
    branch, and a write to a possibly-unparsed header whose value has a
    short-circuit operand."""
    builder = standard_builder("unvalidated")
    costly = b.binop("==", b.hash_of("ipv4.src", modulus=5), 1)
    builder.function(
        "loose",
        [
            b.assign("tcp.flags", b.binop("&&", b.binop(">", "meta.a", 2), costly)),
            b.assign("meta.ghost", b.map_get("ghost", b.binop("||", costly, costly))),
            b.map_put("ghost", "meta.a", 1),
            b.map_delete("ghost", "meta.a"),
            b.assign("meta.nowhere", "gre.key"),
            b.assign("fresh", b.binop("+", "meta.a", 1)),  # an Assign may bind
            b.if_(b.binop(">=", "meta.a", 0), [b.let("leaked", "u8", "fresh")]),
            b.assign("meta.leaked", b.binop("+", "leaked", ir.UnOp("!", b.expr("meta.b")))),
        ],
    )
    builder.apply("loose")
    return builder.build(validate=False)


def rewrite_program():
    """An action that reads a field, writes it and reads it again: a
    written field is read live, never from the once-per-parse local."""
    builder = standard_builder("rewrite")
    builder.action(
        "bump",
        [
            b.assign("meta.before", "ipv4.ttl"),
            b.assign("ipv4.ttl", b.binop("+", "ipv4.ttl", "step")),
            b.assign("meta.after", b.binop("+", "ipv4.ttl", "ipv4.src")),
        ],
        params=[("step", "u8")],
    )
    builder.table("bumps", keys=["ipv4.proto"], actions=["bump"], size=4, default=("bump", (7,)))
    builder.apply("bumps")
    return builder.build()


def deep_read_program(depth):
    """Fields nothing writes, read at the bottom of an ``If`` chain deep
    enough to spill into ``deep_N`` closures, which read the locals
    ``process`` bound after the parse."""
    body = [b.assign("meta.src", "ipv4.src"), b.assign("meta.sport", "tcp.sport")]
    for level in reversed(range(depth)):
        body = [b.if_(b.binop(">", "meta.a", level), body)]
    builder = standard_builder(f"deep_read_{depth}")
    builder.function("descend", body)
    builder.apply("descend")
    return builder.build()


def reparse_program():
    """Each pass reports ``tcp.dport``, which nothing writes, and flips
    ``ipv4.proto`` between 6 and 17: the re-parse shows or hides tcp, so
    the once-per-parse read must follow it pass by pass."""
    builder = standard_builder("reparse")
    builder.function(
        "report",
        [
            b.call("emit_digest", "tcp.dport", "meta.bounces"),
            b.if_(
                b.binop("<", "meta.bounces", "meta.limit"),
                [b.assign("meta.bounces", b.binop("+", "meta.bounces", 1)), b.call("recirculate")],
            ),
            b.assign("ipv4.proto", b.binop("^", "ipv4.proto", 6 ^ 17)),
        ],
    )
    builder.apply("report")
    return builder.build()


def keyless_program():
    """A keyless table (not exact: it takes the remembered scan, whose
    one key is ``()``) beside an exact one."""
    builder = standard_builder("keyless")
    builder.action("tag", [b.assign("meta.tag", "value")], params=[("value", "u16")])
    builder.action("nop", [b.call("no_op")])
    builder.table("stamp", keys=[], actions=["tag", "nop"], size=4, default="nop")
    builder.table("dsts", keys=["ipv4.dst"], actions=["tag"], size=8)
    builder.apply("stamp", "dsts")
    return builder.build()


def metered(program, table, rate_pps=2000.0, burst=3.0):
    def setup(instance):
        fastpath.seeded_rules(program, instance, seed=17)
        instance.rules[table].meter = Meter(MeterConfig(rate_pps, burst))

    return setup


def _cases():
    small = (0, 1, 2, 3, 4, 7)
    composed = composed_program()
    branching = branching_apply_program()
    yield "operators", operators_program(), dict(
        packets=corpus(150, a=EDGE_VALUES, b=EDGE_VALUES))
    yield "primitives", primitives_program(), dict(packets=corpus(a=small, b=small, bounces=(0,)))
    yield "loops", loops_program(), dict(packets=corpus(a=small, n=(0, 1), m=(0,)))
    yield "deep_if", deep_if_program(120), dict(packets=corpus(a=range(0, 124)))
    yield "deep_repeat", deep_repeat_program(24), dict(packets=corpus(30, a=small))
    yield "deep_apply", deep_apply_program(45), dict(packets=corpus(a=range(0, 48)))
    yield "recirculating", recirculating_program(), dict(
        packets=corpus(bounces=(0,), limit=range(0, RECIRCULATION_CAP + 4)))
    yield "parserless", parserless_program(), dict(packets=corpus())
    yield "branching", branching, dict(
        packets=corpus(200, a=small),
        setup=lambda instance: fastpath.seeded_rules(branching, instance, seed=3))
    yield "unvalidated", unvalidated_program(), dict(packets=corpus(a=small, b=(0, 1, 9)))
    yield "rewrite", rewrite_program(), dict(packets=corpus())
    yield "deep_read", deep_read_program(40), dict(packets=corpus(a=range(0, 44)))
    yield "reparse", reparse_program(), dict(
        packets=corpus(bounces=(0,), limit=range(0, RECIRCULATION_CAP + 2)))
    keyless = keyless_program()
    yield "keyless", keyless, dict(
        packets=corpus(), setup=lambda instance: fastpath.seeded_rules(keyless, instance, seed=4))
    yield "composed", composed, dict(packets=corpus(150), setup=metered(composed, "l3"))
    yield "hosted_subset", composed, dict(
        packets=corpus(150), hosted_elements={"acl", "count_flow", "fw_track", "cms_update"},
        setup=metered(composed, "acl"))
    yield "hosts_nothing", branching, dict(packets=corpus(a=small), hosted_elements=set())


CASES = list(_cases())


@pytest.mark.parametrize("label,program,kwargs", CASES, ids=[label for label, _, _ in CASES])
def test_differential(label, program, kwargs):
    kwargs = dict(kwargs)
    report = fastpath.differential_check(program, kwargs.pop("packets"), **kwargs)
    assert report.ok, "\n".join(str(d) for d in report.divergences)
    assert report.packets >= 30


def _walk(root, seen):
    """Record the class of every IR node under ``root``, and the
    operator / primitive it names."""
    for node in ir_nodes(root):
        seen.add(type(node))
        if isinstance(node, ir.BinOp):
            seen.add(node.kind)
        elif isinstance(node, ir.UnOp):
            seen.add(("unop", node.op))
        elif isinstance(node, ir.PrimitiveCall):
            seen.add(("primitive", node.name))


def test_every_ir_construct_is_covered():
    seen = set()
    for _, program, _ in CASES:
        _walk(program, seen)
    wanted = {
        *ir.Expr.__args__,
        *ir.Stmt.__args__,
        *ir.ApplyStep.__args__,
        *ir.BinOpKind,
        ("unop", "!"),
        ("unop", "~"),
        *(("primitive", name) for name in ir.PRIMITIVES),
    }
    assert wanted <= seen, sorted(map(str, wanted - seen))


def test_the_hand_built_cases_reach_the_edges_they_name():
    """The differential proves the arms agree; this proves the packets
    got where the case says (reference arm only)."""
    packet = make_packet(1, 2)
    packet.meta.update(a=3, b=5)
    ProgramInstance(operators_program()).process(packet)
    assert packet.meta["r_sub"] == 0  # saturating
    assert packet.meta["inv"] == (1 << 64) - 4
    assert packet.meta["narrow"] == 253 and packet.meta["wide"] == 553

    packet = make_packet(1, 2)
    packet.meta.update(a=1, b=200)
    ProgramInstance(operators_program()).process(packet)
    assert packet.meta["r_shl"] == 1 << 64 and packet.meta["r_shr"] == 0
    packet.meta.update(a=7, b=0)
    ProgramInstance(operators_program()).process(packet)
    assert packet.meta["r_div"] == 0 and packet.meta["r_mod"] == 0

    packet = make_packet(1, 2)
    packet.meta.update(bounces=0, limit=RECIRCULATION_CAP + 3)
    result = ProgramInstance(recirculating_program()).process(packet)
    assert result.recirculations == RECIRCULATION_CAP
    assert "_recirculate" not in packet.meta
    assert ("tcp", "flags") in packet.fields  # still carried, no longer parsed

    packet = make_packet(1, 2)
    packet.meta["a"] = 500
    ProgramInstance(deep_if_program(120)).process(packet)
    assert packet.meta["reached"] == 120 and packet.meta["bottom"] == 1

    packet = make_packet(1, 2)
    packet.fields = {key: value for key, value in packet.fields.items() if key[0] != "tcp"}
    packet.meta.update(a=3, b=0)
    before = dict(packet.fields)
    result = ProgramInstance(unvalidated_program()).process(packet)
    assert packet.fields == before  # the write to tcp.flags went nowhere
    packet.meta["a"] = 0  # `meta.a > 2` false: the hash is not charged
    assert ProgramInstance(unvalidated_program()).process(packet).ops == result.ops - 5

    packet = make_packet(1, 2, ttl=64)
    ProgramInstance(rewrite_program()).process(packet)
    assert packet.meta["before"] == 64 and packet.meta["after"] == 64 + 7 + 1

    packet = make_packet(1, 2, dst_port=443)
    packet.meta.update(bounces=0, limit=2)
    ProgramInstance(reparse_program()).process(packet)
    assert [args for _, args in packet.digests] == [(443, 0), (0, 1), (443, 2)]

    packet = make_packet(1, 2)
    packet.meta["a"] = 40
    ProgramInstance(deep_read_program(40)).process(packet)
    assert packet.meta["src"] == 1 and packet.meta["sport"] == 12345


# ---------------------------------------------------------------------------
# Scope: one per function body, action body and apply-if condition
# ---------------------------------------------------------------------------


def _scope_program(name, apply, functions=(), action_body=None):
    """An unvalidated program over ``functions``; ``action_body`` adds
    table ``binder`` whose only action, ``bind(port)``, has that body."""
    builder = standard_builder(name)
    if action_body is not None:
        builder.action("bind", action_body, params=[("port", "u16")])
        builder.table("binder", keys=["ipv4.proto"], actions=["bind"], size=4, default=("bind", (5,)))
    for function_name, body in functions:
        builder.function(function_name, body)
    builder.apply(*(step(builder) if callable(step) else step for step in apply))
    return builder.build(validate=False)


BINDS_X = ("first", [b.let("x", "u8", 1)])
UNBOUND = [
    (
        "read_before_any_let",
        "x",
        _scope_program("u1", ["f"], [("f", [b.assign("meta.y", b.binop("+", "x", 1)), b.let("x", "u8", 1)])]),
    ),
    (
        "function_to_function",
        "x",
        _scope_program("u2", ["first", "second"], [BINDS_X, ("second", [b.assign("meta.y", "x")])]),
    ),
    (
        "action_to_function",
        "port",
        _scope_program(
            "u3", ["binder", "after"], [("after", [b.assign("meta.y", "port")])],
            action_body=[b.assign("meta.bound", "port")],
        ),
    ),
    (
        "function_to_apply_if_condition",
        "x",
        _scope_program(
            "u4",
            ["first", lambda builder: builder.apply_if(b.binop("==", "x", 1), ["first"])],
            [BINDS_X],
        ),
    ),
    (
        "function_to_action",
        "x",
        _scope_program("u5", ["first", "binder"], [BINDS_X], action_body=[b.assign("meta.y", "x")]),
    ),
]


class TestScope:
    @pytest.mark.parametrize("label,name,program", UNBOUND, ids=[label for label, _, _ in UNBOUND])
    @pytest.mark.parametrize("fast", [False, True], ids=["interpreter", "flexpath"])
    def test_unbound_local_raises_in_both_arms(self, label, name, program, fast):
        instance = ProgramInstance(program, fastpath=fast)
        with pytest.raises(SimulationError, match=f"unbound variable '{name}' at runtime"):
            instance.process(make_packet(1, 2), 0.0)

    @pytest.mark.parametrize("fast", [False, True], ids=["interpreter", "flexpath"])
    def test_a_let_in_an_untaken_branch_stays_unbound(self, fast):
        """Branches share their function's scope at run time, so whether
        the read below succeeds depends on the packet — and on the pass:
        a recirculated packet starts the body with a fresh scope."""
        program = _scope_program(
            "u6", ["f"],
            [(
                "f",
                [
                    b.if_(b.binop("==", "meta.pass", 0), [b.let("x", "u8", 7)]),
                    b.if_(
                        b.binop("<", "meta.pass", "meta.passes"),
                        [b.assign("meta.pass", b.binop("+", "meta.pass", 1)), b.call("recirculate")],
                    ),
                    b.assign("meta.y", "x"),
                ],
            )],
        )
        instance = ProgramInstance(program, fastpath=fast)
        bound = make_packet(1, 2)
        bound.meta.update({"pass": 0, "passes": 0})
        instance.process(bound, 0.0)
        assert bound.meta["y"] == 7
        for meta in ({"pass": 1, "passes": 0}, {"pass": 0, "passes": 1}):
            packet = make_packet(1, 2)
            packet.meta.update(meta)
            with pytest.raises(SimulationError, match="unbound variable 'x' at runtime"):
                instance.process(packet, 0.0)


@pytest.mark.parametrize("fast", [False, True], ids=["interpreter", "flexpath"])
def test_a_rule_with_too_few_args_leaves_the_parameter_unbound(fast):
    """P4Runtime does not check a rule's arity against its action: the
    parameter a short rule leaves out is unbound where it is read, and
    an argument too many, or a missing one nobody reads, is harmless."""
    builder = standard_builder("arity")
    builder.action("tag", [b.assign("meta.tag", "value")], params=[("value", "u16"), ("unused", "u8")])
    builder.table("tags", keys=["ipv4.src"], actions=["tag"], size=8)
    builder.apply("tags")
    instance = ProgramInstance(builder.build(), fastpath=fast)
    for src, args in ((1, (7,)), (2, (8, 9, 10)), (3, ())):
        instance.rules["tags"].insert(Rule(matches=(exact(src),), action=ir.ActionCall("tag", args)))
    for src, tag in ((1, 7), (2, 8)):
        packet = make_packet(src, 9)
        instance.process(packet, 0.0)
        assert packet.meta["tag"] == tag
    with pytest.raises(SimulationError, match="unbound variable 'value' at runtime"):
        instance.process(make_packet(3, 9), 0.0)


@pytest.mark.parametrize("fast", [False, True], ids=["interpreter", "flexpath"])
def test_full_durable_map_raises_in_both_arms(fast):
    builder = standard_builder("full")
    builder.map("tiny", keys=["ipv4.src"], value_type="u8", max_entries=2)
    builder.function("fill", [b.map_put("tiny", "ipv4.src", 1)])
    builder.apply("fill")
    instance = ProgramInstance(builder.build(), fastpath=fast)
    for src in (1, 2, 1):
        instance.process(make_packet(src, 9), 0.0)
    with pytest.raises(MapFullError, match="map 'tiny' is full \\(2 entries\\)"):
        instance.process(make_packet(3, 9), 0.0)
    assert dict(instance.maps.state("tiny").items()) == {(1,): 1, (2,): 1}


@pytest.mark.parametrize(
    "program", [deep_if_program(120), deep_repeat_program(24), deep_apply_program(45)],
    ids=["if", "repeat", "apply_if"],
)
def test_over_deep_suites_become_closures_of_the_one_function(program):
    """Python refuses a 21st nested loop and a 101st indentation level.
    The deep cases above are not run by some other executor: the source
    compiles, nests no deeper than its bound, and spills into
    ``deep_N`` closures."""
    instance = ProgramInstance(program, fastpath=True)
    instance.process(make_packet(1, 2), 0.0)
    source = instance._compiled.source
    assert source.startswith("def process(packet, now=0.0):") and source.count("\ndef ") == 0
    assert "def deep_0():" in source
    deepest = max((len(line) - len(line.lstrip())) // 4 for line in source.splitlines())
    assert deepest <= fastpath._MAX_DEPTH + 4


# ---------------------------------------------------------------------------
# Decided when the code is generated, not per packet
# ---------------------------------------------------------------------------


def source_of(program):
    instance = ProgramInstance(program, fastpath=True)
    instance.process(make_packet(1, 2), 0.0)
    return instance._compiled.source


def test_a_field_nothing_writes_is_read_once_per_parse():
    """The `fabric_stateful` program reads `ipv4.src` eleven times; the
    packet is read once per pass for each field no body writes, and a
    written one (`ipv4.ttl`, by `dec_ttl`) is read where it is used."""
    source = source_of(composed_program())
    for field in (("ipv4", "src"), ("ipv4", "dst"), ("ethernet", "dst")):
        assert source.count(f"fget({field!r}, 0)") == 1, field
    assert source.count("fget(('ipv4', 'ttl'), 0)") == 3
    assert "_all_exact" not in source


def test_a_map_op_is_a_dict_op():
    """The `fabric_stateful` program's nine map ops: a read is a `get`
    on the live entries, a write is the dict store, and `MapState.put`
    is called only by the full-map fallback of each write."""
    source = source_of(composed_program())
    assert re.findall(r"S\[[^]]*\]\.(?:get|put)\(", source) == []
    assert source.count(".put(") == source.count("state.put(mkey, value)") == 5


def test_a_closure_reads_the_once_per_parse_local():
    source = source_of(deep_read_program(40))
    closures = source[source.index("def deep_0():") : source.index("while True:")]
    assert "f_ipv4_src" in closures and "f_tcp_sport" in closures
    assert "fget(" not in closures


def test_the_lookup_kind_is_chosen_per_table_when_the_code_is_generated():
    """A keyless table takes the remembered scan, an exact one the hash
    index; neither carries the other's branch."""
    stamp, dsts = source_of(keyless_program()).split("rules = R['dsts']")
    assert "rules._decide(key)" in stamp and "_exact_index" not in stamp
    assert "rules._exact_index" in dsts and "_decide" not in dsts


def test_bundled_programs_are_walked_too():
    """The twelve bundled programs (``test_fastpath.py`` feeds them to
    ``differential_check``) add no construct the cases above lack: the
    coverage assertion does not lean on them."""
    bundled, cases = set(), set()
    for _, program in bundled_programs():
        _walk(program, bundled)
    for _, program, _ in CASES:
        _walk(program, cases)
    assert bundled <= cases

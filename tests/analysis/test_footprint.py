"""What a body reads, writes and names is derived once.

``ActionDef.access`` / ``FunctionDef.access`` is the one footprint every
pass projects from (the analyzer's map sets and recirculation, the
composer's shared-field writes, placement's conflicts, ``referents``).
Before the hand-written folds were deleted this file held each of them
equal to its projection over the same corpus and generators; what it
holds the one collector to now is a reference that shares nothing with
it — the reflective walk of ``tests/conftest.py::ir_nodes`` — so a node
kind the collector silently skips fails here.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import apply_delta
from repro.lang.types import BitsType

from tests.conftest import ir_nodes
from tests.corpus import delta_cases


def corpus_bodies():
    """Each distinct action / function body of ``tests/corpus.py``:
    every program a case starts from and the one its delta makes."""
    seen, bodies = set(), []
    for _, program, delta in delta_cases():
        for version in (program, apply_delta(program, delta)[0]):
            for node in (*version.actions, *version.functions):
                if id(node) not in seen:
                    seen.add(id(node))
                    bodies.append(node.body)
    return bodies


def assert_footprint_matches_what_is_there(body):
    """Everything reachable under ``body`` is in its footprint, in the
    position it was found in, and the footprint names nothing else."""
    access = ir.access_of_body(body)
    nodes = [node for stmt in body for node in ir_nodes(stmt)]
    assigns = [node for node in nodes if isinstance(node, ir.Assign)]
    calls = [node for node in nodes if isinstance(node, ir.PrimitiveCall)]

    fields = {node for node in nodes if isinstance(node, ir.FieldRef)}
    assigned = {a.target for a in assigns if isinstance(a.target, ir.FieldRef)}
    assert access.field_writes == assigned
    assert access.field_reads | access.field_writes == fields
    assert fields - assigned <= access.field_reads

    metas = {node.key for node in nodes if isinstance(node, ir.MetaRef)}
    by_primitive = {key for call in calls for key in ir.PRIMITIVE_META_WRITES[call.name]}
    assigned = {a.target.key for a in assigns if isinstance(a.target, ir.MetaRef)}
    assert access.meta_writes == assigned | by_primitive
    assert access.meta_reads | assigned == metas
    assert metas - assigned <= access.meta_reads

    assert access.map_reads == {n.map_name for n in nodes if isinstance(n, ir.MapGet)}
    assert access.map_writes == {
        n.map_name for n in nodes if isinstance(n, (ir.MapPut, ir.MapDelete))
    }
    assert access.referents == {("header", ref.header) for ref in fields} | {
        ("map", name) for name in access.maps
    }


def test_every_corpus_body():
    bodies = corpus_bodies()
    assert len(bodies) > 200
    for body in bodies:
        assert_footprint_matches_what_is_there(body)


FIELDS = [
    ir.FieldRef(header, name)
    for header, name in (("ethernet", "ethertype"), ("ipv4", "src"), ("ipv4", "proto"), ("tcp", "dport"))
]
LEAVES = st.one_of(
    st.sampled_from(FIELDS),
    st.sampled_from([ir.MetaRef("vlan_id"), ir.MetaRef("a")]),
    st.sampled_from([ir.VarRef("x"), ir.VarRef("y")]),
    st.integers(0, 9).map(ir.Const),
)


def _compound(children):
    return st.one_of(
        st.builds(ir.BinOp, st.sampled_from(list(ir.BinOpKind)), children, children),
        st.builds(ir.UnOp, st.sampled_from(["!", "~"]), children),
        st.builds(ir.MapGet, st.sampled_from(["m1", "m2"]), st.tuples(children)),
        st.builds(ir.HashExpr, st.tuples(children, children), st.just(64)),
    )


EXPRS = st.recursive(LEAVES, _compound, max_leaves=6)
TARGETS = st.one_of(st.sampled_from(FIELDS), st.just(ir.MetaRef("a")), st.just(ir.VarRef("x")))
SIMPLE = st.one_of(
    st.builds(ir.Let, st.just("x"), st.just(BitsType(32)), EXPRS),
    st.builds(ir.Assign, TARGETS, EXPRS),
    st.builds(ir.MapPut, st.sampled_from(["m1", "m3"]), st.tuples(EXPRS), EXPRS),
    st.builds(ir.MapDelete, st.sampled_from(["m2", "m3"]), st.tuples(EXPRS)),
    st.builds(ir.PrimitiveCall, st.sampled_from(sorted(ir.PRIMITIVES)), st.tuples(EXPRS)),
)


def _nested(children):
    bodies = st.lists(children, max_size=3).map(tuple)
    return st.one_of(
        st.builds(ir.If, EXPRS, bodies, bodies),
        st.builds(ir.Repeat, st.integers(1, 4), bodies),
    )


STMTS = st.recursive(SIMPLE, _nested, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(STMTS, max_size=4).map(tuple))
def test_generated_bodies(body):
    assert_footprint_matches_what_is_there(body)


@settings(max_examples=200, deadline=None)
@given(st.lists(SIMPLE, max_size=3).map(tuple), EXPRS, st.lists(STMTS, max_size=2).map(tuple))
def test_three_deep(inner, condition, siblings):
    """What sits under If > Repeat > If is found like what sits on top."""
    body = (
        *siblings,
        ir.If(condition, (ir.Repeat(2, (ir.If(condition, (), inner),)),), siblings),
    )
    assert_footprint_matches_what_is_there(body)
    assert ir.access_of_body(inner).referents <= ir.access_of_body(body).referents


def test_a_body_of_every_node_kind():
    """One body built from every member of ``Stmt`` and ``Expr``, each
    carrying a name nothing else in the body carries: a node kind added
    to either union has to be added here, and then the reflective
    reference fails a collector that does not descend into it."""
    body = (
        b.let("x", "u32", b.binop("+", "ipv4.src", b.map_get("under_let", b.hash_of("tcp.sport", modulus=8)))),
        b.assign("ipv4.ttl", ir.UnOp("~", ir.MetaRef("under_unop"))),
        b.assign("meta.assigned", ir.VarRef("x")),
        b.map_put("put", ir.FieldRef("ipv4", "dst"), ir.Const(1)),
        b.map_delete("deleted", ir.MetaRef("delete_key")),
        ir.If(
            b.binop("==", b.map_get("in_condition", 1), 0),
            (ir.Repeat(2, (b.call("recirculate"), b.call("emit_digest", "tcp.dport"))),),
            (b.map_put("in_else", 0, b.map_get("under_put", "ethernet.src")),),
        ),
    )
    kinds = {type(node) for stmt in body for node in ir_nodes(stmt)}
    assert kinds >= {*ir.Stmt.__args__, *ir.Expr.__args__}
    assert_footprint_matches_what_is_there(body)
    access = ir.FunctionDef("everything", body).access
    assert access.to_dict() == {
        "field_reads": ["ethernet.src", "ipv4.dst", "ipv4.src", "tcp.dport", "tcp.sport"],
        "field_writes": ["ipv4.ttl"],
        "meta_reads": ["delete_key", "under_unop"],
        "meta_writes": ["_digest", "_recirculate", "assigned"],
        "map_reads": ["in_condition", "under_let", "under_put"],
        "map_writes": ["deleted", "in_else", "put"],
    }


def test_the_footprint_lives_on_the_node():
    function = ir.FunctionDef("f", (b.map_put("m", "ipv4.src", 1),))
    assert function.access is function.access
    assert function.referents == function.access.referents == {("header", "ipv4"), ("map", "m")}
    action = ir.ActionDef("a", (("p", BitsType(8)),), (b.assign("tcp.dport", "p"),))
    assert action.access.field_writes == {ir.FieldRef("tcp", "dport")}
    # part of neither the value nor its printed form
    twin = ir.FunctionDef("f", function.body)
    assert twin == function and hash(twin) == hash(function) and repr(twin) == repr(function)


def test_the_actions_a_table_may_run():
    listed = ir.TableDef("t", (), ("a", "b"), 4, ir.ActionCall("b"))
    assert listed.invocable == ("a", "b")
    assert ir.TableDef("t", (), ("a", "b"), 4).invocable == ("a", "b")
    unlisted = ir.TableDef("t", (), ("a",), 4, ir.ActionCall("miss"))
    assert unlisted.invocable == ("a", "miss")
    assert ("action", "miss") in unlisted.referents

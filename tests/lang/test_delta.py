"""Incremental-change DSL tests."""

from dataclasses import replace

import pytest

from repro.errors import CompositionError
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import (
    AddAction,
    AddParserTransition,
    AddTable,
    AddTableActions,
    ChangeSet,
    Delta,
    InsertApply,
    RemoveElements,
    RemoveParserTransition,
    SetMapEntries,
    SetTableSize,
    apply_delta,
    match_elements,
    parse_delta,
)


class TestPatternMatching:
    def test_glob_matches_tables(self, base_program):
        assert match_elements(base_program, "l*", "table") == ["l2", "l3"]

    def test_kind_restriction(self, base_program):
        assert match_elements(base_program, "*", "map") == ["flow_counts"]

    def test_all_kinds(self, base_program):
        names = match_elements(base_program, "*")
        assert "acl" in names and "count_flow" in names and "flow_counts" in names

    def test_unknown_kind_rejected(self, base_program):
        with pytest.raises(CompositionError):
            match_elements(base_program, "*", "gadget")


class TestChangeSet:
    def test_merge_accumulates(self):
        first = ChangeSet(added=frozenset({"a"}))
        second = ChangeSet(removed=frozenset({"b"}), apply_changed=True)
        merged = first.merge(second)
        assert merged.added == frozenset({"a"})
        assert merged.removed == frozenset({"b"})
        assert merged.apply_changed

    def test_add_then_remove_cancels(self):
        first = ChangeSet(added=frozenset({"x"}))
        second = ChangeSet(removed=frozenset({"x"}))
        merged = first.merge(second)
        assert "x" not in merged.added
        assert "x" in merged.removed

    def test_is_empty(self):
        assert ChangeSet().is_empty()
        assert not ChangeSet(added=frozenset({"x"})).is_empty()


class TestOperations:
    def test_add_table_and_insert(self, base_program):
        drop2 = ir.ActionDef(name="drop2", params=(), body=(b.call("mark_drop"),))
        table = ir.TableDef(
            name="guard",
            keys=(ir.TableKey(field=b.field("ipv4.src"), match_kind=ir.MatchKind.EXACT),),
            actions=("drop2",),
            size=8,
            default_action=ir.ActionCall(action="drop2"),
        )
        delta = Delta(
            name="d",
            ops=(
                AddAction(drop2),
                AddTable(table),
                InsertApply(element="guard", position="before", anchor="acl"),
            ),
        )
        new_program, changes = apply_delta(base_program, delta)
        assert new_program.version == base_program.version + 1
        assert changes.added == frozenset({"guard"})
        assert new_program.apply[0] == ir.ApplyTable(table="guard")
        # original untouched
        assert not base_program.has_table("guard")

    def test_duplicate_add_rejected(self, base_program):
        table = base_program.table("acl")
        delta = Delta(name="d", ops=(AddTable(table),))
        with pytest.raises(CompositionError, match="already exists"):
            apply_delta(base_program, delta)

    def test_remove_prunes_apply_and_orphaned_actions(self, base_program):
        delta = Delta(name="d", ops=(RemoveElements(pattern="l2", kind="table"),))
        new_program, changes = apply_delta(base_program, delta)
        assert changes.removed == frozenset({"l2"})
        assert not any(
            isinstance(s, ir.ApplyTable) and s.table == "l2" for s in new_program.apply
        )
        # forward still referenced by l3, so not GC'd
        assert new_program.has_action("forward")

    def test_remove_orphan_action_gc(self, base_program):
        # removing both l2 and l3 orphans 'forward'
        delta = Delta(name="d", ops=(RemoveElements(pattern="l[23]", kind="table"),))
        new_program, changes = apply_delta(base_program, delta)
        assert changes.removed == frozenset({"l2", "l3"})
        assert not new_program.has_action("forward")

    def test_an_action_a_kept_table_only_defaults_to_is_not_orphaned(self, base_program):
        # acl defaults to dec_ttl without listing it; l3, which lists it, goes
        acl = replace(base_program.table("acl"), default_action=ir.ActionCall("dec_ttl"))
        program = replace(
            base_program,
            tables=tuple(acl if t.name == "acl" else t for t in base_program.tables),
        )
        delta = Delta(name="d", ops=(RemoveElements(pattern="l3", kind="table"),))
        new_program, _ = apply_delta(program, delta)  # validated: the default resolves
        assert new_program.has_action("dec_ttl")

        # and when the table that only defaults to it goes, it goes too
        unlisted_by_l3 = replace(program.table("l3"), actions=("forward", "nop"))
        acl_only = replace(
            program,
            tables=tuple(unlisted_by_l3 if t.name == "l3" else t for t in program.tables),
        )
        delta = Delta(name="d", ops=(RemoveElements(pattern="acl", kind="table"),))
        assert not apply_delta(acl_only, delta)[0].has_action("dec_ttl")

    def test_remove_no_match_rejected(self, base_program):
        delta = Delta(name="d", ops=(RemoveElements(pattern="zzz*"),))
        with pytest.raises(CompositionError, match="matches no"):
            apply_delta(base_program, delta)

    def test_resize_table(self, base_program):
        delta = Delta(name="d", ops=(SetTableSize(pattern="acl", size=4096),))
        new_program, changes = apply_delta(base_program, delta)
        assert new_program.table("acl").size == 4096
        assert changes.modified == frozenset({"acl"})

    def test_resize_map(self, base_program):
        delta = Delta(name="d", ops=(SetMapEntries(pattern="flow_*", max_entries=128),))
        new_program, _ = apply_delta(base_program, delta)
        assert new_program.map("flow_counts").max_entries == 128

    def test_attach_action(self, base_program):
        delta = Delta(name="d", ops=(AddTableActions(pattern="l2", actions=("drop",)),))
        new_program, changes = apply_delta(base_program, delta)
        assert "drop" in new_program.table("l2").actions
        assert changes.modified == frozenset({"l2"})

    def test_insert_missing_anchor_rejected(self, base_program):
        delta = Delta(
            name="d",
            ops=(InsertApply(element="count_flow", position="after", anchor="ghost"),),
        )
        with pytest.raises(CompositionError, match="anchor"):
            apply_delta(base_program, delta)

    def test_insert_append_at_end(self, base_program):
        delta = Delta(name="d", ops=(InsertApply(element="count_flow"),))
        new_program, _ = apply_delta(base_program, delta)
        assert new_program.apply[-1] == ir.ApplyFunction(function="count_flow")

    def test_parser_transition_add_remove(self, base_program):
        add = Delta(
            name="d",
            ops=(
                AddParserTransition(
                    ir.ParserTransition(
                        next_header="tcp",
                        select_field=b.field("ipv4.proto"),
                        select_value=17,
                    )
                ),
            ),
        )
        new_program, changes = apply_delta(base_program, add)
        assert changes.apply_changed
        assert new_program.parser.state_count == base_program.parser.state_count + 1

        remove = Delta(name="d2", ops=(RemoveParserTransition(next_header="tcp"),))
        trimmed, _ = apply_delta(new_program, remove)
        assert trimmed.parser.state_count == base_program.parser.state_count - 1

    def test_atomicity_on_failure(self, base_program):
        # second op fails; program must be unchanged
        table = ir.TableDef(
            name="guard",
            keys=(ir.TableKey(field=b.field("ipv4.src"), match_kind=ir.MatchKind.EXACT),),
            actions=("ghost_action",),  # unknown action -> joint analysis fails
            size=8,
        )
        delta = Delta(name="d", ops=(AddTable(table),))
        with pytest.raises(CompositionError, match="ill-typed"):
            apply_delta(base_program, delta)
        assert not base_program.has_table("guard")


class TestTextualDsl:
    def test_parse_full_delta(self, base_program):
        delta = parse_delta(
            """
            delta patch {
              add map syn_counts { key: ipv4.src; value: u32; max_entries: 64; }
              add action d2() { mark_drop(); }
              add table syn_filter { key: ipv4.src; actions: d2; size: 32; default: d2; }
              insert syn_filter before acl;
              resize table acl 2048;
            }
            """
        )
        assert delta.name == "patch"
        assert len(delta.ops) == 5
        new_program, changes = apply_delta(base_program, delta)
        assert changes.added == frozenset({"syn_filter", "syn_counts"})
        assert new_program.table("acl").size == 2048

    def test_parse_remove_with_glob(self, base_program):
        delta = parse_delta("delta d { remove table l* ; }")
        new_program, changes = apply_delta(base_program, delta)
        assert changes.removed == frozenset({"l2", "l3"})

    def test_parse_attach(self, base_program):
        delta = parse_delta("delta d { attach drop to l2; }")
        new_program, _ = apply_delta(base_program, delta)
        assert "drop" in new_program.table("l2").actions

    def test_parse_resize_map(self, base_program):
        delta = parse_delta("delta d { resize map flow_counts 99; }")
        new_program, _ = apply_delta(base_program, delta)
        assert new_program.map("flow_counts").max_entries == 99

    def test_parse_unknown_operation_rejected(self):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            parse_delta("delta d { explode table x; }")

    def test_delta_is_much_smaller_than_program(self, base_program):
        """E14's core claim in miniature: a patch is ~10x smaller than
        re-specifying the program."""
        patch_text = "delta d { resize table acl 2048; }"
        # a textual respecification would be at least one line per element
        program_size = (
            len(base_program.tables)
            + len(base_program.actions)
            + len(base_program.functions)
            + len(base_program.maps)
            + len(base_program.headers)
        )
        assert len(patch_text.splitlines()) * 10 <= program_size * 10
        assert len(patch_text) < 60

"""Facts carried from one program version to the next.

``ProgramFacts.of(new, previous=old)`` lets an element that is the old
version's own node, naming headers, maps and actions that are the same
objects in both, keep its type-check verdict, profile and access set.
The claim under test: that changes nothing but the work done. Every
case compares against the full path (``previous=None`` on an instance
that was never validated), for results and for what is raised.
"""

import copy
import gc
import pickle
import weakref
from dataclasses import dataclass, replace
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ProgramFacts
from repro.apps import base_infrastructure
from repro.errors import FlexNetError, TypeCheckError
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import (
    AddFunction,
    AddMap,
    ChangeSet,
    Delta,
    DeltaOp,
    RemoveElements,
    apply_delta,
)
from repro.lang.types import BitsType

from tests.corpus import app_deltas, delta_cases


def unvalidated(program: ir.Program, delta: Delta) -> ir.Program:
    """``delta`` applied to ``program`` without the validation
    ``Delta.apply_to`` ends on: a fresh instance nothing has checked."""
    for op in delta.ops:
        program, _ = op.apply(program)
    return program.bump_version()


def outcome(build: Callable[[], ProgramFacts]):
    """What ``build`` comes to: the facts compared field by field, or
    the exception's type and text."""
    try:
        facts = build()
    except FlexNetError as exc:
        return type(exc), str(exc)
    return (
        facts.certificate,
        facts.dataflow.elements,
        facts.dataflow.applied,
        facts.dataflow.apply_reads,
    )


def assert_carrying_changes_nothing(old: ProgramFacts, new: ir.Program):
    """``new`` (unvalidated) analysed with and without ``old`` to carry
    from; returns the carried outcome."""
    full = outcome(lambda: ProgramFacts.of(replace(new)))
    carried = outcome(lambda: ProgramFacts.of(replace(new), previous=old))
    assert carried == full
    return carried


class TestEquivalence:
    def test_every_bundled_program_and_delta(self):
        kept = 0
        for label, program, delta in delta_cases():
            old = ProgramFacts.of(program)
            new = unvalidated(program, delta)
            assert_carrying_changes_nothing(old, new)
            unchanged = new.unchanged_since(program)
            kept += len(unchanged)
            # carried means handed over, not recomputed to an equal value
            carried = ProgramFacts.of(new, previous=old)
            for name in unchanged:
                assert carried.certificate.profiles[name] is old.certificate.profiles[name], label
        assert kept > 5 * len(delta_cases())

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, len(app_deltas()) - 1), min_size=1, max_size=6))
    def test_facts_carried_across_several_versions(self, picks):
        deltas = app_deltas()
        facts = ProgramFacts.of(base_infrastructure())
        for pick in picks:
            try:
                new = unvalidated(facts.program, deltas[pick])
            except FlexNetError:
                continue  # this delta does not apply to this version
            if isinstance(assert_carrying_changes_nothing(facts, new)[0], type):
                continue  # rejected on both paths alike; the version stays
            facts = ProgramFacts.of(new, previous=facts)


@dataclass(frozen=True)
class Rewrite(DeltaOp):
    """A delta op the DSL has no word for (it cannot replace a header
    or an action): whatever ``edit`` does to the program."""

    edit: Callable[[ir.Program], ir.Program]

    def apply(self, program):
        return self.edit(program), ChangeSet(apply_changed=True)


def swap(items, name, new):
    """``items`` with the one called ``name`` replaced by ``new``
    (dropped when ``new`` is None); the others by reference."""
    return tuple(
        new if item.name == name else item
        for item in items
        if item.name != name or new is not None
    )


def field(program, header, name, width):
    old = program.header(header)
    fields = tuple((n, width if n == name else w) for n, w in old.fields)
    return replace(program, headers=swap(program.headers, header, replace(old, fields=fields)))


def flow_counts(**changes):
    return replace(base_infrastructure().map("flow_counts"), **changes)


#: Each delta leaves ``count_flow`` / ``l2`` / ``l3`` / ``acl`` as the
#: base program's own nodes and changes something they resolve.
THROUGH_A_REFERENT = {
    "map key arity under an untouched function": Delta(
        name="rekey",
        ops=(
            RemoveElements(pattern="flow_counts", kind="map"),
            AddMap(flow_counts(key_fields=(ir.FieldRef("ipv4", "src"),))),
        ),
    ),
    "map value width under an untouched function": Delta(
        name="narrow",
        ops=(
            RemoveElements(pattern="flow_counts", kind="map"),
            AddMap(flow_counts(value_type=BitsType(8))),
        ),
    ),
    "action an untouched table names, removed": Delta(
        name="drop_forward",
        ops=(Rewrite(lambda p: replace(p, actions=swap(p.actions, "forward", None))),),
    ),
    "action an untouched table names, re-parameterised": Delta(
        name="reparam_forward",
        ops=(
            Rewrite(
                lambda p: replace(
                    p,
                    actions=swap(
                        p.actions,
                        "forward",
                        ir.ActionDef(name="forward", params=(), body=(b.call("no_op"),)),
                    ),
                )
            ),
        ),
    ),
    "header field width": Delta(
        name="wide_ttl", ops=(Rewrite(lambda p: field(p, "ipv4", "ttl", 16)),)
    ),
    "header field removed": Delta(
        name="no_dst",
        ops=(
            Rewrite(
                lambda p: replace(
                    p,
                    headers=swap(
                        p.headers,
                        "ipv4",
                        ir.HeaderDef("ipv4", (("src", 32), ("proto", 8), ("ttl", 8))),
                    ),
                )
            ),
        ),
    ),
    "element re-added under its name with a different body": Delta(
        name="recount",
        ops=(
            RemoveElements(pattern="count_flow", kind="function"),
            AddFunction(
                ir.FunctionDef(
                    name="count_flow",
                    body=(b.map_put("flow_counts", "ipv4.src", "ipv4.dst", 1),),
                )
            ),
        ),
    ),
    "element re-added, ill-typed": Delta(
        name="miscount",
        ops=(
            RemoveElements(pattern="count_flow", kind="function"),
            AddFunction(
                ir.FunctionDef(
                    name="count_flow", body=(b.map_put("flow_counts", "ipv4.src", 1),)
                )
            ),
        ),
    ),
}

REJECTED = {
    "map key arity under an untouched function",
    "action an untouched table names, removed",
    "action an untouched table names, re-parameterised",
    "header field removed",
    "element re-added, ill-typed",
}


class TestInvalidatedThroughAReferent:
    @pytest.mark.parametrize("case", sorted(THROUGH_A_REFERENT))
    def test_raises_or_reports_what_the_full_path_does(self, case):
        base = base_infrastructure()
        delta = THROUGH_A_REFERENT[case]
        result = assert_carrying_changes_nothing(
            ProgramFacts.of(base), unvalidated(base, delta)
        )
        assert (result[0] is TypeCheckError) == (case in REJECTED)
        # the door every delta goes through carries too
        full = outcome(lambda: ProgramFacts.of(replace(unvalidated(base, delta))))
        assert outcome(lambda: ProgramFacts.of(delta.apply_to(base)[0])) == full

    def test_a_changed_referent_stops_the_carry_and_nothing_else_does(self):
        base = base_infrastructure()
        wide = unvalidated(base, THROUGH_A_REFERENT["header field width"])
        # every element but the two that read only ethernet names ipv4
        assert wide.unchanged_since(base) == {"drop", "forward", "nop", "l2"}
        rekeyed = unvalidated(base, THROUGH_A_REFERENT["map value width under an untouched function"])
        assert "count_flow" not in rekeyed.unchanged_since(base)
        assert {"acl", "l2", "l3", "ttl_guard"} <= rekeyed.unchanged_since(base)

    def test_an_element_shared_by_programs_with_different_headers(self):
        base = base_infrastructure()
        old = ProgramFacts.of(base)
        # same element objects, other header objects: equal ones, wider
        # ones, and ones that lack a field the elements read
        same = replace(base, headers=tuple(replace(h) for h in base.headers))
        assert same.unchanged_since(base) == {"drop", "forward", "nop"}  # name no header
        assert_carrying_changes_nothing(old, same)
        assert_carrying_changes_nothing(old, field(base, "ipv4", "src", 128))
        headless = replace(base, headers=swap(base.headers, "tcp", None), parser=None)
        assert_carrying_changes_nothing(old, headless)
        torn = replace(
            base,
            headers=swap(base.headers, "ethernet", ir.HeaderDef("ethernet", (("src", 48),))),
            parser=None,
        )
        assert assert_carrying_changes_nothing(old, torn)[0] is TypeCheckError

    def test_an_unvalidated_previous_vouches_for_nothing(self):
        base = base_infrastructure()
        bad_body = (b.assign("ipv4.nope", 1),)
        bad = replace(base, functions=(*base.functions, ir.FunctionDef("bad", bad_body)))
        later = replace(bad, version=bad.version + 1)  # same nodes, bad one included
        with pytest.raises(TypeCheckError, match="nope"):
            later.validate(previous=bad)


class TestValidateOnce:
    @pytest.fixture
    def statements_checked(self, monkeypatch):
        entered = []
        original = ir.Program._check_stmt

        def counted(self, stmt, scope):
            entered.append(stmt)
            return original(self, stmt, scope)

        monkeypatch.setattr(ir.Program, "_check_stmt", counted)
        return entered

    def test_a_validated_program_revalidates_without_a_walk(self, statements_checked):
        program = replace(base_infrastructure())
        assert program.validate() is program
        assert statements_checked
        del statements_checked[:]
        assert program.validate() is program
        assert ProgramFacts.of(program).program is program
        assert not statements_checked

    def test_a_copy_does_not_inherit_the_mark(self):
        program = base_infrastructure()
        assert program.bump_version() == replace(program, version=program.version + 1)
        ill_typed = replace(
            program,
            functions=(*program.functions, ir.FunctionDef("bad", (b.assign("ipv4.nope", 1),))),
        )
        with pytest.raises(TypeCheckError, match="nope"):
            ill_typed.validate()

    def test_a_failed_validation_marks_nothing(self):
        program = base_infrastructure()
        bad = replace(program, maps=(*program.maps, program.maps[0]))
        for _ in range(2):
            with pytest.raises(TypeCheckError, match="duplicate map"):
                bad.validate()

    def test_the_mark_is_no_part_of_the_value(self):
        marked = base_infrastructure()
        unmarked = replace(marked)
        assert marked == unmarked and hash(marked) == hash(unmarked)
        assert repr(marked) == repr(unmarked)


class TestUnchangedOnce:
    """An update asks ``unchanged_since`` of one pair twice (validation,
    then the version's facts); the answer is derived once and kept
    without keeping either version alive."""

    def test_an_update_derives_it_once(self, monkeypatch):
        from repro.core.flexnet import FlexNet

        net = FlexNet.standard()
        net.install(base_infrastructure())
        derived = []
        original = ir.Program._unchanged_since

        def counted(self, previous):
            derived.append(previous)
            return original(self, previous)

        monkeypatch.setattr(ir.Program, "_unchanged_since", counted)
        for delta in app_deltas()[:3]:
            del derived[:]
            live = net.controller.program
            net.update(delta)
            assert derived == [live], delta.name

    def test_an_older_version_can_be_collected(self):
        older = base_infrastructure()
        newer, _ = apply_delta(older, app_deltas()[0])
        answer = newer.unchanged_since(older)
        assert newer.unchanged_since(older) is answer  # kept
        gone = weakref.ref(older)
        del older
        gc.collect()
        assert gone() is None
        assert newer.unchanged_since(base_infrastructure()) == frozenset()

    def test_a_copy_answers_for_its_own_nodes(self):
        older = base_infrastructure()
        newer, _ = apply_delta(older, app_deltas()[0])
        assert newer.unchanged_since(older)
        assert copy.deepcopy(newer).unchanged_since(older) == frozenset()
        assert pickle.loads(pickle.dumps(newer)) == newer

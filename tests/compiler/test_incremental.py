"""Incremental recompilation tests (E7 foundations)."""

import collections

import pytest

from perf.workloads import COMPOSED_CYCLE, PROBE_CYCLE
from repro import apps
from repro.analysis.dataflow import analyze
from repro.compiler import fungibility
from repro.compiler.incremental import (
    IncrementalCompiler,
    diff_programs,
    full_recompile_plan,
)
from repro.compiler.placement import PlacementEngine
from repro.compiler.plan import StepKind
from repro.core.flexnet import FlexNet
from repro.lang import ir
from repro.lang.delta import Delta, RemoveElements, SetTableSize, apply_delta, parse_delta
from repro.scale import e20_net
from repro.targets.base import Target

from tests.conftest import make_standard_slice

ADD_DELTA = """
delta add_guard {
  add action g_drop() { mark_drop(); }
  add table guard { key: ipv4.src; actions: g_drop; size: 128; default: g_drop; }
  insert guard before acl;
}
"""


@pytest.fixture
def deployed(base_program, base_certificate):
    slice_ = make_standard_slice()
    engine = PlacementEngine()
    plan = engine.compile(base_program, base_certificate, slice_)
    return engine, plan, slice_


class TestDiff:
    def test_identical_programs_empty_diff(self, base_program):
        changes = diff_programs(base_program, base_program)
        assert changes.added == frozenset()
        assert changes.removed == frozenset()
        assert changes.modified == frozenset()
        assert not changes.apply_changed

    def test_added_element_detected(self, base_program):
        new_program, _ = apply_delta(base_program, parse_delta(ADD_DELTA))
        changes = diff_programs(base_program, new_program)
        assert changes.added == frozenset({"guard"})
        assert changes.apply_changed

    def test_removed_element_detected(self, base_program):
        delta = Delta(name="d", ops=(RemoveElements(pattern="l2", kind="table"),))
        new_program, _ = apply_delta(base_program, delta)
        changes = diff_programs(base_program, new_program)
        assert changes.removed == frozenset({"l2"})

    def test_modified_element_detected(self, base_program):
        delta = Delta(name="d", ops=(SetTableSize(pattern="acl", size=9999),))
        new_program, _ = apply_delta(base_program, delta)
        changes = diff_programs(base_program, new_program)
        assert changes.modified == frozenset({"acl"})


class TestIncrementalRecompile:
    def test_addition_moves_nothing(self, base_program, deployed):
        engine, plan, slice_ = deployed
        new_program, changes = apply_delta(base_program, parse_delta(ADD_DELTA))
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        assert result.reconfig.moved_elements == 0
        assert result.reconfig.added_elements == 1
        # survivors stayed put
        for element, device in plan.placement.items():
            assert result.new_plan.placement[element] == device

    def test_removal_produces_remove_steps(self, base_program, deployed):
        engine, plan, slice_ = deployed
        delta = Delta(name="d", ops=(RemoveElements(pattern="l2", kind="table"),))
        new_program, changes = apply_delta(base_program, delta)
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        kinds = [s.kind for s in result.reconfig.steps]
        assert StepKind.REMOVE in kinds
        assert kinds.count(StepKind.REMOVE) == 1

    def test_resize_charges_entry_updates(self, base_program, deployed):
        engine, plan, slice_ = deployed
        delta = Delta(name="d", ops=(SetTableSize(pattern="acl", size=2048),))
        new_program, changes = apply_delta(base_program, delta)
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        retier = [s for s in result.reconfig.steps if s.kind is StepKind.RETIER]
        assert len(retier) == 1
        assert retier[0].element == "acl"

    def test_makespan_reflects_concurrency(self, base_program, deployed):
        engine, plan, slice_ = deployed
        new_program, changes = apply_delta(base_program, parse_delta(ADD_DELTA))
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        assert result.reconfig.makespan_s() <= result.reconfig.total_cost_s + 1e-9

    def test_make_before_break_ordering(self, base_program, deployed):
        engine, plan, slice_ = deployed
        combined = Delta(
            name="swap",
            ops=parse_delta(ADD_DELTA).ops
            + (RemoveElements(pattern="l2", kind="table"),),
        )
        new_program, changes = apply_delta(base_program, combined)
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        kinds = [s.kind for s in result.reconfig.steps]
        assert kinds.index(StepKind.ADD) < kinds.index(StepKind.REMOVE)

    def test_versions_recorded(self, base_program, deployed):
        engine, plan, slice_ = deployed
        new_program, changes = apply_delta(base_program, parse_delta(ADD_DELTA))
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        assert result.reconfig.old_version == base_program.version
        assert result.reconfig.new_version == new_program.version

    def test_parser_change_gets_parser_step(self, base_program, deployed):
        engine, plan, slice_ = deployed
        delta = parse_delta(
            "delta d { add transition on ipv4.proto == 17 extract tcp; }"
        )
        new_program, changes = apply_delta(base_program, delta)
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        assert any(s.kind is StepKind.PARSER for s in result.reconfig.steps)


class TestFullRecompileBaseline:
    def test_full_recompile_never_beats_incremental_moves(self, base_program, deployed):
        engine, plan, slice_ = deployed
        new_program, changes = apply_delta(base_program, parse_delta(ADD_DELTA))
        incremental = IncrementalCompiler(engine).recompile(
            plan, new_program, slice_, changes
        )
        full = full_recompile_plan(plan, new_program, make_standard_slice())
        assert incremental.reconfig.moved_elements <= full.reconfig.moved_elements


class TestAnUpdateCostsWhatItsDeltaTouches:
    """Call counts over live ``net.update`` cycles: deterministic, so
    they guard what a wall-clock figure cannot. (At the parent commit
    the fabric cycle made 204 ``Target.demand`` calls and entered
    ``_check_stmt`` 50 times per update.)"""

    @pytest.fixture
    def calls(self, monkeypatch):
        """``calls[name]`` lists the arguments of every call to the
        wrapped functions."""
        calls = collections.defaultdict(list)

        def record(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        record(Target, "demand")
        record(ir.Program, "_check_stmt")
        record(ir._Collector, "stmt")  # noqa: SLF001 - the one footprint walk
        record(PlacementEngine, "_attempt")
        record(fungibility, "element_conflicts")
        return calls

    def test_the_ledgers_cycle_on_the_fabric(self, calls):
        net = e20_net(pods=4)
        devices = len(net.controller.slice().devices)
        deltas = [getattr(apps, name)() for name in COMPOSED_CYCLE]
        statements = 0
        collected: set[int] = set()
        for index in range(24):
            old = net.controller.program
            calls.clear()
            net.update(deltas[index % len(deltas)])
            new = net.controller.program

            per_pair = collections.Counter(
                (target.name, profile.name) for target, profile in calls["demand"]
            )
            assert max(per_pair.values()) == 1
            assert len(per_pair) <= devices * len(new.element_names)

            # Type-checked: what the delta added, or what names a map,
            # action or header the delta replaced — found here from the
            # access sets, not from the rule under test.
            kept = {id(node) for node in (*old.headers, *old.maps, *old.actions, *old.functions)}
            replaced = {
                node.name
                for node in (*new.headers, *new.maps, *new.actions)
                if id(node) not in kept
            }
            access = analyze(new).elements
            allowed: set[int] = set()
            for node in (*new.actions, *new.functions):
                named = access[node.name]
                names = {
                    *(ref.header for ref in named.field_reads | named.field_writes),
                    *named.map_reads,
                    *named.map_writes,
                }
                if id(node) not in kept or names & replaced:
                    allowed |= _statement_ids(node.body)
            entered = {id(stmt) for _, stmt, _ in calls["_check_stmt"]}
            assert entered <= allowed
            assert len(calls["_check_stmt"]) == len(entered)  # and each only once
            statements += len(entered)

            # Footprints: collected from the bodies the delta brought,
            # once per node for as long as the node lives.
            brought: set[int] = set()
            for node in (*new.actions, *new.functions):
                if id(node) not in kept:
                    brought |= _statement_ids(node.body)
            visited = [id(stmt) for _, stmt in calls["stmt"]]
            assert set(visited) <= brought
            assert len(visited) == len(set(visited)) and collected.isdisjoint(visited)
            collected.update(visited)
        assert 0 < statements < 24 * 5
        assert 0 < len(collected) < 24

    def test_a_table_over_existing_actions_collects_nothing(self, calls, flexnet):
        calls.clear()
        flexnet.update(
            parse_delta(
                "delta guard { add table guard { key: ipv4.src; actions: drop, nop; "
                "size: 128; default: nop; } insert guard before acl; }"
            )
        )
        assert flexnet.controller.program.has_table("guard")
        assert calls["stmt"] == [] and calls["_check_stmt"] == []

    def test_conflicts_are_worked_out_once_per_attempt_on_a_stage_local_slice(self, calls):
        # "rmt_static" is the stage-local pipeline; standard("rmt") models
        # the runtime upgrade, whose stages pool.
        net = FlexNet.standard("rmt_static")
        net.install(apps.base_infrastructure())
        calls.clear()
        for name in PROBE_CYCLE:
            net.update(getattr(apps, name)())
            assert net.controller.plan.stage_plans
        assert len(calls["_attempt"]) == len(calls["element_conflicts"]) == len(PROBE_CYCLE)


def _statement_ids(body) -> set[int]:
    ids: set[int] = set()
    for stmt in body:
        ids.add(id(stmt))
        for nested in ("then_body", "else_body", "body"):
            ids |= _statement_ids(getattr(stmt, nested, ()))
    return ids

"""Reconfiguration orchestrator tests."""

import pytest

from repro.compiler.incremental import IncrementalCompiler
from repro.compiler.placement import PlacementEngine
from repro.lang.delta import apply_delta, parse_delta
from repro.runtime.device import DeviceRuntime
from repro.runtime.reconfig import ReconfigOrchestrator
from repro.simulator.engine import EventLoop
from repro.simulator.packet import make_packet

from tests.conftest import make_standard_slice

ADD_GUARD = """
delta add_guard {
  add action g_drop() { mark_drop(); }
  add table guard { key: ipv4.src; actions: g_drop; size: 16; default: g_drop; }
  insert guard before acl;
}
"""

MOVE_NOTHING = "delta rm { resize table acl 2048; }"


@pytest.fixture
def deployment(base_program, base_certificate):
    slice_ = make_standard_slice()
    engine = PlacementEngine()
    plan = engine.compile(base_program, base_certificate, slice_)
    loop = EventLoop()
    devices = {spec.name: DeviceRuntime(spec.name, spec.target) for spec in slice_.devices}
    orchestrator = ReconfigOrchestrator(loop, devices)
    orchestrator.install_plan(plan)
    return engine, plan, slice_, loop, devices, orchestrator


class TestApply:
    def test_transition_report_windows(self, base_program, deployment):
        engine, plan, slice_, loop, devices, orchestrator = deployment
        new_program, changes = apply_delta(base_program, parse_delta(ADD_GUARD))
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        report = orchestrator.apply(result.reconfig, result.new_plan, old_plan=plan)
        assert report.steps_applied == len(result.reconfig.steps)
        assert report.finished_at > report.started_at
        assert "sw1" in report.device_windows

    def test_device_actually_transitions(self, base_program, deployment):
        engine, plan, slice_, loop, devices, orchestrator = deployment
        new_program, changes = apply_delta(base_program, parse_delta(ADD_GUARD))
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        report = orchestrator.apply(result.reconfig, result.new_plan, old_plan=plan)
        loop.run_until(report.finished_at + 0.1)
        packet = make_packet(1, 2)
        devices["sw1"].process(packet, loop.now)
        assert packet.versions_seen["sw1"] == new_program.version

    def test_sequential_updates_serialized(self, base_program, deployment):
        engine, plan, slice_, loop, devices, orchestrator = deployment
        v2, changes = apply_delta(base_program, parse_delta(ADD_GUARD))
        r1 = IncrementalCompiler(engine).recompile(plan, v2, slice_, changes)
        rep1 = orchestrator.apply(r1.reconfig, r1.new_plan, old_plan=plan)
        v3, changes3 = apply_delta(v2, parse_delta(MOVE_NOTHING))
        r2 = IncrementalCompiler(engine).recompile(r1.new_plan, v3, slice_, changes3)
        rep2 = orchestrator.apply(r2.reconfig, r2.new_plan, old_plan=r1.new_plan)
        w1 = rep1.device_windows["sw1"]
        w2 = rep2.device_windows["sw1"]
        assert w2[0] >= w1[1]  # second window starts after first ends
        loop.run()  # no ReconfigError raised

    def test_window_override_extends(self, base_program, deployment):
        engine, plan, slice_, loop, devices, orchestrator = deployment
        new_program, changes = apply_delta(base_program, parse_delta(ADD_GUARD))
        result = IncrementalCompiler(engine).recompile(plan, new_program, slice_, changes)
        report = orchestrator.apply(
            result.reconfig,
            result.new_plan,
            old_plan=plan,
            window_override={"sw1": 5.0},
        )
        start, end = report.device_windows["sw1"]
        assert end - start == pytest.approx(5.0)

    def test_unknown_device_rejected(self, deployment):
        *_, orchestrator = deployment
        with pytest.raises(Exception):
            orchestrator.device("ghost")


class TestStateCarryingMoves:
    def test_move_triggers_migration(self, base_program, base_certificate):
        """Force count_flow+flow_counts to move and verify migration."""
        slice_ = make_standard_slice()
        engine = PlacementEngine()
        plan = engine.compile(base_program, base_certificate, slice_)
        loop = EventLoop()
        devices = {s.name: DeviceRuntime(s.name, s.target) for s in slice_.devices}
        orchestrator = ReconfigOrchestrator(loop, devices)
        orchestrator.install_plan(plan)

        # Warm the state on sw1.
        devices["sw1"].process(make_packet(42, 43), 0.0)

        # Compile a new placement that pins the stateful cluster elsewhere.
        pins = dict(plan.placement)
        pins["count_flow"] = "nic2"
        pins["flow_counts"] = "nic2"
        new_program = base_program.bump_version()
        from repro.lang.analyzer import certify

        new_plan = engine.compile(new_program, certify(new_program), slice_, pinned=pins)
        assert new_plan.placement["count_flow"] == "nic2"
        reconfig = IncrementalCompiler(engine).transition(plan, new_plan, slice_)
        moves = [s for s in reconfig.steps if s.kind.value == "move"]
        assert any(s.carries_state for s in moves)

        report = orchestrator.apply(reconfig, new_plan, old_plan=plan)
        loop.run_until(report.finished_at + 0.1)
        assert report.migrations
        nic2 = devices["nic2"].active_instance
        assert nic2.maps.state("flow_counts").get((42, 43)) == 1

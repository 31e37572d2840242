"""Plan-artifact helper tests (DeviceSpec, CompilationPlan, ReconfigPlan)."""

import pytest

from repro.compiler.plan import (
    DeviceSpec,
    ReconfigPlan,
    ReconfigStep,
    StagePlan,
    StepKind,
)
from repro.compiler.placement import PlacementEngine
from repro.errors import CompilationError
from repro.targets import drmt_switch
from repro.targets.resources import ResourceVector

from tests.conftest import make_standard_slice


class TestDeviceSpec:
    def test_free_subtracts_used(self):
        spec = DeviceSpec("d", drmt_switch("d"), used=ResourceVector(sram_kb=100))
        assert spec.free["sram_kb"] == spec.target.capacity["sram_kb"] - 100

    def test_headroom(self):
        spec = DeviceSpec("d", drmt_switch("d"))
        assert spec.headroom(ResourceVector(sram_kb=1))
        assert not spec.headroom(ResourceVector(sram_kb=1e12))


class TestCompilationPlan:
    @pytest.fixture
    def plan(self, base_program, base_certificate):
        return PlacementEngine().compile(
            base_program, base_certificate, make_standard_slice()
        )

    def test_elements_on(self, plan):
        assert "acl" in plan.elements_on("sw1")
        assert plan.elements_on("h1") == []

    def test_device_of(self, plan):
        assert plan.device_of("acl") == "sw1"
        with pytest.raises(CompilationError):
            plan.device_of("ghost")

    def test_devices_used(self, plan):
        assert plan.devices_used == ["sw1"]


class TestReconfigPlan:
    def make_plan(self):
        steps = [
            ReconfigStep(kind=StepKind.ADD, element="a", device="sw1", cost_s=0.3),
            ReconfigStep(kind=StepKind.REMOVE, element="b", device="sw1", cost_s=0.2),
            ReconfigStep(
                kind=StepKind.MOVE, element="c", device="nic1",
                source_device="sw1", carries_state=True, cost_s=0.1,
            ),
        ]
        return ReconfigPlan(steps=steps, old_version=1, new_version=2)

    def test_counts(self):
        plan = self.make_plan()
        assert plan.added_elements == 1
        assert [step.kind for step in plan.steps].count(StepKind.REMOVE) == 1
        assert plan.moved_elements == 1
        assert not plan.is_empty()

    def test_total_cost(self):
        assert self.make_plan().total_cost_s == pytest.approx(0.6)

    def test_makespan_charges_move_to_both_sides(self):
        plan = self.make_plan()
        # sw1 serializes 0.3 + 0.2 + half the move's cost; nic1 only 0.1
        assert plan.makespan_s() == pytest.approx(0.3 + 0.2 + 0.05)

    def test_empty_plan(self):
        plan = ReconfigPlan(steps=[], old_version=1, new_version=2)
        assert plan.is_empty()
        assert plan.makespan_s() == 0.0


class TestStagePlan:
    def test_stages_used_empty(self):
        assert StagePlan(assignments={}).stages_used == 0

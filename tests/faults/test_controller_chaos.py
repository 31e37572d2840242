"""Controller-fault chaos scenarios (FlexHA, experiment E19)."""

from repro.apps import base_infrastructure, firewall_delta
from repro.faults import (
    ControllerCrash,
    DeviceCrash,
    FaultPlan,
    LeaderPartition,
    run_chaos,
    run_controller_chaos,
)
from repro.observe.report import divergences

UPDATE_AT_S = 5.0
CRASH_AT_S = 5.02  # right after the commit, mid two-phase transition


def leader_crash_plan(seed=7):
    return FaultPlan(
        seed=seed,
        controller_crashes=(
            ControllerCrash(node="leader", at_s=CRASH_AT_S, restart_after_s=2.0),
        ),
    )


def partition_plan(seed=7):
    return FaultPlan(
        seed=seed,
        partitions=(LeaderPartition(at_s=CRASH_AT_S, heal_after_s=3.0),),
    )


def run(plan, **kwargs):
    return run_controller_chaos(
        base_infrastructure(),
        firewall_delta(),
        plan,
        update_at_s=UPDATE_AT_S,
        **kwargs,
    )


class TestLeaderCrashMidTransition:
    def test_converges_with_zero_violations(self):
        report = run(leader_crash_plan())
        assert report.converged
        assert report.violations == 0
        assert report.ha["stale_writes_applied"] == 0
        assert not report.stranded
        assert report.ha["executed_updates"] == 1
        assert report.device_versions["sw1"] == report.target_version

    def test_failover_measured(self):
        report = run(leader_crash_plan())
        assert len(report.ha["failovers"]) == 1
        assert len(report.handoff_downtimes_s) == 1
        assert 0.0 < report.handoff_downtimes_s[0] < 2.0
        # The successor ran a resync sweep over the fleet.
        assert report.ha["resyncs"] >= 2

    def test_same_seed_reports_byte_identical(self):
        first = run(leader_crash_plan())
        second = run(leader_crash_plan())
        assert divergences(first.to_dict(), second.to_dict()) == []

    def test_different_seeds_differ(self):
        # The seed drives elections; a different seed must not silently
        # reuse the same scenario trace.
        first = run(leader_crash_plan(seed=7))
        second = run(leader_crash_plan(seed=8))
        assert divergences(first.to_dict(), second.to_dict()) != []


class TestLeaderPartition:
    def test_fencing_rejects_deposed_leader(self):
        report = run(partition_plan())
        assert report.converged
        assert report.violations == 0
        assert report.ha["epoch_rejections"] > 0
        assert report.ha["stale_writes_applied"] == 0

    def test_unfenced_baseline_lets_stale_writes_land(self):
        report = run(partition_plan(), fencing=False)
        assert report.ha["stale_writes_applied"] > 0
        assert report.ha["epoch_rejections"] == 0

    def test_partition_reports_byte_identical(self):
        first = run(partition_plan())
        second = run(partition_plan())
        assert divergences(first.to_dict(), second.to_dict()) == []


class TestOneReport:
    def test_controller_run_reports_device_crashes(self):
        plan = FaultPlan(
            seed=7,
            crashes=(DeviceCrash(device="sw1", at_s=5.2, restart_after_s=1.0),),
            controller_crashes=leader_crash_plan().controller_crashes,
        )
        report = run(plan)
        assert report.crashes == 1 and report.restarts == 1
        assert report.ha is not None
        # sw1 dies inside its window; the journal resumes it after the
        # fail-over, and the run still converges cleanly.
        assert report.resumed == 1
        assert report.converged and report.violations == 0

    def test_device_run_has_no_ha_section(self):
        report = run_chaos(
            base_infrastructure(),
            firewall_delta(),
            FaultPlan(seed=7),
            rate_pps=300,
            duration_s=3.0,
            update_at_s=1.5,
        )
        assert report.ha is None
        assert report.to_dict()["ha"] is None


class TestPlanDescribe:
    def test_controller_categories_described(self):
        plan = FaultPlan(
            seed=3,
            controller_crashes=(ControllerCrash(node="leader", at_s=1.0),),
            partitions=(LeaderPartition(at_s=2.0, heal_after_s=1.5),),
        )
        description = "\n".join(plan.describe())
        assert "controller crash leader at t=1s" in description
        assert "partition leader at t=2s" in description
        assert "heal after 1.5s" in description

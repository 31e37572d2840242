"""E16 — Fault injection and recovery during runtime reconfiguration.

The paper's runtime-reconfiguration promise (§2-§3) is only credible if
it survives the unhappy path. This experiment crashes a switch
*mid-delta* (inside its transition window) under a 1% lossy control
channel and contrasts:

* **recovery on** — retry-with-backoff on control messages, write-ahead
  journal, resume-on-restart: zero packet-inconsistent forwards, every
  updated device converges on the target version, and convergence is
  bounded by restart + backoff budget;
* **recovery off** — the crash freezes the cut-over half-applied: the
  switch restarts *stranded* in mixed old/new state and keeps forwarding
  packets inconsistently for the rest of the run.

Both runs are driven by the same seeded ``FaultPlan``; the experiment
also asserts bitwise reproducibility (two identical recovery runs).
"""

from benchmarks.harness import print_table

from repro.apps import base_infrastructure, firewall_delta
from repro.apps.nat import nat_delta
from repro.faults import ChannelFault, DeviceCrash, FaultPlan, RetryPolicy, run_chaos
from repro.observe.report import divergences

RATE_PPS = 1000
DURATION_S = 10.0
UPDATE_AT_S = 5.0
CRASH_AT_S = 5.2  # inside sw1's transition window (~[5.0, 5.47])
RESTART_AFTER_S = 1.0


def fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        crashes=(
            DeviceCrash(device="sw1", at_s=CRASH_AT_S, restart_after_s=RESTART_AFTER_S),
        ),
        channel=ChannelFault(drop_probability=0.01),
    )


def spread_deployment(net) -> None:
    """Host elements on nic1 as well as sw1 so path-level consistency is
    observable (a single hosting device can never show a mixed path)."""
    net.controller.deploy_app("flexnet://infra/nat", nat_delta(size=512))
    net.controller.migrate_app("flexnet://infra/nat", "nic1")


def chaos_run(recovery: bool):
    return run_chaos(
        base_infrastructure(),
        firewall_delta(),
        fault_plan(),
        recovery=recovery,
        rate_pps=RATE_PPS,
        duration_s=DURATION_S,
        update_at_s=UPDATE_AT_S,
        setup=spread_deployment,
    )


def run_experiment():
    return {
        "recovery": chaos_run(recovery=True),
        "recovery_repeat": chaos_run(recovery=True),
        "baseline": chaos_run(recovery=False),
    }


def test_e16_fault_recovery(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    recovery = results["recovery"]
    repeat = results["recovery_repeat"]
    baseline = results["baseline"]

    rows = []
    for label, report in (("recovery on", recovery), ("recovery off", baseline)):
        rows.append(
            [
                label,
                report.sent,
                report.lost,
                report.violations,
                ", ".join(report.stranded) or "-",
                "yes" if report.converged else "NO",
                (
                    f"{report.convergence_time_s:.2f}s"
                    if report.convergence_time_s is not None
                    else "never"
                ),
            ]
        )
    print_table(
        "E16: crash mid-delta + 1% control loss during a live firewall "
        f"injection ({RATE_PPS} pps, {DURATION_S:.0f}s)",
        ["mode", "sent", "lost", "inconsistent", "stranded", "converged", "convergence"],
        rows,
    )

    # The crash must actually land inside sw1's transition window —
    # otherwise the scenario degenerates to a clean restart.
    frozen = [e for e in recovery.events if e["kind"] == "crash" and "mid-delta" in e["detail"]]
    assert frozen, recovery.events

    # Recovery: no packet-inconsistent forwards, everything converges.
    assert recovery.violations == 0
    assert recovery.converged
    assert not recovery.stranded
    assert recovery.resumed == 1
    assert recovery.crashes == 1 and recovery.restarts == 1
    # Journal is clean: every entry resolved, the crashed window by resume.
    assert all(entry["state"] != "pending" for entry in recovery.journal)
    assert any(entry["resolution"] == "resume" for entry in recovery.journal)
    # Convergence is bounded: restart delay plus the retry budget.
    bound = RESTART_AFTER_S + RetryPolicy().total_backoff_s() + 0.5
    assert recovery.convergence_time_s is not None
    assert recovery.convergence_time_s <= bound
    # Loss is exactly the crash outage (no loss from reconfiguration).
    assert recovery.lost <= RATE_PPS * RESTART_AFTER_S * 1.1

    # Reproducibility: identical seeded runs produce identical reports.
    assert divergences(recovery.to_dict(), repeat.to_dict()) == []

    # Baseline: the switch restarts stranded mid-delta and keeps
    # forwarding a mixed old/new split — real consistency violations.
    assert baseline.stranded == ["sw1"]
    assert baseline.violations > 0
    assert not baseline.converged
    assert baseline.convergence_time_s is None
    # The stranded journal entry is still PENDING — recovery never ran.
    assert any(
        entry["device"] == "sw1" and entry["state"] == "pending"
        for entry in baseline.journal
    )

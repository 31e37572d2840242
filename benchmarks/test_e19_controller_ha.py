"""E19 — Controller fail-over, fencing, and resync (FlexHA).

The paper's §3.4 makes the controller itself distributed: "logically
centralized controllers are realized in physically distributed nodes,
which brings classic distributed systems concerns on consensus and
availability". E16 hardened the device side of the fault model; this
experiment closes the controller side. Three seeded scenarios on the
same slice, all with the firewall delta committed through the
replicated controller mid-traffic:

* **leader crash mid-two-phase** — the Raft leader dies 20ms after the
  update commits, while device windows are opening. The successor's
  no-op barrier drains the committed log, its resync sweep re-reads
  device ground truth, and the network must converge with **zero**
  consistency violations and **zero** stale-epoch writes applied. The
  leader-handoff downtime (leadership lost -> first resync complete) is
  the headline number.
* **leader partition (fenced)** — the leader is partitioned away but
  keeps believing it leads; every lease renewal and in-flight write it
  issues must bounce off the device fencing watermarks.
* **leader partition (unfenced baseline)** — the same partition with
  fencing disabled: the deposed leader's stale writes land, which is
  the corruption fencing buys out of.

Byte-identical reports across same-seed runs are asserted for the
crash scenario (the chaos-report reproducibility guarantee, extended to
controller faults). The run writes ``BENCH_e19.json`` at the repo root
(virtual-time and count fields only) in addition to the local
bench_tables.txt rows.
"""

from __future__ import annotations

import json
import pathlib

from benchmarks.harness import print_table

from repro.apps import base_infrastructure, firewall_delta
from repro.faults import (
    ControllerCrash,
    FaultPlan,
    LeaderPartition,
    run_controller_chaos,
)

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e19.json"

SEED = 7
RATE_PPS = 1000
DURATION_S = 10.0
UPDATE_AT_S = 5.0
FAULT_AT_S = 5.02  # post-commit, mid two-phase transition
MAX_HANDOFF_S = 1.0  # election timeout ceiling + barrier commit + sweep


def crash_run():
    plan = FaultPlan(
        seed=SEED,
        controller_crashes=(
            ControllerCrash(node="leader", at_s=FAULT_AT_S, restart_after_s=2.0),
        ),
    )
    return run_controller_chaos(
        base_infrastructure(),
        firewall_delta(),
        plan,
        rate_pps=RATE_PPS,
        duration_s=DURATION_S,
        update_at_s=UPDATE_AT_S,
    )


def partition_run(fencing: bool):
    plan = FaultPlan(
        seed=SEED,
        partitions=(LeaderPartition(at_s=FAULT_AT_S, heal_after_s=3.0),),
    )
    return run_controller_chaos(
        base_infrastructure(),
        firewall_delta(),
        plan,
        fencing=fencing,
        rate_pps=RATE_PPS,
        duration_s=DURATION_S,
        update_at_s=UPDATE_AT_S,
    )


def run_experiment():
    return {
        "crash": crash_run(),
        "crash_repeat": crash_run(),
        "partition_fenced": partition_run(fencing=True),
        "partition_unfenced": partition_run(fencing=False),
    }


def test_e19_controller_ha(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    crash = results["crash"]
    repeat = results["crash_repeat"]
    fenced = results["partition_fenced"]
    unfenced = results["partition_unfenced"]

    rows = []
    for label, report in (
        ("leader crash mid-2-phase", crash),
        ("partition, fenced", fenced),
        ("partition, unfenced", unfenced),
    ):
        handoff = (
            f"{max(report.handoff_downtimes_s) * 1000:.0f}ms"
            if report.handoff_downtimes_s
            else "-"
        )
        rows.append(
            [
                label,
                report.sent,
                report.violations,
                "yes" if report.converged else "NO",
                report.failovers,
                handoff,
                report.epoch_rejections,
                report.stale_writes_applied,
            ]
        )
    print_table(
        f"E19: controller fail-over under a committed update "
        f"({RATE_PPS} pps, {DURATION_S:.0f}s, fault at t={FAULT_AT_S:g}s)",
        [
            "scenario",
            "sent",
            "inconsistent",
            "converged",
            "failovers",
            "handoff",
            "stale rejected",
            "stale applied",
        ],
        rows,
    )

    handoff_s = max(crash.handoff_downtimes_s) if crash.handoff_downtimes_s else None
    RESULT_PATH.write_text(
        json.dumps(
            {
                "seed": SEED,
                "rate_pps": RATE_PPS,
                "duration_s": DURATION_S,
                "crash_converged": crash.converged,
                "crash_violations": crash.violations,
                "crash_stale_writes_applied": crash.stale_writes_applied,
                "crash_failovers": crash.failovers,
                "leader_handoff_downtime_s": handoff_s,
                "crash_resyncs": crash.resyncs,
                "crash_devices_redriven": crash.devices_redriven,
                "reports_byte_identical": crash.to_dict() == repeat.to_dict(),
                "fenced_epoch_rejections": fenced.epoch_rejections,
                "fenced_stale_writes_applied": fenced.stale_writes_applied,
                "fenced_converged": fenced.converged,
                "unfenced_stale_writes_applied": unfenced.stale_writes_applied,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # The gate: kill the leader mid two-phase transition and the network
    # still converges — zero consistency violations, zero stale-epoch
    # writes applied, and the hand-off is bounded.
    assert crash.converged
    assert crash.violations == 0
    assert crash.stale_writes_applied == 0
    assert not crash.stranded
    assert crash.failovers == 1
    assert handoff_s is not None and 0.0 < handoff_s <= MAX_HANDOFF_S
    # Reproducibility: identical seeded runs produce identical reports.
    assert crash.to_dict() == repeat.to_dict()
    # Fencing: the deposed leader's writes bounce; without fencing the
    # same scenario corrupts.
    assert fenced.converged and fenced.violations == 0
    assert fenced.epoch_rejections > 0
    assert fenced.stale_writes_applied == 0
    assert unfenced.stale_writes_applied > 0

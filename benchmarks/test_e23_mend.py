"""E23 — FlexMend fault-tolerant sharding: determinism through crashes.

E20 established that sharded execution reproduces the single-process
traffic report byte-for-byte. This experiment holds that identity
*through injected worker-process faults*: on the 4-pod composed
pipeline at 4 shards, two workers are killed mid-run (``os._exit`` at a
window boundary) while every shard also loses 10% and duplicates 20% of
its handoff batches (frames exist only on the live edges of the run —
one per shard of the forward chain — so a lower dup rate would leave
the "dups fired" gate to a handful of draws). The FlexMend
supervisor forks each dead worker afresh from its own untouched net,
in-neighbors replay the sequenced handoff stream from its first frame,
the new worker re-executes every window up to the crash (re-sent
frames are dropped as duplicates downstream), and the run completes.

The three arms — the single-process reference, the fault-free sharded
run and the chaos run — are built here, and both pairs are compared
through the one oracle (:func:`repro.observe.report.divergences`).
Three claims are gated:

* **Identity through faults** — the chaos arm's traffic report is
  identical to the fault-free sharded arm's *and* to the
  single-process reference's (0 divergences).
* **The faults actually fired** — both crashes were absorbed (2
  restarts recorded with their windows), and drops/dups hit the
  transport (recovered via NACK/retransmit and sequence dedup).
* **Report determinism** — a same-seed repeat of the chaos arm yields
  a byte-identical deterministic report (crash sites, restart counts,
  replayed windows, per-shard transport counters); only wall-clock
  measurements may vary.

The wall-clock rows go to stdout and the local bench_tables.txt; the
tracked ``BENCH_e23.json`` keeps the seeds, fault sites, divergences and
the deterministic mend report (CI's bench-smoke step also drives
``flexnet scale --worker-crash ... --differential``).
"""

from __future__ import annotations

import pathlib
import time

from benchmarks.harness import print_table, write_artifact

from repro.faults import FaultPlan, HandoffDrop, HandoffDup, WorkerCrash
from repro.observe.report import divergences
from repro.scale import e20_net, e20_workload, run_sharded
from repro.simulator.packet import reset_packet_ids

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e23.json"

PODS = 4
SHARDS = 4
PACKETS = 1500
RATE_PPS = 50_000.0
WORKLOAD_SEED = 7
PLAN_SEED = 11
CHAOS_SEED = 11
DRAIN_S = 0.01
CRASHES = (WorkerCrash(shard=0, window=6), WorkerCrash(shard=2, window=10))
DROP_P = 0.10
DUP_P = 0.20
#: wall-clock rows: printed, never tracked.
MEASURED = frozenset({"chaos_wall_s", "max_restart_wall_ms"})


def fault_plan() -> FaultPlan:
    return FaultPlan(
        seed=CHAOS_SEED,
        worker_crashes=CRASHES,
        handoff_drops=tuple(
            HandoffDrop(shard=shard, probability=DROP_P) for shard in range(SHARDS)
        ),
        handoff_dups=tuple(
            HandoffDup(shard=shard, probability=DUP_P) for shard in range(SHARDS)
        ),
    )


def fresh_arm():
    """Fresh fabric + same-seed workload; every arm starts identical."""
    reset_packet_ids()
    return e20_net(pods=PODS), e20_workload(PACKETS, rate_pps=RATE_PPS, seed=WORKLOAD_SEED)


def sharded(chaos=None):
    net, workload = fresh_arm()
    return run_sharded(
        net, workload, SHARDS, backend="process", seed=PLAN_SEED, drain_s=DRAIN_S, chaos=chaos
    )


def run_experiment() -> dict:
    net, workload = fresh_arm()
    reference = net.run_traffic(packets=workload, extra_time_s=DRAIN_S).to_dict()
    fault_free = sharded().traffic_dict()
    wall_start = time.perf_counter()
    chaos = sharded(fault_plan())
    chaos_wall_s = time.perf_counter() - wall_start
    found = [
        f"chaos vs {arm}: {divergence}"
        for arm, expected in (("fault-free sharded", fault_free), ("single-process", reference))
        for divergence in divergences(expected, chaos.traffic_dict())
    ]

    # Same-seed repeat of the chaos arm: the deterministic report —
    # traffic, sharding, and the mend section — must be identical.
    repeat_identical = not divergences(chaos.to_dict(), sharded(fault_plan()).to_dict())

    mend = chaos.mend
    fault_drops = sum(
        counters["fault_drops"] for counters in mend.per_shard.values()
    )
    fault_dups = sum(
        counters["fault_dups"] for counters in mend.per_shard.values()
    )
    return {
        "pods": PODS,
        "shards": SHARDS,
        "packets": PACKETS,
        "rate_pps": RATE_PPS,
        "workload_seed": WORKLOAD_SEED,
        "plan_seed": PLAN_SEED,
        "chaos_seed": CHAOS_SEED,
        "faults": fault_plan().describe()[1:],  # [0] is the seed
        "divergences": found,
        "repeat_report_identical": repeat_identical,
        "chaos_wall_s": round(chaos_wall_s, 3),
        "mend": mend.to_dict(),
        "fault_drops": fault_drops,
        "fault_dups": fault_dups,
        "max_restart_wall_ms": (
            round(max(mend.restart_wall_s) * 1e3, 2) if mend.restart_wall_s else None
        ),
    }


def test_e23_mend(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    mend = results["mend"]

    rows = [
        [
            f"shard {crash['shard']}",
            f"window {crash['window']}",
            "re-executed",
        ]
        for crash in mend["crashes"]
    ]
    rows.append(["handoff drops", results["fault_drops"], "NACK/retransmit"])
    rows.append(["handoff dups", results["fault_dups"], "sequence dedup"])
    print_table(
        f"E23: FlexMend determinism through faults ({SHARDS} shards, "
        f"{PACKETS} packets; {mend['restarts']} restart(s), "
        f"{mend['windows_replayed']} window(s) replayed, "
        f"slowest restart {results['max_restart_wall_ms']} ms; "
        f"divergences: {len(results['divergences'])})",
        ["fault", "site / count", "recovery"],
        rows,
    )

    write_artifact(RESULT_PATH, results, MEASURED)

    # Identity gate: identical to the fault-free sharded arm and to the
    # single-process reference, through every injected fault.
    assert results["divergences"] == []
    # The faults actually fired and were absorbed.
    assert mend["crashes"] == [
        {"shard": crash.shard, "window": crash.window} for crash in CRASHES
    ]
    assert mend["restarts"] == len(CRASHES)
    # Re-execution replays every window up to each crash.
    assert mend["windows_replayed"] == sum(crash.window for crash in CRASHES)
    assert results["fault_drops"] > 0
    assert results["fault_dups"] > 0
    # Determinism gate: the same-seed repeat reproduced the full
    # deterministic report byte-for-byte.
    assert results["repeat_report_identical"]

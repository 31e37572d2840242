"""E20 — FlexScale sharded simulation: identity and capacity.

The paper's runtime-programmable fabric only matters at fabric scale,
so the simulator must scale past one core *without giving up the
deterministic replay every other experiment leans on*. This experiment
runs the composed middlebox pipeline (base + firewall + INT + count-min
+ rate-limiter) on a 4-pod fabric — every pod switch carrying the full
program against its own private state — and drives the same seeded
Poisson workload through:

* the plain single-process engine (the reference arm), and
* FlexScale with 1, 2, and 4 forked worker shards.

Two claims are gated:

* **Identity** — the 2-shard run's traffic report is byte-for-byte the
  single-process report (0 divergences). This is the conservative
  lookahead protocol doing its job, not a statistical comparison.
* **Capacity bound** — at 4 shards the aggregate capacity (packets
  divided by the *slowest shard's CPU seconds*) is at least 2x the
  single-process capacity. CPU seconds, not wall seconds: CI
  containers often pin a single core, where perfectly parallel workers
  still serialize on the clock. Per-shard CPU time measures the work
  each worker had to do and counts no coordination, so the gated
  figure is an upper *bound* on what an N-core host could see, not
  what this host delivered. What it delivered is the wall speed-up
  column beside it (single-process wall ÷ arm wall, fork and merge
  included): printed with the visible core count, never gated or
  tracked, because it is a property of the host.

The wall / CPU / capacity rows go to stdout and the local
bench_tables.txt; the tracked ``BENCH_e20.json`` keeps the seeds,
divergences, windows and handoffs, which move only when behaviour does
(CI's bench-smoke step re-runs the 2-shard differential identity
check).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from benchmarks.harness import fmt, print_table, write_artifact

from repro.scale import e20_net, e20_workload, reference_run, run_sharded
from repro.simulator.packet import reset_packet_ids

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e20.json"

PODS = 4
PACKETS = 3500
RATE_PPS = 50_000.0
WORKLOAD_SEED = 7
PLAN_SEED = 11
DRAIN_S = 0.01
SHARD_COUNTS = (1, 2, 4)
MIN_SPEEDUP_4_SHARDS = 2.0
#: wall-clock, CPU and host rows: printed, never tracked.
MEASURED = frozenset({
    "host_cpu_count", "capacity_metric", "single_process", "wall_s",
    "max_shard_cpu_s", "aggregate_pps", "speedup_vs_single", "per_shard_cpu_s",
    "wall_speedup_vs_single",
})


def fresh_arm():
    """Fresh fabric + same-seed workload; every arm starts identical."""
    reset_packet_ids()
    net = e20_net(pods=PODS)
    workload = e20_workload(PACKETS, rate_pps=RATE_PPS, seed=WORKLOAD_SEED)
    return net, workload


def canon(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def run_experiment() -> dict:
    net, workload = fresh_arm()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    reference = reference_run(net, workload, drain_s=DRAIN_S)
    single_cpu_s = time.process_time() - cpu_start
    single_wall_s = time.perf_counter() - wall_start
    reference_json = canon(reference.to_dict())
    single_pps = PACKETS / single_cpu_s

    arms = {}
    for shards in SHARD_COUNTS:
        net, workload = fresh_arm()
        wall_start = time.perf_counter()
        report = run_sharded(
            net,
            workload,
            shards,
            backend="process",
            seed=PLAN_SEED,
            drain_s=DRAIN_S,
        )
        wall_s = time.perf_counter() - wall_start
        max_cpu_s = report.max_shard_cpu_s
        arms[shards] = {
            "shards": shards,
            "populated_shards": len(report.plan.populated_shards),
            "divergences": 0 if canon(report.traffic_dict()) == reference_json else 1,
            "windows": report.windows,
            "handoffs": report.handoffs,
            "wall_s": round(wall_s, 3),
            "wall_speedup_vs_single": round(single_wall_s / wall_s, 2),
            "max_shard_cpu_s": round(max_cpu_s, 3),
            "aggregate_pps": round(PACKETS / max_cpu_s, 1),
            "speedup_vs_single": round(PACKETS / max_cpu_s / single_pps, 2),
            "per_shard_cpu_s": {
                str(result.shard_id): round(result.cpu_s, 3)
                for result in report.shard_results
            },
        }

    return {
        "pods": PODS,
        "packets": PACKETS,
        "rate_pps": RATE_PPS,
        "workload_seed": WORKLOAD_SEED,
        "plan_seed": PLAN_SEED,
        "host_cpu_count": os.cpu_count(),
        "capacity_metric": "packets / max(per-shard CPU seconds)",
        "single_process": {
            "wall_s": round(single_wall_s, 3),
            "cpu_s": round(single_cpu_s, 3),
            "pps": round(single_pps, 1),
        },
        "sharded": {str(shards): arm for shards, arm in arms.items()},
    }


def test_e20_scale(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    single = results["single_process"]
    arms = results["sharded"]

    rows = [
        ["single", "—", fmt(single["cpu_s"]), fmt(single["pps"], 4), "1.00x",
         "1.00x", "—"]
    ]
    for shards in SHARD_COUNTS:
        arm = arms[str(shards)]
        rows.append(
            [
                f"{shards} shard(s)",
                arm["divergences"],
                fmt(arm["max_shard_cpu_s"]),
                fmt(arm["aggregate_pps"], 4),
                f"{arm['speedup_vs_single']:.2f}x",
                f"{arm['wall_speedup_vs_single']:.2f}x",
                arm["handoffs"],
            ]
        )
    print_table(
        f"E20: FlexScale capacity on the {PODS}-pod composed pipeline "
        f"({PACKETS} packets @ {RATE_PPS:.0f} pps, "
        f"{results['host_cpu_count']} host core(s); "
        f"capacity = packets / max shard CPU-s)",
        ["arm", "divergences", "max cpu (s)", "capacity pps", "capacity bound",
         "wall speed-up", "handoffs"],
        rows,
    )

    write_artifact(RESULT_PATH, results, MEASURED)

    # Identity gate: every sharded arm reproduces the single-process
    # traffic report byte-for-byte.
    for shards in SHARD_COUNTS:
        assert arms[str(shards)]["divergences"] == 0, f"{shards} shard(s) diverged"
    # The 4-shard plan actually uses 4 workers with real boundaries.
    assert arms["4"]["populated_shards"] == 4
    assert arms["4"]["handoffs"] > 0
    # Capacity gate (a bound: CPU of the slowest shard, no
    # coordination): 4 shards carry at least twice the single-process
    # load per CPU second.
    assert arms["4"]["speedup_vs_single"] >= MIN_SPEEDUP_4_SHARDS, arms["4"]

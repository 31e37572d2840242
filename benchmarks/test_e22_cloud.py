"""E22 — FlexCloud batched tenant admission at cloud churn.

The paper's §1.1 story ("summon the DDoS defense") at fleet scale: a
seeded 100k-tenant flash crowd churns through the FlexCloud admission
engine — bounded per-SLA queues, weighted scheduling rounds, and the
coalescer folding each round's deltas into **one batched WriteRequest
per home device** instead of one reconfiguration window per tenant.

Gates (the ISSUE 9 acceptance criteria):

* the flash crowd **converges**: every delta applies, zero isolation
  violations against per-slice ground truth and live datapath probes;
* coalescing runs **>=5x fewer** reconfiguration windows than naive
  per-delta admission while landing on the *same end state* (digest,
  applied/shed counts equal);
* the report is **byte-identical** across same-seed runs *and* across
  ``shards=2`` (the executor's rotated device-sweep partitioning), the
  determinism FlexScale's merge rests on.

A seeded 20k-tenant DDoS-defense burst (evict attackers + harden gold
tenants mid-run) rides along as a secondary row. The run writes
``BENCH_e22.json`` at the repo root (virtual-time and count fields
only; the wall-clock rows are printed).
"""

from __future__ import annotations

import pathlib
import time

from benchmarks.harness import fmt, print_table, write_artifact

from repro.cloud.scenarios import ddos_defense, flash_crowd, run_scenario

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e22.json"

TENANTS = 100_000
SEED = 2026
TARGET_COALESCE = 5.0
#: wall-clock rows: printed, never tracked.
MEASURED = frozenset({
    "coalesced_wall_s", "naive_wall_s", "ddos_wall_s", "deltas_per_s_coalesced",
})


def _timed(events, **kwargs):
    start = time.perf_counter()
    report = run_scenario(events, **kwargs)
    return report, time.perf_counter() - start


def run_experiment() -> dict:
    events = flash_crowd(tenants=TENANTS, seed=SEED)
    coalesced, coalesced_s = _timed(
        events, scenario="flash-crowd", seed=SEED, probes=16
    )
    repeat, _ = _timed(events, scenario="flash-crowd", seed=SEED, probes=16)
    sharded, _ = _timed(
        events, scenario="flash-crowd", seed=SEED, probes=16, shards=2
    )
    naive, naive_s = _timed(
        events, scenario="flash-crowd", seed=SEED, probes=16, coalesce=False
    )

    ddos_events = ddos_defense(tenants=20_000, seed=SEED)
    ddos, ddos_s = _timed(ddos_events, scenario="ddos-defense", seed=SEED, probes=16)

    return {
        "tenants": TENANTS,
        "seed": SEED,
        "flash_crowd": coalesced.to_dict(),
        "flash_crowd_naive": naive.to_dict(),
        "ddos_defense": ddos.to_dict(),
        "window_ratio_naive_over_coalesced": naive.windows / coalesced.windows,
        "same_seed_byte_identical": coalesced.to_dict() == repeat.to_dict(),
        "shards2_byte_identical": coalesced.to_dict() == sharded.to_dict(),
        "coalesced_wall_s": coalesced_s,
        "naive_wall_s": naive_s,
        "ddos_wall_s": ddos_s,
        "deltas_per_s_coalesced": len(events) / max(coalesced_s, 1e-9),
    }


def test_e22_cloud(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    crowd = results["flash_crowd"]
    naive = results["flash_crowd_naive"]
    ddos = results["ddos_defense"]
    print_table(
        f"E22: FlexCloud admission at {results['tenants']} tenants "
        f"(seed {results['seed']})",
        ["scenario", "windows", "coalesce", "violations", "deltas/s"],
        [
            [
                "flash crowd (coalesced)",
                crowd["windows"],
                f"{crowd['coalesce_ratio']:.1f}x",
                crowd["violations"],
                fmt(results["deltas_per_s_coalesced"], 4),
            ],
            [
                "flash crowd (naive serial)",
                naive["windows"],
                "1.0x",
                naive["violations"],
                fmt(naive["applied"] / max(results["naive_wall_s"], 1e-9), 4),
            ],
            [
                "ddos defense (20k, burst)",
                ddos["windows"],
                f"{ddos['coalesce_ratio']:.1f}x",
                ddos["violations"],
                fmt(ddos["applied"] / max(results["ddos_wall_s"], 1e-9), 4),
            ],
        ],
    )

    write_artifact(RESULT_PATH, results, MEASURED)

    # Convergence: every delta lands, isolation holds end to end.
    assert crowd["applied"] == crowd["events"] and crowd["shed"] == 0
    assert crowd["violations"] == 0
    assert ddos["violations"] == 0 and ddos["failed"] == 0

    # Coalescing: >=5x fewer windows than naive, *equal* end state.
    ratio = results["window_ratio_naive_over_coalesced"]
    assert ratio >= TARGET_COALESCE, ratio
    assert naive["end_state_digest"] == crowd["end_state_digest"]
    assert (naive["applied"], naive["shed"]) == (crowd["applied"], crowd["shed"])

    # Determinism: byte-identical across runs and across shard counts.
    assert results["same_seed_byte_identical"]
    assert results["shards2_byte_identical"]

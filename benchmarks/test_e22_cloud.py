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

E22b prints what one coalesced batch costs in wall time, per lane. The
100k-tenant run above is the *entry lane*: a tenant is a map entry, a
batch is one write per home device, and no program is analysed or
placed (the two analyses and one compile its row counts are the
fleet's own install). The *extension lane* composes real tenant
programs, and there each batch pays one admission analysis
(``admit.ms``: the composition plus ``ProgramFacts.of``) and one
placement compile (``placement.ms``) of the whole composed program,
which grows with every admitted tenant; a 48-tenant sample shows the
per-batch figure and how it grows.
"""

from __future__ import annotations

import contextlib
import pathlib
import time

from benchmarks.harness import call_stats, fmt, print_table, write_artifact
from benchmarks.test_e12_tenant_churn import tenant_extension

from repro.analysis import ProgramFacts
from repro.apps.base import base_infrastructure
from repro.cloud.admission import ExtensionExecutor, TenantDelta
from repro.cloud.scenarios import EntryExecutor, ddos_defense, flash_crowd, run_scenario
from repro.compiler.placement import PlacementEngine
from repro.control.controller import FlexNetController
from repro.core.flexnet import FlexNet
from repro.lang.composition import Permission, TenantSpec

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e22.json"

TENANTS = 100_000
SEED = 2026
TARGET_COALESCE = 5.0
#: wall-clock rows: printed, never tracked.
MEASURED = frozenset({
    "coalesced_wall_s", "naive_wall_s", "ddos_wall_s", "deltas_per_s_coalesced",
    "per_batch_wall",
})
#: extension-lane sample size: tenants admitted through ``net.submit``.
EXTENSION_TENANTS = 48


@contextlib.contextmanager
def _batch_costs(executor_class):
    """Wall time per coalesced batch while the block runs: the batch as
    a whole, its admission analysis and its placement compile."""
    with contextlib.ExitStack() as stack:
        timers = {
            "batch": stack.enter_context(call_stats(executor_class, "execute")),
            "compose": stack.enter_context(
                call_stats(FlexNetController, "_compose_with_tenants")
            ),
            "facts": stack.enter_context(call_stats(ProgramFacts, "of")),
            "placement": stack.enter_context(call_stats(PlacementEngine, "compile")),
        }
        costs: dict = {}
        yield costs
    batches = max(timers["batch"]["calls"], 1)
    costs.update(
        batches=timers["batch"]["calls"],
        analyses=timers["facts"]["calls"],
        compiles=timers["placement"]["calls"],
        batch_ms=timers["batch"]["seconds"] * 1e3 / batches,
        admit_ms=(timers["compose"]["seconds"] + timers["facts"]["seconds"]) * 1e3 / batches,
        placement_ms=timers["placement"]["seconds"] * 1e3 / batches,
    )


def extension_lane_sample() -> list[dict]:
    """Admit ``EXTENSION_TENANTS`` tenant programs through the
    extension lane, a third at a time: one row per third, so the growth
    of the per-batch cost with the composed program shows."""
    net = FlexNet.standard()
    net.install(base_infrastructure())
    rows = []
    third = EXTENSION_TENANTS // 3
    for start in range(0, EXTENSION_TENANTS, third):
        with _batch_costs(ExtensionExecutor) as costs:
            for index in range(start, start + third):
                name = f"t{index}"
                spec = TenantSpec(name=name, vlan_id=100 + index, permission=Permission())
                net.submit(
                    TenantDelta(
                        kind="admit", tenant=name, spec=spec, extension=tenant_extension(name)
                    )
                )
            net.cloud.drain_until_idle()
        costs["tenants"] = len(net.controller.tenant_names)
        costs["elements"] = len(net.controller.program.element_names)
        rows.append(costs)
    return rows


def _timed(events, **kwargs):
    start = time.perf_counter()
    report = run_scenario(events, **kwargs)
    return report, time.perf_counter() - start


def run_experiment() -> dict:
    events = flash_crowd(tenants=TENANTS, seed=SEED)
    with _batch_costs(EntryExecutor) as entry_lane:
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
        "per_batch_wall": {
            "entry_lane": entry_lane,
            "extension_lane": extension_lane_sample(),
        },
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

    per_batch = results["per_batch_wall"]
    entry = per_batch["entry_lane"]
    print_table(
        "E22b: wall per coalesced batch (ms; analyses / compiles are counts)",
        ["lane", "batches", "batch.ms", "admit.ms", "placement.ms", "analyses", "compiles"],
        [
            [
                f"entry, flash crowd ({results['tenants']} tenants)",
                entry["batches"],
                fmt(entry["batch_ms"]),
                fmt(entry["admit_ms"]),
                fmt(entry["placement_ms"]),
                entry["analyses"],
                entry["compiles"],
            ]
        ]
        + [
            [
                f"extension, to {row['tenants']} tenants ({row['elements']} elements)",
                row["batches"],
                fmt(row["batch_ms"]),
                fmt(row["admit_ms"]),
                fmt(row["placement_ms"]),
                row["analyses"],
                row["compiles"],
            ]
            for row in per_batch["extension_lane"]
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

"""E21 — the flow memo's batch entry vs the compiled fast path.

E17 established the per-packet compiled closure tree and runs the flow
memo one packet at a time. E21 feeds the same E2 workload through
:meth:`FlowCache.process_batch` instead: each :class:`PacketBatch` is
grouped by observation key and each unseen key executes **once** through
the compiled fast path, with the outcome scattered back per packet and
table counters bumped with group multiplicity. On the stateless hosted
slice (the regime the paper's disaggregation story targets — exactly
the slice E17's memo row runs on) the batch entry must run at least
**5x faster** than the E17 whole-program compiled fast path, while
staying **byte-identical** to the interpreter: verdicts, fields,
metadata, digests, op counts, map state, and table counters
(``batched_differential`` = 0 divergences, on the slice and — through
the per-packet bypass — on the whole stateful base program).

The run writes ``BENCH_e21.json`` at the repo root (CI's bench-smoke
reads it) in addition to the bench_tables.txt row.
"""

from __future__ import annotations

import copy
import json
import pathlib
import time

from benchmarks.harness import fmt, print_table
from benchmarks.test_e17_fastpath import e2_corpus, e2_program, realistic_rules

from repro.apps import base_infrastructure
from repro.simulator.batch import PacketBatch, batched_differential
from repro.simulator.fastpath import FlowCache
from repro.simulator.pipeline_exec import ProgramInstance

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e21.json"

N_PACKETS = 4000
BATCH_SIZE = 256
#: E17's stateless hosted slice: the whole program writes flow_counts,
#: so whole-program memoization is statically rejected; a device
#: hosting only the stateless tables memoizes its slice.
HOSTED_SLICE = frozenset({"acl", "fw_block", "l2", "l3", "ttl_guard"})
TARGET_SPEEDUP = 5.0


def _bench_scalar(instance: ProgramInstance, packets: list) -> float:
    """Packets/second, one per-packet pass (deep-copied work set)."""
    work = [copy.deepcopy(p) for p in packets]
    process = instance.process
    start = time.perf_counter()
    for i, packet in enumerate(work):
        process(packet, i * 1e-4)
    # Clamped like cli.measure(): pps must never divide by ~zero.
    return len(work) / max(time.perf_counter() - start, 1e-9)


def _bench_batched(
    cache: FlowCache, instance: ProgramInstance, packets: list, batch_size: int = BATCH_SIZE
) -> float:
    """Packets/second through ``FlowCache.process_batch`` in fixed-size
    windows."""
    work = [copy.deepcopy(p) for p in packets]
    chunks = []
    for offset in range(0, len(work), batch_size):
        rows = work[offset : offset + batch_size]
        times = [(offset + i) * 1e-4 for i in range(len(rows))]
        chunks.append(PacketBatch(rows, times=times))
    process_batch = cache.process_batch
    start = time.perf_counter()
    for chunk in chunks:
        process_batch(instance, chunk)
    return len(work) / max(time.perf_counter() - start, 1e-9)


def run_experiment() -> dict:
    program = e2_program()
    packets = e2_corpus(N_PACKETS)

    # -- differential: batched outcomes byte-identical to interpreted ----
    # Memo replay on the hosted slice (the gated configuration) ...
    diff_slice = batched_differential(
        program,
        packets,
        hosted_elements=set(HOSTED_SLICE),
        setup=realistic_rules,
        batch_size=BATCH_SIZE,
    )
    # ... and the per-packet bypass on the whole stateful base program.
    diff_base = batched_differential(
        base_infrastructure(), packets, batch_size=BATCH_SIZE
    )
    divergences = len(diff_slice.divergences) + len(diff_base.divergences)

    # -- throughput: E17's whole-program compiled baseline ---------------
    compiled = ProgramInstance(program, fastpath=True)
    realistic_rules(compiled)
    sliced = ProgramInstance(program, hosted_elements=set(HOSTED_SLICE), fastpath=True)
    realistic_rules(sliced)
    batched = ProgramInstance(program, hosted_elements=set(HOSTED_SLICE), fastpath=True)
    realistic_rules(batched)
    cache = FlowCache()

    _bench_scalar(compiled, packets[:500])  # warm (closure build)
    _bench_scalar(sliced, packets[:500])
    _bench_batched(cache, batched, packets[:500])  # warm (memo + codegen key)
    # Best of three passes per executor: pps is noise-bounded from above,
    # so the max is the better estimate of each executor's true rate. The
    # passes are interleaved so a drift in host speed hits every executor
    # alike and cancels in the gated ratio.
    compiled_pps = sliced_pps = batched_pps = 0.0
    for _ in range(3):
        compiled_pps = max(compiled_pps, _bench_scalar(compiled, packets))
        sliced_pps = max(sliced_pps, _bench_scalar(sliced, packets))
        batched_pps = max(batched_pps, _bench_batched(cache, batched, packets))

    return {
        "packets": len(packets),
        "batch_size": BATCH_SIZE,
        "divergences": divergences,
        "compiled_pps": compiled_pps,
        "sliced_compiled_pps": sliced_pps,
        "batched_pps": batched_pps,
        "speedup_vs_compiled": batched_pps / compiled_pps,
        "speedup_vs_sliced": batched_pps / sliced_pps,
        "cache_stats": cache.stats.to_dict(),
    }


def test_e21_batch(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    stats = results["cache_stats"]
    print_table(
        f"E21: flow memo batch entry on the E2 workload "
        f"({results['packets']} packets, batch={results['batch_size']})",
        ["executor", "pps", "vs compiled", "divergences"],
        [
            [
                "FlexPath compiled (whole program)",
                fmt(results["compiled_pps"], 4),
                "1.0x",
                results["divergences"],
            ],
            [
                "FlexPath compiled (stateless slice)",
                fmt(results["sliced_compiled_pps"], 4),
                f"{results['sliced_compiled_pps'] / results['compiled_pps']:.2f}x",
                "",
            ],
            [
                "FlowCache.process_batch (stateless slice)",
                fmt(results["batched_pps"], 4),
                f"{results['speedup_vs_compiled']:.2f}x",
                f"memo hits {stats['hits']}",
            ],
        ],
    )

    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    assert results["divergences"] == 0
    assert results["speedup_vs_compiled"] >= TARGET_SPEEDUP, results[
        "speedup_vs_compiled"
    ]
    assert stats["hits"] > 0
    # The slice is cacheable and its token stayed live: nothing bypassed.
    assert stats["bypasses"] == 0

"""E17 — FlexPath compiled fast path vs the tree-walking interpreter.

The data-plane simulator's reference executor walks the IR tree with
isinstance dispatch on every packet. FlexPath generates one Python
function per program instance (plus indexed table lookup) and must
(a) run the E2 workload — base infrastructure with the firewall delta
applied, realistic rules — at least **5x faster** in
packets/second, and (b) produce **byte-identical outcomes**: verdicts,
fields, metadata, digests, op counts, map state, and table counters.
The per-device flow memo, driven through ``FlowCache.process`` as the
device drives it, must (c) serve the program's stateless hosted slice
with hits and no bypass, and (d) stay byte-identical to the
interpreter on that slice. Its speed is reported like for like — memo
on the slice over compiled on the *same* slice — and gated only at
``TARGET_MEMO_SPEEDUP``, a value ten runs cleared (they read 0.98x to
1.54x, median 1.24x; compiled read 6.65x to 12.04x the interpreter): a
generated function over five stateless tables costs little more than
the memo's own admit + token + key + replay, so the row can no longer
carry a "2x" claim, only catch a memo that got dearer (ROADMAP item 2
keeps the question of what the memo still earns end to end).

The pps rows go to stdout and the local bench_tables.txt; the tracked
``BENCH_e17.json`` keeps the counts and divergences, which move only
when behaviour does.
"""

from __future__ import annotations

import copy
import pathlib
import time

from benchmarks.harness import fmt, print_table, write_artifact

from repro.apps import base_infrastructure, firewall_delta
from repro.lang.delta import apply_delta
from repro.lang.ir import ActionCall
from repro.simulator import fastpath
from repro.simulator.packet import make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, exact, lpm, ternary

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e17.json"

N_PACKETS = 4000
N_FLOWS = 64
TARGET_SPEEDUP = 5.0
TARGET_MEMO_SPEEDUP = 0.8  # compiled + memo over compiled, both on the slice
#: wall-clock rows: printed, never tracked.
MEASURED = frozenset({
    "interpreted_pps", "compiled_pps", "compiled_slice_pps", "compiled_cached_pps",
    "speedup_compiled", "speedup_cached", "speedup_memo_vs_compiled",
})


def e2_program():
    """The E2 workload program: base infrastructure + firewall delta."""
    program, _ = apply_delta(base_infrastructure(), firewall_delta())
    return program


def realistic_rules(instance: ProgramInstance) -> None:
    """Operator-realistic rule content: a handful of entries that the
    traffic actually hits (L2 station entry, L3 prefixes, one ACL deny,
    one firewall block) — the regime the fast path is built for."""
    instance.rules["l2"].insert(
        Rule(matches=(exact(0x0000AABBCCDD),), action=ActionCall("forward", (2,)))
    )
    for prefix, port in ((0x0A010000, 3), (0x0A020000, 4), (0x0A030000, 5)):
        instance.rules["l3"].insert(
            Rule(matches=(lpm(prefix, 16),), action=ActionCall("forward", (port,)))
        )
    instance.rules["l3"].insert(
        Rule(matches=(lpm(0x0A000000, 8),), action=ActionCall("dec_ttl", ()))
    )
    # Deny one /24 of sources outright, and firewall-block one server.
    instance.rules["acl"].insert(
        Rule(
            matches=(ternary(0x0A00FF00, 0xFFFFFF00), ternary(0, 0)),
            action=ActionCall("drop", ()),
            priority=10,
        )
    )
    instance.rules["fw_block"].insert(
        Rule(
            matches=(ternary(0, 0), ternary(0x0A0200FE, 0xFFFFFFFF)),
            action=ActionCall("fw_drop", ()),
            priority=10,
        )
    )


def e2_corpus(count: int = N_PACKETS) -> list:
    """A flow mix over the installed prefixes: mostly forwarded, some
    ACL-denied, some firewall-blocked — every table exercised."""
    packets = []
    for i in range(count):
        flow = i % N_FLOWS
        src = 0x0A000000 | ((flow % 7) << 16) | ((0xFF00 if flow % 13 == 0 else flow) << 8) | (flow & 0xFF)
        dst = 0x0A010000 + (flow % 3) * 0x10000 + (0xFE if flow % 11 == 0 else flow)
        packets.append(
            make_packet(src, dst, src_port=1000 + flow, dst_port=80 + (flow % 4))
        )
    return packets


def _bench(instance: ProgramInstance, packets: list, cache=None) -> float:
    """Packets/second over one pass (packets are deep-copied per run so
    executors never see each other's header writes)."""
    work = [copy.deepcopy(p) for p in packets]
    start = time.perf_counter()
    if cache is None:
        process = instance.process
        for i, packet in enumerate(work):
            process(packet, i * 1e-4)
    else:
        process = cache.process
        for i, packet in enumerate(work):
            if process(instance, packet, i * 1e-4) is None:
                instance.process(packet, i * 1e-4)
    elapsed = time.perf_counter() - start
    return len(work) / elapsed


def run_experiment() -> dict:
    program = e2_program()
    packets = e2_corpus()
    # The whole program writes flow_counts, so whole-program caching is
    # statically rejected; a device hosting only the stateless tables —
    # the paper's disaggregation story — caches its slice.
    hosted = {"acl", "fw_block", "l2", "l3", "ttl_guard"}

    # -- differential: both arms byte-identical to interpreted -----------
    diff = fastpath.differential_check(program, packets, setup=realistic_rules)
    memo_diff = fastpath.differential_check(
        program, packets, hosted_elements=set(hosted), setup=realistic_rules,
        cache=fastpath.FlowCache(),
    )

    # -- throughput: interpreted vs compiled (full program) vs memo ------
    interp = ProgramInstance(program)
    realistic_rules(interp)
    compiled = ProgramInstance(program, fastpath=True)
    realistic_rules(compiled)
    sliced = ProgramInstance(program, hosted_elements=set(hosted), fastpath=True)
    realistic_rules(sliced)
    cache = fastpath.FlowCache()

    _bench(interp, packets[:500])  # warm every path (index/codegen/key build)
    _bench(compiled, packets[:500])
    _bench(sliced, packets[:500])
    _bench(sliced, packets[:500], cache=cache)
    # Best of three passes per executor: pps is noise-bounded from above,
    # so the max is the better estimate of each executor's true rate. The
    # passes are interleaved so a drift in host speed hits every executor
    # alike and cancels in the gated ratios.
    interp_pps = compiled_pps = sliced_pps = cached_pps = 0.0
    for _ in range(3):
        interp_pps = max(interp_pps, _bench(interp, packets))
        compiled_pps = max(compiled_pps, _bench(compiled, packets))
        sliced_pps = max(sliced_pps, _bench(sliced, packets))
        cached_pps = max(cached_pps, _bench(sliced, packets, cache=cache))

    return {
        "packets": len(packets),
        "flows": N_FLOWS,
        "divergences": len(diff.divergences),
        "memo_divergences": len(memo_diff.divergences),
        "interpreted_pps": interp_pps,
        "compiled_pps": compiled_pps,
        "compiled_slice_pps": sliced_pps,
        "compiled_cached_pps": cached_pps,
        "speedup_compiled": compiled_pps / interp_pps,
        "speedup_cached": cached_pps / interp_pps,
        "speedup_memo_vs_compiled": cached_pps / sliced_pps,
        "cache_stats": cache.stats.to_dict(),
    }


def test_e17_fastpath(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_table(
        f"E17: FlexPath fast path on the E2 workload "
        f"({results['packets']} packets, {results['flows']} flows)",
        ["executor", "pps", "speedup", "divergences"],
        [
            ["interpreter (reference)", fmt(results["interpreted_pps"], 4), "1.0x", 0],
            [
                "FlexPath compiled",
                fmt(results["compiled_pps"], 4),
                f"{results['speedup_compiled']:.2f}x",
                results["divergences"],
            ],
            [
                "FlexPath compiled (stateless slice)",
                fmt(results["compiled_slice_pps"], 4),
                f"{results['compiled_slice_pps'] / results['interpreted_pps']:.2f}x",
                "—",
            ],
            [
                "FlexPath + flow memo (stateless slice)",
                fmt(results["compiled_cached_pps"], 4),
                f"{results['speedup_cached']:.2f}x "
                f"({results['speedup_memo_vs_compiled']:.2f}x compiled on the slice)",
                f"{results['memo_divergences']}, "
                f"hit rate {results['cache_stats']['hit_rate']:.0%}",
            ],
        ],
    )

    write_artifact(RESULT_PATH, results, MEASURED)

    assert results["divergences"] == 0
    assert results["memo_divergences"] == 0
    assert results["speedup_compiled"] >= TARGET_SPEEDUP, results["speedup_compiled"]
    assert results["speedup_memo_vs_compiled"] >= TARGET_MEMO_SPEEDUP, results[
        "speedup_memo_vs_compiled"
    ]
    assert results["cache_stats"]["hits"] > 0
    assert results["cache_stats"]["bypasses"] == 0

"""E17 — FlexPath compiled fast path vs the tree-walking interpreter.

The data-plane simulator's reference executor walks the IR tree with
isinstance dispatch on every packet. FlexPath generates one Python
function per program instance (plus indexed table lookup) and must
(a) run the E2 workload — base infrastructure with the firewall delta
applied, realistic rules — at least **5x faster** in
packets/second, and (b) produce **byte-identical outcomes**: verdicts,
fields, metadata, digests, op counts, map state, and table counters.

(c) **A populated ternary table does not cost its rule count per
packet.** The same program *whole* — it writes ``flow_counts``, so no
per-flow replay could ever serve it — over the same 64-flow corpus
with ``ACL_RULES`` non-matching ternary rules on top of the realistic
ones must keep the compiled arm at ``TARGET_POPULATED_RATIO`` of its
rate at the realistic rules alone, with 0 divergences: a non-exact
table remembers what each key decided until its rules change, so a
flow pays the scan once. Without that the ratio reads 0.03x (every
packet scans 256 predicates); with it ~0.6x, the remainder being each
flow's one cold scan per pass over a 4000-packet corpus.

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
ACL_RULES = 256
TARGET_POPULATED_RATIO = 0.3  # compiled at +256 ACL rules over compiled at realistic rules
#: wall-clock rows: printed, never tracked.
MEASURED = frozenset({
    "interpreted_pps", "compiled_pps", "compiled_populated_pps",
    "speedup_compiled", "populated_ratio",
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


def populated_rules(instance: ProgramInstance) -> None:
    """``realistic_rules`` plus ``ACL_RULES`` ternary denies for sources
    no packet of the corpus carries (192.168.x.y), below the realistic
    deny: every lookup has them to get past, and none changes a verdict."""
    realistic_rules(instance)
    for index in range(ACL_RULES):
        instance.rules["acl"].insert(
            Rule(
                matches=(ternary(0xC0A80000 + index, 0xFFFFFFFF), ternary(0, 0)),
                action=ActionCall("drop", ()),
                priority=5,
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


def _bench(instance: ProgramInstance, packets: list) -> float:
    """Packets/second over one pass (packets are deep-copied per run so
    executors never see each other's header writes)."""
    work = [copy.deepcopy(p) for p in packets]
    process = instance.process
    start = time.perf_counter()
    for i, packet in enumerate(work):
        process(packet, i * 1e-4)
    elapsed = time.perf_counter() - start
    return len(work) / elapsed


def run_experiment() -> dict:
    program = e2_program()
    packets = e2_corpus()

    # -- differential: byte-identical to interpreted, at both rule sets --
    diff = fastpath.differential_check(program, packets, setup=realistic_rules)
    populated_diff = fastpath.differential_check(program, packets, setup=populated_rules)

    # -- throughput: interpreted vs compiled vs compiled, ACL populated --
    interp = ProgramInstance(program)
    realistic_rules(interp)
    compiled = ProgramInstance(program, fastpath=True)
    realistic_rules(compiled)
    populated = ProgramInstance(program, fastpath=True)
    populated_rules(populated)

    for instance in (interp, compiled, populated):
        _bench(instance, packets[:500])  # warm every path (index/codegen)
    # Best of three passes per executor: pps is noise-bounded from above,
    # so the max is the better estimate of each executor's true rate. The
    # passes are interleaved so a drift in host speed hits every executor
    # alike and cancels in the gated ratios. Each populated pass starts
    # with the ACL having forgotten its decisions, as after a rule
    # change: every flow pays its one scan inside the timed pass.
    interp_pps = compiled_pps = populated_pps = 0.0
    for _ in range(3):
        interp_pps = max(interp_pps, _bench(interp, packets))
        compiled_pps = max(compiled_pps, _bench(compiled, packets))
        populated.rules["acl"]._invalidate()  # noqa: SLF001
        populated_pps = max(populated_pps, _bench(populated, packets))

    acl = populated.rules["acl"]
    return {
        "packets": len(packets),
        "flows": N_FLOWS,
        "divergences": len(diff),
        "populated_acl_rules": len(acl),
        "populated_divergences": len(populated_diff),
        "populated_keys_decided": len(acl._decided),  # noqa: SLF001
        "interpreted_pps": interp_pps,
        "compiled_pps": compiled_pps,
        "compiled_populated_pps": populated_pps,
        "speedup_compiled": compiled_pps / interp_pps,
        "populated_ratio": populated_pps / compiled_pps,
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
                f"FlexPath compiled, +{ACL_RULES} ternary ACL rules",
                fmt(results["compiled_populated_pps"], 4),
                f"{results['populated_ratio']:.2f}x compiled",
                f"{results['populated_divergences']}, "
                f"{results['populated_keys_decided']} keys decided",
            ],
        ],
    )

    write_artifact(RESULT_PATH, results, MEASURED)

    assert results["divergences"] == 0
    assert results["populated_divergences"] == 0
    assert results["speedup_compiled"] >= TARGET_SPEEDUP, results["speedup_compiled"]
    assert results["populated_ratio"] >= TARGET_POPULATED_RATIO, results["populated_ratio"]
    assert results["populated_keys_decided"] <= N_FLOWS

"""E18 — FlexScope observability overhead and fidelity.

Observability is only deployable if it is (a) free when off and (b)
cheap when on. This experiment runs the E2 workload — base
infrastructure with the firewall delta injected mid-traffic — three
ways:

* **disabled** — the FlexScope façade exists but is never enabled
  (the shipping default);
* **traced 1/64** — tracing, metrics, and profiling on at the default
  1-in-64 packet sampling rate, which must cost **≤ 10%** more CPU
  than the disabled run;
* **traced 1/1** — every packet traced (informational; not gated).

The gate is taken the way E17 takes its ratios, on passes short enough
for the host to hold still: disabled and traced passes of the same
workload cut to 2 virtual seconds alternate (which goes first
alternates too), each is timed with ``time.process_time()``, and the
gated figure is the median of the 24 per-pair traced ÷ disabled ratios.
A drift in host speed then hits both halves of a pair alike and a
descheduled pass costs no CPU time. Best-of-3 wall pps of full-size
arms run one after the other flapped between +3.6% and +48.4% on an
unchanged tree, and six full-size pairs still read -3% to +14%; 24
short ones read +2.5% to +7.0% over seven runs.

Fidelity is asserted alongside cost: the traced runs must report the
exact same traffic outcome as the disabled run (sampling reroutes a
packet through the interpreter, never changes its fate), every
reconfiguration window must be reconstructable from the span tree, and
two traced runs must export byte-identical metrics and spans.

The pps and overhead rows go to stdout and the local bench_tables.txt;
the tracked ``BENCH_e18.json`` keeps the span counts and identity
verdicts, which move only when behaviour does.
"""

from __future__ import annotations

import gc
import pathlib
import statistics
import time

from benchmarks.harness import fmt, print_table, write_artifact

from repro.apps import base_infrastructure, firewall_delta
from repro.core.flexnet import FlexNet
from repro.runtime.consistency import ConsistencyLevel
from repro.simulator.packet import reset_packet_ids

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e18.json"

RATE_PPS = 2000
DURATION_S = 10.0
LEVEL = ConsistencyLevel.PER_PACKET_PATH
MAX_OVERHEAD = 0.10  # traced 1/64 may cost at most 10% more CPU than disabled
#: the timed passes: short and many, each order first as often as the other
TIMED_DURATION_S = 2.0
PAIRS = 24
#: host-time rows: printed, never tracked.
MEASURED = frozenset({
    "disabled_pps", "traced_pps", "full_trace_pps",
    "overhead_1_in_64", "overhead_1_in_1", "pair_ratios",
})


def workload_run(sample_every: int | None, duration_s: float = DURATION_S):
    """One E2 run, the delta injected half way; ``sample_every=None``
    leaves FlexScope disabled. Returns ``(net, traffic_report,
    cpu_seconds)``."""
    reset_packet_ids()  # identical cut-over draws across variants
    net = FlexNet.standard()
    if sample_every is not None:
        net.observe.enable(sample_every=sample_every)
    net.install(base_infrastructure())
    delta = firewall_delta()
    net.schedule(duration_s / 2, lambda: net.update(delta, consistency=LEVEL))
    gc.collect()  # the previous pass's net is garbage: do not bill it to this one
    start = time.process_time()
    report = net.run_traffic(
        rate_pps=RATE_PPS, duration_s=duration_s, consistency_level=LEVEL,
        extra_time_s=2.0,
    )
    return net, report, time.process_time() - start


def run_experiment() -> dict:
    _, disabled_report, disabled_cpu = workload_run(None)
    full_net, full_report, full_cpu = workload_run(1)
    spans_full = full_net.observe.tracer.total_spans
    del full_net  # 100k spans the timed passes' collections need not walk
    repeat_net, _, _ = workload_run(64)
    traced_net, traced_report, _ = workload_run(64)

    timed = {None: [], 64: []}
    for pair in range(PAIRS):
        for sample_every in ((None, 64) if pair % 2 == 0 else (64, None)):
            _, report, cpu_s = workload_run(sample_every, TIMED_DURATION_S)
            timed[sample_every].append(report.metrics.sent / cpu_s)
    pair_ratios = [disabled / traced for disabled, traced in zip(timed[None], timed[64])]

    # Fidelity: tracing must not perturb the simulation.
    outcome = disabled_report.metrics.to_dict()
    assert traced_report.metrics.to_dict() == outcome
    assert full_report.metrics.to_dict() == outcome

    # Every reconfig window is reconstructable from the span tree.
    windows = traced_net.observe.tracer.spans(kind="window")
    updates = traced_net.observe.tracer.spans(kind="update")

    # Determinism: two traced runs export byte-identical spans and
    # metrics (wall-clock profiler columns are excluded by design).
    spans_match = (
        repeat_net.observe.tracer.to_dict() == traced_net.observe.tracer.to_dict()
    )
    metrics_match = (
        repeat_net.observe.metrics.to_prometheus()
        == traced_net.observe.metrics.to_prometheus()
    )

    return {
        "rate_pps": RATE_PPS,
        "duration_s": DURATION_S,
        "sent": disabled_report.metrics.sent,
        "disabled_pps": statistics.median(timed[None]),
        "traced_pps": statistics.median(timed[64]),
        "full_trace_pps": full_report.metrics.sent / full_cpu,
        "pair_ratios": pair_ratios,
        "overhead_1_in_64": statistics.median(pair_ratios) - 1.0,
        "overhead_1_in_1": full_cpu / disabled_cpu - 1.0,
        "spans": traced_net.observe.tracer.total_spans,
        "spans_full": spans_full,
        "windows": len(windows),
        "updates": len(updates),
        "outcomes_identical": True,
        "spans_deterministic": spans_match,
        "metrics_deterministic": metrics_match,
    }


def test_e18_observe(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    print_table(
        f"E18: FlexScope overhead on the E2 workload "
        f"({RATE_PPS} pps, {DURATION_S:.0f}s, firewall delta at t={DURATION_S / 2:.0f}s)",
        ["mode", "pps (CPU, median)", "overhead", "spans"],
        [
            ["disabled", fmt(results["disabled_pps"], 4), "—", 0],
            [
                "traced 1/64",
                fmt(results["traced_pps"], 4),
                f"{results['overhead_1_in_64'] * 100:+.1f}% (median of {PAIRS} alternating "
                f"{TIMED_DURATION_S:.0f} s pairs, quartiles "
                + " ".join(
                    f"{ratio - 1:+.1%}"
                    for ratio in statistics.quantiles(results["pair_ratios"], n=4)[::2]
                )
                + ")",
                results["spans"],
            ],
            [
                "traced 1/1",
                fmt(results["full_trace_pps"], 4),
                f"{results['overhead_1_in_1'] * 100:+.1f}%",
                results["spans_full"],
            ],
        ],
    )

    write_artifact(RESULT_PATH, results, MEASURED)

    # The gate: default-rate tracing costs at most 10% more CPU.
    assert results["overhead_1_in_64"] <= MAX_OVERHEAD, results["overhead_1_in_64"]
    # The update produced a real, reconstructable transition.
    assert results["updates"] == 1
    assert results["windows"] >= 1
    # Same-scenario runs export byte-identical observability.
    assert results["spans_deterministic"]
    assert results["metrics_deterministic"]

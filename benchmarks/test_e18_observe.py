"""E18 — FlexScope observability overhead and fidelity.

Observability is only deployable if it is (a) free when off and (b)
cheap when on. This experiment runs the E2 workload — base
infrastructure with the firewall delta injected mid-traffic — three
ways:

* **disabled** — the FlexScope façade exists but is never enabled
  (the shipping default);
* **traced 1/64** — tracing, metrics, and profiling on at the default
  1-in-64 packet sampling rate, which must cost **≤ 10%** of the
  disabled run's packets/second;
* **traced 1/1** — every packet traced (informational; not gated).

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

import pathlib
import time

from benchmarks.harness import fmt, print_table, write_artifact

from repro.apps import base_infrastructure, firewall_delta
from repro.core.flexnet import FlexNet
from repro.runtime.consistency import ConsistencyLevel
from repro.simulator.packet import reset_packet_ids

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e18.json"

RATE_PPS = 2000
DURATION_S = 10.0
UPDATE_AT_S = 5.0
LEVEL = ConsistencyLevel.PER_PACKET_PATH
MAX_OVERHEAD = 0.10  # traced 1/64 may cost at most 10% of disabled pps
#: wall-clock rows: printed, never tracked.
MEASURED = frozenset({
    "disabled_pps", "traced_pps", "full_trace_pps",
    "overhead_1_in_64", "overhead_1_in_1",
})


def workload_run(sample_every: int | None):
    """One E2 run; ``sample_every=None`` leaves FlexScope disabled.
    Returns ``(net, traffic_report, wall_pps)``."""
    reset_packet_ids()  # identical cut-over draws across variants
    net = FlexNet.standard()
    if sample_every is not None:
        net.observe.enable(sample_every=sample_every)
    net.install(base_infrastructure())
    delta = firewall_delta()
    net.schedule(UPDATE_AT_S, lambda: net.update(delta, consistency=LEVEL))
    start = time.perf_counter()
    report = net.run_traffic(
        rate_pps=RATE_PPS, duration_s=DURATION_S, consistency_level=LEVEL,
        extra_time_s=2.0,
    )
    elapsed = time.perf_counter() - start
    return net, report, report.metrics.sent / elapsed


def best_of(sample_every: int | None, passes: int = 3):
    """pps is noise-bounded from above; keep the fastest pass."""
    best = None
    for _ in range(passes):
        net, report, pps = workload_run(sample_every)
        if best is None or pps > best[2]:
            best = (net, report, pps)
    return best


def run_experiment() -> dict:
    _, disabled_report, disabled_pps = best_of(None)
    traced_net, traced_report, traced_pps = best_of(64)
    full_net, full_report, full_pps = best_of(1)

    # Fidelity: tracing must not perturb the simulation.
    outcome = disabled_report.metrics.to_dict()
    assert traced_report.metrics.to_dict() == outcome
    assert full_report.metrics.to_dict() == outcome

    # Every reconfig window is reconstructable from the span tree.
    windows = traced_net.observe.tracer.spans(kind="window")
    updates = traced_net.observe.tracer.spans(kind="update")

    # Determinism: a second traced run exports byte-identical spans
    # and metrics (wall-clock profiler columns are excluded by design).
    repeat_net, _, _ = workload_run(64)
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
        "disabled_pps": disabled_pps,
        "traced_pps": traced_pps,
        "full_trace_pps": full_pps,
        "overhead_1_in_64": disabled_pps / traced_pps - 1.0,
        "overhead_1_in_1": disabled_pps / full_pps - 1.0,
        "spans": traced_net.observe.tracer.total_spans,
        "spans_full": full_net.observe.tracer.total_spans,
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
        f"({RATE_PPS} pps, {DURATION_S:.0f}s, firewall delta at t={UPDATE_AT_S:.0f}s)",
        ["mode", "pps (wall)", "overhead", "spans"],
        [
            ["disabled", fmt(results["disabled_pps"], 4), "—", 0],
            [
                "traced 1/64",
                fmt(results["traced_pps"], 4),
                f"{results['overhead_1_in_64'] * 100:+.1f}%",
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

    # The gate: default-rate tracing costs at most 10% of throughput.
    assert results["overhead_1_in_64"] <= MAX_OVERHEAD, results["overhead_1_in_64"]
    # The update produced a real, reconstructable transition.
    assert results["updates"] == 1
    assert results["windows"] >= 1
    # Same-scenario runs export byte-identical observability.
    assert results["spans_deterministic"]
    assert results["metrics_deterministic"]

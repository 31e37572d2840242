"""The measurement protocol: repeats, correctness checks, the metrics.

One call of :func:`run_workload` is one invocation's worth of one
workload: a discarded warm-up, untraced timed repeats (the only source
of end-to-end numbers), optionally traced repeats (the only source of
span-derived per-layer numbers), and last the untimed reference arm.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from functools import partial

from perf import layers
from perf.spans import Tracer, installed_probes, probing
from perf.workloads import Arm, Workload, run_arm

#: name -> (unit, better, bound): the share of the parent commit's
#: median by which the metric may worsen before it is a regression.
#: Each bound is at least three times the widest spread (IQR / median
#: over ten invocations) seen for the metric on any workload; see the
#: README's noise protocol.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "hops_per_s": ("1/s", "higher", 0.20),
    "update_ms_p50": ("ms", "lower", 0.20),
    "update_ms_p90": ("ms", "lower", 0.25),
    "sim_latency_us_mean": ("virt_us", "lower", 0.01),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}
#: The end-to-end metrics that repeat exactly for a given seed.
EXACT = ("sim_latency_us_mean",)

MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
QUICK_DIVISOR = 10


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


def spread(values: list[float]) -> dict:
    """Median and quartiles of one metric's per-repeat values."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def report_sha(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def peak_rss_mb(children: bool) -> float:
    """``ru_maxrss`` of this process, plus the largest waited-for child
    when the workload forks (each workload runs in its own process)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024


def reference_report(workload: Workload, seed: int, packets: int) -> Arm:
    """The reference arm: same net and traffic, interpreter, one process."""
    return run_arm(workload, seed, packets, reference=True)


def _wants_more(done: int, count: int | None, deadline: float, minimum: int) -> bool:
    """Repeat ``count`` times, or until ``deadline`` (at least ``minimum``)."""
    if count is not None:
        return done < count
    return done < minimum or time.perf_counter() < deadline


def run_workload(
    workload: Workload,
    seed: int,
    *,
    seconds: float,
    repeats: int | None = None,
    trace: bool = False,
    quick: bool = False,
    keep_spans: bool = False,
) -> dict:
    """Measure one workload; returns its section of the result file
    (with the fastest traced repeat's raw spans under ``"spans"`` when
    ``keep_spans``)."""
    packets = workload.packets // QUICK_DIVISOR if quick else workload.packets
    if quick and repeats is None:
        repeats = 2
    probes = layers.probes_for(workload.trace_datapath)
    leftover = installed_probes(probes)
    if leftover:
        raise RuntimeError(f"probes still installed before the untraced run: {leftover}")

    started = time.perf_counter()
    run_arm(workload, seed, packets)  # warm-up: imports, lazy set-up, allocator
    untraced_until = started + (seconds / 3 if trace else seconds)
    timed: list[Arm] = []
    while _wants_more(len(timed), repeats, untraced_until, MIN_REPEATS):
        timed.append(run_arm(workload, seed, packets))
    rss_mb = peak_rss_mb(children=workload.shards > 0)

    traced: list[tuple[Arm, dict]] = []
    absent: list[str] = []
    table: list[dict] = []
    spans: dict | None = None
    if trace:
        tracer = Tracer()
        inspect = partial(layers.facts, workload.devices)
        with probing(tracer, probes) as absent:
            recorded = layers.recorded_spans(probes, absent)
            while _wants_more(len(traced), repeats, started + seconds, MIN_TRACED_REPEATS):
                tracer.reset()
                arm = run_arm(workload, seed, packets, inspect=inspect)
                root = tracer.first(layers.ROOT)
                run_totals = tracer.totals(root) if root is not None else {}
                metrics = layers.span_metrics(run_totals, tracer.totals(), recorded, arm)
                if not traced or arm.calibrated_s < min(t[0].calibrated_s for t in traced):
                    table = layers.layer_table(run_totals, arm)
                    spans = tracer.to_columns() if keep_spans else None
                traced.append((arm, metrics))
        leftover = installed_probes(probes)
        if leftover:
            raise RuntimeError(f"probes left installed after the traced run: {leftover}")

    single = None
    if trace and workload.shards:
        single = run_arm(workload, seed, packets, single_process=True)
    reference = reference_report(workload, seed, packets)

    # -- correctness -----------------------------------------------------------
    arms = timed + [arm for arm, _ in traced]
    first_sha = report_sha(arms[0].report)
    failed = 0
    problems: list[str] = []
    for index, arm in enumerate(arms):
        failed += arm.failures
        if arm.failures:
            problems.append(f"repeat {index}: {arm.failures} failed packet(s)/update(s)")
        if report_sha(arm.report) != first_sha:
            failed += arm.sent
            problems.append(f"repeat {index}: report differs from repeat 0")
    if reference.report != arms[0].report or reference.hops != arms[0].hops:
        failed += sum(arm.sent for arm in arms)
        problems.append("report differs from the reference (interpreter) arm")
    attempted = sum(arm.sent + arm.updates_attempted for arm in arms)

    # -- end to end: untraced repeats only, host time calibrated ------------------
    hops_per_s = [arm.hops / arm.calibrated_s for arm in timed]
    setup_s = [arm.setup_s * arm.setup_factor for arm in timed]
    update_ms = [ms * arm.update_factor for arm in timed for ms in arm.update_ms]
    end_to_end = {
        "hops_per_s": {"value": statistics.median(hops_per_s), **spread(hops_per_s)},
        "update_ms_p50": {"value": percentile(update_ms, 0.50), "samples": len(update_ms)},
        "update_ms_p90": {"value": percentile(update_ms, 0.90), "samples": len(update_ms)},
        "sim_latency_us_mean": {"value": timed[0].sim_latency_us["mean"]},
        "setup_s": {"value": statistics.median(setup_s), **spread(setup_s)},
        "peak_rss_mb": {"value": rss_mb},
    }
    for name, entry in end_to_end.items():
        entry["unit"] = END_TO_END[name][0]
    walls = [arm.wall_s for arm in timed]
    ticks = [arm.tick_s * 1e3 for arm in timed]

    out = {
        "params": workload.params(packets),
        "engine": timed[0].engine,
        "seed": seed,
        "repeats": len(timed),
        "traced_repeats": len(traced),
        "hops": timed[0].hops,
        "packets": timed[0].sent,
        "raw": {
            "wall_s": {"best": min(walls), **spread(walls)},
            "hops_per_wall_s": {"best": timed[0].hops / min(walls),
                                **spread([timed[0].hops / wall for wall in walls])},
            "tick_ms": {"best": min(ticks), **spread(ticks)},
        },
        "report_sha": first_sha,
        "reference_sha": report_sha(reference.report),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": None,
    }
    if trace:
        out["per_layer"] = _per_layer(timed, traced, single, failed / attempted)
        out["layer_table"] = table
        out["absent_probes"] = absent
        if keep_spans:
            out["spans"] = spans
    return out


def _per_layer(
    timed: list[Arm],
    traced: list[tuple[Arm, dict]],
    single: Arm | None,
    fail_ratio: float,
) -> dict:
    """Every per-layer metric by name; ``None`` where the workload does
    not exercise the layer or the probe's target is gone."""
    arm, values = min(traced, key=lambda pair: pair[0].calibrated_s)
    values = {name: None for name in layers.PER_LAYER} | values
    values.update(layers.fact_metrics(arm.facts))
    values["reconfig.windows"] = arm.device_windows
    values["reconfig.forced_two_phase"] = arm.forced_two_phase
    values["reconfig.virtual_s_mean"] = statistics.fmean(arm.update_virtual_s)
    values["reconfig.virtual_s_max"] = max(arm.update_virtual_s)
    values["sim.latency_us_p50"] = arm.sim_latency_us["p50"]
    values["sim.latency_us_p99"] = arm.sim_latency_us["p99"]
    values["fail_ratio"] = fail_ratio
    values["trace.overhead_ratio"] = statistics.median(
        t.calibrated_s for t, _ in traced
    ) / statistics.median(a.calibrated_s for a in timed)
    values["calib.tick_ms"] = statistics.median(t.tick_s for t in timed) * 1e3
    if single is not None:
        for key in ("scale.max_shard_cpu_s", "scale.sum_shard_cpu_s"):
            values[key] *= arm.run_factor
        max_cpu = values["scale.max_shard_cpu_s"]
        values["scale.coord_overhead_s"] = arm.calibrated_s - max_cpu
        values["scale.speedup_wall"] = single.calibrated_s / arm.calibrated_s
        values["scale.speedup_cpu"] = single.cpu_s * single.run_factor / max_cpu
    return {
        name: {"value": values[name], "unit": unit}
        for name, (unit, _) in layers.PER_LAYER.items()
    }

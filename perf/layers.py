"""This repo's layers: what is probed, and the per-layer metrics.

A layer is a module of ``src/repro``. Time comes from spans around the
layer's public entry (``PROBES``); counts come from spans and from the
public statistics objects each layer already keeps (``facts``). The
span name's first component is the layer, which is what the layer
table groups by.
"""

from __future__ import annotations

from collections.abc import Callable

from perf.spans import Probe, SpanTotal, Tracer, mark

ROOT = "root"
EXEC_ROUTES = ("exec.interp", "exec.compiled", "exec.batch", "exec.flowcache")


# -- probes whose span name depends on the call ------------------------------


def _callback_probe(tracer: Tracer, original: Callable) -> Callable:
    """``EventLoop.schedule[_at]``: the push is one span, and the
    callback is wrapped so that its later execution is another — a
    packet arrival (``Network``'s callback) or any other event."""
    push = tracer.name("engine.push")
    arrive = tracer.name("network.arrive")
    other = tracer.name("engine.callback")
    tick = tracer.name("calib.tick")
    begin, finish = tracer.begin, tracer.finish

    def schedule(self, when, callback):
        index = begin(push)
        try:
            origin = getattr(callback, "__qualname__", "")
            if origin.startswith("Network._schedule_arrival"):
                name_id = arrive
            else:
                name_id = tick if origin == "Ticker.tick" else other

            def run():
                inner = begin(name_id)
                try:
                    callback()
                finally:
                    finish(inner)

            return original(self, when, run)
        finally:
            finish(index)

    return mark(schedule)


def _device_probe(tracer: Tracer, original: Callable) -> Callable:
    """``DeviceRuntime.process``: one span per hop, named afterwards by
    what the hop turned out to be — pass-through (the chosen instance
    hosts no element, so it left no version stamp), mid-window (a
    transition was open on this device), or settled."""
    settled = tracer.name("device.settled")
    transition = tracer.name("device.transition")
    passthrough = tracer.name("device.passthrough")
    begin, finish = tracer.begin, tracer.finish

    def process(self, packet, now):
        in_window = self.in_transition
        index = begin(settled)
        try:
            return original(self, packet, now)
        finally:
            finish(index)
            if self.name not in packet.versions_seen:
                tracer.name_id[index] = passthrough
            elif in_window:
                tracer.name_id[index] = transition

    return mark(process)


def _exec_probe(route: str, instance_arg: int) -> Callable[[Tracer, Callable], Callable]:
    """An executor entry: ``route`` on an instance that hosts elements,
    ``exec.pass`` on a pass-through one."""

    def factory(tracer: Tracer, original: Callable) -> Callable:
        hosting = tracer.name(route)
        compiled = tracer.name("exec.compiled")
        passing = tracer.name("exec.pass")
        begin, finish = tracer.begin, tracer.finish
        plain_process = route == "exec.interp"

        def execute(*args, **kwargs):
            instance = args[instance_arg]
            hosted = instance.hosted_elements
            if hosted is not None and not hosted:
                name_id = passing
            elif plain_process and instance.fastpath_enabled:
                name_id = compiled
            else:
                name_id = hosting
            index = begin(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                finish(index)

        return mark(execute)

    return factory


#: Probes around set-up and the control plane; safe on every workload.
CONTROL_PROBES = [
    Probe("perf.workloads:e20_workload", "setup.flowgen"),
    Probe("repro.core.flexnet:FlexNet.install", "setup.install"),
    Probe("repro.core.flexnet:FlexNet.engine", "setup.engine_cfg"),
    Probe("repro.core.flexnet:FlexNet.run_traffic", ROOT),
    Probe("repro.core.flexnet:FlexNet.scale", ROOT),
    Probe("repro.core.flexnet:apply_delta", "control.apply_delta"),
    Probe("repro.core.flexnet:FlexNet.admit", "control.admit"),
    Probe("repro.control.controller:FlexNetController.transition_to", "control.transition_to"),
    Probe("repro.compiler.incremental:IncrementalCompiler.transition", "control.incremental"),
    Probe("repro.runtime.reconfig:ReconfigOrchestrator.apply", "control.reconfig_apply"),
    Probe("repro.scale.runner:plan_shards", "scale.plan"),
]

_CALLBACK_SPANS = ("engine.push", "network.arrive", "engine.callback", "calib.tick")
#: Probes on the per-packet path; left out where it runs in forked workers.
DATAPATH_PROBES = [
    Probe("repro.simulator.engine:EventLoop.run_until", "engine.run"),
    Probe("repro.simulator.engine:EventLoop.schedule_at", factory=_callback_probe, spans=_CALLBACK_SPANS),
    Probe("repro.simulator.engine:EventLoop.schedule", factory=_callback_probe, spans=_CALLBACK_SPANS),
    Probe("repro.simulator.network:Network.inject", "network.inject"),
    Probe(
        "repro.runtime.device:DeviceRuntime.process",
        factory=_device_probe,
        spans=("device.settled", "device.transition", "device.passthrough"),
    ),
    Probe(
        "repro.simulator.pipeline_exec:ProgramInstance.process",
        factory=_exec_probe("exec.interp", 0),
        spans=("exec.interp", "exec.compiled", "exec.pass"),
    ),
    Probe(
        "repro.simulator.pipeline_exec:ProgramInstance.process_batch",
        factory=_exec_probe("exec.batch", 0),
        spans=("exec.batch",),
    ),
    Probe(
        "repro.simulator.fastpath:FlowCache.process",
        factory=_exec_probe("exec.flowcache", 1),
        spans=("exec.flowcache",),
    ),
    Probe("repro.lang.maps:MapState.get", "maps.get"),
    Probe("repro.lang.maps:MapState.put", "maps.put"),
    Probe("repro.simulator.metrics:RunMetrics.record_outcome", "accounting.record_outcome"),
    Probe("repro.control.telemetry:TelemetryCollector.ingest_packet", "accounting.ingest_packet"),
    Probe("repro.runtime.consistency:ConsistencyChecker.observe", "accounting.observe"),
]


def probes_for(trace_datapath: bool) -> list[Probe]:
    return CONTROL_PROBES + (DATAPATH_PROBES if trace_datapath else [])


# -- facts read off the finished net -----------------------------------------


def facts(devices: tuple[str, ...], net, result) -> dict:
    """Counts the layers keep themselves: for a single-process run,
    sums over the devices that host an element when the run ends; for a
    sharded run (whose device state lives in the workers), the
    ``ScaleReport``. Attributes a later refactor may remove are read
    with ``getattr`` and come back as ``None``."""
    if hasattr(result, "shard_results"):
        cpu = [shard.cpu_s for shard in result.shard_results if shard.cpu_s is not None]
        mend = result.mend
        return {
            "digests": result.total_digests,
            "scale": {
                "populated_shards": len(result.plan.populated_shards),
                "windows": result.windows,
                "handoffs": result.handoffs,
                "max_shard_cpu_s": max(cpu),
                "sum_shard_cpu_s": sum(cpu),
                "checkpoints": mend.checkpoints_committed if mend is not None else 0,
                "restarts": mend.restarts if mend is not None else 0,
            },
        }
    flowcache = {"hits": 0, "misses": 0, "invalidations": 0}
    batch = {"batches": 0, "packets": 0, "memo_hits": 0, "closure_packets": 0, "fallback_packets": 0}
    out: dict = {
        "digests": result.telemetry.total_digests,
        "queue_drops": 0,
        "max_queue_depth": 0,
        "table_hits": 0,
        "table_misses": 0,
    }
    for name in devices:
        device = net.device(name)
        out["queue_drops"] += device.stats.queue_drops
        out["max_queue_depth"] = max(out["max_queue_depth"], device.stats.max_queue_depth)
        instance = device.active_instance
        if instance is None or (
            instance.hosted_elements is not None and not instance.hosted_elements
        ):
            continue
        for rules in instance.rules.values():
            out["table_hits"] += sum(rules.hit_counts)
            out["table_misses"] += rules.miss_count
        cache = getattr(device, "flow_cache", None)
        if cache is not None:
            out["flowcache"] = flowcache
            for key in flowcache:
                flowcache[key] += getattr(cache.stats, key)
        batch_stats = getattr(device, "batch_stats", lambda: None)()
        if batch_stats is not None:
            out["batch"] = batch
            for key in batch:
                batch[key] += getattr(batch_stats, key)
    return out


# -- the per-layer metrics ---------------------------------------------------

#: name -> (unit, better). Times are host ns/ms/s unless the unit says
#: ``virt_``; counts and ratios repeat exactly for a given seed.
PER_LAYER: dict[str, tuple[str, str]] = {
    "engine.events": ("count", "lower"),
    "engine.self_ns_per_hop": ("ns", "lower"),
    "engine.push_ns_per_hop": ("ns", "lower"),
    "network.self_ns_per_hop": ("ns", "lower"),
    "network.inject_ns_per_pkt": ("ns", "lower"),
    "device.hops": ("count", "lower"),
    "device.self_ns_per_hop": ("ns", "lower"),
    "device.passthrough_hops": ("count", "lower"),
    "device.transition_hops": ("count", "lower"),
    "device.transition_hop_ratio": ("ratio", "lower"),
    "device.queue_drops": ("count", "lower"),
    "device.max_queue_depth": ("count", "lower"),
    "exec.prog_hops": ("count", "lower"),
    "exec.self_ns_per_prog_hop": ("ns", "lower"),
    "exec.self_ns_per_pass_hop": ("ns", "lower"),
    "exec.route_interp": ("count", "lower"),
    "exec.route_compiled": ("count", "lower"),
    "exec.route_flowcache": ("count", "higher"),
    "exec.route_batch": ("count", "higher"),
    "flowcache.hit_ratio": ("ratio", "higher"),
    "flowcache.invalidations": ("count", "lower"),
    "batch.memo_hit_ratio": ("ratio", "higher"),
    "batch.mean_batch_size": ("count", "higher"),
    "batch.closure_packets": ("count", "lower"),
    "batch.fallback_packets": ("count", "lower"),
    "tables.lookups": ("count", "lower"),
    "tables.hit_ratio": ("ratio", "higher"),
    "maps.ops": ("count", "lower"),
    "maps.ns_per_op": ("ns", "lower"),
    "accounting.self_ns_per_pkt": ("ns", "lower"),
    "accounting.digests": ("count", "lower"),
    "flowgen.s": ("s", "lower"),
    "install.s": ("s", "lower"),
    "engine_cfg.s": ("s", "lower"),
    "delta.apply_ms": ("ms", "lower"),
    "admit.ms": ("ms", "lower"),
    "controller.transition_ms": ("ms", "lower"),
    "compiler.incremental_ms": ("ms", "lower"),
    "reconfig.apply_ms": ("ms", "lower"),
    "reconfig.windows": ("count", "lower"),
    "reconfig.forced_two_phase": ("count", "lower"),
    "reconfig.virtual_s_mean": ("virt_s", "lower"),
    "reconfig.virtual_s_max": ("virt_s", "lower"),
    "sim.latency_us_p50": ("virt_us", "lower"),
    "sim.latency_us_p99": ("virt_us", "lower"),
    "scale.plan_ms": ("ms", "lower"),
    "scale.populated_shards": ("count", "higher"),
    "scale.windows": ("count", "lower"),
    "scale.handoffs": ("count", "lower"),
    "scale.max_shard_cpu_s": ("s", "lower"),
    "scale.sum_shard_cpu_s": ("s", "lower"),
    "scale.coord_overhead_s": ("s", "lower"),
    "scale.speedup_wall": ("ratio", "higher"),
    "scale.speedup_cpu": ("ratio", "higher"),
    "mend.checkpoints": ("count", "lower"),
    "mend.restarts": ("count", "lower"),
    "fail_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.residual_ratio": ("ratio", "lower"),
    "calib.tick_ms": ("ms", "lower"),
}


def _div(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


class _Spans:
    """Read-side of one ``Tracer.totals()``. Times come back calibrated
    by ``factor``; a span name whose probe is absent (or was not
    installed on this workload) reads as ``None``."""

    def __init__(self, totals: dict[str, SpanTotal], recorded: set[str], factor: float):
        self._totals = totals
        self._recorded = recorded
        self._factor = factor

    def _sum(self, names: tuple[str, ...], attr: str):
        if not all(name in self._recorded for name in names):
            return None
        return sum(getattr(self._totals.get(name, SpanTotal()), attr) for name in names)

    def count(self, *names: str):
        return self._sum(names, "count")

    def total_ns(self, *names: str):
        total = self._sum(names, "total_ns")
        return None if total is None else total * self._factor

    def self_ns(self, *names: str):
        total = self._sum(names, "self_ns")
        return None if total is None else total * self._factor

    def per_call_ms(self, name: str):
        return _div(self.total_ns(name), (self.count(name) or 0) * 1e6)


def recorded_spans(probes: list[Probe], absent: list[str]) -> set[str]:
    return {
        name for probe in probes if probe.target not in absent for name in probe.span_names
    }


def span_metrics(
    run: dict[str, SpanTotal], whole: dict[str, SpanTotal], recorded: set[str], arm
) -> dict[str, float | None]:
    """The span-derived metrics of one traced repeat. ``run`` aggregates
    the root span's subtree (the timed call), ``whole`` every span of
    the repeat (set-up and the idle control phase too). Times are
    calibrated with the arm's factor for the interval they fall in."""
    r = _Spans(run, recorded, arm.run_factor)
    setup = _Spans(whole, recorded, arm.setup_factor)
    control = _Spans(whole, recorded, arm.update_factor)
    hops, packets = arm.hops, arm.sent
    device_spans = ("device.settled", "device.transition", "device.passthrough")
    device_hops = r.count(*device_spans)
    prog_hops = r.count("device.settled", "device.transition")
    map_spans = ("maps.get", "maps.put")
    accounting = ("accounting.record_outcome", "accounting.ingest_packet", "accounting.observe")
    root = run.get(ROOT, SpanTotal())
    return {
        "engine.events": r.count("network.arrive", "engine.callback"),
        "engine.self_ns_per_hop": _div(r.self_ns("engine.run"), hops),
        "engine.push_ns_per_hop": _div(r.total_ns("engine.push"), hops),
        "network.self_ns_per_hop": _div(r.self_ns("network.arrive"), hops),
        "network.inject_ns_per_pkt": _div(r.self_ns("network.inject"), packets),
        "device.hops": device_hops,
        "device.self_ns_per_hop": _div(r.self_ns(*device_spans), device_hops),
        "device.passthrough_hops": r.count("device.passthrough"),
        "device.transition_hops": r.count("device.transition"),
        "device.transition_hop_ratio": _div(r.count("device.transition"), device_hops),
        "exec.prog_hops": prog_hops,
        "exec.self_ns_per_prog_hop": _div(r.self_ns(*EXEC_ROUTES), prog_hops),
        "exec.self_ns_per_pass_hop": _div(r.self_ns("exec.pass"), r.count("device.passthrough")),
        "exec.route_interp": r.count("exec.interp"),
        "exec.route_compiled": r.count("exec.compiled"),
        "maps.ops": r.count(*map_spans),
        "maps.ns_per_op": _div(r.total_ns(*map_spans), r.count(*map_spans)),
        "accounting.self_ns_per_pkt": _div(r.self_ns(*accounting), packets),
        "flowgen.s": _div(setup.total_ns("setup.flowgen"), 1e9),
        "install.s": _div(setup.total_ns("setup.install"), 1e9),
        "engine_cfg.s": _div(setup.total_ns("setup.engine_cfg"), 1e9),
        "delta.apply_ms": control.per_call_ms("control.apply_delta"),
        "admit.ms": control.per_call_ms("control.admit"),
        "controller.transition_ms": control.per_call_ms("control.transition_to"),
        "compiler.incremental_ms": control.per_call_ms("control.incremental"),
        "reconfig.apply_ms": control.per_call_ms("control.reconfig_apply"),
        "scale.plan_ms": r.per_call_ms("scale.plan"),
        "trace.residual_ratio": _div(root.self_ns, root.total_ns),
    }


def fact_metrics(found: dict) -> dict[str, float | None]:
    """The metrics that come from the layers' own counters."""
    hits, misses = found.get("table_hits"), found.get("table_misses")
    lookups = None if hits is None else hits + misses
    flowcache = found.get("flowcache") or {}
    batch = found.get("batch") or {}
    scale = found.get("scale") or {}
    out = {
        "device.queue_drops": found.get("queue_drops"),
        "device.max_queue_depth": found.get("max_queue_depth"),
        "tables.lookups": lookups,
        "tables.hit_ratio": _div(hits, lookups),
        "accounting.digests": found["digests"],
        "exec.route_flowcache": flowcache.get("hits"),
        "flowcache.hit_ratio": _div(
            flowcache.get("hits"), flowcache.get("hits", 0) + flowcache.get("misses", 0)
        ),
        "flowcache.invalidations": flowcache.get("invalidations"),
        "exec.route_batch": batch.get("packets"),
        "batch.memo_hit_ratio": _div(batch.get("memo_hits"), batch.get("packets")),
        "batch.mean_batch_size": _div(batch.get("packets"), batch.get("batches")),
        "batch.closure_packets": batch.get("closure_packets"),
        "batch.fallback_packets": batch.get("fallback_packets"),
        "mend.checkpoints": scale.get("checkpoints"),
        "mend.restarts": scale.get("restarts"),
    }
    for key in ("populated_shards", "windows", "handoffs", "max_shard_cpu_s", "sum_shard_cpu_s"):
        out[f"scale.{key}"] = scale.get(key)
    return out


def layer_table(run: dict[str, SpanTotal], arm) -> list[dict]:
    """Calibrated self time per layer over the root span's subtree; the
    rows sum to the root span's duration."""
    root_ns = run.get(ROOT, SpanTotal()).total_ns
    rows: dict[str, dict] = {}
    for name, total in run.items():
        if not total.count:
            continue
        layer = name.split(".")[0]
        row = rows.setdefault(layer, {"layer": layer, "spans": 0, "self_ns": 0})
        row["spans"] += total.count
        row["self_ns"] += total.self_ns
    table = []
    for row in sorted(rows.values(), key=lambda row: -row["self_ns"]):
        calibrated_ns = row["self_ns"] * arm.run_factor
        table.append(
            {
                "layer": row["layer"],
                "spans": row["spans"],
                "self_ms": calibrated_ns / 1e6,
                "share": _div(row["self_ns"], root_ns),
                "self_ns_per_hop": _div(calibrated_ns, arm.hops),
            }
        )
    return table

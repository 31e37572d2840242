"""The FlexScope façade: one object (``net.observe``) for all of it.

An :class:`Observer` bundles the tracer, the metrics registry, and the
profiler, and knows how to wire them through a
:class:`~repro.control.controller.FlexNetController`: device runtimes
(sampled packet traces), the reconfiguration orchestrator (window
spans), the dRPC fabric (call spans), the telemetry collector (event
feed), and the placement engine (compile profiling).

**Strictly zero-cost when disabled.** Until :meth:`enable` runs, no
component holds a reference to the observer — every hook site guards on
a plain ``observer is None`` attribute check, hot paths included — and
:meth:`disable` unwires everything again. Two runs of the same seeded
scenario, one with the observer never attached and one attached-but-
disabled, execute identical instruction streams through the data plane.
"""

from __future__ import annotations

from repro.observe.metrics import MetricsRegistry, export_device_counters
from repro.observe.profile import Profiler
from repro.observe.trace import PacketTrace, Tracer

#: Default packet sampling period: one traced packet per N processed.
DEFAULT_SAMPLE_EVERY = 64


class Observer:
    """See module docstring."""

    def __init__(
        self,
        ring_capacity: int = 65536,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
    ):
        self.enabled = False
        self.tracer = Tracer(capacity=ring_capacity)
        self.metrics = MetricsRegistry()
        self.profiler = Profiler()
        self.sample_every = sample_every
        self.trace_packets = True
        self._controller = None
        self._collector_registered = False
        #: observer-local sample counter — deliberately NOT the global
        #: packet id (which never resets within a process), so two
        #: identical seeded runs sample identical packets.
        self._sample_seq = 0

    # -- wiring -------------------------------------------------------------

    def bind(self, controller) -> "Observer":
        """Remember the controller; no hooks are installed until
        :meth:`enable`."""
        self._controller = controller
        return self

    def enable(
        self,
        sample_every: int | None = None,
        trace_packets: bool = True,
        sink=None,
    ) -> "Observer":
        """Install every hook. ``sample_every=N`` traces one packet in N
        (0 disables packet sampling while keeping control-plane spans);
        ``sink`` is a file-like object mirroring closed spans as JSONL."""
        if self._controller is None:
            raise RuntimeError("Observer.bind(controller) must run before enable()")
        if sample_every is not None:
            self.sample_every = sample_every
        self.trace_packets = trace_packets
        if sink is not None:
            self.tracer.sink = sink
        self.enabled = True
        controller = self._controller
        controller.observer = self
        controller.orchestrator.observer = self
        controller.drpc.observer = self
        controller.telemetry.observer = self
        controller.engine.profiler = self.profiler
        if trace_packets and self.sample_every > 0:
            for device in controller.devices.values():
                device.observer = self
        if not self._collector_registered:
            self.metrics.register_collector(self._collect)
            self._collector_registered = True
        return self

    def disable(self) -> "Observer":
        """Unwire every hook; the data plane returns to the exact
        disabled instruction stream."""
        self.enabled = False
        controller = self._controller
        if controller is not None:
            controller.observer = None
            controller.orchestrator.observer = None
            controller.drpc.observer = None
            controller.telemetry.observer = None
            controller.engine.profiler = None
            for device in controller.devices.values():
                device.observer = None
        return self

    def attach_device(self, device) -> None:
        """Hook a device added after :meth:`enable` (controller calls this)."""
        if self.enabled and self.trace_packets and self.sample_every > 0:
            device.observer = self

    # -- packet sampling ----------------------------------------------------

    def begin_packet(self) -> PacketTrace | None:
        """Deterministic 1-in-N sampling decision; returns a fresh frame
        collector for sampled packets, None otherwise."""
        self._sample_seq += 1
        if (self._sample_seq - 1) % self.sample_every:
            return None
        return PacketTrace()

    def record_packet(self, device_name: str, packet, result, trace: PacketTrace, now: float):
        """Fold a sampled packet's frames into one span."""
        span = self.tracer.start_span(
            f"pkt@{device_name}",
            "packet",
            now,
            device=device_name,
            sample=self._sample_seq,
            version=result.version,
            ops=result.ops,
            recirculations=result.recirculations,
        )
        for frame in trace.frames:
            kind = frame[0]
            if kind == "parse":
                span.add_event("parse", now, headers=",".join(frame[1]))
            elif kind == "table":
                span.add_event(
                    "table",
                    now,
                    table=frame[1],
                    hit=frame[2],
                    action=frame[3] if frame[3] is not None else "",
                )
            elif kind == "function":
                span.add_event("function", now, function=frame[1])
            elif kind == "drop":
                span.add_event("drop", now)
            elif kind == "recirculate":
                span.add_event("recirculate", now, n=frame[1])
            elif kind == "digest":
                span.add_event("digest", now, program=frame[1], values=list(frame[2]))
        self.tracer.end_span(span, now)
        self.metrics.counter(
            "flexnet_trace_sampled_packets_total",
            help="packets sampled into the tracer",
            device=device_name,
        ).inc()
        return span

    # -- metrics collection (pull model; runs at export) --------------------

    def _collect(self, registry: MetricsRegistry) -> None:
        controller = self._controller
        if controller is None:
            return
        for name in sorted(controller.devices):
            device = controller.devices[name]
            export_device_counters(registry, name, device)
            stats = device.stats
            registry.gauge(
                "flexnet_device_queue_depth_max", device=name
            ).set(stats.max_queue_depth)
            registry.counter(
                "flexnet_device_reconfigurations_total", device=name
            ).set(stats.reconfigurations)
            registry.counter("flexnet_device_crashes_total", device=name).set(stats.crashes)
            registry.counter("flexnet_device_restarts_total", device=name).set(stats.restarts)
            instance = device.active_instance
            if instance is not None:
                for table_name in sorted(instance.rules):
                    rules = instance.rules[table_name]
                    labels = dict(
                        device=name, table=table_name, version=instance.version
                    )
                    registry.gauge(
                        "flexnet_table_entries",
                        help="installed rules per table",
                        **labels,
                    ).set(len(rules))
                    registry.counter(
                        "flexnet_table_hits_total", **labels
                    ).set(sum(rules.hit_counts))
                    registry.counter(
                        "flexnet_table_misses_total", **labels
                    ).set(rules.miss_count)
        for name in sorted(controller.hub.clients):
            client = controller.hub.clients[name]
            registry.counter("flexnet_p4runtime_writes_total", device=name).set(
                client.stats.writes
            )
            registry.counter("flexnet_p4runtime_reads_total", device=name).set(
                client.stats.reads
            )
            registry.counter(
                "flexnet_p4runtime_control_seconds_total", device=name
            ).set(round(client.stats.control_time_s, 9))
        channel = controller.hub.channel
        if channel is not None:
            registry.counter("flexnet_channel_drops_total").set(channel.drops)
            registry.counter("flexnet_channel_retries_total").set(channel.retries)
            registry.counter("flexnet_channel_delays_total").set(channel.delays)
            registry.counter("flexnet_channel_failures_total").set(channel.failures)
        for service in sorted(controller.drpc.stats):
            stats = controller.drpc.stats[service]
            registry.counter("flexnet_drpc_calls_total", service=service).set(stats.calls)
            registry.counter("flexnet_drpc_failures_total", service=service).set(
                stats.failures
            )
            registry.counter("flexnet_drpc_retries_total", service=service).set(
                stats.retries
            )
            registry.counter(
                "flexnet_drpc_latency_seconds_total", service=service
            ).set(round(stats.total_latency_s, 9))
        telemetry = controller.telemetry
        registry.counter(
            "flexnet_telemetry_digests_total",
            help="digest records ever ingested",
        ).set(telemetry.total_digests)
        registry.counter("flexnet_telemetry_events_total").set(telemetry.total_events)
        if controller.fault_injector is not None:
            for key, value in controller.fault_injector.stats.to_dict().items():
                registry.counter(
                    "flexnet_fault_injections_total",
                    help="fault-injector decisions that fired",
                    kind=key,
                ).set(value)
        if controller.recovery is not None:
            registry.counter("flexnet_recovery_resumed_total").set(
                controller.recovery.resumed
            )
            registry.counter("flexnet_recovery_rolled_back_total").set(
                controller.recovery.rolled_back
            )
        if controller.health is not None:
            registry.gauge("flexnet_quarantined_devices").set(
                len(controller.health.quarantined)
            )
        for uri in controller.app_uris:
            record = controller.app(uri)
            registry.gauge(
                "flexnet_app_elements",
                help="program elements owned per app URI",
                app=uri,
                tenant=record.uri.owner,
            ).set(len(record.elements))

    # -- convenience --------------------------------------------------------

    def span_tree(self) -> str:
        return self.tracer.render_tree()

    def to_dict(self) -> dict:
        """Everything FlexScope holds, machine-readable and deterministic
        (profiler wall-clock columns are excluded)."""
        return {
            "enabled": self.enabled,
            "sample_every": self.sample_every,
            "trace": self.tracer.to_dict(),
            "metrics": self.metrics.to_dict(),
            "profile": self.profiler.to_dict(include_wall=False),
        }

    def summary(self) -> str:
        lines = [
            f"flexscope: {'enabled' if self.enabled else 'disabled'} "
            f"(sampling 1/{self.sample_every}, "
            f"{self.tracer.total_spans} span(s), {self.tracer.total_events} event(s))"
        ]
        tree = self.tracer.render_tree()
        if tree:
            lines.append(tree)
        return "\n".join(lines)

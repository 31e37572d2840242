"""FlexScope: end-to-end observability for runtime programmable networks.

One façade — :class:`Observer`, exposed as ``net.observe`` — bundles:

* structured tracing (:mod:`repro.observe.trace`): hierarchical spans
  over sim time covering reconfiguration windows, fault injections,
  and sampled per-packet data-plane execution;
* metrics (:mod:`repro.observe.metrics`): a labelled
  counter/gauge/histogram registry with deterministic Prometheus-text
  and JSON exporters;
* profiling (:mod:`repro.observe.profile`): per-phase wall/sim/op-cost
  accounting for compile, placement, and transition work;
* the unified report protocol (:mod:`repro.observe.report`):
  ``summary()``/``to_dict()`` for every report object the toolchain
  produces, behind one CLI formatter.

Disabled observability is strictly zero-cost: no component holds an
observer reference until :meth:`Observer.enable` wires one in.
"""

from repro import _lazy_exports

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_SAMPLE_EVERY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "PacketTrace",
    "PhaseStat",
    "Profiler",
    "Reportable",
    "Span",
    "SpanEvent",
    "Tracer",
    "emit",
    "render_span_tree",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "facade": ("DEFAULT_SAMPLE_EVERY", "Observer"),
        "metrics": ("DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
        "profile": ("PhaseStat", "Profiler"),
        "report": ("Reportable", "emit"),
        "trace": ("PacketTrace", "Span", "SpanEvent", "Tracer", "render_span_tree"),
    },
)

"""Unit tests for the FlexScope primitives: tracer, metrics, profiler,
and the Reportable protocol."""

from __future__ import annotations

import io
import json

import pytest

from repro.observe import (
    MetricsRegistry,
    Profiler,
    Reportable,
    Tracer,
    emit,
    render_span_tree,
)


class TestTracer:
    def test_explicit_parenting(self):
        tracer = Tracer()
        root = tracer.start_span("update", "update", 1.0)
        child = tracer.start_span("window@sw1", "window", 1.0, parent=root)
        assert child.parent_id == root.span_id
        assert [span for span in tracer.spans() if span.parent_id == root.span_id] == [child]

    def test_implicit_parenting_via_stack(self):
        tracer = Tracer()
        with tracer.span("outer", "update", 0.0) as outer:
            inner = tracer.start_span("inner", "window", 0.5)
        assert inner.parent_id == outer.span_id
        assert tracer.current is None

    def test_span_ids_are_monotonic(self):
        tracer = Tracer()
        spans = [tracer.start_span(f"s{i}", "t", float(i)) for i in range(5)]
        assert [s.span_id for s in spans] == [1, 2, 3, 4, 5]

    def test_ring_bounds_memory_but_counts_everything(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            span = tracer.start_span(f"s{i}", "t", float(i))
            tracer.end_span(span, float(i))
        assert len(tracer.spans()) == 4
        assert tracer.total_spans == 10

    def test_events_attach_to_span_and_global_feed(self):
        tracer = Tracer()
        span = tracer.start_span("window", "window", 0.0)
        tracer.event("commit", 1.5, span=span, device="sw1")
        assert span.events[0].name == "commit"
        assert list(tracer.events)[0].attrs == {"device": "sw1"}
        assert tracer.total_events == 1

    def test_sink_mirrors_closed_spans_as_jsonl(self):
        sink = io.StringIO()
        tracer = Tracer(sink=sink)
        span = tracer.start_span("s", "t", 0.0, device="sw1")
        tracer.end_span(span, 2.0)
        line = json.loads(sink.getvalue().strip())
        assert line["name"] == "s" and line["attrs"] == {"device": "sw1"}

    def test_error_status_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", "update", 0.0) as span:
                raise ValueError("no")
        assert span.status == "error" and span.end == 0.0

    def test_render_tree_matches_dict_renderer(self):
        tracer = Tracer()
        with tracer.span("update", "update", 0.0, to_version=2):
            window = tracer.start_span("window@sw1", "window", 0.0, device="sw1")
            tracer.event("window_open", 0.0, span=window)
            tracer.end_span(window, 0.4)
        tree = tracer.render_tree()
        assert "[update] update" in tree
        assert "  [window] window@sw1" in tree
        assert "* window_open" in tree
        assert render_span_tree(tracer.to_dict()["spans"]) == tree


class TestMetricsRegistry:
    def test_counter_and_gauge_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("pkts_total", device="sw1").inc(3)
        registry.counter("pkts_total", device="sw1").inc()
        registry.gauge("depth", device="sw1").set(7)
        assert registry.counter("pkts_total", device="sw1").value == 4
        assert registry.gauge("depth", device="sw1").value == 7

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("m", a="1", b="2").inc()
        assert registry.counter("m", b="2", a="1").value == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.cumulative() == [1, 2, 3]  # cumulative, +Inf last

    def test_prometheus_export_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("b_total", device="sw1").inc()
        registry.counter("a_total", device="nic1", version="2").inc(5)
        text = registry.to_prometheus()
        assert text.index("a_total") < text.index("b_total")
        assert 'a_total{device="nic1",version="2"} 5' in text
        assert registry.to_prometheus() == text

    def test_collector_runs_at_export(self):
        registry = MetricsRegistry()
        pulls = []
        registry.register_collector(lambda r: pulls.append(r.gauge("live").set(1)))
        registry.to_prometheus()
        registry.to_dict()
        assert len(pulls) == 2


class TestProfiler:
    def test_phase_accounting(self):
        profiler = Profiler()
        with profiler.phase("compile"):
            pass
        with profiler.phase("compile"):
            pass
        profiler.add_sim("transition_window", 0.47)
        stats = profiler.to_dict(include_wall=False)
        assert stats["compile"]["calls"] == 2
        assert stats["compile"]["ops"] == 0
        assert stats["transition_window"]["sim_s"] == pytest.approx(0.47)
        # Deterministic form excludes wall-clock columns entirely.
        assert "wall_s" not in stats["compile"]

    def test_render_table(self):
        profiler = Profiler()
        with profiler.phase("compile"):
            pass
        table = profiler.render()
        assert "phase" in table and "compile" in table


class TestReportable:
    def test_protocol_is_runtime_checkable(self):
        class Good:
            def summary(self) -> str:
                return "ok"

            def to_dict(self) -> dict:
                return {"ok": True}

        assert isinstance(Good(), Reportable)
        assert not isinstance(object(), Reportable)

    def test_emit_text_and_json(self):
        class Good:
            def summary(self) -> str:
                return "ok"

            def to_dict(self) -> dict:
                return {"ok": True}

        text = io.StringIO()
        emit(Good(), stream=text)
        assert text.getvalue() == "ok\n"
        as_json = io.StringIO()
        emit(Good(), as_json=True, stream=as_json)
        assert json.loads(as_json.getvalue()) == {"ok": True}

    def test_toolchain_reports_conform(self):
        from repro.analysis.report import Report
        from repro.control.controller import TransitionOutcome
        from repro.core.flexnet import InstallOutcome, TrafficReport
        from repro.faults.chaos import ChaosReport
        from repro.simulator.metrics import RunMetrics

        for cls in (Report, TransitionOutcome, InstallOutcome, TrafficReport,
                    ChaosReport, RunMetrics):
            assert issubclass(cls, Reportable), cls

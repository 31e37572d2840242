"""FlexScope end-to-end: determinism, zero-cost-when-disabled, and the
span-tree shape of a faulted transition."""

from __future__ import annotations

import pytest

from repro.apps import base_infrastructure, firewall_delta
from repro.core.flexnet import FlexNet
from repro.faults import ChannelFault, DeviceCrash, FaultPlan, run_chaos
from repro.observe.report import divergences
from repro.runtime.consistency import ConsistencyLevel

RATE_PPS = 400.0
DURATION_S = 1.0
UPDATE_AT_S = 0.4


def observed_run(enable: bool = True):
    """The canonical scenario: install base, inject the firewall delta
    mid-traffic, with FlexScope on (or off, for baselines). Returns
    ``(net, traffic_report)``."""
    from repro.simulator.packet import reset_packet_ids

    reset_packet_ids()  # identical cut-over draws across runs
    net = FlexNet.standard()
    if enable:
        net.observe.enable(sample_every=32)
    net.install(base_infrastructure())
    delta = firewall_delta()
    net.schedule(UPDATE_AT_S, lambda: net.update(delta))
    report = net.run_traffic(
        rate_pps=RATE_PPS,
        duration_s=DURATION_S,
        consistency_level=ConsistencyLevel.PER_PACKET_PER_DEVICE,
        extra_time_s=2.0,
    )
    return net, report


class TestDeterminism:
    def test_two_runs_export_byte_identical_observability(self):
        first, _ = observed_run()
        second, _ = observed_run()
        assert first.observe.metrics.to_prometheus() == second.observe.metrics.to_prometheus()
        assert first.observe.tracer.render_tree() == second.observe.tracer.render_tree()
        assert first.observe.tracer.to_dict() == second.observe.tracer.to_dict()
        # The full façade export (profiler wall columns excluded) too.
        assert first.observe.to_dict() == second.observe.to_dict()

    def test_chaos_reports_with_spans_are_byte_identical(self):
        def chaos():
            return run_chaos(
                base_infrastructure(),
                firewall_delta(),
                FaultPlan(
                    seed=11,
                    crashes=(DeviceCrash(device="sw1", at_s=2.2, restart_after_s=1.0),),
                    channel=ChannelFault(drop_probability=0.01),
                ),
                rate_pps=RATE_PPS,
                duration_s=4.0,
                update_at_s=2.0,
                observe=True,
            )

        assert divergences(chaos().to_dict(), chaos().to_dict()) == []


class TestZeroCostWhenDisabled:
    def test_no_component_holds_an_observer_until_enable(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        controller = net.controller
        assert controller.observer is None
        assert controller.orchestrator.observer is None
        assert controller.drpc.observer is None
        assert controller.telemetry.observer is None
        assert controller.engine.profiler is None
        assert all(d.observer is None for d in controller.devices.values())

    def test_enable_then_disable_unwires_everything(self):
        net = FlexNet.standard()
        net.observe.enable()
        net.observe.disable()
        controller = net.controller
        assert controller.observer is None
        assert controller.orchestrator.observer is None
        assert controller.drpc.observer is None
        assert controller.telemetry.observer is None
        assert controller.engine.profiler is None
        assert all(d.observer is None for d in controller.devices.values())
        net.install(base_infrastructure())
        assert net.observe.tracer.total_spans == 0

    def test_disabled_run_matches_observed_run_outcomes(self):
        """Tracing must not perturb the simulation: same traffic, same
        transition, same consistency verdict, byte-for-byte."""
        _, plain_report = observed_run(enable=False)
        _, traced_report = observed_run(enable=True)
        assert plain_report.metrics.to_dict() == traced_report.metrics.to_dict()
        assert (
            plain_report.consistency.report().violations
            == traced_report.consistency.report().violations
        )

    def test_enable_requires_bound_controller(self):
        from repro.observe import Observer

        with pytest.raises(RuntimeError):
            Observer().enable()


class TestSpanTreeShape:
    @pytest.fixture(scope="class")
    def chaos_report(self):
        return run_chaos(
            base_infrastructure(),
            firewall_delta(),
            FaultPlan(
                seed=11,
                crashes=(DeviceCrash(device="sw1", at_s=2.2, restart_after_s=1.0),),
                channel=ChannelFault(drop_probability=0.01),
            ),
            rate_pps=RATE_PPS,
            duration_s=4.0,
            update_at_s=2.0,
            observe=True,
        )

    @staticmethod
    def by_kind(spans, kind):
        return [s for s in spans if s["kind"] == kind]

    def test_update_transition_window_hierarchy(self, chaos_report):
        spans = chaos_report.spans
        updates = self.by_kind(spans, "update")
        assert len(updates) == 1
        transitions = self.by_kind(spans, "transition")
        assert len(transitions) == 1
        assert transitions[0]["parent_id"] == updates[0]["span_id"]
        windows = self.by_kind(spans, "window")
        assert windows, "every reconfig window must be reconstructable"
        for window in windows:
            assert window["parent_id"] == transitions[0]["span_id"]
            assert window["attrs"]["mode"] in ("hitless", "reflash")
            event_names = [e["name"] for e in window["events"]]
            assert "window_open" in event_names

    def test_window_matches_journal_transaction(self, chaos_report):
        windows = self.by_kind(chaos_report.spans, "window")
        window_devices = {w["attrs"]["device"] for w in windows}
        journal_devices = {entry["device"] for entry in chaos_report.journal}
        assert journal_devices <= window_devices

    def test_install_span_is_a_root(self, chaos_report):
        installs = self.by_kind(chaos_report.spans, "install")
        assert len(installs) == 1
        assert installs[0]["parent_id"] is None

    def test_sampled_packets_cover_both_versions(self, chaos_report):
        packets = self.by_kind(chaos_report.spans, "packet")
        versions = {p["attrs"]["version"] for p in packets if p["attrs"]["device"] == "sw1"}
        assert versions == {1, 2}

    def test_fault_events_surface(self, chaos_report):
        kinds = {e["kind"] for e in chaos_report.events}
        assert "crash" in kinds
        # The crash lands inside the window: the run resumes afterwards.
        assert chaos_report.resumed == 1


class TestTelemetryEventFeed:
    def test_ingest_event_reaches_tracer(self):
        """The pre-FlexScope collector buffered events nobody ever read;
        with an observer wired they surface in the global feed."""
        net = FlexNet.standard()
        net.observe.enable()
        net.controller.telemetry.ingest_event("crash", "sw1", 1.25, detail="mid-delta")
        events = list(net.observe.tracer.events)
        assert len(events) == 1
        assert events[0].name == "crash"
        assert events[0].attrs == {"device": "sw1", "detail": "mid-delta"}

    def test_ingest_event_without_observer_stays_local(self):
        net = FlexNet.standard()
        net.controller.telemetry.ingest_event("crash", "sw1", 1.25)
        assert net.controller.telemetry.total_events == 1
        assert net.observe.tracer.total_events == 0

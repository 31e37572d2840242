"""The FlexScope-era FlexNet facade: outcome objects, keyword-only
consistency, and the Reportable traffic report."""

from __future__ import annotations

import pytest

from repro.apps import base_infrastructure, firewall_delta
from repro.core.flexnet import FlexNet, InstallOutcome
from repro.runtime.consistency import ConsistencyLevel


class TestInstallOutcome:
    def test_install_returns_outcome_proxying_the_plan(self):
        net = FlexNet.standard()
        outcome = net.install(base_infrastructure())
        assert isinstance(outcome, InstallOutcome)
        # Legacy plan-reading callers are unaffected by the proxy.
        assert outcome.placement == outcome.plan.placement
        assert outcome.estimated_latency_ns == outcome.plan.estimated_latency_ns
        assert "installed" in outcome.summary()
        assert outcome.to_dict()["program"] == "infra"

    def test_span_ids_absent_when_disabled_present_when_enabled(self):
        net = FlexNet.standard()
        disabled = net.install(base_infrastructure())
        assert disabled.span_id is None and disabled.trace_id is None

        observed = FlexNet.standard()
        observed.observe.enable()
        enabled = observed.install(base_infrastructure())
        assert enabled.span_id is not None
        span = observed.observe.tracer.find(enabled.span_id)
        assert span is not None and span.kind == "install"


class TestUpdateOutcome:
    def test_update_outcome_carries_span_ids_when_enabled(self):
        net = FlexNet.standard()
        net.observe.enable()
        net.install(base_infrastructure())
        outcome = net.update(firewall_delta())
        assert outcome.span_id is not None
        span = net.observe.tracer.find(outcome.span_id)
        assert span is not None and span.kind == "update"
        assert outcome.to_dict()["span_id"] == outcome.span_id
        assert "transition" in outcome.summary()

    def test_update_outcome_span_ids_none_when_disabled(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        outcome = net.update(firewall_delta())
        assert outcome.span_id is None and outcome.trace_id is None

    def test_consistency_is_keyword_only(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        with pytest.raises(TypeError):
            net.update(firewall_delta(), ConsistencyLevel.PER_PACKET_PATH)


class TestTrafficReportTelemetry:
    def test_report_is_reportable(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        report = net.run_traffic(
            rate_pps=100.0,
            duration_s=0.2,
            consistency_level=ConsistencyLevel.PER_PACKET_PER_DEVICE,
        )
        data = report.to_dict()
        assert data["telemetry"]["total_digests"] == report.telemetry.total_digests
        assert data["metrics"]["sent"] == report.metrics.sent
        assert "sent" in report.summary()

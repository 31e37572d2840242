"""HyPer4-style virtualization baseline tests."""

import pytest

from repro.apps.base import base_infrastructure
from repro.baselines import hyper4
from repro.baselines.hyper4 import Hyper4Device
from repro.lang.analyzer import certify
from repro.targets import drmt_switch


@pytest.fixture
def device():
    return Hyper4Device(drmt_switch("sw"))


class TestEmulation:
    def test_op_overhead_applied(self, device, base_certificate):
        report = device.deploy(base_certificate)
        assert report.emulated_ops == int(report.native_ops * hyper4.OP_OVERHEAD)
        assert report.emulated_latency_ns > report.native_latency_ns

    def test_memory_inflation(self, device, base_certificate):
        report = device.deploy(base_certificate)
        assert report.emulated_memory_kb == pytest.approx(
            report.native_memory_kb * hyper4.MEMORY_OVERHEAD
        )

    def test_deploy_is_rule_install_speed(self, device, base_certificate):
        """No reflash: deployment latency is rule churn, far under the
        compile-time baseline's ~30 s drain cycle."""
        report = device.deploy(base_certificate)
        assert report.deploy_latency_s < 1.0

    def test_throughput_penalty(self, device, base_certificate):
        native = device.target.performance.throughput_mpps
        device.deploy(base_certificate)
        assert device.effective_throughput_mpps < native

    def test_interpreter_scaffolding_consumes_memory(self, device):
        assert device.interpreter_overhead["sram_kb"] > 0
        assert device.interpreter_overhead["tcam_kb"] > 0

    def test_capacity_exhaustion(self, device):
        big = certify(base_infrastructure(flow_entries=2_000_000))
        first = device.deploy(big)
        reports = [first]
        for index in range(20):
            from dataclasses import replace

            renamed = replace(big, program_name=f"p{index}")
            reports.append(device.deploy(renamed))
            if not reports[-1].fits:
                break
        assert not reports[-1].fits

    def test_remove_frees_capacity(self, device, base_certificate):
        device.deploy(base_certificate)
        device.remove(base_certificate.program_name)
        assert base_certificate.program_name not in device.deployed

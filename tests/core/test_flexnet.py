"""FlexNet facade tests."""

import pytest

from repro.core.flexnet import FlexNet
from repro.core.slo import Slo
from repro.errors import AnalysisError, ControlPlaneError
from repro.lang import builder as b
from repro.lang.builder import ProgramBuilder
from repro.lang.delta import parse_delta
from repro.apps.base import base_infrastructure
from repro.runtime.consistency import ConsistencyLevel
from repro.simulator.flowgen import constant_rate
from repro.simulator.packet import make_packet, reset_packet_ids


class TestTopologySugar:
    def test_standard_network_shape(self):
        net = FlexNet.standard()
        assert net.controller.datapath_path == ["h1", "nic1", "sw1", "nic2", "h2"]

    def test_switch_architectures(self):
        for arch in ("drmt", "rmt", "tiles"):
            net = FlexNet()
            net.add_switch("sw", arch=arch)
            assert net.controller.devices["sw"].target.arch in ("drmt", "rmt", "tiles")

    def test_unknown_arch_rejected(self):
        with pytest.raises(ControlPlaneError):
            FlexNet().add_switch("sw", arch="quantum")

    def test_legacy_devices_forward_only(self):
        net = FlexNet()
        net.add_host("h1")
        net.controller.add_device("dumb", None)  # forwards, hosts nothing
        net.add_switch("sw1")
        net.add_host("h2")
        net.connect("h1", "dumb")
        net.connect("dumb", "sw1")
        net.connect("sw1", "h2")
        net.build_datapath("h1", "h2")
        net.install(base_infrastructure())
        assert "dumb" not in net.datapath.plan.placement.values()


class TestInstallAndTraffic:
    def test_install_and_run(self, flexnet):
        report = flexnet.run_traffic(rate_pps=500, duration_s=1.0)
        assert report.metrics.sent == 500
        assert report.metrics.delivered == 500
        assert report.metrics.loss_rate == 0.0

    def test_admission_rejects_unbounded(self):
        net = FlexNet.standard()
        program = ProgramBuilder("bad")
        program.header("h", a=8)
        program.function(
            "f", [b.repeat(10_000, [b.repeat(100, [b.call("no_op")])])]
        )
        program.apply("f")
        with pytest.raises(AnalysisError):
            net.install(program.build())

    def test_datapath_status(self, flexnet):
        status = flexnet.datapath.status()
        assert status.program_name == "infra"
        assert status.devices == ["sw1"]
        assert status.encodings["flow_counts"] == "stateful_table"

    def test_update_bumps_version(self, flexnet):
        before = flexnet.program.version
        flexnet.update(parse_delta("delta d { resize table acl 2048; }"))
        assert flexnet.program.version == before + 1

    def test_update_is_hitless(self, flexnet):
        flexnet.schedule(
            0.5,
            lambda: flexnet.update(parse_delta("delta d { resize table acl 2048; }")),
        )
        report = flexnet.run_traffic(rate_pps=1000, duration_s=1.5)
        assert report.metrics.lost_by_infrastructure == 0

    def test_consistency_checker_wired(self, flexnet):
        report = flexnet.run_traffic(
            rate_pps=100, duration_s=0.5, consistency_level=ConsistencyLevel.PER_PACKET_PATH
        )
        assert report.consistency is not None
        assert report.consistency.report().holds


class TestGeneratedTraffic:
    """The generated constant-rate flow is built packet by packet as it
    is sent, and runs as the list ``constant_rate`` gives would have."""

    @staticmethod
    def arm(generated: bool):
        reset_packet_ids()
        net = FlexNet.standard()
        net.install(base_infrastructure())
        delta = parse_delta("delta d { resize table acl 2048; }")
        net.schedule(0.2, lambda: net.update(delta))
        # A packet made while the run is under way takes the id after
        # the run's whole block, as it did when the list was built first.
        made = []
        net.schedule(0.3, lambda: made.append(make_packet(1, 2).packet_id))
        level = ConsistencyLevel.PER_PACKET_PATH
        if generated:
            report = net.run_traffic(rate_pps=1000, duration_s=0.5, consistency_level=level)
        else:
            packets = list(constant_rate(1000, 0.5, start_s=net.loop.now))
            report = net.run_traffic(packets=packets, consistency_level=level)
        stats = {name: device.stats for name, device in net.controller.devices.items()}
        return report.to_dict(), report.consistency.report(), stats, made, net.loop._sequence

    def test_same_report_keys_and_ids_as_the_list(self):
        generated = self.arm(generated=True)
        assert generated == self.arm(generated=False)
        report = generated[0]
        # The window split the traffic, so the ids chose versions.
        assert len([key for key in report["metrics"]["version_counts"] if "sw1" in key]) == 2


class TestExportProgram:
    def test_live_program_exports_and_reparses(self, flexnet):
        from repro.lang.parser import parse_program
        from repro.lang.printer import print_program

        flexnet.update(parse_delta("delta d { resize table acl 2048; }"))
        source = print_program(flexnet.program)
        reparsed = parse_program(source)
        assert reparsed.table("acl").size == 2048
        assert set(reparsed.element_names) == set(flexnet.program.element_names)


class TestSlo:
    def test_slo_objective_applied(self, base_program):
        net = FlexNet.standard()
        net.build_datapath("h1", "h2", slo=Slo(prefer_energy=True))
        net.install(base_program)
        # energy placement avoids the switch's high idle power
        assert set(net.datapath.plan.placement.values()) == {"nic1"}

    def test_latency_slo(self, base_program):
        net = FlexNet.standard()
        net.build_datapath("h1", "h2", slo=Slo(max_latency_ns=100_000.0))
        plan = net.install(base_program)
        assert plan.estimated_latency_ns <= 100_000.0

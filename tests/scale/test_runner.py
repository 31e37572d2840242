"""FlexScale runner tests: differential identity, merge, failure modes.

The load-bearing property is *bit-identity*: a same-seed sharded run
must produce byte-for-byte the traffic report of the single-process
engine. Each arm gets a fresh net and a fresh (same-seed) workload
because runs mutate device state and packet objects.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import base_infrastructure
from repro.errors import SimulationError
from repro.scale import plan_shards, reference_run, run_sharded
from repro.scale.runner import build_engines
from repro.scale.shard import run_inline
from repro.scale.workload import e20_workload, pod_fabric
from repro.simulator.fastpath import seeded_rules
from repro.simulator.packet import reset_packet_ids

DRAIN_S = 0.05


def _arm(pods: int = 2, seeded: bool = False):
    """One experiment arm: fresh fabric + program + same-seed workload;
    ``seeded`` populates every device's tables with the same rules."""
    reset_packet_ids()
    net = pod_fabric(pods)
    net.install(base_infrastructure())
    if seeded:
        for device in net.controller.devices.values():
            seeded_rules(device.active_program, device.active_instance, seed=5)
    workload = e20_workload(250, rate_pps=20_000.0, seed=5)
    return net, workload


def _canon(data: dict) -> str:
    return json.dumps(data, sort_keys=True)


def _reference_json(pods: int = 2) -> str:
    net, workload = _arm(pods)
    return _canon(reference_run(net, workload, drain_s=DRAIN_S).to_dict())


class TestDifferentialIdentity:
    def test_inline_two_shards_byte_identical(self):
        expected = _reference_json()
        net, workload = _arm()
        report = run_sharded(
            net, workload, 2, backend="inline", seed=11, drain_s=DRAIN_S
        )
        assert _canon(report.traffic_dict()) == expected
        assert report.handoffs > 0  # the boundary was actually exercised

    def test_process_two_shards_byte_identical(self):
        expected = _reference_json()
        net, workload = _arm()
        report = run_sharded(
            net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S
        )
        assert _canon(report.traffic_dict()) == expected
        assert report.backend == "process"

    def test_single_shard_byte_identical(self):
        expected = _reference_json()
        net, workload = _arm()
        report = run_sharded(
            net, workload, 1, backend="inline", seed=11, drain_s=DRAIN_S
        )
        assert _canon(report.traffic_dict()) == expected
        assert report.handoffs == 0

    def test_three_pods_three_shards_byte_identical(self):
        expected = _reference_json(pods=3)
        net, workload = _arm(pods=3)
        report = run_sharded(
            net, workload, 3, backend="inline", seed=11, drain_s=DRAIN_S
        )
        assert _canon(report.traffic_dict()) == expected


class TestBatchedSharding:
    """The compiled engine under FlexScale, tables populated so repeat
    flows are answered from what each shard's tables remember (the ids
    date from the flow memo): what a table remembers is exact at any
    boundary, so a sharded run stays byte-identical to the unsharded
    reference, compiled or interpreted."""

    @staticmethod
    def _sharded():
        net, workload = _arm(seeded=True)
        net.engine(fastpath=True)
        report = run_sharded(net, workload, 2, backend="inline", seed=11, drain_s=DRAIN_S)
        remembered = sum(
            len(rules._decided)  # noqa: SLF001
            for device in net.controller.devices.values()
            for rules in device.active_instance.rules.values()
        )
        assert remembered > 0
        return report

    def test_batched_two_shards_byte_identical(self):
        net, workload = _arm(seeded=True)
        net.engine(fastpath=True)
        expected = _canon(reference_run(net, workload, drain_s=DRAIN_S).to_dict())
        report = self._sharded()
        assert _canon(report.traffic_dict()) == expected
        assert report.handoffs > 0

    def test_batched_matches_unbatched_traffic(self):
        net, workload = _arm(seeded=True)  # the interpreter, unsharded
        expected = _canon(reference_run(net, workload, drain_s=DRAIN_S).to_dict())
        assert _canon(self._sharded().traffic_dict()) == expected


class TestDeterminism:
    def test_same_seed_sharded_runs_identical(self):
        reports = []
        for _ in range(2):
            net, workload = _arm()
            reports.append(
                run_sharded(
                    net, workload, 2, backend="inline", seed=11, drain_s=DRAIN_S
                )
            )
        assert _canon(reports[0].to_dict()) == _canon(reports[1].to_dict())
        assert (
            reports[0].registry.to_prometheus()
            == reports[1].registry.to_prometheus()
        )

    def test_inline_and_process_agree_entirely(self):
        net, workload = _arm()
        inline = run_sharded(
            net, workload, 2, backend="inline", seed=11, drain_s=DRAIN_S
        )
        net, workload = _arm()
        process = run_sharded(
            net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S
        )
        assert _canon(inline.traffic_dict()) == _canon(process.traffic_dict())

        # Window/handoff cadence is a protocol diagnostic and may differ
        # between backends, and the FlexMend supervision families exist
        # only under the process backend; every *traffic* metric family
        # must still agree exactly.
        def invariant(registry) -> str:
            return "\n".join(
                line
                for line in registry.to_prometheus().splitlines()
                if "flexnet_scale_" not in line and "flexnet_mend_" not in line
            )

        assert invariant(inline.registry) == invariant(process.registry)


class TestMergedObservability:
    def test_registry_carries_device_and_scale_families(self):
        net, workload = _arm()
        report = run_sharded(
            net, workload, 2, backend="inline", seed=11, drain_s=DRAIN_S
        )
        text = report.registry.to_prometheus()
        assert "flexnet_device_packets_total" in text
        assert "flexnet_scale_windows_total" in text
        assert "flexnet_scale_handoffs_total" in text

    def test_report_sections(self):
        net, workload = _arm()
        report = run_sharded(
            net, workload, 2, backend="inline", seed=11, drain_s=DRAIN_S
        )
        data = report.to_dict()
        assert data["traffic"]["metrics"]["sent"] == 250
        assert data["sharding"]["backend"] == "inline"
        assert len(data["sharding"]["per_shard"]) == 2
        assert data["sharding"]["plan"]["assignment"]
        assert "byte" not in report.summary()  # summary renders without error

    def test_process_backend_reports_cpu_seconds(self):
        net, workload = _arm()
        report = run_sharded(
            net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S
        )
        assert report.max_shard_cpu_s is not None
        assert report.max_shard_cpu_s >= 0.0
        # Measurement-only: the deterministic export must not carry it.
        assert "cpu" not in _canon(report.to_dict())


class TestFlexNetFacade:
    def test_scale_generates_workload_and_runs(self):
        reset_packet_ids()
        net = pod_fabric(2)
        net.install(base_infrastructure())
        report = net.scale(
            shards=2, backend="inline", rate_pps=5000.0, duration_s=0.02
        )
        assert report.metrics.sent > 0
        assert report.metrics.delivered == report.metrics.sent
        assert len(report.plan.populated_shards) == 2


class TestFailureModes:
    def test_drain_too_small_fails_loudly(self):
        net, workload = _arm()
        with pytest.raises(SimulationError):
            run_sharded(
                net, workload, 2, backend="inline", seed=11, drain_s=1e-6
            )

    def test_unknown_backend_rejected(self):
        net, workload = _arm()
        with pytest.raises(SimulationError):
            run_sharded(net, workload, 2, backend="threads", drain_s=DRAIN_S)

    def test_inline_engines_expose_protocol_state(self):
        net, workload = _arm()
        plan = plan_shards(net.controller, 2, seed=11)
        engines = build_engines(net, plan, workload, drain_s=DRAIN_S)
        run_inline(engines)
        assert all(engine.finished() for engine in engines.values())
        total_out = sum(engine.handoffs_out for engine in engines.values())
        total_in = sum(engine.handoffs_in for engine in engines.values())
        assert total_out == total_in > 0

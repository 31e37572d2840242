"""FlexScale runner tests: differential identity, merge, failure modes.

The load-bearing property is *bit-identity*: a same-seed sharded run
must produce byte-for-byte the traffic report of the single-process
engine. Each arm gets a fresh net and a fresh (same-seed) workload
because runs mutate device state and packet objects.
"""

from __future__ import annotations

import json

import pytest

from repro import limits
from repro.apps import base_infrastructure
from repro.errors import SimulationError
from repro.faults import FaultPlan, HandoffDrop, WorkerCrash
from repro.scale import plan_shards, reference_run, run_sharded
from repro.scale.mend import Supervisor
from repro.scale.runner import _engines, _merge_results, build_engines
from repro.scale.shard import run_inline
from repro.simulator.metrics import RunMetrics
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


class TestProtocolShape:
    """The protocol edges of a run are the shard pairs its routes
    cross: on the one-way fabric a forward chain, whose source paces
    itself and waits for nobody."""

    @pytest.mark.parametrize(
        "shards,chain", [(2, {(0, 1)}), (4, {(0, 2), (2, 3), (3, 1)})]
    )
    def test_one_way_fabric_runs_a_forward_chain(self, shards, chain):
        expected = _reference_json(pods=4)
        net, workload = _arm(pods=4)
        inline = run_sharded(
            net, workload, shards, backend="inline", seed=11, drain_s=DRAIN_S
        )
        net, workload = _arm(pods=4)
        process = run_sharded(
            net, workload, shards, backend="process", seed=11, drain_s=DRAIN_S
        )
        for report in (inline, process):
            assert set(report.plan.lookahead_s) == chain
            assert _canon(report.traffic_dict()) == expected
        # The planner's answer is untouched: every boundary link, both ways.
        planned = plan_shards(net.controller, shards, seed=11).lookahead_s
        assert set(planned) == chain | {(dst, src) for src, dst in chain}
        assert inline.to_dict()["sharding"]["plan"]["lookahead_s"] == {
            f"{src}->{dst}": 5e-4 for src, dst in sorted(chain)
        }
        windows = {result.shard_id: result.windows for result in inline.shard_results}
        assert windows == {
            result.shard_id: result.windows for result in process.shard_results
        }
        # One frame per live in-edge per round, none on the others: the
        # source consumed nothing, and every other shard one frame for
        # each round that opened a window (its first round, run on the
        # initial zero guarantee, excepted).
        source = 0
        delivered = {
            shard: counters["batches_delivered"]
            for shard, counters in process.mend.per_shard.items()
        }
        assert delivered.pop(source) == 0
        assert delivered == {
            shard: windows[shard] - 1 for shard in windows if shard != source
        }

    def test_source_paces_itself_by_its_lookahead(self):
        # A shard with no in-edge could run to the horizon in one window
        # and feed its neighbor one frame at the end: still
        # byte-identical, and a serial run.
        net, workload = _arm()
        plan = plan_shards(net.controller, 2, seed=11)
        engines = build_engines(net, plan, workload, drain_s=DRAIN_S)
        source = engines[0]
        assert source.safe_time() == float("inf")
        assert source.advance() == pytest.approx(5e-4)
        assert source.guarantees_out()[1].time == pytest.approx(1e-3)
        run_inline(engines)
        assert source.windows >= source.end_time / 5e-4 - 1
        assert engines[1].windows >= 2

    def test_handoff_toward_an_undeclared_shard_raises(self):
        net, workload = _arm()
        plan = plan_shards(net.controller, 2, seed=11).routed([])
        end_time = workload[-1].time + DRAIN_S
        hops = net.controller.network.path("datapath")
        per_shard = {0: [(timed.packet, hops, timed.time) for timed in workload]}
        engines = _engines(net, plan, per_shard, end_time)
        with pytest.raises(SimulationError, match="not an out-edge"):
            run_inline(engines)

    def test_summaries_print_the_live_edges(self):
        net, workload = _arm()
        report = run_sharded(
            net, workload, 2, backend="inline", seed=11, drain_s=DRAIN_S
        )
        assert "  edges 0 -> 1  500 µs\n" in report.summary()
        assert "  edge 0 -> 1  500 µs" in report.plan.summary()
        assert "1 -> 0" not in report.plan.summary()


class TestTwoWayRoutes:
    """Routes in both directions keep both edges: the shard graph is a
    cycle, every shard waits for its neighbor every round (the
    lock-step run), and null messages are what keeps it from
    deadlocking. ``run_sharded`` resolves only ``datapath``, so the
    arms are built from explicit ``(packet, hops, time)`` triples."""

    @staticmethod
    def _arm():
        net, workload = _arm()
        forward = net.controller.network.path("datapath")
        backward = forward[::-1]
        triples = [
            (timed.packet, backward if index % 3 == 0 else forward, timed.time)
            for index, timed in enumerate(workload)
        ]
        return net, triples, workload[-1].time + DRAIN_S

    @staticmethod
    def _sharded(net, triples):
        plan = plan_shards(net.controller, 2, seed=11).routed(
            hops for _, hops, _ in triples
        )
        per_shard: dict = {shard: [] for shard in plan.populated_shards}
        for triple in triples:
            per_shard[plan.shard_of(triple[1][0])].append(triple)
        return plan, per_shard

    def _reference(self) -> str:
        net, triples, end_time = self._arm()
        metrics = RunMetrics()
        digests = []
        for packet, hops, at_time in triples:
            net.controller.network.inject(
                packet, hops, at_time, metrics, on_done=digests.append
            )
        net.controller.loop.run_until(end_time)
        assert metrics.delivered == len(triples)
        return _canon(
            {
                "metrics": metrics.to_dict(),
                "telemetry": {
                    "total_digests": sum(len(packet.digests) for packet in digests),
                    "total_events": 0,
                },
            }
        )

    def _inline(self):
        net, triples, end_time = self._arm()
        plan, per_shard = self._sharded(net, triples)
        engines = _engines(net, plan, per_shard, end_time)
        run_inline(engines)
        results = [engine.result() for engine in engines.values()]
        return _merge_results(plan, "inline", end_time, results)

    def _process(self, chaos=None):
        net, triples, end_time = self._arm()
        plan, per_shard = self._sharded(net, triples)
        results, mend, _ = Supervisor(
            net, plan, per_shard, end_time, chaos=chaos
        ).run()
        return _merge_results(plan, "process", end_time, results, mend=mend)

    def test_both_directions_stay_live_and_lock_step(self):
        inline = self._inline()
        assert set(inline.plan.lookahead_s) == {(0, 1), (1, 0)}
        assert all(result.handoffs_in > 0 for result in inline.shard_results)
        assert all(result.handoffs_out > 0 for result in inline.shard_results)
        # Each shard is held to its neighbor's guarantee: same windows.
        assert len({result.windows for result in inline.shard_results}) == 1

    def test_process_inline_and_single_process_agree(self):
        expected = self._reference()
        inline, process = self._inline(), self._process()
        assert _canon(inline.traffic_dict()) == expected
        assert _canon(process.traffic_dict()) == expected
        assert [r.windows for r in inline.shard_results] == [
            r.windows for r in process.shard_results
        ]
        assert all(
            counters["batches_delivered"] > 0
            for counters in process.mend.per_shard.values()
        )

    def test_crash_and_drops_on_a_cyclic_graph(self, monkeypatch):
        monkeypatch.setattr(limits, "MEND_NACK_IMPATIENCE_S", 0.2)
        chaos = FaultPlan(
            seed=11,
            worker_crashes=(WorkerCrash(shard=1, window=5),),
            handoff_drops=tuple(
                HandoffDrop(shard=shard, probability=0.2) for shard in range(2)
            ),
        )
        report = self._process(chaos)
        assert _canon(report.traffic_dict()) == self._reference()
        assert report.mend.restarts == 1
        assert report.mend.crashes == [{"shard": 1, "window": 5}]
        assert all(
            counters["fault_drops"] > 0
            for counters in report.mend.per_shard.values()
        )

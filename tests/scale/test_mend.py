"""FlexMend tests: sequenced transport, supervised re-execution, and
failure-path propagation.

The load-bearing property mirrors E23: a process-backend run with
injected worker faults must produce a ``traffic`` section identical to
the single-process reference's, and a fault that never fired must fail
the run rather than pass for one absorbed. The unit
layer below it (transport framing) is tested in-process so a protocol
regression points at the guilty mechanism, not just at a diverged
end-to-end hash.
"""

from __future__ import annotations

import gc
import os
import queue
import sys
import time

import pytest

from repro import limits
from repro.apps import base_infrastructure
from repro.errors import SimulationError
from repro.faults import (
    FaultPlan,
    HandoffDrop,
    HandoffDup,
    WorkerCrash,
    WorkerStall,
)
from repro.observe.report import divergences
from repro.scale import plan_shards, run_sharded
from repro.scale.mend import MendTransport, WorkerFaultInjector, _pin_to_own_cpu
from repro.scale.runner import build_engines
from repro.scale.shard import Handoff, ShardEngine, decode_frame, encode_frame
from repro.scale.workload import e20_workload, pod_fabric
from repro.simulator.packet import Packet, reset_packet_ids

DRAIN_S = 0.05


def _arm(pods: int = 2, packets: int = 150):
    reset_packet_ids()
    net = pod_fabric(pods)
    net.install(base_infrastructure())
    workload = e20_workload(packets, rate_pps=20_000.0, seed=5)
    return net, workload


def _reference(pods: int = 2, packets: int = 150) -> dict:
    """The single-process control arm's traffic report."""
    net, workload = _arm(pods, packets)
    return net.run_traffic(packets=workload, extra_time_s=DRAIN_S).to_dict()


# -- fault plan categories ---------------------------------------------------


class TestWorkerFaultCategories:
    def test_describe_lines(self):
        plan = FaultPlan(
            seed=11,
            worker_crashes=(WorkerCrash(shard=0, window=4),),
            worker_stalls=(WorkerStall(shard=1, window=2, stall_s=0.5),),
            handoff_drops=(HandoffDrop(shard=0, probability=0.2),),
            handoff_dups=(HandoffDup(shard=1, probability=0.1),),
        )
        lines = plan.describe()
        assert "worker crash shard 0 at window 4" in lines
        assert "worker stall shard 1 at window 2 (+0.5s wall)" in lines
        assert "handoff drop shard 0: p=0.2" in lines
        assert "handoff dup shard 1: p=0.1" in lines

    def test_crash_fires_exactly_once(self):
        plan = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=4),))
        injector = WorkerFaultInjector(plan, 0)
        assert injector.crash_at(4) == 0
        assert injector.crash_at(4) is None  # consumed

    def test_fired_set_survives_incarnations(self):
        # The supervisor passes the fired set to the respawned worker so
        # the same crash spec can never kill the restored incarnation.
        plan = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=4),))
        respawned = WorkerFaultInjector(plan, 0, fired=frozenset({("crash", 0)}))
        assert respawned.crash_at(4) is None

    def test_specs_target_their_shard_only(self):
        plan = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=4),))
        assert WorkerFaultInjector(plan, 1).crash_at(4) is None

    def test_probabilistic_streams_are_per_seed_deterministic(self):
        plan = FaultPlan(seed=11, handoff_drops=(HandoffDrop(shard=0, probability=0.5),))

        def draw_sequence() -> list[bool]:
            injector = WorkerFaultInjector(plan, 0)
            return [injector.drop_batch() for _ in range(32)]

        draws = [draw_sequence(), draw_sequence()]
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])


# -- sequenced transport -----------------------------------------------------


def _transports():
    """A sender (shard 0) / receiver (shard 1) pair over plain queues."""
    inboxes = {0: queue.Queue(), 1: queue.Queue()}
    sender = MendTransport(0, inboxes)
    receiver = MendTransport(1, inboxes, in_neighbors=(0,))
    return inboxes, sender, receiver


class TestMendTransport:
    def test_send_assigns_sequences_and_retains(self):
        inboxes, sender, _ = _transports()
        sender.send(1, ["a"])
        sender.send(1, ["b"])
        assert sender.sent_seq[1] == 2
        assert sender.retained[1] == {1: ("a",), 2: ("b",)}
        assert inboxes[1].get_nowait() == ("batch", 0, 1, ("a",))

    def test_release_is_round_gated_and_in_order(self):
        _, sender, receiver = _transports()
        receiver.ingest(("batch", 0, 1, ("a",)))
        receiver.ingest(("batch", 0, 2, ("b",)))
        assert receiver.ready(1, (0,))
        delivered: list = []
        receiver.release(1, delivered.append)
        assert delivered == ["a"]  # round 1 releases seq 1 only
        receiver.release(2, delivered.append)
        assert delivered == ["a", "b"]
        assert receiver.delivered[0] == 2

    def test_gap_triggers_immediate_nack(self):
        inboxes, _, receiver = _transports()
        receiver.ingest(("batch", 0, 2, ("b",)))
        assert inboxes[0].get_nowait() == ("nack", 1, 1)
        assert not receiver.ready(1, (0,))  # the gap blocks the round
        receiver.ingest(("batch", 0, 1, ("a",)))
        assert receiver.ready(2, (0,))
        assert receiver.stats.nacks_sent == 1

    def test_duplicates_dropped_by_sequence(self):
        _, _, receiver = _transports()
        receiver.ingest(("batch", 0, 1, ("a",)))
        receiver.ingest(("batch", 0, 1, ("a",)))  # still buffered
        receiver.release(1, lambda _message: None)
        receiver.ingest(("batch", 0, 1, ("a",)))  # already delivered
        assert receiver.stats.duplicates_dropped == 2
        assert receiver.stats.batches_delivered == 1

    def test_nack_served_from_retention(self):
        inboxes, sender, _ = _transports()
        sender.send(1, ["a"])
        inboxes[1].get_nowait()  # the original, lost in this scenario
        sender.ingest(("nack", 1, 1))
        assert inboxes[1].get_nowait() == ("batch", 0, 1, ("a",))
        assert sender.stats.retransmits_served == 1

    def test_replay_resends_everything_past_watermark(self):
        # The sender never trims and resends the whole stream: a
        # re-forked receiver starts at watermark 0. A receiver further
        # along keeps only what lies past its own watermark.
        inboxes, sender, receiver = _transports()
        for payload in (["a"], ["b"], ["c"]):
            sender.send(1, payload)
            inboxes[1].get_nowait()
        sender.ingest(("replay", 1))
        replayed = [inboxes[1].get_nowait() for _ in range(3)]
        assert replayed == [
            ("batch", 0, 1, ("a",)),
            ("batch", 0, 2, ("b",)),
            ("batch", 0, 3, ("c",)),
        ]
        assert sender.stats.replays_served == 3
        receiver.ingest(replayed[0])
        receiver.release(1, lambda _message: None)
        for frame in replayed:
            receiver.ingest(frame)
        assert receiver.stats.duplicates_dropped == 1
        assert sorted(receiver.buffered[0]) == [2, 3]

    def test_unknown_frame_kind_rejected(self):
        _, _, receiver = _transports()
        with pytest.raises(SimulationError):
            receiver.ingest(("gossip", 0, 1, ()))


# -- wire frames ---------------------------------------------------------------


def _reaches(root, kind) -> bool:
    """Whether an instance of ``kind`` is reachable from ``root``."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            return True
        stack.extend(gc.get_referents(obj))
    return False


class TestWireFrames:
    """A round's frame on an edge is one ``bytes`` payload: the handoffs
    and the guarantee, pickled by the sender as flat records."""

    def test_an_inline_run_through_the_codec_matches_the_reference(self):
        # Every frame of the run goes through encode/decode: the decoded
        # handoffs equal the originals in the same sort_key order, and
        # the path each packet carries is the one its record rebuilds.
        expected = _reference()
        net, workload = _arm()
        engines = build_engines(net, plan_shards(net.controller, 2, seed=11), workload, DRAIN_S)
        frames = handed = 0
        while not all(engine.finished() for engine in engines.values()):
            for shard in sorted(engines):
                engines[shard].advance()
            for shard in sorted(engines):
                outbox = engines[shard].take_outbox()
                for dst, guarantee in sorted(engines[shard].guarantees_out().items()):
                    handoffs = outbox.get(dst, [])
                    for handoff in handoffs:
                        assert handoff.packet.path == list(handoff.hops[: handoff.index])
                    *decoded, last = decode_frame(encode_frame(handoffs, guarantee))
                    assert decoded == handoffs and last == guarantee
                    assert [h.sort_key for h in decoded] == [h.sort_key for h in handoffs]
                    assert all(type(h) is Handoff for h in decoded)
                    for message in (*decoded, last):
                        engines[dst].deliver(message)
                    frames += 1
                    handed += len(handoffs)
        assert frames == engines[0].windows and handed == engines[1].handoffs_in > 0
        delivered = sum(engine.result().metrics.delivered for engine in engines.values())
        assert delivered == expected["metrics"]["delivered"] == len(workload)

    def test_a_sent_frame_retains_no_packet(self):
        net, workload = _arm()
        engines = build_engines(net, plan_shards(net.controller, 2, seed=11), workload, DRAIN_S)
        source = engines[0]
        while not source._outbox[1]:  # noqa: SLF001 - a round with handoffs
            source.advance()
        handoffs = source.take_outbox()[1]
        guarantee = source.guarantees_out()[1]
        _, sender, _ = _transports()
        sender.send(1, [encode_frame(handoffs, guarantee)])
        assert not _reaches(sender.retained, Packet)
        assert not _reaches(sender.retained, Handoff)
        sender.send(1, [*handoffs, guarantee])  # the check can see one
        assert _reaches(sender.retained, Packet)


# -- supervised recovery (process backend, end-to-end) -----------------------


class TestSupervisedRecovery:
    def test_crash_recovery_is_byte_identical(self):
        expected = _reference()
        chaos = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=3),))
        net, workload = _arm()
        report = run_sharded(
            net,
            workload,
            2,
            backend="process",
            seed=11,
            drain_s=DRAIN_S,
            chaos=chaos,
        )
        assert divergences(expected, report.traffic_dict()) == []
        assert report.mend is not None
        assert report.mend.restarts == 1
        assert report.mend.crashes == [{"shard": 0, "window": 3}]
        # The re-forked worker re-ran every window up to the crash.
        assert report.mend.windows_replayed == 3

    @pytest.mark.parametrize("shard", [0, 1])
    def test_a_death_without_chaos_is_recovered(self, monkeypatch, tmp_path, shard):
        # No fault plan: the worker just exits at window 3 (shard 0
        # sends on the only edge, shard 1 receives on it). The
        # re-forked worker carries the same patch and finds the marker.
        marker = tmp_path / "died"
        advance = ShardEngine.advance

        def dying_advance(engine):
            if engine.shard_id == shard and engine.windows == 3 and not marker.exists():
                marker.touch()
                # Let the queue feeder threads finish their writes: a
                # death mid-write would leave a frame torn and a queue
                # lock held, which no recovery protocol can repair.
                time.sleep(0.2)
                os._exit(1)
            return advance(engine)

        monkeypatch.setattr(ShardEngine, "advance", dying_advance)
        net, workload = _arm()
        report = run_sharded(net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S)
        assert divergences(_reference(), report.traffic_dict()) == []
        assert report.mend.restarts == 1
        assert [crash["shard"] for crash in report.mend.crashes] == [shard]

    def test_a_death_during_a_restart_backoff_is_accounted_once(self):
        # Shards of a forward chain do not wait for the source, so the
        # sink reaches its crash window while the supervisor is still
        # backing off before respawning the source. Its fault event is
        # read before its death is handled: each spec fires once.
        expected = _reference(pods=4)
        chaos = FaultPlan(
            seed=11,
            worker_crashes=(
                WorkerCrash(shard=0, window=4),
                WorkerCrash(shard=1, window=6),
            ),
        )
        net, workload = _arm(pods=4)
        report = run_sharded(
            net, workload, 4, backend="process", seed=11, drain_s=DRAIN_S, chaos=chaos
        )
        assert divergences(expected, report.traffic_dict()) == []
        assert report.mend.crashes == [
            {"shard": 0, "window": 4},
            {"shard": 1, "window": 6},
        ]
        assert report.mend.restarts == 2

    def test_handoff_loss_and_dup_recovery(self, monkeypatch):
        # Fast impatience so a dropped final frame re-NACKs quickly; the
        # forked workers inherit the patched value.
        monkeypatch.setattr(limits, "MEND_NACK_IMPATIENCE_S", 0.2)
        expected = _reference()
        chaos = FaultPlan(
            seed=11,
            handoff_drops=tuple(
                HandoffDrop(shard=shard, probability=0.3) for shard in range(2)
            ),
            handoff_dups=tuple(
                HandoffDup(shard=shard, probability=0.2) for shard in range(2)
            ),
        )
        net, workload = _arm()
        report = run_sharded(
            net,
            workload,
            2,
            backend="process",
            seed=11,
            drain_s=DRAIN_S,
            chaos=chaos,
        )
        assert divergences(expected, report.traffic_dict()) == []
        drops = sum(
            counters["fault_drops"]
            for counters in report.mend.per_shard.values()
        )
        assert drops > 0  # the faults actually fired

    def test_stall_detection_kills_and_restores(self, monkeypatch):
        # Staleness horizon shrunk for test speed; impatience shrunk
        # below it so workers *waiting* on the stalled shard keep
        # heartbeating and only the sleeping worker reads as stale.
        monkeypatch.setattr(limits, "MEND_HEARTBEAT_TIMEOUT_S", 2.0)
        monkeypatch.setattr(limits, "MEND_NACK_IMPATIENCE_S", 0.5)
        expected = _reference()
        chaos = FaultPlan(
            seed=11,
            worker_stalls=(WorkerStall(shard=0, window=3, stall_s=30.0),),
        )
        net, workload = _arm()
        report = run_sharded(
            net,
            workload,
            2,
            backend="process",
            seed=11,
            drain_s=DRAIN_S,
            chaos=chaos,
        )
        assert divergences(expected, report.traffic_dict()) == []
        assert report.mend.stall_kills == 1
        assert report.mend.stalls_injected == 1
        assert report.mend.restarts == 1
        # No fault notice for a stall kill: the death is accounted at the
        # last heartbeat, and every heartbeat carries the engine's window.
        assert report.mend.crashes == [{"shard": 0, "window": 3}]
        assert report.mend.windows_replayed == 3

    def test_same_seed_chaos_reports_identical(self):
        chaos = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=3),))
        reports = []
        for _ in range(2):
            net, workload = _arm()
            reports.append(
                run_sharded(
                    net,
                    workload,
                    2,
                    backend="process",
                    seed=11,
                    drain_s=DRAIN_S,
                    chaos=chaos,
                )
            )
        # The full deterministic export — including the mend section —
        # is repeatable; wall-clock latencies live outside it.
        assert divergences(reports[0].to_dict(), reports[1].to_dict()) == []

    def test_chaos_requires_process_backend(self):
        net, workload = _arm()
        chaos = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=3),))
        with pytest.raises(SimulationError, match="process backend"):
            run_sharded(
                net, workload, 2, backend="inline", drain_s=DRAIN_S, chaos=chaos
            )


class TestSupervisorPacing:
    """Wall-clock pacing of the process backend: none of it may decide
    how long a fault-free run takes."""

    def test_a_result_wakes_the_supervisor(self, monkeypatch):
        # Results travel on the events queue, so the last one ends the
        # run at once, however long the supervisor would otherwise sleep.
        monkeypatch.setattr(limits, "MEND_POLL_INTERVAL_S", 8.0)
        net, workload = _arm()
        start = time.monotonic()
        report = run_sharded(net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S)
        assert time.monotonic() - start < 6.0
        assert divergences(_reference(), report.traffic_dict()) == []

    def test_switch_interval_is_set_in_the_worker_only(self, monkeypatch):
        result = ShardEngine.result

        def spying_result(engine):
            out = result(engine)
            out.switch_interval_s = sys.getswitchinterval()  # pickled with the result
            return out

        monkeypatch.setattr(ShardEngine, "result", spying_result)
        before = sys.getswitchinterval()
        net, workload = _arm()
        report = run_sharded(net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S)
        seen = [shard.switch_interval_s for shard in report.shard_results]
        assert seen == [pytest.approx(limits.SCALE_WORKER_SWITCH_INTERVAL_S)] * 2
        assert sys.getswitchinterval() == before
        assert before > limits.SCALE_WORKER_SWITCH_INTERVAL_S

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
    )
    def test_each_worker_keeps_to_a_cpu_of_its_own(self, monkeypatch):
        # Unpinned, pipe wake-ups stack both workers on one CPU for
        # seconds at a time and the rounds run in turns.
        result = ShardEngine.result

        def spying_result(engine):
            out = result(engine)
            out.cpus = sorted(os.sched_getaffinity(0))  # pickled with the result
            return out

        monkeypatch.setattr(ShardEngine, "result", spying_result)
        before = os.sched_getaffinity(0)
        net, workload = _arm()
        report = run_sharded(net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S)
        seen = [shard.cpus for shard in report.shard_results]
        assert os.sched_getaffinity(0) == before
        assert all(set(cpus) <= before for cpus in seen)
        if len(before) > 1:
            assert [len(cpus) for cpus in seen] == [1, 1]
            assert seen[0] != seen[1]
        else:
            assert seen == [sorted(before)] * 2
        assert divergences(_reference(), report.traffic_dict()) == []

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
    )
    def test_more_workers_than_cpus_share_them_evenly(self):
        before = os.sched_getaffinity(0)
        picked = []
        try:
            for slot in range(2 * len(before)):
                _pin_to_own_cpu(slot)
                picked.append(os.sched_getaffinity(0))
                os.sched_setaffinity(0, before)
        finally:
            os.sched_setaffinity(0, before)
        if len(before) == 1:
            assert picked == [before] * 2
        else:
            assert all(len(cpus) == 1 for cpus in picked)
            assert picked[: len(before)] == picked[len(before) :]
            assert set().union(*picked[: len(before)]) == before


class TestFailurePropagation:
    """Satellite: failure paths must fail *fast and loud* — shard id and
    traceback in the error, poison-pill teardown well under the old
    full-timeout hang."""

    def test_restart_budget_exhaustion_is_fatal(self, monkeypatch):
        monkeypatch.setattr(limits, "MEND_MAX_RESTARTS", 0)
        chaos = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=3),))
        net, workload = _arm()
        start = time.monotonic()
        with pytest.raises(SimulationError, match="restart budget"):
            run_sharded(
                net,
                workload,
                2,
                backend="process",
                seed=11,
                drain_s=DRAIN_S,
                chaos=chaos,
            )
        assert time.monotonic() - start < 20.0

    def test_worker_error_carries_shard_and_traceback(self):
        # drain_s too small leaves events past the horizon; the worker's
        # result() raises and the supervisor relays shard + traceback.
        net, workload = _arm()
        start = time.monotonic()
        with pytest.raises(SimulationError) as excinfo:
            run_sharded(
                net, workload, 2, backend="process", seed=11, drain_s=1e-6
            )
        message = str(excinfo.value)
        assert "shard" in message and "failed" in message
        assert "Traceback" in message  # the worker's own stack, relayed
        assert time.monotonic() - start < 20.0

    def test_result_timeout_poisons_the_fleet(self, monkeypatch):
        # A zero result budget declares the wedge immediately; the
        # poison-pill broadcast must tear the fleet down in seconds, not
        # the join timeout per worker.
        monkeypatch.setattr(limits, "SCALE_RESULT_TIMEOUT_S", 0.0)
        net, workload = _arm()
        start = time.monotonic()
        with pytest.raises(SimulationError, match="timed out"):
            run_sharded(
                net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S
            )
        assert time.monotonic() - start < 15.0

    @pytest.mark.parametrize(
        "plan,why",
        [
            (FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=3, window=2),)),
             "shard 3 holds no devices"),
            (FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=10_000),)),
             "shard 0 finished at window"),
            (FaultPlan(seed=11, worker_stalls=(WorkerStall(shard=1, window=10_000),)),
             "shard 1 finished at window"),
        ],
        ids=["unpopulated-shard", "crash-past-the-run", "stall-past-the-run"],
    )
    def test_a_fault_that_never_fired_fails_the_run(self, plan, why):
        # Otherwise the run reads as a chaos run that absorbed its faults.
        net, workload = _arm()
        with pytest.raises(SimulationError, match=f"never fired: {why}"):
            run_sharded(
                net, workload, 2, backend="process", seed=11, drain_s=DRAIN_S, chaos=plan
            )


# -- facade ------------------------------------------------------------------


class TestChaosHarness:
    def test_facade_passes_chaos_through(self):
        reset_packet_ids()
        net = pod_fabric(2)
        net.install(base_infrastructure())
        chaos = FaultPlan(seed=11, worker_crashes=(WorkerCrash(shard=0, window=2),))
        report = net.scale(
            shards=2,
            backend="process",
            rate_pps=5000.0,
            duration_s=0.02,
            drain_s=DRAIN_S,
            chaos=chaos,
        )
        assert report.metrics.delivered == report.metrics.sent > 0
        assert report.mend is not None
        assert report.mend.restarts == 1

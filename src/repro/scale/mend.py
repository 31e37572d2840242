"""FlexMend: fault-tolerant sharded execution.

The FlexScale process backend survives worker-process death without
giving up determinism. Three mechanisms compose (DESIGN.md §4l):

* **Windowed checkpoints** — at window boundaries a worker snapshots
  its shard as plain data: device/map/table state, the event loop's
  contents (every shard-loop event is a packet arrival, so the queue
  serializes as ``(time, seq, packet, hops, index)`` tuples), the
  clock, pending handoffs, and the transport's in/out watermarks.
* **Sequenced transport with retention** — every handoff batch between
  a shard pair carries a per-edge sequence number. Receivers deliver
  in order, dedup by sequence (a batch seq identifies the producer
  window; handoffs inside it are identified by ``(packet_id,
  hop_index)`` — so the effective dedup key is
  ``(packet_id, hop_index, window)``), and NACK gaps. Senders retain
  batches past the receiver's last *committed* (checkpointed)
  watermark, so a restarted shard can replay its inbound stream
  exactly; the coordinator trims retention as checkpoints commit.
* **A supervisor** — the coordinator detects death via process
  sentinels and heartbeats (one per round while chaos or checkpointing
  is armed, one per poll interval otherwise), respawns the shard from its
  last checkpoint with bounded retries and exponential backoff
  (:mod:`repro.limits`), asks in-neighbors to replay, and broadcasts a
  poison pill for sub-second fail-fast teardown when a run cannot be
  saved.

Why replay is exact: a checkpoint at window *W* captures the shard
*after* window *W*'s outbound flush, together with the transport's
``expected`` watermark per in-edge. Everything the shard consumed
through *W* is inside the snapshot; everything after is a batch with
seq > ``expected``-1, which the sender still retains (trims never pass
a committed watermark). Re-execution from *W* is deterministic — the
event loop's ``(time, seq)`` contract is preserved by re-scheduling
saved arrivals in canonical order — so the restarted shard re-sends
byte-identical batches under the *same* seqs, which neighbors that
already saw them drop as duplicates. The merged ``traffic`` section is
therefore byte-identical to the fault-free run (experiment E23).
"""

from __future__ import annotations

import copy
import os
import queue as queue_mod
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro import limits
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.observe.metrics import MetricsRegistry
from repro.scale.shard import Guarantee, Handoff, ShardEngine, ShardResult
from repro.simulator.packet import (
    packet_id_state,
    reset_packet_ids,
    set_packet_id_state,
)
from repro.util import stable_hash

#: Exit code a worker uses for an *injected* crash (``os._exit`` at a
#: window boundary — a controlled death that leaves the mp queues
#: uncorrupted, unlike killing mid-pickle). The supervisor treats any
#: non-zero death the same way; the code only aids diagnostics.
MEND_CRASH_EXIT_CODE = 73


# -- fault injection --------------------------------------------------------


class WorkerFaultInjector:
    """Deterministic per-shard decision oracle for the FlexMend fault
    categories (the sharded sibling of
    :class:`repro.faults.plan.FaultInjector`).

    Crash/stall specs fire once globally: ``fired`` carries the specs
    already consumed across previous incarnations (the supervisor owns
    that set — it must survive the very process death it describes).
    Probabilistic draws use per-shard RNG streams seeded from
    ``stable_hash((seed, category, shard))`` so one shard's draws never
    depend on another's, and the RNG state is checkpointed so a
    restarted worker re-draws identically.
    """

    def __init__(self, plan: FaultPlan, shard_id: int, fired: frozenset = frozenset()):
        self.plan = plan
        self.shard_id = shard_id
        self.fired = set(fired)
        self._crashes = [
            (index, spec)
            for index, spec in enumerate(plan.worker_crashes)
            if spec.shard == shard_id
        ]
        self._stalls = [
            (index, spec)
            for index, spec in enumerate(plan.worker_stalls)
            if spec.shard == shard_id
        ]
        self.drop_p = max(
            (spec.probability for spec in plan.handoff_drops if spec.shard == shard_id),
            default=0.0,
        )
        self.dup_p = max(
            (spec.probability for spec in plan.handoff_dups if spec.shard == shard_id),
            default=0.0,
        )
        self._drop_rng = self._stream("mend-drop")
        self._dup_rng = self._stream("mend-dup")

    def _stream(self, category: str) -> random.Random:
        return random.Random(
            stable_hash((self.plan.seed, *category.encode(), self.shard_id))
        )

    def crash_at(self, window: int) -> int | None:
        """Index of an unfired crash spec due at this window, if any."""
        for index, spec in self._crashes:
            if spec.window == window and ("crash", index) not in self.fired:
                self.fired.add(("crash", index))
                return index
        return None

    def stall_at(self, window: int) -> tuple[int, float] | None:
        for index, spec in self._stalls:
            if spec.window == window and ("stall", index) not in self.fired:
                self.fired.add(("stall", index))
                return index, spec.stall_s
        return None

    def drop_batch(self) -> bool:
        return bool(self.drop_p) and self._drop_rng.random() < self.drop_p

    def dup_batch(self) -> bool:
        return bool(self.dup_p) and self._dup_rng.random() < self.dup_p

    def getstate(self) -> tuple:
        return (self._drop_rng.getstate(), self._dup_rng.getstate())

    def setstate(self, state: tuple) -> None:
        self._drop_rng.setstate(state[0])
        self._dup_rng.setstate(state[1])


# -- sequenced transport ----------------------------------------------------


@dataclass
class MendTransportStats:
    """Per-shard transport accounting, split by determinism.

    ``deterministic_dict`` fields are provably identical across
    same-seed runs (and equal to the fault-free run where applicable);
    recovery-path counters (dups dropped, NACKs, retransmits, replays)
    depend on wall-clock races between trims, replays, and in-flight
    sends, so like ``cpu_s`` they are measurement-only and excluded
    from every deterministic export.
    """

    batches_delivered: int = 0
    fault_drops: int = 0
    fault_dups: int = 0
    duplicates_dropped: int = 0
    nacks_sent: int = 0
    retransmits_served: int = 0
    replays_served: int = 0

    def deterministic_dict(self) -> dict:
        return {
            "batches_delivered": self.batches_delivered,
            "fault_drops": self.fault_drops,
            "fault_dups": self.fault_dups,
        }

    def measured_dict(self) -> dict:
        return {
            "duplicates_dropped": self.duplicates_dropped,
            "nacks_sent": self.nacks_sent,
            "retransmits_served": self.retransmits_served,
            "replays_served": self.replays_served,
        }


@dataclass
class TransportCheckpoint:
    """The transport half of a shard checkpoint: watermarks in both
    directions plus the retention buffer (a restarted *sender* must
    still be able to serve replays for seqs it sent before its own
    checkpoint — re-execution only regenerates seqs after it)."""

    sent_seq: dict[int, int]
    expected: dict[int, int]
    buffered: dict[int, dict[int, tuple]]
    nacked: dict[int, frozenset]
    retained: dict[int, dict[int, tuple]]
    stats: MendTransportStats


class MendTransport:
    """Per-edge sequenced, deduping, replayable framing over the shard
    inbox queues, with *round-gated release*.

    Wire frames (first element is the kind):

    * ``("batch", src, seq, messages)`` — one round's handoffs +
      guarantee from ``src`` under per-edge sequence ``seq``.
    * ``("nack", requester, seq)`` — receiver is missing a seq; resend.
    * ``("replay", requester, since)`` — supervisor-initiated: resend
      every retained batch with seq > ``since`` to ``requester``.
    * ``("trim", dst, upto)`` — supervisor: ``dst`` committed a
      checkpoint; retention for it may drop seqs <= ``upto``.
    * ``("poison",)`` / ``("shutdown",)`` — terminate now / all done.

    The receive side is split into :meth:`ingest` (buffer frames as
    they arrive, in any order) and :meth:`release` (hand exactly the
    batches of one protocol *round* to the engine, per-source in seq
    order). The worker advances in rounds — one frame per live edge per
    round, mirroring ``step_inline``: round *r* of a shard consumes
    frame *r* of every in-edge, so shards on a cycle of edges march in
    lock-step and a forward chain pipelines — so the engine's window
    schedule is a pure function of delivered content, never of queue
    interleaving. That is what makes restart sound: a respawned worker
    re-executes the same rounds with the same inputs and regenerates
    byte-identical frames under the same seqs, which neighbors that
    already consumed them drop as duplicates.

    Loss recovery is two-tier: a frame arriving *above* a gap NACKs the
    missing seqs immediately, and the worker's wait loop re-NACKs
    after ``limits.MEND_NACK_IMPATIENCE_S`` (the dropped-final-frame
    case, where no later frame exists to reveal the gap). Senders
    retain every batch until the supervisor's trim says the receiver
    checkpointed past it.
    """

    def __init__(
        self,
        shard_id: int,
        inboxes: dict,
        injector: WorkerFaultInjector | None = None,
        in_neighbors: tuple = (),
    ):
        self.shard_id = shard_id
        self.inboxes = inboxes
        self.injector = injector
        self.in_neighbors = tuple(sorted(in_neighbors))
        self.sent_seq: dict[int, int] = {}
        #: per in-edge: highest seq released to the engine.
        self.delivered: dict[int, int] = {src: 0 for src in self.in_neighbors}
        self.buffered: dict[int, dict[int, tuple]] = {
            src: {} for src in self.in_neighbors
        }
        self.nacked: dict[int, set] = {src: set() for src in self.in_neighbors}
        self.retained: dict[int, dict[int, tuple]] = {}
        self.stats = MendTransportStats()

    # -- sending ------------------------------------------------------------

    def send(self, dst: int, messages: list) -> None:
        seq = self.sent_seq.get(dst, 0) + 1
        self.sent_seq[dst] = seq
        frame = ("batch", self.shard_id, seq, tuple(messages))
        self.retained.setdefault(dst, {})[seq] = frame[3]
        if self.injector is not None and self.injector.drop_batch():
            # Lost in transit; a NACK (or a restart replay) recovers it
            # from retention.
            self.stats.fault_drops += 1
            return
        self.inboxes[dst].put(frame)
        if self.injector is not None and self.injector.dup_batch():
            self.stats.fault_dups += 1
            self.inboxes[dst].put(frame)

    # -- receiving ----------------------------------------------------------

    def ingest(self, frame: tuple) -> str:
        """Buffer/serve one inbound frame; returns the frame kind.
        Batch payloads are *not* delivered here — :meth:`release` hands
        them to the engine round by round."""
        kind = frame[0]
        if kind == "batch":
            _, src, seq, messages = frame
            if seq <= self.delivered.get(src, 0) or seq in self.buffered.get(
                src, {}
            ):
                self.stats.duplicates_dropped += 1
                return kind
            buffer = self.buffered.setdefault(src, {})
            buffer[seq] = messages
            nacked = self.nacked.setdefault(src, set())
            for missing in range(self.delivered.get(src, 0) + 1, seq):
                if missing not in buffer and missing not in nacked:
                    nacked.add(missing)
                    self.stats.nacks_sent += 1
                    self.inboxes[src].put(("nack", self.shard_id, missing))
            return kind
        if kind == "nack":
            _, requester, seq = frame
            messages = self.retained.get(requester, {}).get(seq)
            if messages is not None:
                self.stats.retransmits_served += 1
                self.inboxes[requester].put(("batch", self.shard_id, seq, messages))
            return kind
        if kind == "replay":
            _, requester, since = frame
            for seq, messages in sorted(self.retained.get(requester, {}).items()):
                if seq > since:
                    self.stats.replays_served += 1
                    self.inboxes[requester].put(
                        ("batch", self.shard_id, seq, messages)
                    )
            return kind
        if kind == "trim":
            _, dst, upto = frame
            retained = self.retained.get(dst)
            if retained:
                for seq in [seq for seq in retained if seq <= upto]:
                    del retained[seq]
            return kind
        if kind in ("poison", "shutdown"):
            return kind
        raise SimulationError(f"unknown mend frame kind {kind!r}")

    def _avail(self, src: int) -> int:
        """Highest contiguously buffered seq from ``src``."""
        seq = self.delivered[src]
        buffer = self.buffered[src]
        while seq + 1 in buffer:
            seq += 1
        return seq

    def ready(self, round_no: int, needed: tuple) -> bool:
        """True when every still-needed in-edge has buffered its frame
        for ``round_no`` (and everything before it)."""
        return all(self._avail(src) >= round_no for src in needed)

    def release(self, round_no: int, deliver) -> None:
        """Deliver buffered batches up to ``round_no``, per-source in
        ascending seq — a deterministic order, independent of arrival
        interleaving."""
        for src in self.in_neighbors:
            buffer = self.buffered[src]
            seq = self.delivered[src]
            while seq < round_no and (seq + 1) in buffer:
                seq += 1
                for message in buffer.pop(seq):
                    deliver(message)
                self.stats.batches_delivered += 1
                self.nacked[src].discard(seq)
            self.delivered[src] = seq

    def nack_missing(self, round_no: int, needed: tuple) -> None:
        """Impatience path: re-request *every* seq still missing below
        the blocked round from every lagging in-edge. Deliberately
        ignores the one-shot ``nacked`` guard (a first NACK may have
        raced a death and been drained with the dead worker's inbox)
        and deliberately not one-at-a-time (a burst of losses — e.g. a
        restored sender re-dropping the same seqs its restored RNG
        already dropped once — must recover in one tick, not one seq
        per tick)."""
        for src in needed:
            avail = self._avail(src)
            if avail >= round_no:
                continue
            buffer = self.buffered[src]
            for seq in range(avail + 1, round_no + 1):
                if seq in buffer:
                    continue
                self.stats.nacks_sent += 1
                self.inboxes[src].put(("nack", self.shard_id, seq))

    # -- checkpoint ---------------------------------------------------------

    def checkpoint(self) -> TransportCheckpoint:
        return TransportCheckpoint(
            sent_seq=dict(self.sent_seq),
            expected={src: seq + 1 for src, seq in self.delivered.items()},
            buffered={
                src: dict(buffer) for src, buffer in self.buffered.items() if buffer
            },
            nacked={
                src: frozenset(seqs) for src, seqs in self.nacked.items() if seqs
            },
            retained={
                dst: dict(batches)
                for dst, batches in self.retained.items()
                if batches
            },
            stats=copy.deepcopy(self.stats),
        )

    def restore(self, ckpt: TransportCheckpoint) -> None:
        self.sent_seq = dict(ckpt.sent_seq)
        self.delivered = {src: seq - 1 for src, seq in ckpt.expected.items()}
        for src in self.in_neighbors:
            self.delivered.setdefault(src, 0)
            self.buffered[src] = dict(ckpt.buffered.get(src, {}))
            self.nacked[src] = set(ckpt.nacked.get(src, ()))
        self.retained = {
            dst: dict(batches) for dst, batches in ckpt.retained.items()
        }
        self.stats = copy.deepcopy(ckpt.stats)


# -- shard checkpoints ------------------------------------------------------


@dataclass
class DeviceCheckpoint:
    """One device's mutable-during-run state as plain data. Rules are
    static during a scale run (reconfiguration is not supported under
    sharding), so tables checkpoint only their counters and meter; the
    decisions a table remembers are performance-only state, and a
    restored shard decides again, to the same rules."""

    stats: object
    busy_until_s: float
    #: map name -> (entries, mutation_count, version)
    maps: dict[str, tuple]
    #: table name -> (hit_counts, miss_count, meter)
    tables: dict[str, tuple]


@dataclass
class EngineCheckpoint:
    """A consistent cut of one :class:`ShardEngine` at a window
    boundary: taken after the window's outbound flush, so the outbox is
    empty and every other piece of state is captured below."""

    shard_id: int
    window: int
    clock: float
    metrics: object
    digest_count: int
    handoffs_in: int
    handoffs_out: int
    guarantee: dict[int, float]
    pending: tuple[Handoff, ...]
    #: event-loop contents as (time, seq, packet, hops, index) tuples.
    inflight: tuple[tuple, ...]
    devices: dict[str, DeviceCheckpoint]


@dataclass
class MendCheckpoint:
    """Everything a fresh fork needs to become the dead worker.

    ``round`` is the shard's protocol round the snapshot was taken in
    (post-advance, post-send, *pre-release* of that round's inputs) —
    a respawned worker resumes at the wait phase of exactly this round.
    Note ``round >= engine.window``: a round whose advance could not
    progress (guarantees unchanged) still sends null messages and
    consumes a frame per edge, but does not open a new window.
    """

    round: int
    engine: EngineCheckpoint
    transport: TransportCheckpoint
    injector_state: tuple | None
    next_packet_id: int


def _checkpoint_device(name: str, device) -> DeviceCheckpoint:
    if device._transition is not None:  # noqa: SLF001 - platform-internal
        raise SimulationError(
            f"device {name!r} is mid-transition; FlexMend checkpoints "
            "require settled devices (reconfiguration is not supported "
            "under sharding)"
        )
    instance = device.active_instance
    maps: dict[str, tuple] = {}
    tables: dict[str, tuple] = {}
    if instance is not None:
        for state in instance.maps:
            maps[state.name] = (
                tuple(state._entries.items()),  # noqa: SLF001
                state.mutation_count,
                state._version,  # noqa: SLF001
            )
        for table_name, rules in instance.rules.items():
            tables[table_name] = (
                tuple(rules.hit_counts),
                rules.miss_count,
                copy.deepcopy(rules.meter),
            )
    return DeviceCheckpoint(
        stats=copy.deepcopy(device.stats),
        busy_until_s=device._busy_until_s,  # noqa: SLF001
        maps=maps,
        tables=tables,
    )


def _restore_device(device, ckpt: DeviceCheckpoint) -> None:
    device.stats = copy.deepcopy(ckpt.stats)
    device._busy_until_s = ckpt.busy_until_s  # noqa: SLF001
    instance = device.active_instance
    if instance is None:
        return
    for name, (entries, mutation_count, version) in ckpt.maps.items():
        state = instance.maps.state(name)
        state._entries.clear()  # noqa: SLF001
        state._entries.update(entries)  # noqa: SLF001
        state.mutation_count = mutation_count
        state._version = version  # noqa: SLF001
    for name, (hit_counts, miss_count, meter) in ckpt.tables.items():
        rules = instance.rules[name]
        rules.hit_counts[:] = hit_counts
        rules.miss_count = miss_count
        rules.meter = copy.deepcopy(meter)


def checkpoint_engine(engine: ShardEngine) -> EngineCheckpoint:
    """Snapshot a shard at a window boundary (outbox must be flushed)."""
    if any(engine._outbox.values()):  # noqa: SLF001
        raise SimulationError("checkpoint requires a flushed outbox")
    inflight = tuple(
        (at_time, seq, copy.deepcopy(packet), tuple(hops), index)
        for at_time, seq, packet, hops, index in engine.network.inflight_arrivals()
    )
    return EngineCheckpoint(
        shard_id=engine.shard_id,
        window=engine.windows,
        clock=engine.clock,
        metrics=copy.deepcopy(engine.metrics),
        digest_count=engine.digest_count,
        handoffs_in=engine.handoffs_in,
        handoffs_out=engine.handoffs_out,
        guarantee=dict(engine._guarantee),  # noqa: SLF001
        pending=copy.deepcopy(tuple(engine._pending)),  # noqa: SLF001
        inflight=inflight,
        devices={
            name: _checkpoint_device(name, device)
            for name, device in sorted(engine._devices.items())  # noqa: SLF001
        },
    )


def restore_engine(engine: ShardEngine, ckpt: EngineCheckpoint) -> None:
    """Rebuild a freshly constructed (un-injected) engine from a
    checkpoint. Saved arrivals are re-scheduled in ``(time, seq)``
    order, so fresh loop seqs reproduce the original same-time
    tie-breaks and re-execution is bit-identical."""
    if ckpt.shard_id != engine.shard_id:
        raise SimulationError(
            f"checkpoint of shard {ckpt.shard_id} cannot restore "
            f"into shard {engine.shard_id}"
        )
    if engine.loop.pending() or engine.windows:
        raise SimulationError("restore requires a fresh engine")
    engine.loop.restore_clock(ckpt.clock)
    engine._clock = ckpt.clock  # noqa: SLF001
    engine.windows = ckpt.window
    engine.metrics = copy.deepcopy(ckpt.metrics)
    engine.digest_count = ckpt.digest_count
    engine.handoffs_in = ckpt.handoffs_in
    engine.handoffs_out = ckpt.handoffs_out
    engine._guarantee = dict(ckpt.guarantee)  # noqa: SLF001
    engine._pending = list(copy.deepcopy(ckpt.pending))  # noqa: SLF001
    for name, device_ckpt in ckpt.devices.items():
        _restore_device(engine._devices[name], device_ckpt)  # noqa: SLF001
    for at_time, _seq, packet, hops, index in sorted(
        ckpt.inflight, key=lambda item: (item[0], item[1])
    ):
        engine.network.receive(
            copy.deepcopy(packet),
            list(hops),
            index,
            at_time,
            engine.metrics,
            on_done=engine._on_done,  # noqa: SLF001
        )


def make_checkpoint(
    round_no: int,
    engine: ShardEngine,
    transport: MendTransport,
    injector: WorkerFaultInjector | None,
) -> MendCheckpoint:
    return MendCheckpoint(
        round=round_no,
        engine=checkpoint_engine(engine),
        transport=transport.checkpoint(),
        injector_state=injector.getstate() if injector is not None else None,
        next_packet_id=packet_id_state(),
    )


# -- worker -----------------------------------------------------------------


def _flush_queue(mp_queue) -> None:
    """Push buffered puts through the feeder thread before ``os._exit``
    (which skips the normal interpreter teardown that would flush)."""
    mp_queue.close()
    mp_queue.join_thread()


def _pin_to_own_cpu(slot: int) -> None:
    """Keep this worker, and the queue feeder threads it will start, on
    one CPU of those the fleet may use: worker ``slot`` on the
    ``slot``-th, counted from the supervisor's pid so that fleets run
    side by side do not all start at the lowest CPU.

    Every round ends in a pipe write that wakes the neighbor, and the
    kernel likes to run the woken next to its waker: two workers end up
    time-slicing one CPU while another idles, for seconds at a time,
    and rounds meant to overlap run in turns (same run, same host:
    wall 1.3x the slower shard's CPU time, or 2.1x). Wall-clock pacing
    only; a no-op where the platform has no affinity call or the fleet
    has one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) > 1:
        os.sched_setaffinity(0, {allowed[(os.getppid() + slot) % len(allowed)]})


def _worker_main(
    shard_id: int,
    plan,
    net,
    injections: list[tuple],
    end_time: float,
    inboxes: dict,
    events_queue,
    chaos: FaultPlan | None,
    checkpoint_every: int,
    fired_faults: frozenset,
    restore: MendCheckpoint | None,
) -> None:
    """One forked worker: owns its shard's (copy-on-write) devices, runs
    the protocol in rounds over the sequenced transport,
    heartbeats and checkpoints to the supervisor, ships a ShardResult
    (on the same queue, so it can never overtake or trail its own last
    heartbeat), then lingers to serve replay/NACK requests until the
    supervisor's shutdown.

    Round structure (mirrors ``step_inline``, which is what makes the
    round schedule — and therefore every regenerated frame after a
    restore — deterministic): advance one window, send exactly one
    frame to every out-neighbor, then block until every still-needed
    in-neighbor's frame for this round arrived and release the whole
    round to the engine at once. A shard whose advance cannot progress
    still sends its (null-message) frame and consumes a round of
    inputs, exactly like an inline engine being stepped. Neighbors are
    the live edges of the run (:meth:`ShardPlan.routed`): a shard no
    route enters waits for nobody and runs ahead of the shards it
    feeds, one lookahead per round.
    """
    try:
        _pin_to_own_cpu(plan.populated_shards.index(shard_id))
        # This process computes on its main thread while the mp queues'
        # feeder threads only pickle and write frames. At the default
        # 5 ms switch interval a frame put just before a window's
        # advance sits out the whole advance waiting for the GIL, the
        # neighbor idles, and the fleet flips between running in
        # parallel and in turns depending on who blocked first.
        sys.setswitchinterval(limits.SCALE_WORKER_SWITCH_INTERVAL_S)
        # CPU-seconds measurement only — it feeds the E20 capacity
        # metric (aggregate pps = packets / max shard CPU) and never
        # touches simulation state or any deterministic export, so the
        # wall-clock read is baselined in vet_baseline.json.
        cpu_start = time.process_time()
        injector = (
            WorkerFaultInjector(chaos, shard_id, fired_faults)
            if chaos is not None
            else None
        )
        transport = MendTransport(
            shard_id, inboxes, injector, in_neighbors=plan.in_neighbors(shard_id)
        )
        engine = ShardEngine(
            shard_id,
            plan,
            net.controller.devices,
            end_time,
            topology=net.controller.network,
            track_inflight=checkpoint_every > 0,
        )
        if restore is not None:
            restore_engine(engine, restore.engine)
            transport.restore(restore.transport)
            if injector is not None and restore.injector_state is not None:
                injector.setstate(restore.injector_state)
            set_packet_id_state(restore.next_packet_id)
            round_no = restore.round
        else:
            # Packets created inside this worker (if any) get a per-shard
            # id namespace so ids can never collide across shards.
            reset_packet_ids(shard_id + 1)
            for packet, hops, at_time in injections:
                engine.inject(packet, hops, at_time)
            round_no = 0
            if checkpoint_every > 0:
                # Genesis checkpoint ("round 0"): restart is possible
                # from the very start even if the first crash lands
                # before the first cadence checkpoint.
                events_queue.put(
                    (
                        "ckpt",
                        shard_id,
                        0,
                        make_checkpoint(0, engine, transport, injector),
                    )
                )
        inbox = inboxes[shard_id]
        # A restored worker resumes at the wait phase of the checkpoint
        # round: the snapshot was taken post-advance/post-send, before
        # that round's inputs were released.
        resuming = restore is not None
        # An armed run heartbeats every round: the round of the last
        # heartbeat is where a death with no fault event is accounted.
        # Otherwise heartbeats only feed the stall detector, and one per
        # supervisor poll is all it can see; the supervisor floats
        # between the CPUs the workers are pinned to, and every event
        # wakes it.
        armed = injector is not None or checkpoint_every > 0
        hb_due = 0.0
        while True:
            if not resuming:
                round_no += 1
                engine.advance()
                outbox = engine.take_outbox()
                guarantees = engine.guarantees_out()
                # One frame per out-neighbor per round — the handoffs
                # followed by the guarantee covering them. Handoffs stay
                # in per-producer FIFO order (the window-completeness
                # invariant) and the constant frame-per-edge-per-round
                # rate is what lets sequence numbers double as round
                # numbers.
                for dst in sorted(guarantees):
                    batch: list = list(outbox.get(dst, ()))
                    batch.append(guarantees[dst])
                    transport.send(dst, batch)
                # Wall-clock pacing only — baselined in vet_baseline.json.
                now = time.monotonic()
                if armed or now >= hb_due:
                    events_queue.put(("hb", shard_id, round_no))
                    hb_due = now + limits.MEND_POLL_INTERVAL_S
                if injector is not None:
                    stalled = injector.stall_at(engine.windows)
                    if stalled is not None:
                        index, stall_s = stalled
                        events_queue.put(
                            ("fault", shard_id, "stall", index, engine.windows)
                        )
                        time.sleep(stall_s)
                    crash_index = injector.crash_at(engine.windows)
                    if crash_index is not None:
                        events_queue.put(
                            ("fault", shard_id, "crash", crash_index, engine.windows)
                        )
                        # Controlled death at a round boundary: flush
                        # every queue feeder first so heartbeats/fault
                        # events and this round's outbound batches
                        # survive the exit, then die without running any
                        # teardown handlers.
                        _flush_queue(events_queue)
                        for queue in inboxes.values():
                            _flush_queue(queue)
                        os._exit(MEND_CRASH_EXIT_CODE)
                if (
                    checkpoint_every > 0
                    and round_no % checkpoint_every == 0
                    and not engine.finished()
                ):
                    events_queue.put(
                        (
                            "ckpt",
                            shard_id,
                            engine.windows,
                            make_checkpoint(round_no, engine, transport, injector),
                        )
                    )
                if engine.finished():
                    break
            resuming = False
            # An in-edge whose guarantee already covers the horizon will
            # never be waited on again — its shard may have finished and
            # stopped sending (deterministic: a function of released
            # content only).
            needed = tuple(
                src
                for src in transport.in_neighbors
                if engine._guarantee.get(src, 0.0) < end_time  # noqa: SLF001
            )
            patience = max(
                1,
                int(limits.SCALE_RESULT_TIMEOUT_S / limits.MEND_NACK_IMPATIENCE_S),
            )
            while not transport.ready(round_no, needed):
                try:
                    frame = inbox.get(timeout=limits.MEND_NACK_IMPATIENCE_S)
                except queue_mod.Empty:
                    patience -= 1
                    if patience <= 0:
                        raise SimulationError(
                            f"shard {shard_id}: round {round_no} inputs never "
                            f"arrived (waited {limits.SCALE_RESULT_TIMEOUT_S:g}s)"
                        )
                    # A worker blocked on a slow (possibly restarting)
                    # neighbor is alive, not stalled — keep heartbeating
                    # so the staleness detector only ever fires on
                    # wedged *computation*, which never reaches this
                    # wait loop.
                    events_queue.put(("hb", shard_id, engine.windows))
                    transport.nack_missing(round_no, needed)
                    continue
                if transport.ingest(frame) in ("poison", "shutdown"):
                    return
            transport.release(round_no, engine.deliver)
        shard_result = engine.result()
        shard_result.cpu_s = time.process_time() - cpu_start
        shard_result.mend = {
            "deterministic": transport.stats.deterministic_dict(),
            "measured": transport.stats.measured_dict(),
        }
        events_queue.put(("ok", shard_result))
        # Linger: a crashed neighbor restoring from its checkpoint may
        # still need this shard's retained batches, so keep serving
        # NACK/replay frames until the supervisor's shutdown broadcast —
        # for as long as a run may last, since a shard that waits for
        # nobody finishes well ahead of the shards it feeds.
        while True:
            try:
                frame = inbox.get(timeout=limits.SCALE_RESULT_TIMEOUT_S)
            except queue_mod.Empty:
                return
            if transport.ingest(frame) in ("poison", "shutdown"):
                return
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        events_queue.put(("error", shard_id, traceback.format_exc()))
        # Wait for the supervisor's poison/shutdown so neighbors can
        # still be served while it tears the fleet down.
        try:
            inbox = inboxes[shard_id]
            while True:
                frame = inbox.get(timeout=limits.SCALE_JOIN_TIMEOUT_S)
                if frame[0] in ("poison", "shutdown"):
                    return
        except BaseException:  # noqa: BLE001 - best-effort linger
            return


# -- supervision ------------------------------------------------------------


@dataclass
class MendReport:
    """Supervision outcome (FlexScope Reportable protocol), merged into
    :class:`~repro.scale.runner.ScaleReport`.

    ``to_dict`` carries only deterministic fields — crash sites,
    restarts, replayed windows, committed checkpoints, per-shard
    deterministic transport counters. Wall-clock restart latencies and
    racy recovery counters (dup drops, NACKs, retransmits) live in
    ``restart_wall_s`` / ``measured`` like ``cpu_s`` does: available
    for measurement, excluded from every byte-compared export.
    """

    supervised: bool = True
    checkpoint_every: int = 0
    crashes: list[dict] = field(default_factory=list)
    stalls_injected: int = 0
    restarts: int = 0
    stall_kills: int = 0
    windows_replayed: int = 0
    checkpoints_committed: int = 0
    per_shard: dict[int, dict] = field(default_factory=dict)
    #: measurement-only (wall clock): per-restart respawn latency.
    restart_wall_s: list[float] = field(default_factory=list)
    #: measurement-only: racy per-shard recovery counters + exit codes.
    measured: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "supervised": self.supervised,
            "checkpoint_every": self.checkpoint_every,
            "crashes": list(self.crashes),
            "stalls_injected": self.stalls_injected,
            "restarts": self.restarts,
            "stall_kills": self.stall_kills,
            "windows_replayed": self.windows_replayed,
            "checkpoints_committed": self.checkpoints_committed,
            "per_shard": {
                str(shard): dict(counters)
                for shard, counters in sorted(self.per_shard.items())
            },
        }

    def summary(self) -> str:
        lines = [
            f"flexmend: {len(self.crashes)} crash(es), {self.restarts} restart(s), "
            f"{self.windows_replayed} window(s) replayed, "
            f"{self.checkpoints_committed} checkpoint(s)"
        ]
        for crash in self.crashes:
            lines.append(
                f"  shard {crash['shard']} died at window {crash['window']}"
            )
        if self.restart_wall_s:
            worst = max(self.restart_wall_s)
            lines.append(f"  slowest restart {worst * 1e3:.1f} ms (wall)")
        return "\n".join(lines)


class Supervisor:
    """The coordinator side of FlexMend: spawns one worker per populated
    shard, watches sentinels + heartbeats, respawns the dead from their
    last checkpoint (bounded retries, exponential backoff), trims
    retention as checkpoints commit, and poisons the fleet for fast
    teardown when a run cannot be saved."""

    def __init__(
        self,
        net,
        plan,
        per_shard_injections: dict[int, list[tuple]],
        end_time: float,
        chaos: FaultPlan | None = None,
        checkpoint_every: int | None = None,
    ):
        import multiprocessing

        self.net = net
        self.plan = plan
        self.per_shard = per_shard_injections
        self.end_time = end_time
        self.chaos = chaos
        if checkpoint_every is None:
            checkpoint_every = (
                limits.MEND_CHECKPOINT_EVERY_WINDOWS if chaos is not None else 0
            )
        self.checkpoint_every = checkpoint_every
        self.context = multiprocessing.get_context("fork")
        self.shards = plan.populated_shards
        self.inboxes = {shard: self.context.Queue() for shard in self.shards}
        self.events_queue = self.context.Queue()
        self.report = MendReport(checkpoint_every=checkpoint_every)
        self._procs: dict[int, object] = {}
        self._checkpoints: dict[int, MendCheckpoint] = {}
        self._restarts: dict[int, int] = {shard: 0 for shard in self.shards}
        self._fired: set = set()
        self._pending_crash: dict[int, int] = {}
        self._last_hb: dict[int, tuple[float, int]] = {}
        self._deaths: list[dict] = []

    # -- process lifecycle --------------------------------------------------

    def _spawn(self, shard: int, restore: MendCheckpoint | None) -> None:
        worker = self.context.Process(
            target=_worker_main,
            args=(
                shard,
                self.plan,
                self.net,
                self.per_shard.get(shard, []),
                self.end_time,
                self.inboxes,
                self.events_queue,
                self.chaos,
                self.checkpoint_every,
                frozenset(self._fired),
                restore,
            ),
            name=f"flexscale-shard-{shard}",
        )
        worker.start()
        self._procs[shard] = worker
        # Wall-clock pacing only (stall detection); never touches
        # simulation state — baselined in vet_baseline.json.
        self._last_hb[shard] = (time.monotonic(), 0)

    def _drain_events(
        self, results: dict[int, ShardResult], block: bool = True
    ) -> str | None:
        """Wait one poll interval for an event (``block``), then take
        every event already queued; returns an error string when a
        worker failed. Results are events too: on a queue of their own
        they would be seen at the next event or poll, whichever a race
        against the sender's last heartbeat produced."""
        while True:
            try:
                if block:
                    event = self.events_queue.get(
                        timeout=limits.MEND_POLL_INTERVAL_S
                    )
                    block = False
                else:
                    event = self.events_queue.get_nowait()
            except queue_mod.Empty:
                return None
            kind = event[0]
            if kind == "hb":
                _, shard, window = event
                self._last_hb[shard] = (time.monotonic(), window)
            elif kind == "ckpt":
                _, shard, window, checkpoint = event
                self._checkpoints[shard] = checkpoint
                self.report.checkpoints_committed += 1
                # Retention behind the committed inbound watermark can
                # never be replayed again — let senders trim it.
                for src, expected in sorted(checkpoint.transport.expected.items()):
                    self.inboxes[src].put(("trim", shard, expected - 1))
            elif kind == "fault":
                _, shard, fault_kind, index, window = event
                self._fired.add((fault_kind, index))
                if fault_kind == "stall":
                    self.report.stalls_injected += 1
                else:
                    self._pending_crash[shard] = window
            elif kind == "ok":
                results[event[1].shard_id] = event[1]
            else:
                return f"shard {event[1]} failed:\n{event[2]}"

    def _handle_death(self, shard: int, exitcode: int | None) -> str | None:
        """Respawn a dead shard from its last checkpoint; returns an
        error string when the run cannot be saved."""
        self._deaths.append({"shard": shard, "exitcode": exitcode})
        checkpoint = self._checkpoints.get(shard)
        if checkpoint is None:
            return (
                f"shard {shard} worker died (exit {exitcode}) with no "
                "checkpoint to restore (checkpointing off or death before "
                "the genesis checkpoint)"
            )
        if self._restarts[shard] >= limits.MEND_MAX_RESTARTS:
            return (
                f"shard {shard} exceeded the restart budget "
                f"({limits.MEND_MAX_RESTARTS}) — last death exit {exitcode}"
            )
        crash_window = self._pending_crash.pop(shard, self._last_hb[shard][1])
        self.report.crashes.append({"shard": shard, "window": crash_window})
        self.report.windows_replayed += max(
            0, crash_window - checkpoint.engine.window
        )
        backoff = limits.MEND_BACKOFF_BASE_S * (
            limits.MEND_BACKOFF_FACTOR ** self._restarts[shard]
        )
        time.sleep(backoff)
        self._restarts[shard] += 1
        self.report.restarts += 1
        # The dead worker's inbox holds frames it never consumed —
        # possibly mid-stream. Drop them all; replay re-sends everything
        # past the checkpoint's inbound watermark in order.
        while True:
            try:
                self.inboxes[shard].get_nowait()
            except queue_mod.Empty:
                break
        restart_started = time.monotonic()
        self._spawn(shard, checkpoint)
        for src in sorted(self.plan.in_neighbors(shard)):
            since = checkpoint.transport.expected.get(src, 1) - 1
            self.inboxes[src].put(("replay", shard, since))
        self.report.restart_wall_s.append(time.monotonic() - restart_started)
        return None

    def _check_workers(self, results: dict[int, ShardResult]) -> str | None:
        now = time.monotonic()
        for shard, worker in list(self._procs.items()):
            if shard in results:
                continue
            if not worker.is_alive():
                worker.join()
                # A worker flushes its fault event before an injected
                # crash. Read it before accounting the death: one that
                # lands while an earlier restart is backing off would
                # otherwise go unrecorded, and the spec fire again in
                # the respawned worker.
                error = self._drain_events(
                    results, block=False
                ) or self._handle_death(shard, worker.exitcode)
                if error is not None:
                    return error
                continue
            hb_at, _ = self._last_hb[shard]
            if now - hb_at > limits.MEND_HEARTBEAT_TIMEOUT_S:
                # Presumed hung (WorkerStall chaos or a real wedge):
                # kill and recover through the same checkpoint path.
                worker.terminate()
                worker.join()
                self.report.stall_kills += 1
                error = self._handle_death(shard, worker.exitcode)
                if error is not None:
                    return error
        return None

    def _broadcast(self, frame: tuple) -> None:
        for queue in self.inboxes.values():
            queue.put(frame)

    def _teardown(self, fast: bool) -> None:
        """Reap the fleet. ``fast`` (failure path) gives workers a short
        grace to see the poison pill, then terminates; either way the
        queues are closed with ``cancel_join_thread`` so coordinator
        teardown never blocks on unflushed feeder threads."""
        grace = 2.0 if fast else limits.SCALE_JOIN_TIMEOUT_S
        for worker in self._procs.values():
            worker.join(timeout=grace)
            if worker.is_alive():
                worker.terminate()
                worker.join()
        for queue in (
            *self.inboxes.values(),
            self.events_queue,
        ):
            queue.close()
            queue.cancel_join_thread()

    # -- run ----------------------------------------------------------------

    def run(self) -> tuple[list[ShardResult], MendReport, MetricsRegistry]:
        for shard in self.shards:
            self._spawn(shard, None)
        results: dict[int, ShardResult] = {}
        error: str | None = None
        deadline = time.monotonic() + limits.SCALE_RESULT_TIMEOUT_S
        try:
            while len(results) < len(self.shards) and error is None:
                error = self._drain_events(results)
                if error is None:
                    error = self._check_workers(results)
                if error is None and time.monotonic() > deadline:
                    error = "worker result timed out (protocol wedge?)"
        finally:
            if error is not None:
                # Fail fast: wake every survivor blocked on its inbox so
                # the whole run tears down in well under a second.
                self._broadcast(("poison",))
                self._teardown(fast=True)
            else:
                self._broadcast(("shutdown",))
                self._teardown(fast=False)
        if error is not None:
            raise SimulationError(f"flexscale process backend: {error}")
        self.report.measured = {
            "deaths": self._deaths,
            "per_shard": {
                shard: result.mend["measured"]
                for shard, result in sorted(results.items())
                if result.mend is not None
            },
        }
        # Shards that do not wait for each other die independently; the
        # order their deaths were noticed in is wall-clock.
        self.report.crashes.sort(key=lambda crash: (crash["window"], crash["shard"]))
        self.report.per_shard = {
            shard: result.mend["deterministic"]
            for shard, result in sorted(results.items())
            if result.mend is not None
        }
        return (
            [results[shard] for shard in sorted(results)],
            self.report,
            self._registry(),
        )

    def _registry(self) -> MetricsRegistry:
        """Supervisor-side FlexScope families (merged into the
        ScaleReport registry alongside the per-shard snapshots)."""
        registry = MetricsRegistry()
        registry.counter(
            "flexnet_mend_crashes_total",
            help="worker-process deaths absorbed by the supervisor",
        ).set(len(self.report.crashes))
        registry.counter(
            "flexnet_mend_restarts_total",
            help="checkpoint restores performed",
        ).set(self.report.restarts)
        registry.counter(
            "flexnet_mend_windows_replayed_total",
            help="protocol windows re-executed after restores",
        ).set(self.report.windows_replayed)
        registry.counter(
            "flexnet_mend_checkpoints_total",
            help="shard checkpoints committed to the supervisor",
        ).set(self.report.checkpoints_committed)
        registry.counter(
            "flexnet_mend_stall_kills_total",
            help="workers killed for heartbeat staleness",
        ).set(self.report.stall_kills)
        registry.detach_collectors()
        return registry


# -- chaos harness ----------------------------------------------------------


@dataclass
class ScaleChaosReport:
    """Three-arm differential outcome behind experiment E23 and
    ``flexnet chaos --scale``: the chaos arm's ``traffic`` section must
    be byte-identical to both the fault-free sharded arm and the
    single-process reference. ``to_dict`` is deterministic — same seed,
    same faults, byte-identical report across repeat runs."""

    shards: int
    fault_lines: tuple[str, ...]
    chaos: object  # ScaleReport
    baseline_traffic: dict
    reference_traffic: dict | None
    divergences: tuple[str, ...]

    def to_dict(self) -> dict:
        out = {
            "shards": self.shards,
            "faults": list(self.fault_lines),
            "divergences": list(self.divergences),
            "chaos": self.chaos.to_dict(),
            "baseline_traffic": self.baseline_traffic,
        }
        if self.reference_traffic is not None:
            out["reference_traffic"] = self.reference_traffic
        return out

    def summary(self) -> str:
        verdict = (
            "byte-identical across all arms"
            if not self.divergences
            else f"{len(self.divergences)} DIVERGENCE(S)"
        )
        lines = [
            f"flexmend chaos [{self.shards} shard(s)]: {verdict}",
            *(f"  fault: {line}" for line in self.fault_lines),
        ]
        mend = self.chaos.mend
        if mend is not None:
            lines.append(mend.summary())
        lines.extend(f"  DIVERGED: {name}" for name in self.divergences)
        return "\n".join(lines)


def run_scale_chaos(
    make_net,
    make_workload,
    shards: int,
    chaos: FaultPlan,
    *,
    seed: int = 2024,
    drain_s: float = 1.0,
    checkpoint_every: int | None = None,
    reference: bool = True,
) -> ScaleChaosReport:
    """Run the FlexMend differential: a chaos-armed sharded run against
    a fault-free sharded run and (optionally) the single-process
    reference, comparing the deterministic ``traffic`` sections
    byte-for-byte.

    ``make_net`` / ``make_workload`` build a fresh net and injection
    list per arm (runs mutate device state, so arms can never share a
    net); each arm starts from a reset packet-id allocator like every
    seeded scenario runner (:mod:`repro.faults.chaos` precedent).
    """
    import json

    from repro.scale.runner import reference_run, run_sharded

    def canon(traffic: dict) -> str:
        return json.dumps(traffic, sort_keys=True)

    def arm():
        reset_packet_ids()
        return make_net(), list(make_workload())

    reference_traffic: dict | None = None
    if reference:
        net, injections = arm()
        reference_traffic = reference_run(net, injections, drain_s).to_dict()
    net, injections = arm()
    baseline = run_sharded(
        net,
        injections,
        shards,
        backend="process",
        seed=seed,
        drain_s=drain_s,
    )
    net, injections = arm()
    chaos_report = run_sharded(
        net,
        injections,
        shards,
        backend="process",
        seed=seed,
        drain_s=drain_s,
        chaos=chaos,
        checkpoint_every=checkpoint_every,
    )
    divergences = []
    chaos_traffic = canon(chaos_report.traffic_dict())
    if chaos_traffic != canon(baseline.traffic_dict()):
        divergences.append("chaos vs fault-free sharded")
    if reference_traffic is not None and chaos_traffic != canon(reference_traffic):
        divergences.append("chaos vs single-process reference")
    return ScaleChaosReport(
        shards=shards,
        fault_lines=tuple(
            line
            for line in chaos.describe()
            if line.startswith(("worker", "handoff"))
        ),
        chaos=chaos_report,
        baseline_traffic=baseline.traffic_dict(),
        reference_traffic=reference_traffic,
        divergences=tuple(divergences),
    )

"""FlexMend: fault-tolerant sharded execution.

The FlexScale process backend survives worker-process death without
giving up determinism. Two mechanisms compose (DESIGN.md §4l):

* **Sequenced transport with retention** — every handoff batch between
  a shard pair carries a per-edge sequence number. Receivers deliver
  in order, dedup by sequence (a batch seq identifies the producer
  window; handoffs inside it are identified by ``(packet_id,
  hop_index)`` — so the effective dedup key is
  ``(packet_id, hop_index, window)``), and NACK gaps. Senders retain
  every batch they send for the whole run, as the bytes it was encoded
  to, so a receiver's inbound stream can always be replayed from its
  first frame.
* **A supervisor** — the coordinator detects death via process
  sentinels and heartbeats (one per round while chaos is armed, one
  per poll interval otherwise), forks a fresh worker for the dead shard
  with bounded retries and exponential backoff (:mod:`repro.limits`),
  asks its in-neighbors to replay, and broadcasts a poison pill for
  sub-second fail-fast teardown when a run cannot be saved.

Any worker death, injected by chaos or not, is recovered by
re-execution, not restore. Why that is exact: a worker is a pure
function of the net it forked from, the plan, its injections and its
inbound frames, released round by round in sequence order. The
supervisor's net and injections are ones no worker ever touched (each
mutates its own copy-on-write image, and a generated series builds
every packet afresh when it is read), so a fresh fork from them, fed
the replayed stream, re-runs rounds 1..k identically and re-sends
byte-identical batches under the *same* seqs, which neighbors that
already saw them drop as duplicates. The merged ``traffic`` section is therefore
byte-identical to the fault-free run (experiment E23). No device state
is listed by hand, so none can be forgotten; the cost is replay time
that grows with the window the worker died at.
"""

from __future__ import annotations

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
from repro.scale.shard import (
    Injections,
    ShardEngine,
    ShardResult,
    decode_frame,
    encode_frame,
)
from repro.simulator.packet import reset_packet_ids
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
    depend on another's, and a re-forked worker, starting its streams
    from the seed again, re-draws identically.
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


# -- sequenced transport ----------------------------------------------------


@dataclass
class MendTransportStats:
    """Per-shard transport accounting, split by determinism.

    ``deterministic_dict`` fields are provably identical across
    same-seed runs (and equal to the fault-free run where applicable);
    recovery-path counters (dups dropped, NACKs, retransmits, replays)
    depend on wall-clock races between deaths, replays, and in-flight
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


class MendTransport:
    """Per-edge sequenced, deduping, replayable framing over the shard
    inbox queues, with *round-gated release*.

    Wire frames (first element is the kind):

    * ``("batch", src, seq, messages)`` — one round's messages from
      ``src`` under per-edge sequence ``seq``. The transport never
      looks inside them: a worker sends one message, the round's
      handoffs and guarantee encoded as one ``bytes`` payload
      (:func:`~repro.scale.shard.encode_frame`), so what it retains
      and replays is bytes.
    * ``("nack", requester, seq)`` — receiver is missing a seq; resend.
    * ``("replay", requester)`` — supervisor-initiated: ``requester``
      was re-forked; resend every batch ever sent to it, from seq 1.
    * ``("poison",)`` / ``("shutdown",)`` — terminate now / all done.

    The receive side is split into :meth:`ingest` (buffer frames as
    they arrive, in any order) and :meth:`release` (hand exactly the
    batches of one protocol *round* to the engine, per-source in seq
    order). The worker advances in rounds — one frame per live edge per
    round, mirroring ``step_inline``: round *r* of a shard consumes
    frame *r* of every in-edge, so shards on a cycle of edges march in
    lock-step and a forward chain pipelines — so the engine's window
    schedule is a pure function of delivered content, never of queue
    interleaving. That is what makes restart sound: a re-forked worker
    re-executes the same rounds with the same inputs and regenerates
    byte-identical frames under the same seqs, which neighbors that
    already consumed them drop as duplicates.

    Loss recovery is two-tier: a frame arriving *above* a gap NACKs the
    missing seqs immediately, and the worker's wait loop re-NACKs
    after ``limits.MEND_NACK_IMPATIENCE_S`` (the dropped-final-frame
    case, where no later frame exists to reveal the gap). Senders
    retain every batch for the whole run: a receiver may be re-forked
    at any round and then needs its stream from the first frame.
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
            _, requester = frame
            for seq, messages in sorted(self.retained.get(requester, {}).items()):
                self.stats.replays_served += 1
                self.inboxes[requester].put(("batch", self.shard_id, seq, messages))
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
        re-forked sender re-dropping the same seqs its re-seeded RNG
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
    injections: Injections | None,
    end_time: float,
    inboxes: dict,
    events_queue,
    chaos: FaultPlan | None,
    fired_faults: frozenset,
) -> None:
    """One forked worker: owns its shard's (copy-on-write) devices, runs
    the protocol in rounds over the sequenced transport from round 1,
    heartbeats to the supervisor, ships a ShardResult (on the same
    queue, so it can never overtake or trail its own last heartbeat),
    then lingers to serve replay/NACK requests until the supervisor's
    shutdown. A worker re-forked after a death runs exactly this, from
    the same net, plan and injections.

    Round structure (mirrors ``step_inline``, which is what makes the
    round schedule — and therefore every frame a re-forked worker
    regenerates — deterministic): advance one window, send exactly one
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
        # This process computes (and pickles its frames) on its main
        # thread while the mp queues' feeder threads only write bytes.
        # At the default 5 ms switch interval a frame put just before a
        # window's advance sits out the whole advance waiting for the
        # GIL, the neighbor idles, and the fleet flips between running
        # in parallel and in turns depending on who blocked first.
        sys.setswitchinterval(limits.SCALE_WORKER_SWITCH_INTERVAL_S)
        # CPU-seconds measurement only — it feeds the E20 capacity
        # metric (aggregate pps = packets / max shard CPU) and never
        # touches simulation state or any deterministic export.
        cpu_start = time.process_time()
        injector = (
            WorkerFaultInjector(chaos, shard_id, fired_faults)
            if chaos is not None
            else None
        )
        transport = MendTransport(
            shard_id, inboxes, injector, in_neighbors=plan.in_neighbors(shard_id)
        )
        # Packets created inside this worker (if any) get a per-shard id
        # namespace so ids can never collide across shards.
        reset_packet_ids(shard_id + 1)
        engine = ShardEngine.private(shard_id, plan, net, end_time, injections)
        inbox = inboxes[shard_id]

        def deliver_frame(payload: bytes) -> None:
            for message in decode_frame(payload):
                engine.deliver(message)

        # An armed run heartbeats every round: the window of the last
        # heartbeat is where a death with no fault event is accounted.
        # Otherwise heartbeats only feed the stall detector, and one per
        # supervisor poll is all it can see; the supervisor floats
        # between the CPUs the workers are pinned to, and every event
        # wakes it.
        armed = injector is not None
        hb_due = 0.0
        round_no = 0
        while True:
            round_no += 1
            engine.advance()
            outbox = engine.take_outbox()
            guarantees = engine.guarantees_out()
            # One frame per out-neighbor per round — the handoffs
            # followed by the guarantee covering them, encoded here as
            # one payload (the transport retains and replays the bytes).
            # Handoffs stay in per-producer FIFO order (the
            # window-completeness invariant) and the constant
            # frame-per-edge-per-round rate is what lets sequence
            # numbers double as round numbers.
            for dst in sorted(guarantees):
                transport.send(dst, [encode_frame(outbox.get(dst, ()), guarantees[dst])])
            # Wall-clock pacing only; never touches simulation state.
            now = time.monotonic()
            if armed or now >= hb_due:
                events_queue.put(("hb", shard_id, engine.windows))
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
                    # Controlled death at a round boundary: flush every
                    # queue feeder first so heartbeats/fault events and
                    # this round's outbound batches survive the exit,
                    # then die without running any teardown handlers.
                    _flush_queue(events_queue)
                    for queue in inboxes.values():
                        _flush_queue(queue)
                    os._exit(MEND_CRASH_EXIT_CODE)
            if engine.finished():
                break
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
            transport.release(round_no, deliver_frame)
        shard_result = engine.result()
        shard_result.cpu_s = time.process_time() - cpu_start
        shard_result.mend = {
            "deterministic": transport.stats.deterministic_dict(),
            "measured": transport.stats.measured_dict(),
        }
        events_queue.put(("ok", shard_result))
        # Linger: a crashed neighbor re-executing from its fork needs
        # every batch this shard retained for it, so keep serving
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
    restarts, replayed windows, per-shard deterministic transport
    counters. Wall-clock restart latencies and racy recovery counters
    (dup drops, NACKs, retransmits) live in ``restart_wall_s`` /
    ``measured`` like ``cpu_s`` does: available for measurement,
    excluded from every byte-compared export.
    """

    supervised: bool = True
    crashes: list[dict] = field(default_factory=list)
    stalls_injected: int = 0
    restarts: int = 0
    stall_kills: int = 0
    windows_replayed: int = 0
    per_shard: dict[int, dict] = field(default_factory=dict)
    #: measurement-only (wall clock): per-restart respawn latency.
    restart_wall_s: list[float] = field(default_factory=list)
    #: measurement-only: racy per-shard recovery counters + exit codes.
    measured: dict = field(default_factory=dict)

    @property
    def checkpoints_committed(self) -> int:
        # Always 0. Only FlexLedger's frozen mend.checkpoints row reads it; ROADMAP item 1 drops both.
        return 0

    def to_dict(self) -> dict:
        return {
            "supervised": self.supervised,
            "crashes": list(self.crashes),
            "stalls_injected": self.stalls_injected,
            "restarts": self.restarts,
            "stall_kills": self.stall_kills,
            "windows_replayed": self.windows_replayed,
            "per_shard": {
                str(shard): dict(counters)
                for shard, counters in sorted(self.per_shard.items())
            },
        }

    def summary(self) -> str:
        lines = [
            f"flexmend: {len(self.crashes)} crash(es), {self.restarts} restart(s), "
            f"{self.windows_replayed} window(s) replayed"
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
    shard, watches sentinels + heartbeats, re-forks the dead from this
    process's net and has their in-neighbors replay to them (bounded
    retries, exponential backoff), and poisons the fleet for fast
    teardown when a run cannot be saved."""

    def __init__(
        self,
        net,
        plan,
        per_shard_injections: dict[int, Injections],
        end_time: float,
        chaos: FaultPlan | None = None,
    ):
        import multiprocessing

        self.net = net
        self.plan = plan
        self.per_shard = per_shard_injections
        self.end_time = end_time
        self.chaos = chaos
        self.context = multiprocessing.get_context("fork")
        self.shards = plan.populated_shards
        self.inboxes = {shard: self.context.Queue() for shard in self.shards}
        self.events_queue = self.context.Queue()
        self.report = MendReport()
        self._procs: dict[int, object] = {}
        self._restarts: dict[int, int] = {shard: 0 for shard in self.shards}
        self._fired: set = set()
        self._pending_crash: dict[int, int] = {}
        self._last_hb: dict[int, tuple[float, int]] = {}
        self._deaths: list[dict] = []

    # -- process lifecycle --------------------------------------------------

    def _spawn(self, shard: int) -> None:
        worker = self.context.Process(
            target=_worker_main,
            args=(
                shard,
                self.plan,
                self.net,
                self.per_shard.get(shard),
                self.end_time,
                self.inboxes,
                self.events_queue,
                self.chaos,
                frozenset(self._fired),
            ),
            name=f"flexscale-shard-{shard}",
        )
        worker.start()
        self._procs[shard] = worker
        # Wall-clock pacing only (stall detection); never touches
        # simulation state.
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
        """Fork a fresh worker for a dead shard from this process's net,
        which no worker ever touched, and have every in-neighbor replay
        what it sent the shard; returns an error string when the run
        cannot be saved."""
        self._deaths.append({"shard": shard, "exitcode": exitcode})
        if self._restarts[shard] >= limits.MEND_MAX_RESTARTS:
            return (
                f"shard {shard} exceeded the restart budget "
                f"({limits.MEND_MAX_RESTARTS}) — last death exit {exitcode}"
            )
        crash_window = self._pending_crash.pop(shard, self._last_hb[shard][1])
        self.report.crashes.append({"shard": shard, "window": crash_window})
        # The new worker re-runs every window up to the one it died at.
        self.report.windows_replayed += crash_window
        backoff = limits.MEND_BACKOFF_BASE_S * (
            limits.MEND_BACKOFF_FACTOR ** self._restarts[shard]
        )
        time.sleep(backoff)
        self._restarts[shard] += 1
        self.report.restarts += 1
        # The dead worker's inbox holds frames it never consumed —
        # possibly mid-stream. Drop them all; replay re-sends every
        # frame from the first, in order.
        while True:
            try:
                self.inboxes[shard].get_nowait()
            except queue_mod.Empty:
                break
        restart_started = time.monotonic()
        self._spawn(shard)
        for src in sorted(self.plan.in_neighbors(shard)):
            self.inboxes[src].put(("replay", shard))
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
                # kill and recover through the same re-fork path.
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
            self._spawn(shard)
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
        # A spec that never fired would pass for an absorbed fault.
        if self.chaos is not None:
            for kind, specs in (
                ("crash", self.chaos.worker_crashes),
                ("stall", self.chaos.worker_stalls),
            ):
                for index, spec in enumerate(specs):
                    if (kind, index) in self._fired:
                        continue
                    if spec.shard in results:
                        why = f"shard {spec.shard} finished at window {results[spec.shard].windows}"
                    else:
                        why = f"shard {spec.shard} holds no devices"
                    raise SimulationError(f"flexmend: {spec} never fired: {why}")
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
            help="dead workers re-forked",
        ).set(self.report.restarts)
        registry.counter(
            "flexnet_mend_windows_replayed_total",
            help="protocol windows re-executed by re-forked workers",
        ).set(self.report.windows_replayed)
        registry.counter(
            "flexnet_mend_stall_kills_total",
            help="workers killed for heartbeat staleness",
        ).set(self.report.stall_kills)
        registry.detach_collectors()
        return registry


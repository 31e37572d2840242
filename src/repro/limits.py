"""Shared certification limits and control-plane cost constants.

The certification constants bound what a certified FlexBPF program may
do *and* what the interpreter will actually execute. They live in one
module — imported by both :mod:`repro.lang.analyzer` (which proves the
bound) and :mod:`repro.simulator.pipeline_exec` (which enforces it) —
so the certified bound can never silently diverge from the runtime cap.

The control-channel constants cost the software (controller-mediated)
path; they are shared by :mod:`repro.control.p4runtime` and
:mod:`repro.runtime.drpc` so the two layers can never disagree about
what a control round trip costs.
"""

from __future__ import annotations

#: Hard ceiling on certified per-packet ops. Programs over this bound
#: would not pass a line-rate admission check on any modelled target.
MAX_PACKET_OPS = 100_000

#: Ceiling on total declared map entries per program (admission check
#: against pathological state footprints).
MAX_MAP_ENTRIES = 16_000_000

#: How many times one packet may recirculate. The analyzer multiplies
#: the per-pass bound by ``1 + RECIRCULATION_CAP`` for recirculating
#: programs; the interpreter stops recirculating at exactly this depth.
RECIRCULATION_CAP = 4

#: Keys one non-exact table (:class:`repro.simulator.tables.TableRules`)
#: remembers the decision for before the oldest is forgotten.
TABLE_MEMO_CAPACITY = 4096

#: Distinct generated sources whose code objects one process keeps
#: (:mod:`repro.simulator.fastpath`): instances with identical source
#: share one ``compile()``. A fabric holds one source per distinct
#: hosted slice per distinct program text, far below this; past it the
#: least recently used is compiled again when next needed.
FLEXPATH_CODE_MEMO_CAPACITY = 256

#: One control-channel round trip for a dRPC-equivalent operation done
#: in software (device -> controller -> device), and the controller's
#: per-operation software handling time.
CONTROL_RTT_S = 2e-3
CONTROL_PROCESSING_S = 5e-4

#: One P4Runtime (switch gRPC) round trip, write and read.
WRITE_RTT_S = 1e-3
READ_RTT_S = 1e-3

#: Raft timing for the distributed controller (§3.4): randomized
#: election timeouts and the leader heartbeat period. Shared by
#: :mod:`repro.control.consensus` (the protocol) and
#: :mod:`repro.control.ha` (failover detection and fencing-lease
#: renewal run off the same clock), so the two layers can never
#: disagree about what "one heartbeat" means.
ELECTION_TIMEOUT_RANGE_S = (0.15, 0.30)
HEARTBEAT_INTERVAL_S = 0.05

#: FlexCloud admission scheduling (§1.1 tenant-churn story): queued
#: tenant deltas are drained in rounds of this virtual period, with at
#: most ``ADMISSION_ROUND_BUDGET`` tickets folded per round. One round
#: produces at most one coalesced reconfiguration window per device, so
#: the period is the knob trading admission latency against coalescing
#: factor. Shared by :mod:`repro.cloud.admission` (the queue drain) and
#: :mod:`repro.control.scheduler` (per-class round budgeting) so the
#: two layers can never disagree about what "one scheduling round" is.
ADMISSION_ROUND_S = 0.25
ADMISSION_ROUND_BUDGET = 4096

#: Per-SLA-class admission control: (queue depth bound, drain weight).
#: A class's queue never holds more than its depth — submissions beyond
#: it are shed with a typed reason — and each round's budget is split
#: across non-empty classes proportionally to the weights (every
#: non-empty class is guaranteed at least one ticket, so bronze churn
#: cannot be starved by a gold flash crowd, and vice versa).
ADMISSION_CLASS_POLICIES: dict[str, tuple[int, int]] = {
    "gold": (200_000, 4),
    "silver": (100_000, 2),
    "bronze": (50_000, 1),
}

#: FlexScale process backend: wall-clock seconds the coordinator waits
#: for worker progress before declaring the fleet wedged (a
#: conservative-protocol bug, not a slow machine, is the only way to
#: hit this). Shared by the supervisor's result wait and each worker's
#: blocking inbox read so both sides give up on the same horizon.
SCALE_RESULT_TIMEOUT_S = 300.0

#: FlexScale process backend: how long the coordinator waits for a
#: worker to exit after shutdown/poison before terminating it.
SCALE_JOIN_TIMEOUT_S = 30.0

#: FlexScale process backend: the interpreter switch interval inside a
#: worker process. A worker's main thread computes windows while the
#: queue feeder threads only ship frames; at CPython's default 5 ms a
#: frame can wait out a whole window's advance for the GIL while the
#: neighbor shard idles on it, so whether the fleet runs in parallel or
#: in turns is a coin toss per round. 0.2 ms bounds that wait (~100
#: rounds x 0.2 ms against x 5 ms); it costs nothing while no feeder
#: has a frame to ship. Wall-clock pacing only.
SCALE_WORKER_SWITCH_INTERVAL_S = 0.0002

#: FlexMend supervision (sharded fault tolerance): how many times one
#: shard may be respawned from its last checkpoint before the
#: supervisor gives up and fails the run fast (poison pill broadcast).
MEND_MAX_RESTARTS = 3

#: FlexMend restart backoff: the supervisor sleeps
#: ``MEND_BACKOFF_BASE_S * MEND_BACKOFF_FACTOR**restarts`` before each
#: respawn, bounding crash-loop churn without stretching E23 wall time.
MEND_BACKOFF_BASE_S = 0.05
MEND_BACKOFF_FACTOR = 2.0

#: FlexMend stall detection: a worker that has not heartbeaten for this
#: many wall seconds while its process is still alive is presumed hung
#: (``WorkerStall`` or a real wedge) and is killed + respawned like a
#: crash. Generous so CI scheduling jitter can never misfire it.
MEND_HEARTBEAT_TIMEOUT_S = 60.0

#: FlexMend checkpoint cadence: when checkpointing is armed, every
#: worker snapshots its shard at window 0 (so restart is always
#: possible) and then every this-many protocol windows. Checkpoints
#: deepcopy live shard state, so the default run (no chaos) keeps them
#: off entirely and pays nothing.
MEND_CHECKPOINT_EVERY_WINDOWS = 8

#: FlexMend supervisor poll period: how often the coordinator wakes to
#: check process sentinels and heartbeat staleness while waiting for
#: events (wall-clock pacing only; never touches simulation state).
MEND_POLL_INTERVAL_S = 0.05

#: FlexMend transport impatience: a worker blocked waiting for a
#: round's inbound batches re-NACKs every missing sequence after this
#: many wall seconds. Gap NACKs (triggered by a later frame from the
#: same sender) catch mid-stream drops immediately; the impatience
#: timer is the backstop for a dropped *final* frame, where no later
#: frame exists to reveal the gap, and for first NACKs lost to a dying
#: worker's drained inbox. Recovery-path pacing only — the delivered
#: stream is release-ordered, so retransmit timing never affects a
#: deterministic export.
MEND_NACK_IMPATIENCE_S = 0.25

#: FlexScale placement: two devices joined by a link faster than this
#: are fused onto one shard. The conservative lookahead protocol
#: advances shards in windows of the *minimum cross-shard* link
#: latency, so splitting a microsecond-class intra-rack link across
#: shards would collapse window size (and with it all parallelism);
#: links at or above this latency are presumed rack/pod boundaries
#: worth sharding across. Shared by :mod:`repro.scale.plan` (placement)
#: and :mod:`repro.scale.shard` (window sizing) so the planner can
#: never produce a partition the protocol would crawl through.
COLOCATE_LINK_LATENCY_S = 1e-4

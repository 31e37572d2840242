"""FlexScale shard runtime: one worker's event loop plus the handoff
protocol that keeps sharded runs bit-identical to single-process ones.

Protocol (conservative, Chandy-Misra-Bryant style with windowed null
messages, no global barrier):

* Each shard owns a disjoint set of devices and runs them on a private
  :class:`~repro.simulator.engine.EventLoop`.
* When a packet's next hop belongs to another shard, the owning shard
  ships a :class:`Handoff` carrying the *absolute* arrival timestamp —
  computed by the exact float expression the single-process engine
  would have used (``now + (processing_s + link_latency)``), so no
  rounding can ever diverge.
* The protocol's edges are the directed shard pairs some route of the
  run crosses (:meth:`~repro.scale.plan.ShardPlan.routed`), not every
  pair a link joins. That is exact because a packet follows the hop
  list fixed when it was injected: a pair no hop list crosses never
  carries a handoff, so there is nothing for a guarantee on it to
  bound, and a handoff toward an undeclared edge raises instead of
  being queued where no frame would carry it.
* After advancing to virtual time *t*, a shard announces a
  :class:`Guarantee` of ``t + lookahead`` on each out-edge, where
  ``lookahead`` is the minimum latency of any link crossing that shard
  boundary: every handoff it will ever send after the announcement
  arrives strictly later than the guarantee. Announcements double as
  null messages — they flow every window even when no packet crosses,
  which is what makes progress deadlock-free when the live edges form a
  cycle (routes in both directions).
* A shard may therefore advance to ``min`` over its in-edges'
  guarantees, and waits only for shards that can send to it. "No
  global barrier" means exactly this: on a cycle of edges every shard
  is held one lookahead behind its neighbor and the fleet marches in
  lock-step; on a one-way fabric the edges form a chain and the shards
  pipeline, each running as far ahead of the next as its frames allow.
  A shard with no in-edge has nothing to wait for and *paces itself*:
  one lookahead per window, so that the shards it feeds get a frame —
  and work — every round rather than one frame at the horizon.
* Because the transport is FIFO per producer (a
  ``multiprocessing.Queue`` feeder thread is serial, and the inline
  backend delivers synchronously), every handoff with arrival ≤ g is
  already buffered when the announcement of g is handled — windows are
  *complete* before they are processed.
* Before each window the buffered handoffs are integrated in the
  canonical order ``(time, packet_id, hop_index)`` and the event loop's
  documented ``(time, seq)`` tie-break preserves that order exactly, so
  the execution order inside a window never depends on queue
  interleaving.

Termination: the driver passes a fixed end horizon chosen past all
activity; guarantees advance by at least one lookahead per window, so
every shard's clock crosses the horizon in finitely many windows. If
any event or handoff outlives the horizon the run *fails loudly*
(:class:`~repro.errors.SimulationError`) rather than silently diverging
from the single-process reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.observe.metrics import MetricsRegistry, export_device_counters
from repro.simulator.engine import EventLoop
from repro.simulator.metrics import LatencyStats, RunMetrics
from repro.simulator.network import Network
from repro.simulator.packet import Packet

#: Smallest guarantee increment enforced per window; a zero-lookahead
#: shard pair would never make progress (the planner's co-location rule
#: should make this unreachable, but the protocol refuses to spin).
MIN_LOOKAHEAD_S = 1e-9


@dataclass(frozen=True)
class Handoff:
    """A packet crossing a shard boundary at an exact absolute time."""

    time: float
    packet: Packet
    hops: tuple[str, ...]
    index: int
    src_shard: int

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """Canonical integration order within a window."""
        return (self.time, self.packet.packet_id, self.index)


@dataclass(frozen=True)
class Guarantee:
    """``src_shard`` promises every later handoff arrives after ``time``."""

    src_shard: int
    time: float


@dataclass
class ShardResult:
    """Everything one shard ships back to the coordinator (picklable:
    registries are frozen via ``detach_collectors`` first)."""

    shard_id: int
    metrics: RunMetrics
    digest_count: int
    windows: int
    handoffs_in: int
    handoffs_out: int
    events_executed: int
    registry: MetricsRegistry | None = None
    #: worker CPU seconds (process backend only; measurement-only field,
    #: excluded from every deterministic export).
    cpu_s: float | None = None
    #: FlexMend transport accounting, split into "deterministic" and
    #: "measured" sub-dicts (supervised process backend only).
    mend: dict | None = None


class ShardEngine:
    """One shard's devices, loop, and protocol state.

    Transport-agnostic: the inline backend calls :meth:`deliver`
    directly, the process backend feeds it messages drained from an
    ``mp.Queue``. Drivers repeatedly call :meth:`advance`, flush
    :meth:`take_outbox` / :meth:`guarantees_out` to neighbors, and
    deliver one frame per in-edge before the next round.
    """

    def __init__(
        self,
        shard_id: int,
        plan,
        devices: dict,
        end_time: float,
        topology: Network | None = None,
        track_inflight: bool = False,
    ):
        self.shard_id = shard_id
        self.plan = plan
        self.end_time = end_time
        self.loop = EventLoop()
        self.owned = set(plan.devices_on(shard_id))
        self.network = Network(
            loop=self.loop,
            owned=self.owned,
            on_handoff=self._handoff_out,
            track_inflight=track_inflight,
        )
        if topology is not None:
            self.network.adopt_topology(topology)
        for name in sorted(self.owned):
            self.network.add_node(devices[name])
        self._devices = {name: devices[name] for name in self.owned}
        self.metrics = RunMetrics(
            latency=LatencyStats(seed=plan.shard_seed(shard_id))
        )
        self.digest_count = 0
        self.windows = 0
        self.handoffs_in = 0
        self.handoffs_out = 0
        self._clock = 0.0
        self._pending: list[Handoff] = []
        #: what this shard promises each out-edge past its clock.
        self._lookahead: dict[int, float] = {
            dst: max(plan.lookahead_s[(shard_id, dst)], MIN_LOOKAHEAD_S)
            for dst in plan.out_neighbors(shard_id)
        }
        self._outbox: dict[int, list[Handoff]] = {dst: [] for dst in self._lookahead}
        self._guarantee: dict[int, float] = {
            src: 0.0 for src in plan.in_neighbors(shard_id)
        }

    # -- local simulation ---------------------------------------------------

    def inject(self, packet: Packet, path, at_time: float) -> None:
        """Coordinator-assigned injection (first hop owned by this shard)."""
        self.network.inject(packet, path, at_time, self.metrics, on_done=self._on_done)

    def _on_done(self, packet: Packet) -> None:
        self.digest_count += len(packet.digests)

    def _handoff_out(
        self, packet: Packet, hops: list[str], index: int, at_time: float
    ) -> None:
        dst = self.plan.shard_of(hops[index])
        if dst == self.shard_id:  # pragma: no cover - network owns this check
            raise SimulationError("handoff to own shard")
        if dst not in self._outbox:
            # No frames flow on an undeclared edge: the packet would be
            # lost, and ``dst`` never waits for this shard's guarantee.
            raise SimulationError(
                f"shard {self.shard_id}: handoff of packet {packet.packet_id} "
                f"toward shard {dst} ({hops[index]!r}), which is not an "
                f"out-edge of the plan (edges follow the routes of the run)"
            )
        self._outbox[dst].append(
            Handoff(
                time=at_time,
                packet=packet,
                hops=tuple(hops),
                index=index,
                src_shard=self.shard_id,
            )
        )
        self.handoffs_out += 1

    # -- protocol -----------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock

    def safe_time(self) -> float:
        """Latest virtual time provably free of future in-handoffs."""
        if not self._guarantee:
            return math.inf
        return min(self._guarantee.values())

    def deliver(self, message: Handoff | Guarantee) -> None:
        """Accept one in-message (any transport, FIFO per producer)."""
        if isinstance(message, Handoff):
            self._pending.append(message)
            self.handoffs_in += 1
        else:
            previous = self._guarantee.get(message.src_shard, 0.0)
            self._guarantee[message.src_shard] = max(previous, message.time)

    def advance(self) -> float:
        """Run one window: integrate safe handoffs, process local events
        up to the window bound, and queue outgoing guarantees."""
        bound = self.safe_time()
        if not self._guarantee and self._lookahead:
            # Nobody sends to this shard, so it has nothing to wait for
            # and paces itself by what it promises: one lookahead per
            # window, so the shards downstream get a frame (and work)
            # every round instead of one frame at the horizon.
            bound = self._clock + min(self._lookahead.values())
        bound = min(bound, self.end_time)
        if bound > self._clock or self.windows == 0:
            ready = sorted(
                (h for h in self._pending if h.time <= bound),
                key=lambda h: h.sort_key,
            )
            self._pending = [h for h in self._pending if h.time > bound]
            for handoff in ready:
                self.network.receive(
                    handoff.packet,
                    list(handoff.hops),
                    handoff.index,
                    handoff.time,
                    self.metrics,
                    on_done=self._on_done,
                )
            self.loop.run_until(bound)
            self._clock = bound
            self.windows += 1
        return self._clock

    def guarantees_out(self) -> dict[int, Guarantee]:
        """Announcements for each out-neighbor after :meth:`advance`."""
        return {
            dst: Guarantee(src_shard=self.shard_id, time=self._clock + lookahead)
            for dst, lookahead in self._lookahead.items()
        }

    def take_outbox(self) -> dict[int, list[Handoff]]:
        """Drain buffered out-handoffs (per destination shard)."""
        taken = {dst: msgs for dst, msgs in self._outbox.items() if msgs}
        for dst in taken:
            self._outbox[dst] = []
        return taken

    def finished(self) -> bool:
        """True once no event at or before the horizon can still exist
        anywhere upstream of this shard."""
        return self._clock >= self.end_time and self.safe_time() >= self.end_time

    # -- FlexMend checkpoints ----------------------------------------------

    def checkpoint(self):
        """Snapshot this shard as plain data at a window boundary
        (requires ``track_inflight=True``; see :mod:`repro.scale.mend`)."""
        from repro.scale.mend import checkpoint_engine

        return checkpoint_engine(self)

    def restore(self, ckpt) -> None:
        """Rebuild this (fresh, un-injected) engine from a checkpoint."""
        from repro.scale.mend import restore_engine

        restore_engine(self, ckpt)

    # -- result -------------------------------------------------------------

    def _collect_registry(self) -> MetricsRegistry:
        """Per-shard FlexScope snapshot (same family names the Observer
        exports, so merged fleet output is indistinguishable from a
        single-process scrape), frozen for cross-process shipping."""
        registry = MetricsRegistry()
        for name in sorted(self._devices):
            export_device_counters(registry, name, self._devices[name])
        registry.counter(
            "flexnet_telemetry_digests_total",
            help="digest records ever ingested",
        ).set(self.digest_count)
        registry.counter(
            "flexnet_scale_windows_total",
            help="protocol windows executed per shard",
            shard=self.shard_id,
        ).set(self.windows)
        registry.counter(
            "flexnet_scale_handoffs_total", shard=self.shard_id, direction="in"
        ).set(self.handoffs_in)
        registry.counter(
            "flexnet_scale_handoffs_total", shard=self.shard_id, direction="out"
        ).set(self.handoffs_out)
        registry.detach_collectors()
        return registry

    def result(self) -> ShardResult:
        """Validate quiescence and package the shard's contribution."""
        if self._pending:
            worst = max(h.time for h in self._pending)
            raise SimulationError(
                f"shard {self.shard_id}: {len(self._pending)} handoff(s) beyond "
                f"the end horizon {self.end_time} s (latest {worst} s) — "
                f"increase drain_s so every packet finishes inside the run"
            )
        if self.loop.pending():
            raise SimulationError(
                f"shard {self.shard_id}: {self.loop.pending()} event(s) beyond "
                f"the end horizon {self.end_time} s — increase drain_s"
            )
        return ShardResult(
            shard_id=self.shard_id,
            metrics=self.metrics,
            digest_count=self.digest_count,
            windows=self.windows,
            handoffs_in=self.handoffs_in,
            handoffs_out=self.handoffs_out,
            events_executed=self.loop._sequence,  # noqa: SLF001 - diagnostic only
            registry=self._collect_registry(),
        )


def step_inline(engines: dict[int, "ShardEngine"]) -> None:
    """Advance every shard one window and deliver synchronously — the
    single-process backend (tests, property instrumentation). Message
    delivery order (handoffs, then the guarantee, per source) matches
    the FIFO contract the process transport provides."""
    order = sorted(engines)
    for shard_id in order:
        engines[shard_id].advance()
    for shard_id in order:
        engine = engines[shard_id]
        for dst, handoffs in sorted(engine.take_outbox().items()):
            for handoff in handoffs:
                engines[dst].deliver(handoff)
        for dst, guarantee in sorted(engine.guarantees_out().items()):
            engines[dst].deliver(guarantee)


def run_inline(engines: dict[int, "ShardEngine"], max_windows: int = 1_000_000) -> None:
    """Drive inline shards to quiescence at the end horizon."""
    for _ in range(max_windows):
        if all(engine.finished() for engine in engines.values()):
            return
        step_inline(engines)
    raise SimulationError(
        f"inline shard run did not quiesce within {max_windows} windows"
    )

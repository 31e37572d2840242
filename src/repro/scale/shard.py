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

One driver: the single loop is the one-shard run of this engine
(:func:`run_one_shard`: the caller's network, loop and completion hook,
no edges), and each shard of an N-shard run is one on a private loop
(:meth:`ShardEngine.private`). The horizon rule is the same for every
driver: a run ends at ``max(times, default=loop.now) + drain_s``
(:func:`horizon`), which every shard's clock crosses in finitely many
windows. A packet or handoff still in flight there *fails the run
loudly* (:class:`~repro.errors.SimulationError`); a control event may
outlive it (a health monitor's probe re-arms itself forever).
"""

from __future__ import annotations

import math
import pickle
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.observe.metrics import MetricsRegistry, export_device_counters
from repro.scale.plan import ShardPlan
from repro.simulator.engine import EventLoop
from repro.simulator.flowgen import Series, TimedPacket
from repro.simulator.metrics import LatencyStats, RunMetrics
from repro.simulator.network import Network
from repro.simulator.packet import Packet, packet_from_record

#: What a shard of an N-shard run injects: ``packets[i]`` along the hop
#: tuple ``hops`` from ``times[i]`` (``(hops, times, packets)``).
Injections = tuple[tuple[str, ...], Sequence[float], Sequence[Packet]]

#: Smallest guarantee increment enforced per window; a zero-lookahead
#: shard pair would never make progress (the planner's co-location rule
#: should make this unreachable, but the protocol refuses to spin).
MIN_LOOKAHEAD_S = 1e-9


class Handoff:
    """A packet crossing a shard boundary at an exact absolute time: it
    arrives at ``hops[index]`` at ``time`` (a slotted record).

    It pickles as a flat wire record: the time, the hop tuple, the index
    and the packet's record (:meth:`Packet.record`) without ``path``,
    which is rebuilt as ``hops[:index]``, the hops the packet has
    traversed (a packet starts with an empty path and appends each hop
    it runs). The source shard is not in it: the frame that carries it
    names its source."""

    __slots__ = ("time", "packet", "hops", "index")

    def __init__(self, time: float, packet: Packet, hops: tuple[str, ...], index: int):
        self.time = time
        self.packet = packet
        self.hops = hops
        self.index = index

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """Canonical integration order within a window."""
        return (self.time, self.packet.packet_id, self.index)

    def __reduce__(self):
        return _handoff, (self.time, self.hops, self.index, self.packet.record()[:-1])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Handoff:
            return NotImplemented
        return (self.time, self.packet, self.hops, self.index) == (
            other.time,
            other.packet,
            other.hops,
            other.index,
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"Handoff(time={self.time!r}, packet={self.packet.packet_id}, "
            f"hops={self.hops!r}, index={self.index})"
        )


def _handoff(time: float, hops: tuple[str, ...], index: int, record: tuple) -> Handoff:
    """The handoff of a wire record (:meth:`Handoff.__reduce__`)."""
    return Handoff(time, packet_from_record(*record, list(hops[:index])), hops, index)


@dataclass(frozen=True)
class Guarantee:
    """``src_shard`` promises every later handoff arrives after ``time``."""

    src_shard: int
    time: float


def encode_frame(handoffs: Sequence[Handoff], guarantee: Guarantee) -> bytes:
    """One round's frame on one edge as one payload: the handoffs, then
    the guarantee covering them. Pickled here, on the caller's thread,
    so a queue's feeder thread only writes the bytes, and a sender that
    keeps the frame keeps bytes, not packets."""
    return pickle.dumps((*handoffs, guarantee), pickle.HIGHEST_PROTOCOL)


def decode_frame(payload: bytes) -> tuple[Handoff | Guarantee, ...]:
    """The messages of an :func:`encode_frame` payload, in order."""
    return pickle.loads(payload)


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
    """One shard's protocol state over the network and loop it is handed,
    with ``on_done`` per finished packet (by default, counting digests).

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
        network: Network,
        end_time: float,
        metrics: RunMetrics | None = None,
        on_done: Callable[[Packet], None] | None = None,
    ):
        self.shard_id = shard_id
        self.plan = plan
        self.end_time = end_time
        self.network = network
        self.loop = network.loop
        self.metrics = metrics if metrics is not None else RunMetrics(
            latency=LatencyStats(seed=plan.shard_seed(shard_id))
        )
        self._on_done = on_done if on_done is not None else self._count_digests
        self.digest_count = 0
        self.windows = 0
        self.handoffs_in = 0
        self.handoffs_out = 0
        self._clock = self.loop.now
        self._first_seq = self.loop._sequence  # noqa: SLF001 - diagnostic only
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

    @classmethod
    def private(
        cls, shard_id: int, plan, net, end_time: float, injections: Injections | None = None
    ) -> "ShardEngine":
        """A shard of an N-shard run: its devices of ``net`` on a private
        loop, fed its ``(hops, times, packets)`` injections: ``packets[i]``
        along the hop tuple ``hops`` from ``times[i]``, in order."""
        network = Network(loop=EventLoop(), owned=set(plan.devices_on(shard_id)))
        network.adopt_topology(net.controller.network)
        for name in plan.devices_on(shard_id):
            network.add_node(net.controller.devices[name])
        engine = cls(shard_id, plan, network, end_time)
        network.on_handoff = engine._handoff_out
        if injections is not None:
            hops, times, packets = injections
            engine.inject_series(packets, hops, times)
        return engine

    # -- local simulation ---------------------------------------------------

    def inject_series(
        self, packets: Sequence[Packet], path: str | tuple[str, ...], times: Sequence[float]
    ) -> None:
        """:meth:`Network.inject_series` of every packet along one path
        (a path name or a hop tuple) into this shard's run."""
        self.network.inject_series(packets, path, times, self.metrics, self._on_done)

    def _count_digests(self, packet: Packet) -> None:
        self.digest_count += len(packet.digests)

    def _handoff_out(
        self, packet: Packet, hops: Sequence[str], index: int, at_time: float
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
        self._outbox[dst].append(Handoff(at_time, packet, tuple(hops), index))
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
            self.network.receive_series(
                [handoff.packet for handoff in ready],
                [handoff.hops for handoff in ready],
                [handoff.index for handoff in ready],
                [handoff.time for handoff in ready],
                self.metrics,
                self._on_done,
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

    # -- result -------------------------------------------------------------

    def _collect_registry(self) -> MetricsRegistry:
        """Per-shard FlexScope snapshot (same family names the Observer
        exports, so merged fleet output is indistinguishable from a
        single-process scrape), frozen for cross-process shipping."""
        registry = MetricsRegistry()
        for name in self.plan.devices_on(self.shard_id):
            export_device_counters(registry, name, self.network.node(name))
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

    def check_horizon(self) -> None:
        """Raise if a packet (a handoff to this shard included) is still
        in flight at the end horizon; control events may be."""
        m = self.metrics
        finished = m.delivered + m.dropped_by_program + m.lost_by_infrastructure
        in_flight = m.sent + self.handoffs_in - self.handoffs_out - finished
        if in_flight:
            raise SimulationError(
                f"shard {self.shard_id}: {in_flight} event(s) beyond the end horizon "
                f"{self.end_time} s (packets in flight) — increase drain_s"
            )

    def result(self) -> ShardResult:
        """Check the horizon and package the shard's contribution."""
        self.check_horizon()
        return ShardResult(
            shard_id=self.shard_id,
            metrics=self.metrics,
            digest_count=self.digest_count,
            windows=self.windows,
            handoffs_in=self.handoffs_in,
            handoffs_out=self.handoffs_out,
            events_executed=self.loop._sequence - self._first_seq,  # noqa: SLF001
            registry=self._collect_registry(),
        )


def horizon(times: Sequence[float], now: float, drain_s: float) -> float:
    """The end horizon: the last injection (``now`` without one) + ``drain_s``."""
    return max(times, default=now) + drain_s


def run_one_shard(
    network: Network,
    injections: Sequence[TimedPacket],
    drain_s: float,
    on_done=None,
) -> ShardEngine:
    """The single loop: ``injections`` along ``datapath`` as the one shard
    of ``network`` (every node, no edges, no placement) on its loop:
    inject the series, advance once to the horizon, check it. The
    injections are injected as their columns
    (:meth:`~repro.simulator.flowgen.Series.of`), so a generated series
    builds each packet when it is sent."""
    names = tuple(sorted(network._nodes))  # noqa: SLF001 - the one shard owns every node
    assignment = dict.fromkeys(names, 0)
    plan = ShardPlan(shards=1, seed=0, assignment=assignment, units=(names,), constraints=())
    series = Series.of(injections)
    end_time = horizon(series.times, network.loop.now, drain_s)
    engine = ShardEngine(0, plan, network, end_time, RunMetrics(), on_done)
    engine.inject_series(series.packets, "datapath", series.times)
    engine.advance()
    engine.check_horizon()
    return engine


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


def run_inline(engines: dict[int, "ShardEngine"]) -> None:
    """Drive inline shards to quiescence at the end horizon (within a
    million windows)."""
    for _ in range(1_000_000):
        if all(engine.finished() for engine in engines.values()):
            return
        step_inline(engines)
    raise SimulationError("inline shard run did not quiesce within 1000000 windows")

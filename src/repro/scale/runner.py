"""FlexScale coordinator: run a FlexNet's traffic across shards.

Two backends drive the same :class:`~repro.scale.shard.ShardEngine`
protocol:

* ``inline`` — every shard lives in this process and windows are
  stepped round-robin. Zero IPC; used by tests and property
  instrumentation (map-access recorders need to see the worker state).
* ``process`` — one OS worker per populated shard, forked so device
  objects and FlexPath's generated functions are inherited without pickling;
  handoffs and guarantees flow over per-shard ``multiprocessing``
  queues (sequenced by the FlexMend transport), results come back on a
  shared result queue as picklable
  :class:`~repro.scale.shard.ShardResult` snapshots. The coordinator
  side is the FlexMend :class:`~repro.scale.mend.Supervisor`: it
  watches process sentinels and heartbeats and — when chaos is armed
  or checkpointing enabled — respawns dead workers from their last
  windowed checkpoint (see :mod:`repro.scale.mend`).

Either way the coordinator merges per-shard :class:`RunMetrics`,
telemetry digest counts, and frozen FlexScope registries into one
:class:`ScaleReport` whose ``traffic`` section is byte-identical to the
``TrafficReport`` of a same-seed single-process run (E20's differential
acceptance check — and E23's, which holds it *through* injected worker
crashes). The variable parts — windows, handoff counts, per-shard
breakdowns, supervision outcomes — live in separate report sections so
the identity check can compare the invariant part exactly.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.observe.metrics import MetricsRegistry
from repro.scale.mend import MendReport, Supervisor
from repro.scale.plan import ShardPlan, plan_shards
from repro.scale.shard import ShardEngine, ShardResult, run_inline
from repro.simulator.flowgen import TimedPacket
from repro.simulator.metrics import RunMetrics


@dataclass
class ScaleReport:
    """Outcome of a sharded run (FlexScope Reportable protocol).

    ``traffic`` (via :meth:`traffic_dict`) is the byte-identical
    section; ``sharding`` carries the protocol/shape diagnostics that
    legitimately vary with the shard count. ``plan`` is the plan the
    run executed: its ``lookahead_s`` (and so
    ``to_dict()["sharding"]["plan"]["lookahead_s"]``) lists only the
    live edges, the shard pairs a route of the run crosses.
    """

    plan: ShardPlan
    backend: str
    end_time_s: float
    metrics: RunMetrics
    total_digests: int
    registry: MetricsRegistry
    shard_results: list[ShardResult] = field(default_factory=list)
    #: FlexMend supervision outcome (process backend only).
    mend: MendReport | None = None

    @property
    def windows(self) -> int:
        return sum(result.windows for result in self.shard_results)

    @property
    def handoffs(self) -> int:
        return sum(result.handoffs_out for result in self.shard_results)

    @property
    def max_shard_cpu_s(self) -> float | None:
        """Slowest shard's CPU seconds (process backend only) — the
        denominator of the E20 capacity metric. Measurement-only:
        deliberately absent from :meth:`to_dict` so exports stay
        deterministic."""
        values = [
            result.cpu_s
            for result in self.shard_results
            if result.cpu_s is not None
        ]
        return max(values) if values else None

    def traffic_dict(self) -> dict:
        """Exactly the shape ``TrafficReport.to_dict()`` produces for
        the same workload on the single-process engine."""
        return {
            "metrics": self.metrics.to_dict(),
            "telemetry": {"total_digests": self.total_digests, "total_events": 0},
        }

    def to_dict(self) -> dict:
        out = {
            "traffic": self.traffic_dict(),
            "sharding": {
                "backend": self.backend,
                "shards": self.plan.shards,
                "populated_shards": list(self.plan.populated_shards),
                "end_time_s": self.end_time_s,
                "plan": self.plan.to_dict(),
                "per_shard": [
                    {
                        "shard": result.shard_id,
                        "sent": result.metrics.sent,
                        "delivered": result.metrics.delivered,
                        "windows": result.windows,
                        "handoffs_in": result.handoffs_in,
                        "handoffs_out": result.handoffs_out,
                        "events": result.events_executed,
                    }
                    for result in self.shard_results
                ],
            },
        }
        if self.mend is not None:
            out["mend"] = self.mend.to_dict()
        return out

    def summary(self) -> str:
        lines = [
            f"flexscale [{self.backend}] {len(self.plan.populated_shards)} shard(s): "
            + self.metrics.summary().splitlines()[0],
            f"  windows {self.windows}, cross-shard handoffs {self.handoffs}, "
            f"digests {self.total_digests}",
            "  edges " + (", ".join(self.plan.edges()) or "none"),
        ]
        for result in self.shard_results:
            lines.append(
                f"  shard {result.shard_id}: sent {result.metrics.sent}, "
                f"delivered {result.metrics.delivered}, "
                f"windows {result.windows}, "
                f"handoffs {result.handoffs_in} in / {result.handoffs_out} out"
            )
        if self.mend is not None:
            lines.append(self.mend.summary())
        return "\n".join(lines)


def reference_run(net, injections: list[TimedPacket], drain_s: float = 1.0):
    """The single-process control arm of the differential check: the
    plain engine, the same digest accounting, no consistency checker —
    returns the :class:`~repro.core.flexnet.TrafficReport` whose
    ``to_dict()`` a sharded run's ``traffic_dict()`` must reproduce
    byte-for-byte. Mutates device state; build a fresh net per arm."""
    return net.run_traffic(packets=list(injections), extra_time_s=drain_s)


def _assign_injections(
    net, plan: ShardPlan, injections: list[TimedPacket]
) -> tuple[ShardPlan, dict[int, list[tuple]]]:
    """Resolve each injection's hop list and hand it to the shard that
    owns the first hop; returns the plan narrowed to the shard pairs
    those hop lists cross (:meth:`ShardPlan.routed` — the protocol
    edges of this run) beside the per-shard injections."""
    network = net.controller.network
    per_shard: dict[int, list[tuple]] = {shard: [] for shard in plan.populated_shards}
    hops = network.path("datapath")
    first_shard = plan.shard_of(hops[0])
    for timed in injections:
        per_shard[first_shard].append((timed.packet, hops, timed.time))
    return plan.routed([hops] if injections else []), per_shard


def _end_time(injections: list[TimedPacket], drain_s: float) -> float:
    last = max((timed.time for timed in injections), default=0.0)
    return last + drain_s


def _merge_results(
    plan: ShardPlan,
    backend: str,
    end_time: float,
    results: list[ShardResult],
    mend: MendReport | None = None,
    extra_registry: MetricsRegistry | None = None,
) -> ScaleReport:
    results = sorted(results, key=lambda result: result.shard_id)
    metrics_parts = [result.metrics for result in results]
    merged = (
        metrics_parts[0].merge(*metrics_parts[1:])
        if len(metrics_parts) > 1
        else metrics_parts[0]
    )
    registry = MetricsRegistry()
    for result in results:
        if result.registry is not None:
            registry.merge(result.registry)
    if extra_registry is not None:
        registry.merge(extra_registry)
    return ScaleReport(
        plan=plan,
        backend=backend,
        end_time_s=end_time,
        metrics=merged,
        total_digests=sum(result.digest_count for result in results),
        registry=registry,
        shard_results=results,
        mend=mend,
    )


# -- inline backend ---------------------------------------------------------


def _engines(
    net, plan: ShardPlan, per_shard: dict[int, list[tuple]], end_time: float
) -> dict[int, ShardEngine]:
    devices = net.controller.devices
    engines = {
        shard: ShardEngine(
            shard, plan, devices, end_time, topology=net.controller.network
        )
        for shard in plan.populated_shards
    }
    for shard, items in per_shard.items():
        for packet, hops, at_time in items:
            engines[shard].inject(packet, hops, at_time)
    return engines


def build_engines(
    net, plan: ShardPlan, injections: list[TimedPacket], drain_s: float = 1.0
) -> dict[int, ShardEngine]:
    """Instantiate one engine per populated shard over the net's live
    device objects (inline backend; also used directly by tests that
    need to instrument worker state before driving the protocol). The
    engines run the plan narrowed to the routes of ``injections``, as
    :func:`run_sharded` does for either backend."""
    plan, per_shard = _assign_injections(net, plan, injections)
    return _engines(net, plan, per_shard, _end_time(injections, drain_s))


# -- entry point ------------------------------------------------------------


def run_sharded(
    net,
    injections: list[TimedPacket],
    shards: int,
    *,
    backend: str = "process",
    seed: int = 2024,
    drain_s: float = 1.0,
    plan: ShardPlan | None = None,
    chaos: FaultPlan | None = None,
    checkpoint_every: int | None = None,
) -> ScaleReport:
    """Partition ``net`` and run ``injections`` across shards.

    ``drain_s`` sets the quiet horizon after the last injection; every
    packet must finish inside it or the run fails loudly (no silent
    truncation). Like ``run_traffic``, the run mutates device state.
    Consistency checking is not supported under sharding (the checker
    is an observer of the single loop); use ``run_traffic`` for
    consistency experiments.

    ``chaos`` arms FlexMend worker-fault injection (``WorkerCrash`` /
    ``WorkerStall`` / ``HandoffDrop`` / ``HandoffDup`` specs from a
    :class:`~repro.faults.plan.FaultPlan`); process backend only.
    ``checkpoint_every`` sets the checkpoint cadence in protocol
    windows — ``None`` means "``limits.MEND_CHECKPOINT_EVERY_WINDOWS``
    when chaos is armed, off otherwise" (checkpoints cost a deep copy
    per shard per cadence, so fault-free capacity runs skip them), and
    ``0`` forces checkpointing off (worker death is then fatal).
    """
    if plan is None:
        plan = plan_shards(net.controller, shards, seed=seed)
    # One protocol for both backends: the edges are those the routes of
    # this run cross, not every shard boundary a link happens to span.
    plan, per_shard = _assign_injections(net, plan, injections)
    end_time = _end_time(injections, drain_s)
    if backend == "inline":
        if chaos is not None:
            raise SimulationError(
                "flexmend chaos requires the process backend (worker "
                "crashes have no analogue inside one process)"
            )
        engines = _engines(net, plan, per_shard, end_time)
        run_inline(engines)
        results = [engine.result() for engine in engines.values()]
        return _merge_results(plan, "inline", end_time, results)
    if backend == "process":
        if multiprocessing.get_start_method(allow_none=False) != "fork" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            raise SimulationError(
                "flexscale process backend requires the fork start method "
                "(device closures are inherited, not pickled); "
                "use backend='inline' on this platform"
            )
        # The FlexMend supervisor (:mod:`repro.scale.mend`) owns the
        # workers, fault injection, checkpoints and restart.
        supervisor = Supervisor(
            net,
            plan,
            per_shard,
            end_time,
            chaos=chaos,
            checkpoint_every=checkpoint_every,
        )
        results, mend, registry = supervisor.run()
        return _merge_results(
            plan, "process", end_time, results, mend=mend, extra_registry=registry
        )
    raise SimulationError(f"unknown flexscale backend {backend!r}")

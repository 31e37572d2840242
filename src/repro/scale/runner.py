"""FlexScale coordinator: run a FlexNet's traffic across shards.

Two backends drive the same :class:`~repro.scale.shard.ShardEngine`
protocol:

* ``inline`` — every shard lives in this process and windows are
  stepped round-robin. Zero IPC; used by tests and property
  instrumentation (map-access recorders need to see the worker state).
* ``process`` — one OS worker per populated shard, forked so device
  objects and FlexPath's generated functions are inherited without pickling;
  handoffs and guarantees flow over per-shard ``multiprocessing``
  queues as one encoded frame per edge per round (sequenced by the
  FlexMend transport), results come back on a
  shared result queue as picklable
  :class:`~repro.scale.shard.ShardResult` snapshots. The coordinator
  side is the FlexMend :class:`~repro.scale.mend.Supervisor`: it
  watches process sentinels and heartbeats and recovers any dead
  worker, chaos-injected or not, by forking it afresh and re-executing
  it against its replayed inbound stream (see :mod:`repro.scale.mend`).

Either way the coordinator merges per-shard :class:`RunMetrics`,
telemetry digest counts, and frozen FlexScope registries into one
:class:`ScaleReport` whose ``traffic`` section is byte-identical to the
``TrafficReport`` of the same-seed one-shard run (E20's differential
acceptance check — and E23's, which holds it *through* injected worker
crashes). The variable parts — windows, handoff counts, per-shard
breakdowns, supervision outcomes — live in separate report sections so
the identity check can compare the invariant part exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.flexnet import TelemetrySnapshot, TrafficReport
from repro.errors import SimulationError
from repro.observe.metrics import MetricsRegistry
from repro.scale.plan import ShardPlan, plan_shards
from repro.scale.shard import Injections, ShardEngine, ShardResult, horizon, run_inline
from repro.simulator.flowgen import Series, TimedPacket
from repro.simulator.metrics import RunMetrics

# The process backend's machinery (``multiprocessing``, FlexMend and
# its fault plan) loads when a run takes that backend, not with the
# planner every run reads.
if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.scale.mend import MendReport


@dataclass
class ScaleReport:
    """Outcome of a sharded run (FlexScope Reportable protocol).

    ``traffic`` is the byte-identical section, the
    :class:`~repro.core.flexnet.TrafficReport` a one-shard run gives;
    ``sharding`` carries the protocol/shape diagnostics that
    legitimately vary with the shard count. ``plan`` is the plan the
    run executed: its ``lookahead_s`` (and so
    ``to_dict()["sharding"]["plan"]["lookahead_s"]``) lists only the
    live edges, the shard pairs a route of the run crosses.
    """

    plan: ShardPlan
    backend: str
    end_time_s: float
    traffic: TrafficReport
    registry: MetricsRegistry
    shard_results: list[ShardResult] = field(default_factory=list)
    #: FlexMend supervision outcome (process backend only).
    mend: MendReport | None = None

    @property
    def metrics(self) -> RunMetrics:
        return self.traffic.metrics

    @property
    def total_digests(self) -> int:
        return self.traffic.telemetry.total_digests

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
        return self.traffic.to_dict()

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


def _assign_injections(
    net, plan: ShardPlan, injections: Sequence[TimedPacket], drain_s: float
) -> tuple[ShardPlan, dict[int, Injections], float]:
    """Hand the shard that owns the first hop of ``datapath`` the
    injections' columns (:meth:`~repro.simulator.flowgen.Series.of`) and
    that one hop tuple; returns the plan narrowed to the shard pairs the
    hop tuple crosses (:meth:`ShardPlan.routed` — the protocol edges of
    this run), the per-shard injections and the end horizon."""
    series = Series.of(injections)
    # A tuple: each shard's network keeps its route under the hop tuple.
    hops = tuple(net.controller.network.path("datapath"))
    end_time = horizon(series.times, net.controller.loop.now, drain_s)
    if not series:
        return plan.routed([]), {}, end_time
    per_shard = {plan.shard_of(hops[0]): (hops, series.times, series.packets)}
    return plan.routed([hops]), per_shard, end_time


def _merge_results(
    plan: ShardPlan,
    backend: str,
    end_time: float,
    results: list[ShardResult],
    mend: MendReport | None = None,
    extra_registry: MetricsRegistry | None = None,
) -> ScaleReport:
    results = sorted(results, key=lambda result: result.shard_id)
    first, *rest = [result.metrics for result in results]
    merged = first.merge(*rest) if rest else first
    registry = MetricsRegistry()
    for result in results:
        if result.registry is not None:
            registry.merge(result.registry)
    if extra_registry is not None:
        registry.merge(extra_registry)
    digests = sum(result.digest_count for result in results)
    return ScaleReport(
        plan=plan,
        backend=backend,
        end_time_s=end_time,
        traffic=TrafficReport(merged, telemetry=TelemetrySnapshot(total_digests=digests)),
        registry=registry,
        shard_results=results,
        mend=mend,
    )


# -- inline backend ---------------------------------------------------------


def _engines(
    net, plan: ShardPlan, per_shard: dict[int, Injections], end_time: float
) -> dict[int, ShardEngine]:
    return {
        shard: ShardEngine.private(shard, plan, net, end_time, per_shard.get(shard))
        for shard in plan.populated_shards
    }


def build_engines(
    net, plan: ShardPlan, injections: Sequence[TimedPacket], drain_s: float = 1.0
) -> dict[int, ShardEngine]:
    """Instantiate one engine per populated shard over the net's live
    device objects (inline backend; also used directly by tests that
    need to instrument worker state before driving the protocol). The
    engines run the plan narrowed to the routes of ``injections``, as
    :func:`run_sharded` does for either backend."""
    return _engines(net, *_assign_injections(net, plan, injections, drain_s))


# -- entry point ------------------------------------------------------------


def run_sharded(
    net,
    injections: Sequence[TimedPacket],
    shards: int,
    *,
    backend: str = "process",
    seed: int = 2024,
    drain_s: float = 1.0,
    chaos: FaultPlan | None = None,
) -> ScaleReport:
    """Partition ``net`` and run ``injections`` across shards.

    ``injections`` is a list of timed packets or a
    :class:`~repro.simulator.flowgen.Series`. A generated series
    (``e20_workload``, ``ConstantRate``) builds a fresh packet on every
    read, so a caller who wants to inspect the processed packets after
    the run passes ``list(workload)`` and keeps that list.

    ``drain_s`` sets the quiet horizon after the last injection; every
    packet must finish inside it or the run fails loudly (the horizon
    rule of :mod:`repro.scale.shard`). Like ``run_traffic``, the run
    mutates device state. The one-shard run (``run_traffic``) carries
    the consistency checker; N shards do not yet (ROADMAP item 5), so
    use ``run_traffic`` for consistency experiments.

    ``chaos`` arms FlexMend worker-fault injection (``WorkerCrash`` /
    ``WorkerStall`` / ``HandoffDrop`` / ``HandoffDup`` specs from a
    :class:`~repro.faults.plan.FaultPlan`); process backend only. A
    crash or stall spec that never fires raises ``SimulationError``.
    Under the process backend any worker death, injected or not, is
    recovered by re-execution within ``limits.MEND_MAX_RESTARTS``.
    """
    plan = plan_shards(net.controller, shards, seed=seed)
    # One protocol for both backends: the edges are those the routes of
    # this run cross, not every shard boundary a link happens to span.
    plan, per_shard, end_time = _assign_injections(net, plan, injections, drain_s)
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
        import multiprocessing

        from repro.scale.mend import Supervisor

        if multiprocessing.get_start_method(allow_none=False) != "fork" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            raise SimulationError(
                "flexscale process backend requires the fork start method "
                "(device closures are inherited, not pickled); "
                "use backend='inline' on this platform"
            )
        # The FlexMend supervisor (:mod:`repro.scale.mend`) owns the
        # workers, fault injection and restart.
        supervisor = Supervisor(net, plan, per_shard, end_time, chaos=chaos)
        results, mend, registry = supervisor.run()
        return _merge_results(
            plan, "process", end_time, results, mend=mend, extra_registry=registry
        )
    raise SimulationError(f"unknown flexscale backend {backend!r}")

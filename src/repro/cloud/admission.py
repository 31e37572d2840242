"""FlexCloud front 1: batched/async tenant admission.

The paper's §1.1 churn story ("summon the DDoS defense") implies
thousands of tenant deltas arriving *concurrently* — yet a synchronous
``admit_tenant`` call serializes one full reconfiguration window per
delta. This module turns admission into a scheduled, coalesced stream:

* :class:`AdmissionQueue` — ``submit(delta) -> Ticket`` enqueues tenant
  admits / evicts / updates asynchronously into bounded per-SLA-class
  queues. A submission past a class's depth bound is **shed** at the
  door with a typed :class:`ShedReason`; everything admitted to a queue
  eventually drains in strict submission order.
* :class:`Coalescer` — folds a scheduling round's compatible deltas
  (tenant-disjoint, same consistency, non-conflicting shared-field
  writes, at most one FlexVet-pinned extension per window) into one
  batch, which the executor lands as **one reconfiguration window per
  device per round** instead of one per delta.
* :class:`CloudEngine` — the drain loop: every ``ADMISSION_ROUND_S`` it
  asks :func:`~repro.control.scheduler.plan_admission_round` for
  weighted per-class shares of the round budget, takes that many
  tickets, coalesces, and executes. Tickets that cannot fold this round
  are **deferred** (requeued at the head, so they re-drain first, still
  in submission order). With FlexHA attached, every batch is first
  committed to the Raft log (``HACommand(kind="cloud")``) so the queue
  survives leader fail-over, and rounds only drain while a live leader
  exists.

Determinism: every decision (shed, defer, fold, share split) is a pure
function of the submission sequence and the round clock — two engines
fed the same deltas at the same virtual times produce byte-identical
outcome streams, which is what lets E22 gate coalesced-vs-serial
equivalence.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ChannelError, ControlPlaneError, FlexNetError, StaleEpochError
from repro.lang.composition import TenantSpec, shared_field_writes
from repro.lang.ir import Program
from repro.limits import (
    ADMISSION_CLASS_POLICIES,
    ADMISSION_ROUND_BUDGET,
    ADMISSION_ROUND_S,
)
from repro.runtime.consistency import ConsistencyLevel

from repro.control.scheduler import plan_admission_round

__all__ = [
    "AdmissionOutcome",
    "AdmissionQueue",
    "CloudEngine",
    "Coalescer",
    "ExecutionResult",
    "ExtensionExecutor",
    "ShedReason",
    "TenantDelta",
    "Ticket",
]


class ShedReason(enum.Enum):
    """Why a submission was refused admission to the queue."""

    #: the tenant class's queue is at its depth bound (backpressure).
    QUEUE_FULL = "queue_full"
    #: the delta names an SLA class with no configured policy.
    UNKNOWN_CLASS = "unknown_class"


@dataclass(frozen=True)
class TenantDelta:
    """One asynchronous tenant churn operation.

    Two lanes share this shape. The **extension lane** (``spec`` +
    ``extension`` set) composes a real FlexBPF extension through the
    controller — the full §3 admission pipeline. The **entry lane**
    (``value`` only) represents the tenant as one entry in a
    fleet-replicated admission map (see
    :mod:`repro.cloud.scenarios`) — the shape that scales to 10⁴–10⁶
    tenants, where admits/evicts/updates become batched map writes.
    """

    kind: str  # "admit" | "evict" | "update"
    tenant: str
    sla_class: str = "bronze"
    #: extension lane: the tenant spec + extension program to compose.
    spec: TenantSpec | None = None
    extension: Program | None = None
    #: entry lane: admission-map value (0 == evicted).
    value: int = 1
    consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE

    def __post_init__(self) -> None:
        if self.kind not in ("admit", "evict", "update"):
            raise ValueError(f"unknown delta kind {self.kind!r}")


@dataclass(frozen=True)
class AdmissionOutcome:
    """The terminal decision for one ticket (FlexScope Reportable)."""

    ticket_id: int
    tenant: str
    sla_class: str
    decision: str  # "applied" | "shed" | "failed"
    reason: ShedReason | None = None
    error: str | None = None
    submitted_at: float = 0.0
    resolved_at: float = 0.0
    rounds_deferred: int = 0

    @property
    def latency_s(self) -> float:
        return self.resolved_at - self.submitted_at

    def summary(self) -> str:
        head = (
            f"ticket {self.ticket_id} [{self.sla_class}] {self.tenant}: "
            f"{self.decision}"
        )
        if self.reason is not None:
            head += f" ({self.reason.value})"
        if self.error is not None:
            head += f" ({self.error})"
        head += f" after {self.latency_s:.3f}s"
        if self.rounds_deferred:
            head += f", deferred {self.rounds_deferred} round(s)"
        return head

    def to_dict(self) -> dict:
        return {
            "ticket_id": self.ticket_id,
            "tenant": self.tenant,
            "sla_class": self.sla_class,
            "decision": self.decision,
            "reason": None if self.reason is None else self.reason.value,
            "error": self.error,
            "submitted_at": round(self.submitted_at, 9),
            "resolved_at": round(self.resolved_at, 9),
            "latency_s": round(self.latency_s, 9),
            "rounds_deferred": self.rounds_deferred,
        }


@dataclass
class Ticket:
    """The caller's handle on one submitted delta.

    States: ``pending`` (queued), ``replicating`` (committed to the
    Raft log, awaiting the leader's apply), ``applied``, ``shed``,
    ``failed``. Deferred tickets stay ``pending`` — deferral is a
    scheduling event, not a state."""

    ticket_id: int
    delta: TenantDelta
    submitted_at: float
    state: str = "pending"
    rounds_deferred: int = 0
    outcome: AdmissionOutcome | None = None
    #: extension lane: the TransitionOutcome of the window that applied
    #: this ticket (shared by every ticket folded into the window).
    result: object = None
    #: terminal failure, preserved for synchronous wrappers to re-raise.
    error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.state in ("applied", "shed", "failed")

    def summary(self) -> str:
        if self.outcome is not None:
            return self.outcome.summary()
        return (
            f"ticket {self.ticket_id} [{self.delta.sla_class}] "
            f"{self.delta.tenant}: {self.state}"
        )

    def to_dict(self) -> dict:
        if self.outcome is not None:
            return self.outcome.to_dict()
        return {
            "ticket_id": self.ticket_id,
            "tenant": self.delta.tenant,
            "sla_class": self.delta.sla_class,
            "decision": self.state,
            "submitted_at": round(self.submitted_at, 9),
            "rounds_deferred": self.rounds_deferred,
        }


class AdmissionQueue:
    """Bounded per-SLA-class FIFO queues with global submission order.

    Ticket ids are the submission sequence; each class queue is FIFO by
    ticket id, so merging class drains by ticket id reconstructs global
    submission order exactly. ``requeue`` puts deferred tickets back at
    the head, preserving that invariant."""

    def __init__(self, policies: dict[str, tuple[int, int]] | None = None):
        self.policies = dict(policies if policies is not None else ADMISSION_CLASS_POLICIES)
        self._queues: dict[str, deque[Ticket]] = {name: deque() for name in self.policies}
        self._seq = 0
        self.submitted = 0
        self.shed = 0

    def submit(self, delta: TenantDelta, now: float) -> Ticket:
        """Admit a delta to its class queue, or shed it with a typed
        reason. The returned ticket is terminal when shed."""
        self._seq += 1
        ticket = Ticket(ticket_id=self._seq, delta=delta, submitted_at=now)
        self.submitted += 1
        policy = self.policies.get(delta.sla_class)
        if policy is None:
            return self._shed(ticket, ShedReason.UNKNOWN_CLASS, now)
        depth, _weight = policy
        queue = self._queues[delta.sla_class]
        if len(queue) >= depth:
            return self._shed(ticket, ShedReason.QUEUE_FULL, now)
        queue.append(ticket)
        return ticket

    def _shed(self, ticket: Ticket, reason: ShedReason, now: float) -> Ticket:
        self.shed += 1
        ticket.state = "shed"
        ticket.outcome = AdmissionOutcome(
            ticket_id=ticket.ticket_id,
            tenant=ticket.delta.tenant,
            sla_class=ticket.delta.sla_class,
            decision="shed",
            reason=reason,
            submitted_at=now,
            resolved_at=now,
        )
        return ticket

    def depths(self) -> dict[str, int]:
        return {name: len(queue) for name, queue in self._queues.items()}

    def weights(self) -> dict[str, int]:
        return {name: weight for name, (_depth, weight) in self.policies.items()}

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def take(self, shares: dict[str, int]) -> list[Ticket]:
        """Pop each class's share and merge back into submission order."""
        taken: list[Ticket] = []
        for name in sorted(shares):
            queue = self._queues.get(name)
            if queue is None:
                continue
            for _ in range(min(shares[name], len(queue))):
                taken.append(queue.popleft())
        taken.sort(key=lambda t: t.ticket_id)
        return taken

    def requeue(self, tickets: list[Ticket]) -> None:
        """Return deferred tickets to the *head* of their class queues
        (submission order preserved: heads are re-sorted by ticket id)."""
        for ticket in sorted(tickets, key=lambda t: t.ticket_id, reverse=True):
            ticket.rounds_deferred += 1
            self._queues[ticket.delta.sla_class].appendleft(ticket)


class Coalescer:
    """Folds one round's extension-lane tickets into compatible batches.

    A batch executes as ONE composition + ONE hitless transition
    (:meth:`~repro.control.controller.FlexNetController.admit_tenants_batch`),
    so the fold rules guard exactly what could make a folded window
    diverge from serial per-delta admission:

    * **one op per tenant per round** — a later op on a tenant already
      in this round is deferred (keeps per-tenant serial order);
    * **consistency runs** — consecutive tickets sharing a consistency
      level fold; a level change starts a new batch (batches execute in
      submission order, so cross-batch order is preserved);
    * **shared-field writes** — an admit whose extension writes a
      shared (non-tenant-local) header field already written by an
      earlier admit in the batch starts a new batch, so the inevitable
      :class:`~repro.errors.CompositionError` fails only the offending
      ticket instead of poisoning the window;
    * **FlexVet pinning** — at most one admit whose extension carries a
      pinned (non-shardable) affinity group per batch: pinned state is
      the state FlexScale cannot split, so we conservatively avoid
      stacking two such tenants into one window;
    * **updates ride alone** — an extension-lane update is
      evict-then-readmit (two transitions) and never folds.
    """

    def __init__(self) -> None:
        self._vet_cache: dict[int, tuple[bool, frozenset[str]]] = {}

    def _profile(self, extension: Program) -> tuple[bool, frozenset[str]]:
        """(has pinned affinity group, shared header fields written)."""
        cached = self._vet_cache.get(id(extension))
        if cached is not None:
            return cached
        from repro.analysis import vet

        report = vet(extension)
        pinned = any(not group.shardable for group in report.groups)
        local = {h.name for h in extension.headers} - set(_STANDARD_HEADER_NAMES)
        writes = frozenset(str(ref) for ref in shared_field_writes(extension, local))
        profile = (pinned, writes)
        self._vet_cache[id(extension)] = profile
        return profile

    def fold(self, tickets: list[Ticket]) -> tuple[list[list[Ticket]], list[Ticket]]:
        """Return ``(batches, deferred)``; batches execute in order."""
        batches: list[list[Ticket]] = []
        deferred: list[Ticket] = []
        seen_tenants: set[str] = set()
        current: list[Ticket] = []
        current_consistency: ConsistencyLevel | None = None
        current_writes: set[str] = set()
        current_pinned = False

        def close() -> None:
            nonlocal current, current_writes, current_pinned, current_consistency
            if current:
                batches.append(current)
            current = []
            current_writes = set()
            current_pinned = False
            current_consistency = None

        for ticket in tickets:
            delta = ticket.delta
            if delta.tenant in seen_tenants:
                deferred.append(ticket)
                continue
            seen_tenants.add(delta.tenant)
            if delta.kind == "update":
                close()
                batches.append([ticket])
                continue
            pinned, writes = (False, frozenset())
            if delta.kind == "admit" and delta.extension is not None:
                pinned, writes = self._profile(delta.extension)
            if current and (
                delta.consistency is not current_consistency
                or (writes & current_writes)
                or (pinned and current_pinned)
            ):
                close()
            current.append(ticket)
            current_consistency = delta.consistency
            current_writes |= writes
            current_pinned = current_pinned or pinned
        close()
        return batches, deferred


_STANDARD_HEADER_NAMES = ("ethernet", "ipv4", "tcp")


@dataclass
class ExecutionResult:
    """What one coalesced window (or serial fallback chain) produced."""

    windows: int = 0
    applied: list[Ticket] = field(default_factory=list)
    deferred: list[Ticket] = field(default_factory=list)
    failed: list[tuple[Ticket, Exception]] = field(default_factory=list)


class ExtensionExecutor:
    """Extension-lane window executor: lands a batch through the
    controller's single admission path
    (:meth:`~repro.control.controller.FlexNetController.admit_tenants_batch`).

    A batch failure falls back to serial per-ticket execution so the
    failure attaches to the offending ticket and the rest of the window
    still lands. Transient channel/fencing errors defer (the round
    retries), every other :class:`~repro.errors.FlexNetError` fails the
    ticket terminally."""

    def __init__(self, controller, on_applied=None):
        self.controller = controller
        #: called after every successful window (FlexNet refreshes the
        #: datapath view here).
        self.on_applied = on_applied

    def execute(
        self,
        batch: list[Ticket],
        *,
        epoch: int | None = None,
        dispatch_gate=None,
    ) -> ExecutionResult:
        update_tickets = [t for t in batch if t.delta.kind == "update"]
        if update_tickets:
            if len(batch) != 1:
                raise ControlPlaneError("update tickets must ride alone in a batch")
            return self._execute_update(batch[0], epoch=epoch, dispatch_gate=dispatch_gate)
        admits = [
            (t.delta.spec, t.delta.extension) for t in batch if t.delta.kind == "admit"
        ]
        evicts = [t.delta.tenant for t in batch if t.delta.kind == "evict"]
        consistency = batch[0].delta.consistency
        result = ExecutionResult()
        try:
            outcome = self.controller.admit_tenants_batch(
                admits,
                evicts,
                consistency=consistency,
                ops=len(batch),
                epoch=epoch,
                dispatch_gate=dispatch_gate,
            )
        except (ChannelError, StaleEpochError):
            result.deferred.extend(batch)
            return result
        except FlexNetError as exc:
            if len(batch) == 1:
                result.failed.append((batch[0], exc))
                return result
            # Serial fallback: re-drive each ticket alone so the failure
            # attaches per-ticket. Version accounting is unchanged —
            # each one-ticket window advances the version by one.
            for ticket in batch:
                sub = self.execute([ticket], epoch=epoch, dispatch_gate=dispatch_gate)
                result.windows += sub.windows
                result.applied.extend(sub.applied)
                result.deferred.extend(sub.deferred)
                result.failed.extend(sub.failed)
            return result
        result.windows = max(len(outcome.report.device_windows), 1)
        for ticket in batch:
            ticket.result = outcome
        result.applied.extend(batch)
        if self.on_applied is not None:
            self.on_applied()
        return result

    def _execute_update(
        self, ticket: Ticket, *, epoch: int | None = None, dispatch_gate=None
    ) -> ExecutionResult:
        """Extension-lane update: evict the old extension, admit the
        new one — two transitions, exactly what serial churn would do."""
        delta = ticket.delta
        result = ExecutionResult()
        try:
            first = self.controller.admit_tenants_batch(
                (),
                [delta.tenant],
                consistency=delta.consistency,
                epoch=epoch,
                dispatch_gate=dispatch_gate,
            )
            second = self.controller.admit_tenants_batch(
                [(delta.spec, delta.extension)],
                (),
                consistency=delta.consistency,
                epoch=epoch,
                dispatch_gate=dispatch_gate,
            )
        except (ChannelError, StaleEpochError):
            result.deferred.append(ticket)
            return result
        except FlexNetError as exc:
            result.failed.append((ticket, exc))
            return result
        result.windows = max(len(first.report.device_windows), 1) + max(
            len(second.report.device_windows), 1
        )
        ticket.result = second
        result.applied.append(ticket)
        if self.on_applied is not None:
            self.on_applied()
        return result


class CloudEngine:
    """The FlexCloud drain loop; see the module docstring.

    ``executor`` is any object with
    ``execute(batch, *, epoch=None, dispatch_gate=None) -> ExecutionResult``
    and optionally ``plan(tickets) -> (batches, deferred)``; without
    ``plan``, the built-in :class:`Coalescer` folds (extension lane).
    """

    def __init__(
        self,
        executor,
        *,
        clock=None,
        round_s: float = ADMISSION_ROUND_S,
        budget: int = ADMISSION_ROUND_BUDGET,
        policies: dict[str, tuple[int, int]] | None = None,
        coalesce: bool = True,
        observer=None,
    ):
        self.executor = executor
        self.queue = AdmissionQueue(policies)
        self.coalescer = Coalescer()
        self.round_s = round_s
        self.budget = budget
        self.coalesce = coalesce
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._observer = observer
        #: FlexHA wiring (attach_ha): batches replicate before applying.
        self.ha = None
        self._inflight: dict[int, tuple[list[Ticket], object, int]] = {}

        self.rounds = 0
        self.rounds_skipped = 0
        self.windows = 0
        self.applied = 0
        self.failed = 0
        self.deferrals = 0
        self.transient_deferrals = 0
        self.latency_sum_s = 0.0
        self._latency_by_class: dict[str, tuple[int, float]] = {}
        self._scheduled = False

    # -- submission ---------------------------------------------------------

    def submit(self, delta: TenantDelta, now: float | None = None) -> Ticket:
        now = self._clock() if now is None else now
        ticket = self.queue.submit(delta, now)
        observer = self._observer
        if observer is not None:
            observer.metrics.counter(
                "flexnet_cloud_submitted_total",
                help="tenant deltas submitted to the admission queue",
                sla=delta.sla_class,
            ).inc()
            if ticket.state == "shed":
                observer.metrics.counter(
                    "flexnet_cloud_deltas_total",
                    help="terminal admission decisions",
                    decision="shed",
                    sla=delta.sla_class,
                ).inc()
            observer.metrics.gauge(
                "flexnet_cloud_queue_depth",
                help="queued tenant deltas per SLA class",
                sla=delta.sla_class,
            ).set(self.queue.depths().get(delta.sla_class, 0))
        return ticket

    # -- the scheduling round ----------------------------------------------

    def drain_round(self, now: float | None = None) -> int:
        """Run one scheduling round; returns the tickets resolved."""
        now = self._clock() if now is None else now
        self.rounds += 1
        if self.ha is not None:
            leader = self.ha.cluster.leader()
            if leader is None:
                # Leader-gated drain: nothing leaves the queue while the
                # cluster is electing — the queue *is* the durability.
                self.rounds_skipped += 1
                return 0
            self._repropose_stale(leader)
        shares = plan_admission_round(
            self.queue.depths(), self.budget, self.queue.weights()
        )
        taken = self.queue.take(shares)
        if not taken:
            return 0
        if self.coalesce:
            plan = getattr(self.executor, "plan", None)
            if plan is not None:
                batches, deferred = plan(taken)
            else:
                batches, deferred = self.coalescer.fold(taken)
        else:
            batches, deferred = [[ticket] for ticket in taken], []
        if deferred:
            self._defer(deferred)
        resolved = 0
        for batch in batches:
            resolved += self._dispatch(batch, now)
        if self._observer is not None:
            self._emit_round_metrics()
        return resolved

    def drain_until_idle(self, now: float | None = None, max_rounds: int = 10_000) -> int:
        """Drain rounds back-to-back until the queue and the in-flight
        set are empty (the synchronous wrapper path)."""
        now = self._clock() if now is None else now
        total = 0
        for _ in range(max_rounds):
            if not len(self.queue) and not self._inflight:
                break
            before = len(self.queue) + len(self._inflight)
            total += self.drain_round(now)
            if len(self.queue) + len(self._inflight) >= before:
                break  # no forward progress (e.g. leaderless) — stop
        return total

    def start(self, loop) -> None:
        """Schedule recurring rounds on an event loop (controller
        integration: rounds interleave with traffic and transitions)."""
        if self._scheduled:
            return
        self._scheduled = True

        def tick() -> None:
            self.drain_round(loop.now)
            loop.schedule(self.round_s, tick)

        loop.schedule(self.round_s, tick)

    # -- execution ----------------------------------------------------------

    def _dispatch(self, batch: list[Ticket], now: float) -> int:
        if self.ha is not None:
            return self._dispatch_replicated(batch, now)
        result = self.executor.execute(batch)
        return self._record(batch, result, now)

    def _dispatch_replicated(self, batch: list[Ticket], now: float) -> int:
        payload = tuple(
            (t.delta.kind, t.delta.tenant, t.delta.sla_class) for t in batch
        )
        command = self.ha.submit_cloud(payload, batch[0].delta.consistency)
        if command is None:
            self._defer(batch)
            return 0
        for ticket in batch:
            ticket.state = "replicating"
        leader = self.ha.cluster.leader()
        self._inflight[command.delta_id] = (
            batch,
            command,
            leader.current_term if leader is not None else 0,
        )
        return 0

    def _ha_apply(self, command, *, epoch=None, dispatch_gate=None) -> None:
        """FlexHA apply callback: the committed batch executes on
        whichever node now leads. Idempotence is FlexHA's (delta-id
        guard); here we just finalize the tickets."""
        entry = self._inflight.pop(command.delta_id, None)
        if entry is None:
            return
        batch, _command, _term = entry
        result = self.executor.execute(batch, epoch=epoch, dispatch_gate=dispatch_gate)
        self._record(batch, result, self._clock())

    def _repropose_stale(self, leader) -> None:
        """A committed-but-unapplied batch survives fail-over via the
        log; a batch whose proposal was *lost* with its leader does not.
        Once a newer term leads, re-propose any still-inflight batch
        under its original delta id — the executed-id guard makes a
        double commit harmless."""
        for delta_id in sorted(self._inflight):
            batch, command, term = self._inflight[delta_id]
            if leader.current_term > term and not self.ha.was_executed(delta_id):
                if self.ha.repropose(command):
                    self._inflight[delta_id] = (batch, command, leader.current_term)

    def _defer(self, tickets: list[Ticket]) -> None:
        self.deferrals += len(tickets)
        for ticket in tickets:
            ticket.state = "pending"
        self.queue.requeue(tickets)

    def _record(self, batch: list[Ticket], result: ExecutionResult, now: float) -> int:
        self.windows += result.windows
        resolved = 0
        for ticket in result.applied:
            self._finalize(ticket, "applied", now)
            resolved += 1
        for ticket, error in result.failed:
            ticket.error = error
            self._finalize(ticket, "failed", now, error=f"{type(error).__name__}: {error}")
            resolved += 1
        if result.deferred:
            self.transient_deferrals += len(result.deferred)
            self._defer(result.deferred)
        return resolved

    def _finalize(self, ticket: Ticket, decision: str, now: float, error: str | None = None):
        ticket.state = decision
        ticket.outcome = AdmissionOutcome(
            ticket_id=ticket.ticket_id,
            tenant=ticket.delta.tenant,
            sla_class=ticket.delta.sla_class,
            decision=decision,
            error=error,
            submitted_at=ticket.submitted_at,
            resolved_at=now,
            rounds_deferred=ticket.rounds_deferred,
        )
        if decision == "applied":
            self.applied += 1
            latency = ticket.outcome.latency_s
            self.latency_sum_s += latency
            count, total = self._latency_by_class.get(ticket.delta.sla_class, (0, 0.0))
            self._latency_by_class[ticket.delta.sla_class] = (count + 1, total + latency)
        else:
            self.failed += 1
        observer = self._observer
        if observer is not None:
            observer.metrics.counter(
                "flexnet_cloud_deltas_total",
                help="terminal admission decisions",
                decision=decision,
                sla=ticket.delta.sla_class,
            ).inc()
            if decision == "applied":
                observer.metrics.histogram(
                    "flexnet_cloud_admission_latency_seconds",
                    help="submit-to-applied latency",
                    sla=ticket.delta.sla_class,
                ).observe(ticket.outcome.latency_s)

    def _emit_round_metrics(self) -> None:
        metrics = self._observer.metrics
        for sla, depth in sorted(self.queue.depths().items()):
            metrics.gauge(
                "flexnet_cloud_queue_depth",
                help="queued tenant deltas per SLA class",
                sla=sla,
            ).set(depth)
        metrics.counter(
            "flexnet_cloud_rounds_total", help="admission scheduling rounds"
        ).set(self.rounds)
        metrics.counter(
            "flexnet_cloud_windows_total",
            help="coalesced per-device reconfiguration windows executed",
        ).set(self.windows)
        metrics.gauge(
            "flexnet_cloud_coalesce_ratio",
            help="applied deltas per reconfiguration window",
        ).set(round(self.coalesce_ratio, 6))

    # -- HA wiring ----------------------------------------------------------

    def attach_ha(self, ha) -> None:
        """Replicate every batch through the Raft log before applying:
        the admission queue survives leader fail-over because committed
        batches re-apply on the successor and uncommitted batches stay
        queued (or are re-proposed) on the engine side."""
        self.ha = ha
        ha.cloud_apply = self._ha_apply

    # -- introspection ------------------------------------------------------

    @property
    def coalesce_ratio(self) -> float:
        return self.applied / self.windows if self.windows else 0.0

    def latency_by_class(self) -> dict[str, float]:
        return {
            sla: total / count
            for sla, (count, total) in sorted(self._latency_by_class.items())
            if count
        }

    def stats(self) -> dict:
        return {
            "rounds": self.rounds,
            "rounds_skipped": self.rounds_skipped,
            "submitted": self.queue.submitted,
            "applied": self.applied,
            "shed": self.queue.shed,
            "failed": self.failed,
            "deferrals": self.deferrals,
            "transient_deferrals": self.transient_deferrals,
            "windows": self.windows,
            "coalesce_ratio": round(self.coalesce_ratio, 6),
            "queue_depth": sum(self.queue.depths().values()),
            "inflight": len(self._inflight),
            "latency_mean_s_by_class": {
                sla: round(mean, 9) for sla, mean in self.latency_by_class().items()
            },
        }

"""FlexHA: controller fail-over, fenced reconfiguration, device resync.

The paper's §3.4 observes that "logically centralized controllers are
realized in physically distributed nodes, which brings classic
distributed systems concerns on consensus and availability". FlexFault
hardened the *device* side of the fault model; this module closes the
controller side:

* **Replicated state machine** — the live controller runs over the
  Raft cluster of :mod:`repro.control.consensus`. Every accepted
  update delta is proposed as an :class:`HACommand`, committed to the
  Raft log *before* any device reconfiguration window opens, and
  executed by the apply callback on whichever node currently leads.
  Raft snapshots compact the log and catch lagging replicas up fast.

* **Fencing epochs** — every P4Runtime mutation and every
  orchestrated window start carries the proposing leader's term as a
  fencing epoch. Devices ratchet a per-device watermark
  (:meth:`~repro.runtime.device.DeviceRuntime.admit_epoch`) and reject
  anything older, so a deposed leader still writing from the wrong
  side of a partition can never corrupt device state. Each
  self-believed leader renews its lease every heartbeat, which is
  exactly how a deposed leader's writes surface as rejections.

* **Resync sweep** — a newly elected leader proposes a no-op barrier
  (committing every prior-term entry, per Raft §5.4.2); when the
  barrier applies, the leader reads back each device's ground truth
  (:meth:`~repro.control.p4runtime.P4RuntimeClient.read_ground_truth`),
  diffs it against the committed log's intent, resolves stranded
  devices, re-drives devices whose windows the dead leader never
  opened, and stamps its epoch everywhere. A leader skips delta ids it
  already executed (``FlexHA._executed``), and the sweep re-drives only
  a device on an older version with no window open or scheduled.

The whole layer is deterministic in simulated time: same seed, same
fault plan, byte-identical :meth:`FlexHA.status`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ChannelError, ConsensusError, ControlPlaneError, FlexNetError
from repro.lang.delta import Delta, apply_delta
from repro.limits import HEARTBEAT_INTERVAL_S
from repro.runtime.consistency import ConsistencyLevel
from repro.runtime.reconfig import DEFAULT_REFRESH_S, OPEN, ControlAction, TransitionReport

from repro.control.consensus import ControllerCluster, RaftNode, Role

__all__ = ["FlexHA", "HACommand", "FailoverRecord"]


@dataclass(frozen=True)
class HACommand:
    """One replicated controller command in the Raft log.

    ``kind="update"`` carries a delta to execute; ``kind="noop"`` is a
    new leader's barrier entry (its application triggers the resync
    sweep); ``kind="cloud"`` carries a FlexCloud coalesced tenant batch
    (``payload`` describes the folded deltas — the admission engine
    registered via :attr:`FlexHA.cloud_apply` executes it). ``delta_id``
    makes execution idempotent: a command re-driven by a successor
    leader is recognized and skipped.
    """

    delta_id: int
    kind: str = "update"
    delta: Delta | None = None
    consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PATH
    payload: object = None


@dataclass
class FailoverRecord:
    """One observed leadership hand-off."""

    term: int
    leader: str
    at_s: float
    #: leadership-lost -> first resync complete (None until measured).
    downtime_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "term": self.term,
            "leader": self.leader,
            "at_s": round(self.at_s, 6),
            "downtime_s": None if self.downtime_s is None else round(self.downtime_s, 6),
        }


class FlexHA:
    """Controller high availability over the existing Raft module.

    Attach to a live :class:`~repro.control.controller.FlexNetController`;
    route updates through :meth:`submit_update` instead of calling
    ``transition_to`` directly, and the update is linearized by Raft,
    executed by the current leader with fencing, and survives leader
    crashes and partitions (chaos scenario E19).
    """

    def __init__(
        self,
        controller,
        node_count: int = 3,
        seed: int = 0,
        fencing: bool = True,
    ):
        self.controller = controller
        self.fencing = fencing
        self.cluster = ControllerCluster(
            controller.loop,
            node_count=node_count,
            seed=seed,
            apply_factory=self._apply_factory,
            snapshot_threshold=8,
        )
        self._delta_ids = itertools.count(1)
        #: delta ids already executed against the network — the
        #: idempotence guard that lets a successor leader re-apply the
        #: committed log without double-driving transitions.
        self._executed: set[int] = set()
        self._leader_key: tuple[str, int] | None = None
        self._had_leader = False
        self._leader_lost_at: float | None = None

        #: FlexCloud hook (set by CloudEngine.attach_ha): executes a
        #: committed ``kind="cloud"`` batch on the current leader.
        self.cloud_apply = None
        self.cloud_submitted = 0
        self.cloud_executed = 0

        self.failovers: list[FailoverRecord] = []
        self.submitted = 0
        self.executed_updates = 0
        self.update_errors: list[str] = []
        self.resyncs = 0
        self.resync_reads = 0
        self.resync_read_failures = 0
        self.resync_skipped = 0
        self.devices_redriven = 0
        self.stranded_resolved = 0
        self.health_resyncs = 0
        #: fencing at work: a deposed leader's lease renewals / writes
        #: rejected by device watermarks...
        self.epoch_rejections = 0
        #: ...or, with ``fencing=False``, silently applied (the baseline
        #: corruption count E19 contrasts against).
        self.stale_writes_applied = 0
        self.max_term = 0

        controller.ha = self
        controller.orchestrator.ha = self
        self._tick()

    # -- replicated state machine ------------------------------------------------

    def _apply_factory(self, node_id: str):
        def apply(command: object) -> None:
            self._on_apply(node_id, command)

        return apply

    def submit_update(
        self,
        delta: Delta,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PATH,
    ) -> int | None:
        """Propose an update through the current Raft leader.

        Returns the assigned delta id, or None when no leader is
        reachable (retry after an election settles). The transition's
        device windows open only once the command commits and the
        leader's apply callback executes it.
        """
        leader = self.cluster.leader()
        if leader is None:
            return None
        delta_id = next(self._delta_ids)
        command = HACommand(delta_id=delta_id, delta=delta, consistency=consistency)
        try:
            leader.propose(command)
        except ConsensusError:
            return None
        self.submitted += 1
        return delta_id

    def submit_cloud(
        self,
        payload: object,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
    ) -> "HACommand | None":
        """Propose one FlexCloud coalesced batch through the current
        leader. Returns the proposed command (carrying its delta id), or
        None when no leader is reachable — the admission engine keeps
        the batch queued and retries next round, which is exactly the
        leader-gated drain the queue's durability rests on."""
        leader = self.cluster.leader()
        if leader is None:
            return None
        command = HACommand(
            delta_id=next(self._delta_ids),
            kind="cloud",
            consistency=consistency,
            payload=payload,
        )
        try:
            leader.propose(command)
        except ConsensusError:
            return None
        self.cloud_submitted += 1
        return command

    def repropose(self, command: "HACommand") -> bool:
        """Re-propose a command whose original proposal may have died
        with its leader (same delta id — the executed guard makes a
        double commit a no-op)."""
        leader = self.cluster.leader()
        if leader is None:
            return False
        try:
            leader.propose(command)
        except ConsensusError:
            return False
        return True

    def was_executed(self, delta_id: int) -> bool:
        return delta_id in self._executed

    def _on_apply(self, node_id: str, command: object) -> None:
        if not isinstance(command, HACommand):
            return
        node = self.cluster.nodes[node_id]
        # Commands execute against the (single, shared) network only on
        # the node that currently leads; followers apply to their state
        # machines silently and stand ready to take over.
        if node.role is not Role.LEADER:
            return
        if command.kind == "noop":
            self._resync(node)
            return
        if command.kind == "cloud":
            if command.delta_id in self._executed or self.cloud_apply is None:
                return
            self._executed.add(command.delta_id)
            term = node.current_term
            try:
                self.cloud_apply(
                    command,
                    epoch=term if self.fencing else None,
                    dispatch_gate=(node_id, term),
                )
                self.cloud_executed += 1
            except FlexNetError as exc:
                self.update_errors.append(f"{type(exc).__name__}: {exc}")
            return
        if command.delta_id in self._executed or command.delta is None:
            return
        self._executed.add(command.delta_id)
        term = node.current_term
        controller = self.controller
        try:
            new_program, changes = apply_delta(controller.program, command.delta)
            controller.transition_to(
                new_program,
                changes,
                command.consistency,
                epoch=term if self.fencing else None,
                dispatch_gate=(node_id, term),
                delta_id=command.delta_id,
            )
            self.executed_updates += 1
        except FlexNetError as exc:
            self.update_errors.append(f"{type(exc).__name__}: {exc}")

    def leads(self, node_id: str, term: int) -> bool:
        """True while the proposing leader is still alive *and* still
        the leader of the same term — the condition under which its
        scheduled window starts (gated ``(node_id, term)``) may dispatch.
        Anything else (crashed, deposed, new term) suppresses the start;
        the successor's resync re-drives the affected devices from the
        committed log."""
        node = self.cluster.nodes[node_id]
        return (
            self.cluster.bus.reachable(node_id, node_id)
            and node.role is Role.LEADER
            and node.current_term == term
        )

    # -- fail-over detection + fencing leases -------------------------------------

    def _tick(self) -> None:
        self.controller.loop.schedule(HEARTBEAT_INTERVAL_S, self._on_tick)

    def _on_tick(self) -> None:
        now = self.controller.loop.now
        leader = self.cluster.leader()
        if leader is None:
            if self._had_leader and self._leader_lost_at is None:
                self._leader_lost_at = now
                observer = self.controller.observer
                if observer is not None:
                    observer.tracer.event("ha_leader_lost", now)
        else:
            key = (leader.node_id, leader.current_term)
            if key != self._leader_key:
                self._on_new_leader(leader, now)
        self._renew_leases()
        self._tick()

    def _on_new_leader(self, leader: RaftNode, now: float) -> None:
        previous = self._leader_key
        self._leader_key = (leader.node_id, leader.current_term)
        self._had_leader = True
        self.max_term = max(self.max_term, leader.current_term)
        self.controller.hub.set_epoch(leader.current_term if self.fencing else None)
        if previous is not None:
            # A hand-off (not the bootstrap election). If the old leader
            # was deposed without an observed no-leader gap (partition),
            # downtime starts at the moment the new leader surfaces.
            if self._leader_lost_at is None:
                self._leader_lost_at = now
            self.failovers.append(
                FailoverRecord(term=leader.current_term, leader=leader.node_id, at_s=now)
            )
        observer = self.controller.observer
        if observer is not None:
            observer.tracer.event(
                "ha_leader_elected",
                now,
                leader=leader.node_id,
                term=leader.current_term,
                failover=previous is not None,
            )
            observer.metrics.counter(
                "flexnet_ha_failovers_total", help="controller leadership hand-offs"
            ).inc(0 if previous is None else 1)
        # No-op barrier (Raft §5.4.2): committing it commits every
        # prior-term entry, so the apply callback drains any update the
        # dead leader accepted but never executed — and its own
        # application is the signal that the log is drained, which is
        # when the resync sweep runs.
        try:
            leader.propose(HACommand(delta_id=-leader.current_term, kind="noop"))
        except ConsensusError:
            pass

    def _renew_leases(self) -> None:
        """Every node that *believes* it leads renews its fencing lease
        on every device each heartbeat. For the true leader this
        ratchets watermarks forward; for a deposed leader on the wrong
        side of a partition it surfaces the split: with fencing the
        renewals bounce off the watermark, without fencing they land —
        counted as stale writes applied (the corruption fencing buys
        out of)."""
        for node in self.cluster.nodes.values():
            if node.role is not Role.LEADER:
                continue
            if not self.cluster.bus.reachable(node.node_id, node.node_id):
                continue
            term = node.current_term
            for device in self.controller.devices.values():
                if device.crashed:
                    continue
                if self.fencing:
                    if not device.admit_epoch(term):
                        self.epoch_rejections += 1
                elif term < self.max_term:
                    self.stale_writes_applied += 1

    # -- resync sweep ----------------------------------------------------------------

    def _resync(self, node: RaftNode) -> None:
        controller = self.controller
        now = controller.loop.now
        term = node.current_term
        observer = controller.observer
        span = None
        if observer is not None:
            span = observer.tracer.start_span(
                "ha_resync", "resync", now, leader=node.node_id, term=term
            )
        redriven: list[str] = []
        resolved: list[str] = []
        for name in sorted(controller.devices):
            action = self._resync_one(name, term)
            if action == "redriven":
                redriven.append(name)
            elif action == "resolved":
                resolved.append(name)
        self.resyncs += 1
        self.devices_redriven += len(redriven)
        self.stranded_resolved += len(resolved)
        end = controller.loop.now
        if self._leader_lost_at is not None:
            downtime = end - self._leader_lost_at
            self._leader_lost_at = None
            for record in reversed(self.failovers):
                if record.downtime_s is None:
                    record.downtime_s = downtime
                    break
        if observer is not None:
            observer.tracer.end_span(
                span,
                end,
                redriven=len(redriven),
                resolved=len(resolved),
            )
            observer.metrics.counter(
                "flexnet_ha_resyncs_total", help="leader resync sweeps"
            ).inc()

    def _resync_one(self, name: str, term: int) -> str | None:
        """Resync one device against the committed intent; returns the
        action taken ("redriven", "resolved", None)."""
        controller = self.controller
        device = controller.devices[name]
        if device.crashed:
            # Unreachable: the recovery manager (or the health monitor's
            # release hook) brings it back through resync later.
            self.resync_skipped += 1
            return None
        try:
            truth = controller.hub.client(name).read_ground_truth()
        except (ChannelError, ControlPlaneError):
            self.resync_read_failures += 1
            return None
        self.resync_reads += 1
        action: str | None = None
        if truth.stranded:
            # Crash-frozen mid-delta: roll forward to the committed
            # intent (the journal's resume semantics).
            device.resolve_interrupted(to_new=True)
            action = "resolved"
        try:
            plan = controller.plan
        except ControlPlaneError:
            plan = None  # nothing installed yet: no intent to resync against
        if (
            plan is not None
            # Only devices hosting elements of the current plan must
            # serve the intended version; pass-through devices
            # legitimately keep whatever was installed (they do not
            # stamp packet versions).
            and name in plan.placement.values()
            and not device.in_transition
            # A window already open or scheduled (e.g. by this same
            # apply batch, when the new leader just executed the pending
            # update) will bring the device forward on its own.
            and controller.orchestrator.reserved_until(name) <= controller.loop.now
        ):
            version = (
                device.active_program.version if device.active_program else None
            )
            action = self._redrive(device, plan.program, version) or action
        if self.fencing:
            # Stamp the new epoch even on in-sync devices: from here on
            # any write the deposed leader still has in flight bounces.
            device.admit_epoch(term)
        return action

    def _redrive(self, device, intended, from_version: int | None) -> str | None:
        """Open the window the dead leader never dispatched, if the device
        runs an older version (``from_version``) than intended: the
        orchestrator's ``open`` action, applied at once. It carries no
        epoch and no span, its journal entry resolves as a resync, and
        without a journal its close still settles the window."""
        if from_version is None or from_version >= intended.version:
            return None
        controller = self.controller
        now = controller.loop.now
        action = ControlAction(
            OPEN,
            device.name,
            TransitionReport(started_at=now),
            program=intended,
            duration=DEFAULT_REFRESH_S,
            hosted=set(controller.plan.elements_on(device.name)),
            resolution="resync",
            settle=True,
        )
        try:
            controller.orchestrator.apply_control(action)
        except FlexNetError as exc:
            self.update_errors.append(f"{type(exc).__name__}: {exc}")
            return None
        controller.orchestrator.reserve(device.name, now + DEFAULT_REFRESH_S)
        return "redriven"

    def resync_device(self, name: str) -> bool:
        """Targeted resync of one device (the health monitor calls this
        when a quarantined device recovers: it may have missed whole
        windows while unreachable). Returns True if a leader ran the
        sweep."""
        leader = self.cluster.leader()
        if leader is None or name not in self.controller.devices:
            return False
        self.health_resyncs += 1
        self._resync_one(name, leader.current_term)
        observer = self.controller.observer
        if observer is not None:
            observer.tracer.event(
                "ha_health_resync", self.controller.loop.now, device=name
            )
        return True

    # -- introspection -----------------------------------------------------------------

    @property
    def leader_id(self) -> str | None:
        leader = self.cluster.leader()
        return leader.node_id if leader is not None else None

    @property
    def epoch(self) -> int | None:
        """The fencing epoch currently stamped on mutations."""
        return self.controller.hub.epoch

    def handoff_downtimes_s(self) -> list[float]:
        return [
            record.downtime_s
            for record in self.failovers
            if record.downtime_s is not None
        ]

    def status(self) -> dict:
        """Deterministic snapshot (same seed + scenario => identical)."""
        return {
            "leader": self.leader_id,
            "epoch": self.epoch,
            "fencing": self.fencing,
            "nodes": {
                node_id: {
                    "role": node.role.value,
                    "term": node.current_term,
                    "last_log_index": node.last_log_index,
                    "commit_index": node.commit_index,
                    "applied": node.last_applied,
                    "log_offset": node.log_offset,
                    "snapshots_taken": node.snapshots_taken,
                    "snapshots_installed": node.snapshots_installed,
                }
                for node_id, node in sorted(self.cluster.nodes.items())
            },
            "submitted": self.submitted,
            "executed_updates": self.executed_updates,
            "cloud_submitted": self.cloud_submitted,
            "cloud_executed": self.cloud_executed,
            "update_errors": list(self.update_errors),
            "failovers": [record.to_dict() for record in self.failovers],
            "resyncs": self.resyncs,
            "resync_reads": self.resync_reads,
            "resync_read_failures": self.resync_read_failures,
            "resync_skipped": self.resync_skipped,
            "devices_redriven": self.devices_redriven,
            "stranded_resolved": self.stranded_resolved,
            "health_resyncs": self.health_resyncs,
            "epoch_rejections": self.epoch_rejections,
            "stale_writes_applied": self.stale_writes_applied,
            "device_stale_rejections": {
                name: device.stats.stale_rejections
                for name, device in sorted(self.controller.devices.items())
            },
        }

    def summary(self) -> str:
        return "\n".join(status_lines(self.status()))


def status_lines(status: dict) -> list[str]:
    """A :meth:`FlexHA.status` snapshot, rendered: the body of
    ``FlexHA.summary`` and the ``ha`` section of a controller chaos
    report's summary."""
    nodes = status["nodes"].values()
    return [
        f"ha: leader={status['leader'] or 'none'} epoch={status['epoch']} "
        f"fencing={'on' if status['fencing'] else 'off'}",
        "  nodes: "
        + ", ".join(
            f"{node_id}[{info['role']} t{info['term']}]"
            for node_id, info in status["nodes"].items()
        ),
        f"  log: commit={max(i['commit_index'] for i in nodes)}, "
        f"snapshots taken={sum(i['snapshots_taken'] for i in nodes)}, "
        f"installed={sum(i['snapshots_installed'] for i in nodes)}",
        f"  updates: {status['submitted']} submitted, {status['executed_updates']} executed"
        + (f", {len(status['update_errors'])} error(s)" if status["update_errors"] else ""),
        f"  failovers: {len(status['failovers'])}"
        + (
            " ("
            + ", ".join(
                f"t{r['term']}->{r['leader']}"
                + (f" {r['downtime_s'] * 1000:.0f}ms" if r["downtime_s"] is not None else "")
                for r in status["failovers"]
            )
            + ")"
            if status["failovers"]
            else ""
        ),
        f"  resync: {status['resyncs']} sweep(s), {status['devices_redriven']} re-driven, "
        f"{status['stranded_resolved']} stranded resolved, "
        f"{status['health_resyncs']} health-triggered",
        f"  fencing: {status['epoch_rejections']} stale rejection(s), "
        f"{status['stale_writes_applied']} stale write(s) applied",
    ]

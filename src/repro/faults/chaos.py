"""Seeded chaos scenarios: one fault plan, one live update, one report.

:func:`run_chaos` is the scenario runner behind experiment E16 and the
``flexnet chaos`` CLI. It stands up the canonical 5-hop FlexNet slice,
installs a program, arms a :class:`~repro.faults.plan.FaultPlan`
(device crashes, lossy control channel, stalled migrations), applies a
delta mid-traffic, and reports what survived: delivery, consistency,
per-device convergence, the write-ahead journal, and every
degraded-mode event.

:func:`run_controller_chaos` (experiment E19, ``flexnet chaos
--controller``) runs the same scenario under FlexHA, where the plan's
Raft leader crashes and partitions exercise fail-over, fencing, and the
resync sweep; its report's ``ha`` holds the FlexHA status.

Everything is keyed by the plan's seed — two runs of the same scenario
produce byte-identical ``ChaosReport.to_dict()`` output, which is what
makes fault campaigns regression-testable.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.control.ha import FlexHA, status_lines
from repro.core.flexnet import FlexNet
from repro.errors import ChannelError, FlexNetError
from repro.faults.plan import FaultInjector, FaultPlan
from repro.lang.delta import Delta
from repro.lang.ir import Program
from repro.limits import HEARTBEAT_INTERVAL_S
from repro.runtime.consistency import ConsistencyLevel
from repro.runtime.reconfig import CRASH, RESTART
from repro.simulator.packet import reset_packet_ids


@dataclass
class ChaosReport:
    """Outcome of one chaos scenario, device-fault or controller-fault."""

    seed: int
    recovery: bool
    resume: bool
    sent: int
    delivered: int
    lost: int
    violations: int
    packets_checked: int
    target_version: int
    #: active program version per device after the run settles.
    device_versions: dict[str, int | None]
    #: devices left mid-delta (mixed old/new state) at the end.
    stranded: list[str]
    crashes: int
    restarts: int
    resumed: int
    rolled_back: int
    quarantined: list[str]
    channel: dict
    injection: dict
    journal: list[dict]
    events: list[dict]
    #: the armed fault plan, described (always present).
    fault_plan: list[str]
    #: FlexScope span tree for the run (empty unless ``observe=True``);
    #: sim-time timestamps only, so seeded runs stay byte-identical.
    spans: list[dict]
    #: the update reached every device it had to (each runner's rule).
    converged: bool = False
    #: update start -> last journal commit (``run_chaos`` only).
    convergence_time_s: float | None = None
    #: background telemetry pulls over the lossy channel (ok / failed).
    control_reads_ok: int = 0
    control_reads_failed: int = 0
    #: raised error if ``run_chaos``'s update failed, else None.
    update_error: str | None = None
    transition: dict = field(default_factory=dict)
    #: FlexHA leadership hand-offs, unrounded.
    handoff_downtimes_s: list[float] = field(default_factory=list)
    #: ``FlexHA.status()`` for a controller run, None for a device run.
    ha: dict | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "recovery": self.recovery,
            "resume": self.resume,
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "violations": self.violations,
            "packets_checked": self.packets_checked,
            "target_version": self.target_version,
            "device_versions": dict(sorted(self.device_versions.items())),
            "stranded": sorted(self.stranded),
            "converged": self.converged,
            "convergence_time_s": (
                None if self.convergence_time_s is None else round(self.convergence_time_s, 6)
            ),
            "crashes": self.crashes,
            "restarts": self.restarts,
            "resumed": self.resumed,
            "rolled_back": self.rolled_back,
            "quarantined": sorted(self.quarantined),
            "control_reads_ok": self.control_reads_ok,
            "control_reads_failed": self.control_reads_failed,
            "update_error": self.update_error,
            "transition": self.transition,
            "channel": self.channel,
            "injection": self.injection,
            "journal": self.journal,
            "events": self.events,
            "fault_plan": list(self.fault_plan),
            "spans": self.spans,
            "handoff_downtimes_s": [round(d, 6) for d in self.handoff_downtimes_s],
            "ha": self.ha,
        }

    def summary(self) -> str:
        ha = self.ha
        if ha is None:
            header = (
                f"chaos seed={self.seed} recovery={'on' if self.recovery else 'off'} "
                f"resume={'on' if self.resume else 'off'}"
            )
        else:
            header = f"controller chaos seed={self.seed}"
        lines = [
            header,
            f"  traffic: sent {self.sent}, delivered {self.delivered}, lost {self.lost}",
            f"  consistency: {self.violations} violation(s) / "
            f"{self.packets_checked} checked",
            f"  converged: {'yes' if self.converged else 'NO'} "
            f"(target v{self.target_version})"
            + (
                f", {self.convergence_time_s:.3f}s after update"
                if self.convergence_time_s is not None
                else ""
            ),
            f"  faults: {self.crashes} crash(es), {self.restarts} restart(s), "
            f"{self.resumed} resumed, {self.rolled_back} rolled back",
        ]
        if self.stranded:
            lines.append(f"  stranded mid-delta: {', '.join(self.stranded)}")
        if self.quarantined:
            lines.append(f"  quarantined: {', '.join(self.quarantined)}")
        if self.update_error:
            lines.append(f"  update error: {self.update_error}")
        if ha is None:
            lines.append(
                f"  control reads: {self.control_reads_ok} ok, "
                f"{self.control_reads_failed} failed"
            )
        else:
            lines += [f"  {line}" for line in status_lines(ha)]
        if self.spans:
            lines.append(f"  trace: {len(self.spans)} span(s) captured")
        return "\n".join(lines)


def _run_scenario(
    program: Program,
    plan: FaultPlan,
    arm: Callable[[FlexNet], None],
    *,
    recovery: bool,
    resume: bool,
    monitor: bool,
    rate_pps: float,
    duration_s: float,
    extra_time_s: float,
    consistency: ConsistencyLevel,
    switch_arch: str,
    setup: Callable[[FlexNet], None] | None,
    observe: bool,
    observe_sample_every: int,
) -> tuple[FlexNet, ChaosReport]:
    """The scaffold both runners share: stand up the slice, install
    ``program``, run ``setup`` and drain its windows, attach the plan's
    device faults (its crashes and restarts become control actions), let
    ``arm`` schedule the runner's own update, run the traffic, and
    collect the evidence. The runner judges convergence."""
    # Restart the packet id counter so the per-packet cut-over draws —
    # and therefore the sampled spans and version splits — are identical
    # across same-seed runs even within one process.
    reset_packet_ids()
    net = FlexNet.standard(switch_arch)
    if observe:
        net.observe.enable(sample_every=observe_sample_every)
    net.install(program)
    controller = net.controller
    if setup is not None:
        setup(net)
        # Drain the setup's transition windows before faults arm: the
        # scenario's seeded draws and the consistency verdict must cover
        # only the update under test, not deployment churn.
        horizon = controller.orchestrator.quiesce_at
        if horizon > controller.loop.now:
            controller.loop.run_until(horizon + 1e-6)
        for device in controller.devices.values():
            device.settle(controller.loop.now)

    injector = FaultInjector(plan)
    manager = controller.attach_faults(injector, recovery=recovery, monitor=monitor, resume=resume)
    arm(net)

    traffic = net.run_traffic(
        rate_pps=rate_pps,
        duration_s=duration_s,
        consistency_level=consistency,
        extra_time_s=extra_time_s,
    )

    # Settle any window that elapsed after the last packet observed it.
    now = controller.loop.now
    for device in controller.devices.values():
        device.settle(now)

    consistency_report = traffic.consistency.report()
    channel = controller.hub.channel
    kinds = [applied.action.kind for applied in controller.orchestrator.log]
    return net, ChaosReport(
        seed=plan.seed,
        recovery=recovery,
        resume=resume,
        sent=traffic.metrics.sent,
        delivered=traffic.metrics.delivered,
        lost=traffic.metrics.lost_by_infrastructure,
        violations=consistency_report.violations,
        packets_checked=consistency_report.packets_checked,
        target_version=controller.program.version,
        device_versions={
            name: (device.active_program.version if device.active_program else None)
            for name, device in controller.devices.items()
        },
        stranded=sorted(name for name, device in controller.devices.items() if device.stranded),
        crashes=kinds.count(CRASH),
        restarts=kinds.count(RESTART),
        resumed=manager.resumed if manager is not None else 0,
        rolled_back=manager.rolled_back if manager is not None else 0,
        quarantined=sorted(controller.health.quarantined) if controller.health else [],
        channel={
            "drops": channel.drops,
            "retries": channel.retries,
            "delays": channel.delays,
            "failures": channel.failures,
        },
        injection=injector.stats.to_dict(),
        journal=controller.journal.to_dict(),
        events=[
            {
                "time": round(event.time, 6),
                "kind": event.kind,
                "device": event.device,
                "detail": event.detail,
            }
            for event in controller.telemetry.events
        ],
        fault_plan=plan.describe(),
        spans=net.observe.tracer.to_dict()["spans"] if observe else [],
    )


def _serves_target(net: FlexNet, report: ChaosReport, names: list[str]) -> bool:
    """Nothing stranded, and each named device serves the target version
    outside any transition window. Pass-through devices are not named:
    they legitimately keep serving whatever was installed."""
    devices = net.controller.devices
    return not report.stranded and all(
        report.device_versions[name] == report.target_version
        and not devices[name].in_transition
        for name in names
    )


def _arm_controller_faults(ha, plan: FaultPlan) -> None:
    """Schedule the plan's controller-side faults against the Raft bus.

    ``node="leader"`` resolves at fire time to whichever node currently
    leads (falling back to the highest-term node if an election is in
    flight), so "kill the leader mid-two-phase-transition" stays
    well-defined however previous faults reshuffled leadership.
    """
    bus = ha.cluster.bus

    def current_leader() -> str:
        leader = ha.cluster.leader()
        if leader is not None:
            return leader.node_id
        return max(
            ha.cluster.nodes.values(), key=lambda n: (n.current_term, n.node_id)
        ).node_id

    for crash in plan.controller_crashes:

        def crash_node(spec=crash) -> None:
            node_id = current_leader() if spec.node == "leader" else spec.node
            if node_id not in ha.cluster.nodes:
                return
            bus.crash(node_id)
            bus.schedule(spec.restart_after_s, lambda: bus.recover(node_id))

        ha.controller.loop.schedule_at(crash.at_s, crash_node)

    for split in plan.partitions:

        def partition(spec=split) -> None:
            leader_id = current_leader()
            others = {n for n in ha.cluster.nodes if n != leader_id}
            if not others:
                return
            bus.partition({leader_id}, others)
            bus.schedule(spec.heal_after_s, bus.heal)

        ha.controller.loop.schedule_at(split.at_s, partition)


def run_controller_chaos(
    program: Program,
    delta: Delta,
    plan: FaultPlan,
    node_count: int = 3,
    fencing: bool = True,
    rate_pps: float = 1000.0,
    duration_s: float = 10.0,
    update_at_s: float = 5.0,
    extra_time_s: float = 5.0,
    consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PATH,
    switch_arch: str = "drmt",
    setup: Callable[[FlexNet], None] | None = None,
    observe: bool = False,
    observe_sample_every: int = 64,
) -> ChaosReport:
    """Run one seeded controller-fault scenario under FlexHA.

    The update is *submitted through the replicated controller*
    (:meth:`~repro.control.ha.FlexHA.submit_update`): Raft commits it
    before any device window opens, so whatever the armed faults do to
    the leader afterwards, a successor can re-drive it from the log. A
    submission that lands during an election retries every heartbeat
    until a leader accepts it. The plan's device faults arm as in
    :func:`run_chaos`, with recovery on.

    ``fencing=False`` is the unfenced baseline: deposed leaders' stale
    writes land (counted in ``ha["stale_writes_applied"]``) instead of
    bouncing off device epoch watermarks — the corruption E19 contrasts
    against.
    """

    def arm(net: FlexNet) -> None:
        ha = FlexHA(net.controller, node_count=node_count, seed=plan.seed, fencing=fencing)
        _arm_controller_faults(ha, plan)

        def submit() -> None:
            if ha.submit_update(delta, consistency=consistency) is None:
                # No leader (election in flight): retry next heartbeat.
                net.controller.loop.schedule(HEARTBEAT_INTERVAL_S, submit)

        net.schedule(update_at_s, submit)

    net, report = _run_scenario(
        program, plan, arm, recovery=True, resume=True, monitor=False,
        rate_pps=rate_pps, duration_s=duration_s, extra_time_s=extra_time_s,
        consistency=consistency, switch_arch=switch_arch, setup=setup,
        observe=observe, observe_sample_every=observe_sample_every,
    )
    ha = net.controller.ha
    # Convergence is judged over the devices hosting plan elements (the
    # devices the committed update had to reach).
    hosting = sorted(set(net.controller.plan.placement.values()))
    report.converged = (
        not ha.update_errors
        and ha.executed_updates >= 1
        and _serves_target(net, report, hosting)
    )
    report.handoff_downtimes_s = ha.handoff_downtimes_s()
    report.ha = ha.status()
    return report


def run_chaos(
    program: Program,
    delta: Delta,
    plan: FaultPlan,
    recovery: bool = True,
    resume: bool = True,
    monitor: bool = False,
    rate_pps: float = 1000.0,
    duration_s: float = 10.0,
    update_at_s: float = 5.0,
    extra_time_s: float = 5.0,
    consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PATH,
    switch_arch: str = "drmt",
    setup: Callable[[FlexNet], None] | None = None,
    control_ops: int = 50,
    observe: bool = False,
    observe_sample_every: int = 64,
) -> ChaosReport:
    """Run one seeded chaos scenario and collect the evidence.

    ``recovery=False`` is the no-recovery baseline: dropped control
    messages raise instead of retrying, and crash-interrupted
    transitions stay frozen in mixed old/new state (stranded) after the
    device restarts.

    ``setup`` runs after the install but before faults are armed —
    scenarios use it to shape the deployment (e.g. migrate an app onto
    a NIC so the update spans several hosting devices).

    ``observe=True`` enables FlexScope before anything runs: the report
    then carries the full span tree (install, update, per-device
    windows, migrations, fault events) in ``ChaosReport.spans``.
    """
    update_error: list[str] = []
    outcome: list = []
    control_reads = {"ok": 0, "failed": 0}

    def arm(net: FlexNet) -> None:
        controller = net.controller

        def do_update() -> None:
            try:
                outcome.append(net.update(delta, consistency=consistency))
            except FlexNetError as exc:
                update_error.append(f"{type(exc).__name__}: {exc}")

        net.schedule(update_at_s, do_update)

        # Background control-plane load: periodic telemetry pulls over the
        # (possibly lossy) channel, so ChannelFault drop/delay probabilities
        # are actually exercised. Reads retry under recovery and raise
        # ChannelError in the baseline; both outcomes are tallied.
        if control_ops <= 0:
            return
        probe_table = next(
            (t.name for t in controller.program.tables if t.name in controller.plan.placement),
            None,
        )
        if probe_table is None:
            return
        probe_device = controller.plan.placement[probe_table]

        def control_probe() -> None:
            try:
                controller.hub.client(probe_device).table_size(probe_table)
            except ChannelError:
                control_reads["failed"] += 1
            else:
                control_reads["ok"] += 1

        start = controller.loop.now
        for op in range(control_ops):
            net.schedule(start + (op + 1) * duration_s / (control_ops + 1), control_probe)

    net, report = _run_scenario(
        program, plan, arm, recovery=recovery, resume=resume, monitor=monitor,
        rate_pps=rate_pps, duration_s=duration_s, extra_time_s=extra_time_s,
        consistency=consistency, switch_arch=switch_arch, setup=setup,
        observe=observe, observe_sample_every=observe_sample_every,
    )
    transition = outcome[0].report if outcome else None
    stranded_commands = sorted(transition.stranded_commands) if transition else []
    # Convergence is judged over the devices the update actually touched
    # (those with a transition window); no command may be permanently lost.
    updated = sorted(transition.device_windows) if transition else []
    report.converged = (
        not update_error
        and transition is not None
        and not stranded_commands
        and _serves_target(net, report, updated)
    )
    committed = net.controller.journal.committed_by()
    if report.converged and committed is not None and committed >= update_at_s:
        report.convergence_time_s = committed - update_at_s
    report.control_reads_ok = control_reads["ok"]
    report.control_reads_failed = control_reads["failed"]
    report.update_error = update_error[0] if update_error else None
    report.transition = {
        "commands_dropped": transition.commands_dropped if transition else 0,
        "command_retries": transition.command_retries if transition else 0,
        "stranded_commands": stranded_commands,
        "deferred_starts": sorted(transition.deferred_starts) if transition else [],
        "migration_retries": transition.migration_retries if transition else 0,
        "failed_migrations": transition.failed_migrations if transition else 0,
    }
    return report

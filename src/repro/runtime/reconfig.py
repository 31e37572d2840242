"""Runtime reconfiguration orchestration.

Takes the compiler's :class:`~repro.compiler.plan.ReconfigPlan` and
executes it against live :class:`~repro.runtime.device.DeviceRuntime`
instances inside the event loop:

* each affected device gets **one transition window** whose duration is
  the sum of its step costs (steps on one device serialize; distinct
  devices reconfigure concurrently — the plan's makespan);
* runtime programmable devices transition **hitlessly** (old and new
  versions coexist in the window; zero loss); non-hitless devices fall
  back to drain + reflash, losing every packet in the window — this
  contrast is exactly experiment E1/E2;
* MOVE steps that carry durable state trigger an in-band data-plane
  migration at the start of the window so the landing device is warm
  before it takes over.

Every step on a device, a fault plan's crashes and restarts included,
is a :class:`ControlAction` value the event loop hands to one entry,
:meth:`ReconfigOrchestrator.apply_control`, so each control event is one
inspectable thing on the loop's ``(time, seq)`` order. Once faults are
attached the entry appends each applied action and its outcome to one
log, :attr:`ReconfigOrchestrator.log`; the write-ahead journal
(:class:`~repro.faults.journal.ReconfigJournal`) is a view over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from repro.compiler.plan import CompilationPlan, ReconfigPlan, ReconfigStep, StepKind
from repro.errors import MigrationError, ReconfigError
from repro.lang.ir import Program
from repro.runtime.device import DeviceRuntime
from repro.simulator.engine import EventLoop

if TYPE_CHECKING:
    from repro.observe.trace import Span
    from repro.runtime.migration import MigrationReport

#: Window charged to devices that only need an apply-block pointer swap
#: (no structural steps of their own).
DEFAULT_REFRESH_S = 0.02

#: Batching discount: a device applies all of a transition's steps as one
#: transaction (the NSDI'22 mechanism batches table/parser changes), so
#: the window is the dominant step plus a fraction of the rest rather
#: than their serial sum.
BATCH_OVERHEAD_FRACTION = 0.2


def step_windows(steps: list[ReconfigStep]) -> dict[str, float]:
    """The transition window of every device that has steps, in
    first-step order: its dominant step plus the batching discount of
    the rest."""
    costs: dict[str, list[float]] = {}
    for step in steps:
        costs.setdefault(step.device, []).append(step.cost_s)
    windows = {}
    for device, device_costs in costs.items():
        dominant = max(device_costs)
        windows[device] = dominant + BATCH_OVERHEAD_FRACTION * (sum(device_costs) - dominant)
    return windows


@dataclass
class TransitionReport:
    started_at: float
    finished_at: float = 0.0
    device_windows: dict[str, tuple[float, float]] = field(default_factory=dict)
    steps_applied: int = 0
    migrations: list[MigrationReport] = field(default_factory=list)
    reflashed_devices: list[str] = field(default_factory=list)
    #: FlexFault accounting: reconfiguration commands lost on the control
    #: channel, the retries that re-sent them, and devices whose start
    #: command was never delivered (stranded on the old program).
    commands_dropped: int = 0
    command_retries: int = 0
    stranded_commands: list[str] = field(default_factory=list)
    #: starts deferred to a device restart (crash before the window).
    deferred_starts: list[str] = field(default_factory=list)
    #: in-band migrations retried / abandoned after injected failures.
    migration_retries: int = 0
    failed_migrations: int = 0
    #: FlexHA fencing: start commands a device rejected for carrying a
    #: stale epoch (a deposed leader's in-flight window never opened).
    stale_rejected: int = 0
    #: devices whose start command was suppressed by the dispatch gate
    #: (the proposing leader died before its scheduled dispatch fired).
    undispatched: list[str] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at


DISPATCH, OPEN, COMMIT, REFLASH, MOVE = "dispatch", "open", "commit", "reflash", "move"
CRASH, RESTART = "crash", "restart"

#: The :class:`TransitionReport` field each recorded outcome bumps: a list
#: gets the device's name, a count one more. Other outcomes are events only.
_REPORT_FIELDS = {
    "dispatch_suppressed": "undispatched",
    "stale_epoch_rejected": "stale_rejected",
    "command_dropped": "commands_dropped",
    "command_retry": "command_retries",
    "stranded": "stranded_commands",
    "deferred_start": "deferred_starts",
}


class ControlAction(NamedTuple):
    """One control step on one device, applied by
    :meth:`ReconfigOrchestrator.apply_control`. The kinds:

    * ``dispatch`` — the start command crosses the control channel: the
      dispatch gate, a lost command's retry (the same action with
      ``attempt + 1``) or stranding, deferral while the device is down;
      a delivered command is the ``open`` action.
    * ``open`` — epoch fence, ``begin_hitless_update``, the journal
      transaction (with faults attached and an old version), the close
      (``commit``) and protected-map migration.
    * ``commit`` — the window closed: settle it, resolve its transaction.
    * ``reflash`` — a non-hitless device's drain + reflash.
    * ``move`` — in-band migration of a moved element's state.
    * ``crash`` / ``restart`` — a fault plan's device crash and restart;
      a restart resolves an interrupted window, then opens deferred starts.
    """

    kind: str
    device: str  # a move's destination
    report: TransitionReport | None = None  # every window outcome is counted here
    span: Span | None = None  # outcome events land here; None records none
    # dispatch / open / reflash: the version, its window, what it hosts.
    program: Program | None = None
    duration: float = 0.0
    hosted: set[str] | None = None
    flow_affine: bool = False
    protected_maps: set[str] | None = None
    # FlexHA: the proposer's term, the (node id, term) that must still
    # lead when the start fires, and the committed delta the window realizes.
    epoch: int | None = None
    gate: tuple[str, int] | None = None
    delta_id: int | None = None
    attempt: int = 1  # dispatch: which send of the start command
    # open / commit: how the transaction resolves at the close, whether
    # the close settles the window when no journal is kept, the transaction.
    resolution: str = "window_closed"
    settle: bool = False
    txn: int | None = None
    # move: the element, the device it leaves and the (old, new) plans.
    element: str | None = None
    source: str | None = None
    plans: tuple[CompilationPlan, CompilationPlan] | None = None


class Applied(NamedTuple):
    """One entry of the applied-action log: an action and what came of it."""

    time: float
    action: ControlAction
    outcome: str
    #: the journal transaction a window ``open`` recorded, or the one a
    #: ``commit`` or ``restart`` resolved.
    txn: int | None = None
    old_version: int | None = None  # a journaled open: the version it left


class ReconfigOrchestrator:
    """Drives plan transitions on a set of live devices."""

    def __init__(self, loop: EventLoop, devices: dict[str, DeviceRuntime]):
        self._loop = loop
        self._devices = devices
        #: per-device end time of the latest *scheduled* window — devices
        #: only learn of a transition when its start event fires, so the
        #: orchestrator keeps its own reservation ledger to serialize
        #: back-to-back updates planned within the same instant.
        self._reserved_until: dict[str, float] = {}
        #: FlexFault wiring (all optional; attached by
        #: :meth:`~repro.control.controller.FlexNetController.attach_faults`):
        #: the fault injector consulted per command/migration, the log of
        #: applied actions (the journal is read from it), the recovery
        #: manager, and the telemetry that hears of crashes without it.
        self.injector = None
        self.log: list[Applied] | None = None
        self.recovery = None
        self.telemetry = None
        self.ha = None  # FlexHA: does a gated start's proposer still lead?
        #: FlexScope: set by :meth:`repro.observe.Observer.enable`; each
        #: transition gets a span tree (transition → per-device windows →
        #: migrations) with lifecycle events (delivery, commit, retries).
        self.observer = None

    def device(self, name: str) -> DeviceRuntime:
        if name not in self._devices:
            raise ReconfigError(f"unknown device {name!r}")
        return self._devices[name]

    @property
    def quiesce_at(self) -> float:
        """Time by which every scheduled transition window has closed —
        run the loop past this to observe a settled fleet."""
        return max(self._reserved_until.values(), default=0.0)

    def reserved_until(self, name: str) -> float:
        """End of the latest scheduled window on one device (0.0 when
        none) — FlexHA's resync consults this so it never re-drives a
        device whose window is already open *or scheduled but not yet
        dispatched*."""
        return self._reserved_until.get(name, 0.0)

    def reserve(self, name: str, until: float) -> None:
        """Record an externally driven window (FlexHA re-drive) so later
        orchestrated transitions serialize against it."""
        self._reserved_until[name] = max(self._reserved_until.get(name, 0.0), until)

    def install_plan(self, plan: CompilationPlan) -> None:
        """Cold-install a compiled plan on every device (provisioning)."""
        for device_name, device in self._devices.items():
            hosted = set(plan.elements_on(device_name))
            device.install(plan.program, hosted or set())

    def apply(
        self,
        reconfig: ReconfigPlan,
        new_plan: CompilationPlan,
        old_plan: CompilationPlan | None = None,
        window_override: dict[str, float] | None = None,
        flow_affine: bool = False,
        protected_maps: set[str] | None = None,
        epoch: int | None = None,
        dispatch_gate: tuple[str, int] | None = None,
        delta_id: int | None = None,
    ) -> TransitionReport:
        """Schedule the transition starting now; returns a report that
        fills in as the event loop advances (read it after run_until
        passes ``report.finished_at``).

        ``window_override`` gives each device's window, as the
        controller's consistency scheduler set it (a device it leaves
        out gets ``DEFAULT_REFRESH_S``); without it each device's window
        is its batched steps (:func:`step_windows`). ``flow_affine``
        keys the per-packet draw by flow for PER_FLOW consistency.
        ``protected_maps`` names maps FlexCheck's race pass flagged: at
        each window start their state is swing-migrated into the staged
        version whenever physical sharing was impossible (a re-keyed
        map), so the staged version starts from what the old one held
        when the window opened.

        FlexHA threading: ``epoch`` stamps every start command with the
        proposing leader's Raft term (devices reject stale epochs);
        ``dispatch_gate`` is the proposer's ``(node id, term)``, checked
        when each scheduled start fires — unless FlexHA says that node
        still leads in that term, the command is suppressed (the new
        leader re-drives it from the committed log); ``delta_id`` names
        the committed delta in the journal.
        """
        now = self._loop.now
        report = TransitionReport(started_at=now, steps_applied=len(reconfig.steps))
        windows = step_windows(reconfig.steps) if window_override is None else window_override
        observer = self.observer
        tracer = observer.tracer if observer is not None else None
        transition_span = None
        if tracer is not None:
            transition_span = tracer.start_span(
                "transition",
                "transition",
                now,
                steps=len(reconfig.steps),
                to_version=new_plan.program.version,
                flow_affine=flow_affine,
            )

        # Devices hosting elements in either version also need the new
        # apply block, even without structural steps of their own.
        old_hosts = () if old_plan is None else old_plan.placement.values()
        affected = sorted({*windows, *new_plan.placement.values(), *old_hosts})
        finish = now
        for device_name in affected:
            device = self.device(device_name)
            duration = windows.get(device_name, DEFAULT_REFRESH_S)
            # Serialize with any transition already in flight or already
            # scheduled on this device — overlapping windows would leave
            # three live versions, which hardware cannot do.
            start = max(device.busy_until(now), self._reserved_until.get(device_name, 0.0))
            model = device.target.reconfig
            window_span = None
            if tracer is not None:
                window_span = tracer.start_span(
                    f"window@{device_name}",
                    "window",
                    start,
                    parent=transition_span,
                    device=device_name,
                    mode="hitless" if model.hitless else "reflash",
                    to_version=new_plan.program.version,
                )
            if model.hitless:
                kind, end = DISPATCH, start + duration
            else:
                kind = REFLASH
                end = start + model.drain_s + model.full_reflash_s + model.redeploy_s
                report.reflashed_devices.append(device_name)
            action = ControlAction(
                kind,
                device_name,
                report,
                window_span,
                program=new_plan.program,
                duration=duration,
                hosted=set(new_plan.elements_on(device_name)),
                flow_affine=flow_affine,
                protected_maps=protected_maps,
                epoch=epoch,
                gate=dispatch_gate,
                delta_id=delta_id,
            )
            self._loop.schedule_at(start, partial(self.apply_control, action))
            if tracer is not None:
                # The schedule is deterministic, so the window's close is
                # known upfront; lifecycle moments (delivery, commit,
                # retries, stranding) land as events as the loop advances.
                tracer.end_span(window_span, end)
            report.device_windows[device_name] = (start, end)
            self._reserved_until[device_name] = end
            finish = max(finish, end)

        # State-carrying moves migrate in-band at window start.
        for step in reconfig.steps:
            if step.kind is not StepKind.MOVE or not step.carries_state:
                continue
            action = ControlAction(
                MOVE,
                step.device,
                report,
                transition_span,
                element=step.element,
                source=step.source_device,
                plans=(old_plan or new_plan, new_plan),
            )
            self._loop.schedule_at(now, partial(self.apply_control, action))

        if tracer is not None:
            tracer.end_span(transition_span, finish, devices=len(affected))
        report.finished_at = finish
        return report

    # -- the one entry ---------------------------------------------------------

    def apply_control(self, action: ControlAction) -> None:
        """Apply one control action: every scheduled start, retry, window
        close, state move, crash, restart, start resumed on a restart and
        FlexHA re-drive comes through here. With faults attached, what
        came of it is appended to :attr:`log`."""
        applied = self._KINDS[action.kind](self, action)
        if self.log is not None:
            self.log.append(applied)

    def _record(self, action: ControlAction, outcome: str, **attrs) -> Applied:
        """Count one outcome of ``action`` in its report, put the event
        on its span, and return it as a log entry."""
        name = _REPORT_FIELDS.get(outcome)
        if name is not None:
            value = getattr(action.report, name)
            if isinstance(value, list):
                value.append(action.device)
            else:
                setattr(action.report, name, value + 1)
        if action.span is not None and self.observer is not None:
            self.observer.tracer.event(
                outcome, self._loop.now, span=action.span, device=action.device, **attrs
            )
        return Applied(self._loop.now, action, outcome)

    def _suppressed(self, action: ControlAction) -> Applied | None:
        # FlexHA: is the leader that planned this still the one allowed
        # to dispatch it? A dead or deposed leader's starts are
        # suppressed, and its successor re-drives them from the log.
        gate = action.gate
        if gate is None or (self.ha is not None and self.ha.leads(*gate)):
            return None
        return self._record(action, "dispatch_suppressed", attempt=action.attempt)

    def _fenced(self, device: DeviceRuntime, action: ControlAction) -> Applied | None:
        # A since-deposed leader issued this; a newer one touched the device.
        if device.admit_epoch(action.epoch):
            return None
        return self._record(action, "stale_epoch_rejected", epoch=action.epoch)

    def _dispatch(self, action: ControlAction) -> Applied:
        suppressed = self._suppressed(action)
        if suppressed is not None:
            return suppressed
        # FlexFault: the start command crosses the control channel; a
        # lost command is retried with backoff (recovery) or strands the
        # device on the old program (baseline).
        injector = self.injector
        if injector is not None and injector.command_dropped(action.device):
            attempt = action.attempt
            self._record(action, "command_dropped", attempt=attempt)
            policy = self.recovery.policy if self.recovery is not None else None
            if policy is None or attempt >= policy.max_attempts:
                return self._record(action, "stranded")
            applied = self._record(action, "command_retry", attempt=attempt)
            retry = action._replace(attempt=attempt + 1)
            self._loop.schedule(policy.backoff_s(attempt), partial(self.apply_control, retry))
            return applied
        device = self._devices[action.device]
        # Device down (crashed before its window opened): the restart
        # opens it (recovery), or the device strands (baseline).
        if device.crashed or device.stranded:
            return self._record(
                action, "deferred_start" if self.recovery is not None else "stranded"
            )
        self.apply_control(action._replace(kind=OPEN))
        return Applied(self._loop.now, action, "delivered")

    def _open(self, action: ControlAction) -> Applied:
        """The start command arrived: fence, open the transition window,
        record its transaction, schedule the close, and warm protected maps."""
        device = self._devices[action.device]
        fenced = self._fenced(device, action)
        if fenced is not None:
            return fenced
        self._record(action, "window_open")
        now = self._loop.now
        old = device.active_instance
        staged = device.begin_hitless_update(
            action.program,
            now=now,
            duration_s=action.duration,
            hosted_elements=action.hosted,
            flow_affine=action.flow_affine,
        )
        applied = Applied(now, action, "window_open")
        if self.log is not None and old is not None:
            applied = applied._replace(txn=self._next_txn(), old_version=old.program.version)
        if applied.txn is not None or action.settle:
            close = action._replace(kind=COMMIT, txn=applied.txn)
            self._loop.schedule(action.duration, partial(self.apply_control, close))
        if not action.protected_maps or old is None:
            return applied
        # Swing-state migration for race-flagged maps whose physical
        # state could not be shared across versions (re-keyed): warm the
        # staged copy. A re-declared map is shared until the cut-over,
        # which carries its entries itself.
        for map_name in sorted(action.protected_maps):
            if map_name not in old.maps or map_name not in staged.maps:
                continue
            old_state = old.maps.state(map_name)
            new_state = staged.maps.state(map_name)
            if new_state is old_state:
                continue  # physically shared — already consistent
            self._run_migration(
                old_state, new_state, action.report, span=action.span, label=map_name
            )
        return applied

    def _next_txn(self) -> int:
        """The id the next journaled window gets: one past the last one."""
        for applied in reversed(self.log):
            if applied.action.kind == OPEN and applied.txn is not None:
                return applied.txn + 1
        return 0

    def _commit(self, action: ControlAction) -> Applied:
        """The window closed: settle it and resolve its transaction. A
        crashed or stranded device leaves the transaction pending for
        recovery."""
        device = self._devices[action.device]
        now = self._loop.now
        if device.crashed or device.stranded:
            return Applied(now, action, "frozen")
        device.settle(now)
        if action.txn is not None:
            self._record(action, "commit", to_version=action.program.version)
        return Applied(now, action, "commit", action.txn)

    def _reflash(self, action: ControlAction) -> Applied:
        device = self._devices[action.device]
        refused = self._suppressed(action) or self._fenced(device, action)
        if refused is not None:
            return refused
        available_at = device.begin_reflash(
            action.program, now=self._loop.now, hosted_elements=action.hosted
        )
        return self._record(action, "reflash", available_at=round(available_at, 9))

    def _move(self, action: ControlAction) -> Applied:
        applied = Applied(self._loop.now, action, "move")
        if action.source is None:
            return applied
        source = self.device(action.source).active_instance
        destination = self.device(action.device).active_instance
        if source is None or destination is None:
            return applied
        # The maps that travel are the element itself (a moved map) plus
        # those its profile reads or writes, per the certificate of the
        # plan the source instance runs.
        old_plan, new_plan = action.plans
        plan = new_plan if source.version == new_plan.program.version else old_plan
        profile = plan.certificate.profiles.get(action.element)
        touched = {action.element}
        if profile is not None:
            touched.update(profile.map_reads, profile.map_writes)
        for map_name in source.maps.names():
            if map_name in touched and map_name in destination.maps:
                self._run_migration(
                    source.maps.state(map_name),
                    destination.maps.state(map_name),
                    action.report,
                    span=action.span,
                    label=map_name,
                )
        return applied

    def _crash(self, action: ControlAction) -> Applied:
        name = action.device
        now = self._loop.now
        self._devices[name].crash(now)
        if self.recovery is not None:
            self.recovery.on_crash(name)
        elif self.telemetry is not None:
            self.telemetry.ingest_event(CRASH, name, now)
        return Applied(now, action, CRASH)

    def _restart(self, action: ControlAction) -> Applied:
        """Power the device back on; with recovery, resolve its
        interrupted window, then open the starts deferred while it was
        down, in the order they were deferred."""
        name = action.device
        now = self._loop.now
        self._devices[name].restart(now)
        if self.recovery is None:
            if self.telemetry is not None:
                self.telemetry.ingest_event(RESTART, name, now)
            return Applied(now, action, RESTART)
        outcome, txn = self.recovery.on_restart(name)
        deferred = []
        for applied in reversed(self.log):
            if applied.action.device != name:
                continue
            if applied.action.kind == RESTART:
                break
            if applied.outcome == "deferred_start":
                deferred.append(applied.action)
        for start in reversed(deferred):
            self.apply_control(start._replace(kind=OPEN))
        return Applied(now, action, outcome, txn)

    _KINDS = {
        DISPATCH: _dispatch,
        OPEN: _open,
        COMMIT: _commit,
        REFLASH: _reflash,
        MOVE: _move,
        CRASH: _crash,
        RESTART: _restart,
    }

    def _run_migration(
        self, source_state, destination_state, report: TransitionReport, span=None, label=""
    ):
        """One in-band migration under fault injection: injected failures
        are retried immediately (the stream is re-cloned) up to the
        recovery policy's budget; without recovery a failure is final."""
        from repro.runtime.migration import data_plane_migration

        attempts = 0
        policy = self.recovery.policy if self.recovery is not None else None
        observer = self.observer
        migration_span = None
        if observer is not None:
            migration_span = observer.tracer.start_span(
                f"migrate:{label}" if label else "migrate",
                "migration",
                self._loop.now,
                parent=span,
                map=label,
            )
        while True:
            attempts += 1
            try:
                migration = data_plane_migration(
                    source_state, destination_state, injector=self.injector
                )
            except MigrationError:
                if policy is not None and attempts < policy.max_attempts:
                    report.migration_retries += 1
                    if migration_span is not None:
                        migration_span.add_event(
                            "migration_retry", self._loop.now, attempt=attempts
                        )
                    continue
                report.failed_migrations += 1
                if observer is not None:
                    observer.tracer.end_span(
                        migration_span, self._loop.now, status="error", attempts=attempts
                    )
                return None
            report.migrations.append(migration)
            if observer is not None:
                observer.tracer.end_span(
                    migration_span,
                    self._loop.now,
                    attempts=attempts,
                    entries=migration.entries,
                    strategy=migration.strategy,
                )
            return migration

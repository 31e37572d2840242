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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.plan import CompilationPlan, ReconfigPlan, StepKind
from repro.errors import MigrationError, ReconfigError
from repro.lang.ir import Program
from repro.runtime.device import DeviceRuntime
from repro.runtime.migration import MigrationReport, data_plane_migration
from repro.simulator.engine import EventLoop

#: Window charged to devices that only need an apply-block pointer swap
#: (no structural steps of their own).
DEFAULT_REFRESH_S = 0.02

#: Batching discount: a device applies all of a transition's steps as one
#: transaction (the NSDI'22 mechanism batches table/parser changes), so
#: the window is the dominant step plus a fraction of the rest rather
#: than their serial sum.
BATCH_OVERHEAD_FRACTION = 0.2


def batched_window_s(step_costs: list[float]) -> float:
    """Transition window for one device given its step costs."""
    if not step_costs:
        return DEFAULT_REFRESH_S
    dominant = max(step_costs)
    rest = sum(step_costs) - dominant
    return dominant + BATCH_OVERHEAD_FRACTION * rest


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
        #: the fault injector consulted per command/migration, the
        #: write-ahead journal that makes delta application transactional,
        #: and the recovery manager whose policy drives retries.
        self.injector = None
        self.journal = None
        self.recovery = None
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
        stagger: dict[str, float] | None = None,
        window_override: dict[str, float] | None = None,
        flow_affine: bool = False,
        protected_maps: set[str] | None = None,
        epoch: int | None = None,
        dispatch_gate=None,
        delta_id: int | None = None,
    ) -> TransitionReport:
        """Schedule the transition starting now; returns a report that
        fills in as the event loop advances (read it after run_until
        passes ``report.finished_at``).

        ``stagger`` and ``window_override`` come from the controller's
        consistency scheduler; ``flow_affine`` keys the per-packet draw
        by flow for PER_FLOW consistency. ``protected_maps`` names maps
        FlexCheck's race pass flagged: at each window start their state is
        swing-migrated into the staged version whenever physical sharing
        was impossible (a re-keyed map), so the staged version starts
        from what the old one held when the window opened.

        FlexHA threading: ``epoch`` stamps every start command with the
        proposing leader's Raft term (devices reject stale epochs);
        ``dispatch_gate`` is checked when each scheduled start fires — a
        False verdict means the proposing leader is no longer alive to
        dispatch, so the command is suppressed (the new leader re-drives
        it from the committed log); ``delta_id`` is journaled for
        idempotent re-driving.
        """
        now = self._loop.now
        report = TransitionReport(started_at=now)
        stagger = stagger or {}
        window_override = window_override or {}
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

        per_device_steps: dict[str, list[float]] = {}
        for step in reconfig.steps:
            per_device_steps.setdefault(step.device, []).append(step.cost_s)
            report.steps_applied += 1
        per_device_cost = {
            device: batched_window_s(costs)
            for device, costs in per_device_steps.items()
        }

        affected = set(per_device_cost)
        # Devices hosting elements in either version also need the new
        # apply block, even without structural steps of their own.
        for device_name in set(new_plan.placement.values()):
            affected.add(device_name)
        if old_plan is not None:
            for device_name in set(old_plan.placement.values()):
                affected.add(device_name)

        finish = now
        for device_name in sorted(affected):
            device = self.device(device_name)
            duration = max(
                per_device_cost.get(device_name, DEFAULT_REFRESH_S),
                window_override.get(device_name, 0.0),
            )
            start_offset = stagger.get(device_name, 0.0)
            hosted = set(new_plan.elements_on(device_name))
            # Serialize with any transition already in flight or already
            # scheduled on this device — overlapping windows would leave
            # three live versions, which hardware cannot do.
            start = max(
                now + start_offset,
                device.busy_until(now),
                self._reserved_until.get(device_name, 0.0),
            )
            hitless = device.target.reconfig.hitless
            window_span = None
            if tracer is not None:
                window_span = tracer.start_span(
                    f"window@{device_name}",
                    "window",
                    start,
                    parent=transition_span,
                    device=device_name,
                    mode="hitless" if hitless else "reflash",
                    to_version=new_plan.program.version,
                )
            if hitless:
                self._loop.schedule_at(
                    start,
                    self._hitless_starter(
                        device,
                        new_plan.program,
                        duration,
                        hosted,
                        flow_affine,
                        protected_maps=protected_maps,
                        report=report,
                        span=window_span,
                        epoch=epoch,
                        dispatch_gate=dispatch_gate,
                        delta_id=delta_id,
                    ),
                )
                end = start + duration
            else:
                self._loop.schedule_at(
                    start,
                    self._reflash_starter(
                        device,
                        new_plan.program,
                        hosted,
                        span=window_span,
                        epoch=epoch,
                        dispatch_gate=dispatch_gate,
                        report=report,
                    ),
                )
                model = device.target.reconfig
                end = start + model.drain_s + model.full_reflash_s + model.redeploy_s
                report.reflashed_devices.append(device_name)
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
            self._loop.schedule_at(
                now + stagger.get(step.device, 0.0),
                self._state_mover(
                    step.element, step.source_device, step.device, report,
                    old_plan or new_plan, new_plan, span=transition_span,
                ),
            )

        if tracer is not None:
            tracer.end_span(transition_span, finish, devices=len(affected))
        report.finished_at = finish
        return report

    # -- scheduled-callback factories ------------------------------------------

    def _hitless_starter(
        self,
        device: DeviceRuntime,
        program: Program,
        duration: float,
        hosted: set[str],
        flow_affine: bool = False,
        protected_maps: set[str] | None = None,
        report: TransitionReport | None = None,
        span=None,
        epoch: int | None = None,
        dispatch_gate=None,
        delta_id: int | None = None,
    ):
        def trace_event(name: str, **attrs) -> None:
            if self.observer is not None:
                self.observer.tracer.event(
                    name, self._loop.now, span=span, device=device.name, **attrs
                )

        def deliver() -> None:
            """The start command arrived: fence, open the transition
            window, journal the intent, and warm protected maps."""
            now = self._loop.now
            if not device.admit_epoch(epoch):
                # Fenced: this start was issued by a since-deposed leader
                # and a newer leader has already touched the device.
                if report is not None:
                    report.stale_rejected += 1
                trace_event("stale_epoch_rejected", epoch=epoch)
                return
            trace_event("window_open")
            old = device.active_instance
            staged = device.begin_hitless_update(
                program,
                now=now,
                duration_s=duration,
                hosted_elements=hosted,
                flow_affine=flow_affine,
            )
            if self.journal is not None and old is not None:
                entry = self.journal.begin(
                    device.name,
                    old.program.version,
                    program.version,
                    started_at=now,
                    window_end=now + duration,
                    delta_id=delta_id,
                )
                self._loop.schedule(duration, self._committer(device, entry, span=span))
            if not protected_maps or old is None:
                return
            # Swing-state migration for race-flagged maps whose physical
            # state could not be shared across versions (re-keyed): warm
            # the staged copy. A re-declared map is shared until the
            # cut-over, which carries its entries itself.
            for map_name in sorted(protected_maps):
                if map_name not in old.maps or map_name not in staged.maps:
                    continue
                old_state = old.maps.state(map_name)
                new_state = staged.maps.state(map_name)
                if new_state is old_state:
                    continue  # physically shared — already consistent
                self._run_migration(
                    old_state, new_state, report, span=span, label=map_name
                )

        def attempt(attempt_no: int = 1) -> None:
            # FlexHA: the dispatch gate asks "is the leader that planned
            # this still the one allowed to dispatch it?" — a dead or
            # deposed leader's scheduled starts are suppressed here and
            # re-driven from the committed log by its successor.
            if dispatch_gate is not None and not dispatch_gate():
                if report is not None:
                    report.undispatched.append(device.name)
                trace_event("dispatch_suppressed", attempt=attempt_no)
                return
            # FlexFault: the start command crosses the control channel;
            # a lost command is retried with backoff (recovery) or
            # strands the device on the old program (baseline).
            if self.injector is not None and self.injector.command_dropped(device.name):
                if report is not None:
                    report.commands_dropped += 1
                trace_event("command_dropped", attempt=attempt_no)
                policy = self.recovery.policy if self.recovery is not None else None
                if policy is not None and attempt_no < policy.max_attempts:
                    if report is not None:
                        report.command_retries += 1
                    trace_event("command_retry", attempt=attempt_no)
                    self._loop.schedule(
                        policy.backoff_s(attempt_no), lambda: attempt(attempt_no + 1)
                    )
                else:
                    if report is not None:
                        report.stranded_commands.append(device.name)
                    trace_event("stranded")
                return
            # Device down (crashed before its window opened): defer the
            # start to the restart path, or strand without recovery.
            if device.crashed or device.stranded:
                if self.recovery is not None:
                    self.recovery.defer_until_restart(device.name, deliver)
                    if report is not None:
                        report.deferred_starts.append(device.name)
                    trace_event("deferred_start")
                else:
                    if report is not None:
                        report.stranded_commands.append(device.name)
                    trace_event("stranded")
                return
            deliver()

        return attempt

    def _committer(self, device: DeviceRuntime, entry, span=None):
        """Commit the journal entry when the window closes cleanly; a
        crashed/stranded device leaves it PENDING for recovery."""

        def commit() -> None:
            if device.crashed or device.stranded:
                return
            device.settle(self._loop.now)
            self.journal.commit(entry, self._loop.now)
            if self.observer is not None:
                self.observer.tracer.event(
                    "commit",
                    self._loop.now,
                    span=span,
                    device=device.name,
                    to_version=entry.new_version,
                )

        return commit

    def _run_migration(self, source_state, destination_state, report, span=None, label=""):
        """One in-band migration under fault injection: injected failures
        are retried immediately (the stream is re-cloned) up to the
        recovery policy's budget; without recovery a failure is final."""
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
                    if report is not None:
                        report.migration_retries += 1
                    if migration_span is not None:
                        migration_span.add_event(
                            "migration_retry", self._loop.now, attempt=attempts
                        )
                    continue
                if report is not None:
                    report.failed_migrations += 1
                if observer is not None:
                    observer.tracer.end_span(
                        migration_span, self._loop.now, status="error", attempts=attempts
                    )
                return None
            if report is not None:
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

    def _reflash_starter(
        self,
        device: DeviceRuntime,
        program: Program,
        hosted: set[str],
        span=None,
        epoch: int | None = None,
        dispatch_gate=None,
        report: TransitionReport | None = None,
    ):
        def start() -> None:
            if dispatch_gate is not None and not dispatch_gate():
                if report is not None:
                    report.undispatched.append(device.name)
                return
            if not device.admit_epoch(epoch):
                if report is not None:
                    report.stale_rejected += 1
                return
            available_at = device.begin_reflash(
                program, now=self._loop.now, hosted_elements=hosted
            )
            if self.observer is not None:
                self.observer.tracer.event(
                    "reflash",
                    self._loop.now,
                    span=span,
                    device=device.name,
                    available_at=round(available_at, 9),
                )

        return start

    def _state_mover(
        self,
        element: str,
        source_name: str | None,
        dest_name: str,
        report: TransitionReport,
        old_plan: CompilationPlan,
        new_plan: CompilationPlan,
        span=None,
    ):
        def move() -> None:
            if source_name is None:
                return
            source = self.device(source_name).active_instance
            destination = self.device(dest_name).active_instance
            if source is None or destination is None:
                return
            # The maps that travel are the element itself (a moved map)
            # plus those its profile reads or writes, per the certificate
            # of the plan the source instance runs.
            plan = new_plan if source.version == new_plan.program.version else old_plan
            profile = plan.certificate.profiles.get(element)
            touched = {element}
            if profile is not None:
                touched.update(profile.map_reads, profile.map_writes)
            for map_name in source.maps.names():
                if map_name in touched and map_name in destination.maps:
                    self._run_migration(
                        source.maps.state(map_name),
                        destination.maps.state(map_name),
                        report,
                        span=span,
                        label=map_name,
                    )

        return move

"""The FlexNet controller: real-time piloting of the network (§3.4).

One logically centralized controller object owns:

* the global :class:`~repro.control.topology.TopologyView` and the
  live :class:`~repro.runtime.device.DeviceRuntime` fleet;
* the composed network program (infrastructure base + admitted tenant
  extensions) and its active :class:`CompilationPlan`;
* the app registry — every deployed app is named by URI and managed
  through app-level operations (deploy / remove / scale / migrate) that
  the controller translates into deltas, incremental compilations, and
  orchestrated hitless transitions;
* the element-level P4Runtime bindings, the dRPC fabric, telemetry, and
  the replication manager.

The compiler's GC hook is implemented here: when placement fails, the
controller retires apps whose SLA marks them removable, frees their
resources, and lets the compiler try again (§3.3's iterative loop).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.analysis import ProgramFacts, check_changeset
from repro.analysis.report import Finding
from repro.compiler.incremental import IncrementalCompiler, IncrementalResult, diff_programs
from repro.compiler.placement import NetworkSlice, Objective, PlacementEngine
from repro.compiler.plan import CompilationPlan
from repro.errors import ControlPlaneError, UnknownAppError
from repro.lang.composition import Composer, TenantSpec
from repro.lang.delta import (
    ChangeSet,
    Delta,
    RemoveElements,
    SetMapEntries,
    SetTableSize,
    apply_delta,
)
from repro.lang.ir import Program
from repro.runtime.consistency import ConsistencyLevel
from repro.runtime.device import DeviceRuntime, EngineConfig
from repro.runtime.drpc import DrpcFabric, RpcRegistry
from repro.runtime.reconfig import ReconfigOrchestrator, TransitionReport, batched_window_s
from repro.simulator.engine import EventLoop
from repro.simulator.network import Network
from repro.targets.base import Target

from repro.control.apps_api import AppRecord, AppSla, AppUri
from repro.control.p4runtime import P4RuntimeHub
from repro.control.replication import ReplicationManager
from repro.control.scheduler import plan_schedule
from repro.control.telemetry import TelemetryCollector
from repro.control.topology import TopologyView


@dataclass
class TransitionOutcome:
    """What one runtime change produced.

    Implements the FlexScope :class:`~repro.observe.report.Reportable`
    protocol; when observability is enabled the outcome also carries the
    ids of the trace spans covering this change, so a caller can jump
    from the outcome straight to its span subtree
    (``net.observe.tracer.find(outcome.span_id)``).
    """

    result: IncrementalResult
    report: TransitionReport
    compile_iterations: int = 1
    gc_evicted: list[str] = field(default_factory=list)
    #: FlexCheck race-pass findings for this transition (post-escalation).
    race_findings: tuple[Finding, ...] = ()
    #: True when the race pass found hazards under the requested
    #: consistency and the controller escalated the schedule onto the
    #: two-phase consistent path (PER_PACKET_PATH) instead of rejecting.
    forced_two_phase: bool = False
    #: FlexScope: the "update" span covering this change and the root of
    #: its trace tree (None when observability is disabled).
    span_id: int | None = None
    trace_id: int | None = None

    def summary(self) -> str:
        report = self.report
        head = (
            f"transition to v{self.result.new_plan.program.version}: "
            f"{report.steps_applied} step(s), {len(report.device_windows)} device window(s), "
            f"{report.duration_s:.3f}s"
        )
        if self.forced_two_phase:
            head += " [escalated to two-phase]"
        lines = [head]
        for device in sorted(report.device_windows):
            start, end = report.device_windows[device]
            mode = "reflash" if device in report.reflashed_devices else "hitless"
            lines.append(f"  {device}: {mode} t={start:.3f}..{end:.3f}")
        if report.migrations:
            lines.append(f"  migrations: {len(report.migrations)}")
        if self.gc_evicted:
            lines.append(f"  gc evicted: {', '.join(self.gc_evicted)}")
        if self.race_findings:
            lines.append(
                "  race findings: "
                + ", ".join(sorted({f.code for f in self.race_findings}))
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        report = self.report
        return {
            "to_version": self.result.new_plan.program.version,
            "compile_iterations": self.compile_iterations,
            "gc_evicted": list(self.gc_evicted),
            "forced_two_phase": self.forced_two_phase,
            "race_findings": sorted({f.code for f in self.race_findings}),
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "transition": {
                "started_at": round(report.started_at, 9),
                "finished_at": round(report.finished_at, 9),
                "duration_s": round(report.duration_s, 9),
                "steps_applied": report.steps_applied,
                "device_windows": {
                    device: [round(start, 9), round(end, 9)]
                    for device, (start, end) in sorted(report.device_windows.items())
                },
                "reflashed": sorted(report.reflashed_devices),
                "migrations": len(report.migrations),
                "commands_dropped": report.commands_dropped,
                "command_retries": report.command_retries,
                "stranded": sorted(report.stranded_commands),
                "deferred_starts": sorted(report.deferred_starts),
                "stale_rejected": report.stale_rejected,
                "undispatched": sorted(report.undispatched),
            },
        }


class FlexNetController:
    """See module docstring."""

    def __init__(
        self,
        loop: EventLoop | None = None,
        objective: Objective | None = None,
    ):
        self.loop = loop or EventLoop()
        self.network = Network(self.loop)
        self.topology = TopologyView()
        self.engine = PlacementEngine(objective)
        self.incremental = IncrementalCompiler(self.engine)
        self.hub = P4RuntimeHub()
        self.telemetry = TelemetryCollector()
        self.replication = ReplicationManager(self.loop)
        self.rpc_registry = RpcRegistry()
        self.drpc = DrpcFabric(self.rpc_registry)

        self.devices: dict[str, DeviceRuntime] = {}
        #: the fleet's execution-engine configuration (set through
        #: :meth:`repro.core.flexnet.FlexNet.engine`); every device added
        #: later starts under it.
        self.engine_config = EngineConfig()
        self.orchestrator = ReconfigOrchestrator(self.loop, self.devices)

        #: FlexFault wiring (populated by :meth:`attach_faults`).
        self.fault_injector = None
        self.journal = None
        self.recovery = None
        self.health = None

        #: FlexScope wiring (populated by
        #: :meth:`repro.observe.Observer.enable` only — ``None`` means
        #: observability is off and no call site pays more than this
        #: attribute check).
        self.observer = None

        #: FlexHA wiring (populated by :meth:`repro.control.ha.FlexHA.attach`
        #: only — ``None`` means the controller runs unreplicated).
        self.ha = None

        self._composer: Composer | None = None
        #: the live version: its plan and its admission record, adopted
        #: together (``_facts.program is _plan.program``).
        self._plan: CompilationPlan | None = None
        self._facts: ProgramFacts | None = None
        self._path: list[str] = []
        self._slice: NetworkSlice | None = None
        self._apps: dict[str, AppRecord] = {}
        self._tenants: dict[str, tuple[TenantSpec, Program]] = {}
        self._last_gc_evicted: list[str] = []
        self._endpoints: tuple[str, str] | None = None

    # -- topology construction --------------------------------------------------

    def add_device(self, name: str, target: Target | None) -> DeviceRuntime | None:
        """Register a device; programmable devices get a live runtime and
        a P4Runtime binding."""
        self.topology.add_device(name, target)
        if target is None:
            return None
        runtime = DeviceRuntime(name, target, engine=self.engine_config)
        self.devices[name] = runtime
        self.network.add_node(runtime)
        self.hub.bind(runtime)
        self.drpc.set_device_speed(name, target.performance.per_op_ns)
        if self.observer is not None:
            self.observer.attach_device(runtime)
        return runtime

    def add_link(self, a: str, b: str, latency_s: float = 1e-6) -> None:
        self.topology.add_link(a, b, latency_s)
        if a in self.devices and b in self.devices:
            self.network.add_link(a, b, latency_s)

    def set_datapath_endpoints(self, source: str, destination: str) -> None:
        """Fix the fungible datapath's slice to the shortest path between
        two endpoints; the compiler places everything along it."""
        self._endpoints = (source, destination)
        self._set_path(self.topology.shortest_path(source, destination))

    def _set_path(self, path: list[str]) -> None:
        """Adopt a concrete route for the datapath.

        Non-programmable hops forward but host nothing: the simulated
        path collapses them into the link latency between the adjacent
        programmable devices.
        """
        self._path = list(path)
        self._slice = self.topology.slice_along(self._path)
        programmable = [n for n in self._path if n in self.devices]
        # Bridge over legacy hops: accumulate underlying link latency
        # between consecutive programmable devices and materialize a
        # direct simulated link when one is missing.
        last_programmable: str | None = None
        accumulated = 0.0
        for index, node in enumerate(self._path):
            if index > 0:
                accumulated += self.topology.link_latency(self._path[index - 1], node)
            if node in self.devices:
                if last_programmable is not None and not self.network.has_link(
                    last_programmable, node
                ):
                    self.network.add_link(last_programmable, node, accumulated)
                last_programmable = node
                accumulated = 0.0
        self.network.define_path("datapath", programmable)

    @property
    def datapath_path(self) -> list[str]:
        return list(self._path)

    @property
    def program(self) -> Program:
        if self._plan is None:
            raise ControlPlaneError("no program installed yet")
        return self._plan.program

    @property
    def facts(self) -> ProgramFacts | None:
        """The live version's admission record (``None`` before the
        first install): what the next version's analysis carries
        unchanged elements over from."""
        return self._facts

    @property
    def plan(self) -> CompilationPlan:
        if self._plan is None:
            raise ControlPlaneError("no plan compiled yet")
        return self._plan

    def slice(self) -> NetworkSlice:
        if self._slice is None:
            raise ControlPlaneError("datapath endpoints not set")
        return self.topology.slice_along(self._path)

    # -- provisioning ---------------------------------------------------------------

    def install_infrastructure(self, program: Program | ProgramFacts) -> CompilationPlan:
        """Compile and cold-install the operator's base program (given
        as a program, or as the facts admission already computed)."""
        facts = ProgramFacts.of(program, previous=self._facts)
        program = facts.program
        plan = self.engine.compile(
            program, facts.certificate, self.slice(), gc_hook=self._gc_hook
        )
        self._composer = Composer(program)
        self._plan, self._facts = plan, facts
        self.orchestrator.install_plan(plan)
        uri = AppUri(owner="infrastructure", name="base")
        record = AppRecord(
            uri=uri,
            elements=set(program.element_names),
            deployed_at=self.loop.now,
        )
        record.refresh_footprint(plan.placement)
        self._apps[str(uri)] = record
        return plan

    # -- the core transition path ------------------------------------------------------

    def transition_to(
        self,
        new_program: Program | ProgramFacts,
        changes: ChangeSet | None = None,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
        strict_analysis: bool = False,
        *,
        epoch: int | None = None,
        dispatch_gate=None,
        delta_id: int | None = None,
    ) -> TransitionOutcome:
        """Incrementally recompile to ``new_program`` and orchestrate the
        hitless runtime transition (see :meth:`_transition_to` for the
        mechanics). ``new_program`` is a program — validated, certified
        and analyzed here, once, carrying over what it keeps unchanged
        from the live version — or the :class:`ProgramFacts` the
        caller's admission already computed. With FlexScope enabled, the
        whole change runs inside an "update" span (the orchestrator's
        transition/window spans nest under it) and the outcome carries
        the span ids.

        ``epoch``/``dispatch_gate``/``delta_id`` are FlexHA's fencing
        hooks, threaded down to the orchestrator's device windows."""
        facts = ProgramFacts.of(new_program, previous=self._facts)
        observer = self.observer
        outcome = span = None
        with ExitStack() as observed:
            if observer is not None:
                span = observed.enter_context(
                    observer.tracer.span(
                        "update",
                        "update",
                        self.loop.now,
                        end_time=lambda: (
                            outcome.report.finished_at if outcome else self.loop.now
                        ),
                        to_version=facts.program.version,
                        consistency=consistency.name,
                    )
                )
                observed.enter_context(observer.profiler.phase("transition"))
            outcome = self._transition_to(
                facts,
                changes,
                consistency,
                strict_analysis,
                epoch=epoch,
                dispatch_gate=dispatch_gate,
                delta_id=delta_id,
            )
            if span is not None:
                span.attrs.update(
                    steps=outcome.report.steps_applied,
                    forced_two_phase=outcome.forced_two_phase,
                )
        if observer is None:
            return outcome
        report = outcome.report
        outcome.span_id = span.span_id
        outcome.trace_id = span.parent_id if span.parent_id is not None else span.span_id
        metrics = observer.metrics
        metrics.counter(
            "flexnet_transitions_total",
            help="runtime transitions orchestrated",
            consistency=consistency.name,
            forced_two_phase=str(outcome.forced_two_phase).lower(),
        ).inc()
        metrics.histogram(
            "flexnet_schedule_makespan_seconds",
            help="end-to-end transition makespan",
        ).observe(report.duration_s)
        for device_name in sorted(report.device_windows):
            start, end = report.device_windows[device_name]
            metrics.histogram(
                "flexnet_transition_window_seconds",
                help="per-device transition window",
                device=device_name,
            ).observe(end - start)
        observer.profiler.add_sim("transition_window", report.duration_s)
        return outcome

    def _transition_to(
        self,
        facts: ProgramFacts,
        changes: ChangeSet | None,
        consistency: ConsistencyLevel,
        strict_analysis: bool,
        **fencing,
    ) -> TransitionOutcome:
        """Incrementally recompile to ``facts.program`` and orchestrate
        the hitless runtime transition under the requested consistency.

        Every transition first runs FlexCheck's reconfiguration-race pass
        against the live program, whose facts the controller kept from
        its own admission. Hazards under a per-device schedule are
        *escalated*: the controller forces the transition through the
        two-phase consistent path (PER_PACKET_PATH epoch stamping plus
        swing-state migration of the flagged maps) so the change ships
        safely. With ``strict_analysis=True`` the transition is instead
        rejected with :class:`~repro.errors.AnalysisError`.
        """
        if self._plan is None:
            raise ControlPlaneError("install infrastructure before transitioning")
        new_program = facts.program
        changes = changes or diff_programs(self._plan.program, new_program)

        race_findings: tuple[Finding, ...] = ()
        forced_two_phase = False
        protected_maps: set[str] = set()
        if not changes.is_empty():
            two_phase = consistency in (
                ConsistencyLevel.PER_PACKET_PATH,
                ConsistencyLevel.PER_FLOW,
            )
            race_report = check_changeset(
                self._facts, facts, changes, two_phase=two_phase
            )
            if race_report.errors:
                if strict_analysis:
                    from repro.errors import AnalysisError

                    detail = "; ".join(f.message for f in race_report.errors)
                    raise AnalysisError(
                        f"transition to {new_program.name!r} v{new_program.version} "
                        f"rejected by FlexCheck race analysis: {detail}"
                    )
                # Escalate onto the two-phase consistent path.
                consistency = ConsistencyLevel.PER_PACKET_PATH
                forced_two_phase = True
                race_report = check_changeset(
                    self._facts, facts, changes, two_phase=True
                )
            race_findings = race_report.findings
            protected_maps = {
                finding.element
                for finding in race_findings
                if finding.element is not None
                and finding.code in ("RACE-MAP-RESIZE", "RACE-MAP-REMOVED")
            }

        result = self.incremental.recompile(
            self._plan, new_program, self.slice(), changes, facts.certificate
        )
        new_plan = result.new_plan

        per_device_steps: dict[str, list[float]] = {}
        for step in result.reconfig.steps:
            per_device_steps.setdefault(step.device, []).append(step.cost_s)
        per_device_window = {
            device: batched_window_s(costs)
            for device, costs in per_device_steps.items()
        }
        updated_in_path = [
            d for d in self.network.path("datapath") if d in per_device_window
        ] or [d for d in self.network.path("datapath") if d in set(new_plan.placement.values())]
        schedule = plan_schedule(consistency, updated_in_path, per_device_window)

        report = self._commit(
            result,
            facts,
            stagger=schedule.stagger,
            window_override=schedule.window_s,
            flow_affine=consistency is ConsistencyLevel.PER_FLOW,
            protected_maps=protected_maps or None,
            **fencing,
        )
        return TransitionOutcome(
            result=result,
            report=report,
            compile_iterations=new_plan.iterations,
            gc_evicted=list(self._last_gc_evicted),
            race_findings=race_findings,
            forced_two_phase=forced_two_phase,
        )

    def _commit(
        self, result: IncrementalResult, facts: ProgramFacts, **apply_kwargs
    ) -> TransitionReport:
        """The one way a compiled version reaches the devices: schedule
        its windows, then adopt plan and facts together and refresh
        every app's footprint."""
        report = self.orchestrator.apply(
            result.reconfig, result.new_plan, old_plan=self._plan, **apply_kwargs
        )
        self._plan, self._facts = result.new_plan, facts
        for record in self._apps.values():
            record.refresh_footprint(result.new_plan.placement)
        return report

    # -- app-level API (URI handles) ---------------------------------------------------

    def app(self, uri: str) -> AppRecord:
        if uri not in self._apps:
            raise UnknownAppError(f"no app {uri!r}")
        return self._apps[uri]

    @property
    def app_uris(self) -> list[str]:
        return sorted(self._apps)

    def deploy_app(
        self,
        uri: str,
        delta: Delta,
        sla: AppSla | None = None,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
        max_gc_rounds: int = 3,
        allow_detour: bool = False,
    ) -> TransitionOutcome:
        """Inject an app (expressed as a delta over the current program).

        Implements the §3.3 compile loop: if placement fails, garbage-
        collect one removable app and *replay the delta against the
        trimmed program*, up to ``max_gc_rounds`` times. With
        ``allow_detour`` the controller additionally co-designs routing
        and placement: when GC cannot free enough, it searches for a
        loop-free detour route through an off-path runtime programmable
        device with capacity, re-routes the datapath, and retries.
        """
        from repro.errors import PlacementError

        parsed = AppUri.parse(uri)
        if uri in self._apps:
            raise ControlPlaneError(f"app {uri!r} already deployed")
        self._last_gc_evicted = []
        attempts = 0
        detoured = False
        while True:
            attempts += 1
            new_program, changes = apply_delta(self.program, delta)
            facts = ProgramFacts.of(new_program, previous=self._facts)
            try:
                outcome = self.transition_to(facts, changes, consistency)
                break
            except PlacementError:
                if not detoured and attempts > max_gc_rounds:
                    raise
                if self._gc_once():
                    continue
                if allow_detour and not detoured and self._try_detour(facts):
                    detoured = True
                    continue
                raise
        outcome.compile_iterations = attempts
        outcome.gc_evicted = list(self._last_gc_evicted)
        record = AppRecord(
            uri=parsed,
            elements=set(changes.added),
            sla=sla or AppSla(),
            deployed_at=self.loop.now,
        )
        record.refresh_footprint(outcome.result.new_plan.placement)
        self._apps[uri] = record
        return outcome

    def remove_app(
        self,
        uri: str,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
    ) -> TransitionOutcome:
        """Retire an app and release its resources."""
        record = self.app(uri)
        ops = [
            RemoveElements(pattern=element)
            for element in sorted(record.elements)
            if self.program.has_table(element)
            or self.program.has_function(element)
            or self.program.has_map(element)
        ]
        if not ops:
            raise ControlPlaneError(f"app {uri!r} has no removable elements")
        delta = Delta(name=f"remove:{record.uri.name}", ops=tuple(ops))
        new_program, changes = apply_delta(self.program, delta)
        outcome = self.transition_to(new_program, changes, consistency)
        del self._apps[uri]
        return outcome

    def scale_app(self, uri: str, factor: float) -> TransitionOutcome:
        """Elastically resize an app's tables and maps by ``factor``."""
        record = self.app(uri)
        ops = []
        for element in sorted(record.elements):
            if self.program.has_table(element):
                current = self.program.table(element).size
                ops.append(
                    SetTableSize(pattern=element, size=max(int(current * factor), 1))
                )
            elif self.program.has_map(element):
                current = self.program.map(element).max_entries
                ops.append(
                    SetMapEntries(pattern=element, max_entries=max(int(current * factor), 1))
                )
        if not ops:
            raise ControlPlaneError(f"app {uri!r} has nothing scalable")
        delta = Delta(name=f"scale:{record.uri.name}", ops=tuple(ops))
        new_program, changes = apply_delta(self.program, delta)
        outcome = self.transition_to(new_program, changes)
        record.generation += 1
        return outcome

    def migrate_app(self, uri: str, to_device: str) -> TransitionOutcome:
        """Move an app's elements to a specific device (vertical or
        horizontal migration), carrying durable state."""
        record = self.app(uri)
        if to_device not in self.devices:
            raise ControlPlaneError(f"unknown device {to_device!r}")
        facts = ProgramFacts.of(self.program.bump_version(), previous=self._facts)
        result = self.incremental.recompile(
            self._plan,
            facts.program,
            self.slice(),
            ChangeSet(modified=frozenset(record.elements), apply_changed=False),
            facts.certificate,
            pinned=dict.fromkeys(record.elements, to_device),
        )
        misplaced = [
            element
            for element in record.elements
            if result.new_plan.placement.get(element) != to_device
        ]
        if misplaced:
            raise ControlPlaneError(
                f"cannot host {misplaced} of app {uri!r} on {to_device!r}"
            )
        report = self._commit(result, facts)
        record.generation += 1
        return TransitionOutcome(result=result, report=report)

    # -- tenants ----------------------------------------------------------------------

    def _infrastructure_view(self) -> Program:
        """The current program with every admitted tenant's namespaced
        elements and VLAN guard stripped — i.e., the live infrastructure
        program, including every delta applied since install. This keeps
        composition correct when infrastructure changes interleave with
        tenant churn."""
        import re
        from dataclasses import replace as dc_replace

        from repro.lang import ir

        program = self.program
        # Strip the composer's "+Next" suffix so the composed name is a
        # pure function of the install name and the *current* tenant
        # count — a coalesced window sequence must land on a program
        # byte-identical to serial per-delta admission, name included.
        name = re.sub(r"(\+\d+ext)+$", "", program.name)
        if not self._tenants:
            if name != program.name:
                program = dc_replace(program, name=name)
            return program
        prefixes = tuple(f"{name}__" for name in self._tenants)
        vlans = {spec.vlan_id for spec, _ in self._tenants.values()}

        def is_tenant_guard(step: ir.ApplyStep) -> bool:
            return (
                isinstance(step, ir.ApplyIf)
                and isinstance(step.condition, ir.BinOp)
                and isinstance(step.condition.left, ir.MetaRef)
                and step.condition.left.key == "vlan_id"
                and isinstance(step.condition.right, ir.Const)
                and step.condition.right.value in vlans
            )

        return dc_replace(
            program,
            name=name,
            maps=tuple(m for m in program.maps if not m.name.startswith(prefixes)),
            actions=tuple(a for a in program.actions if not a.name.startswith(prefixes)),
            tables=tuple(t for t in program.tables if not t.name.startswith(prefixes)),
            functions=tuple(
                f for f in program.functions if not f.name.startswith(prefixes)
            ),
            apply=tuple(s for s in program.apply if not is_tenant_guard(s)),
        )

    def _compose_with_tenants(
        self, tenants: dict[str, tuple[TenantSpec, Program]]
    ) -> Program:
        base = self._infrastructure_view()
        composer = Composer(base)
        for spec, extension in tenants.values():
            composer.admit(spec, extension)
        composed = composer.compose().composed
        self._composer = composer
        return _with_version(composed, self.program.version + 1)

    def admit_tenant(
        self,
        tenant: TenantSpec,
        extension: Program,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
    ) -> TransitionOutcome:
        """Validate, compose, and inject a tenant extension (§3 scenario).

        A one-element batch: FlexCloud coalesces queued tenant deltas
        into :meth:`admit_tenants_batch` windows, and the synchronous
        path goes through the same code so there is exactly one
        admission path through the controller."""
        return self.admit_tenants_batch([(tenant, extension)], (), consistency=consistency)

    def evict_tenant(
        self,
        tenant_name: str,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
    ) -> TransitionOutcome:
        """Tenant departure: trim its extension and release resources."""
        return self.admit_tenants_batch((), [tenant_name], consistency=consistency)

    def admit_tenants_batch(
        self,
        admits,
        evicts=(),
        *,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
        ops: int | None = None,
        epoch: int | None = None,
        dispatch_gate=None,
        delta_id: int | None = None,
    ) -> TransitionOutcome:
        """Fold a round's tenant churn into ONE composition and ONE
        hitless transition (FlexCloud's coalesced reconfiguration
        window).

        ``admits`` is a sequence of ``(TenantSpec, extension)`` pairs,
        ``evicts`` a sequence of tenant names; the batch is atomic —
        validation failures and composition conflicts raise before any
        tenant state mutates, so the caller can fall back to serial
        per-delta admission and attach the failure to the offending
        ticket. ``ops`` is the number of folded deltas the batch stands
        for (defaults to ``len(admits) + len(evicts)``): the composed
        program's version advances by exactly that much, so a coalesced
        window sequence lands on a program *byte-identical* to serial
        per-delta admission of the same deltas.

        ``epoch``/``dispatch_gate``/``delta_id`` thread FlexHA's fencing
        hooks down to the transition, letting a replicated admission
        queue drain through fenced windows.
        """
        admits = list(admits)
        evicts = list(evicts)
        if not admits and not evicts:
            raise ControlPlaneError("empty tenant batch")
        if admits and self._composer is None:
            raise ControlPlaneError("install infrastructure first")
        admit_names = [spec.name for spec, _ in admits]
        for name in admit_names:
            if name in self._tenants or admit_names.count(name) > 1:
                raise ControlPlaneError(f"tenant {name!r} already admitted")
        for name in evicts:
            if self._composer is None or name not in self._tenants:
                raise ControlPlaneError(f"tenant {name!r} not admitted")
        overlap = set(admit_names) & set(evicts)
        if overlap:
            raise ControlPlaneError(
                f"tenant {sorted(overlap)[0]!r} appears as both admit and "
                "evict in one batch"
            )
        new_tenants = {
            name: value for name, value in self._tenants.items() if name not in evicts
        }
        for spec, extension in admits:
            new_tenants[spec.name] = (spec, extension)
        # Compose *before* mutating tenant state so _infrastructure_view
        # still strips departing tenants, and so a CompositionError
        # leaves the controller untouched.
        composed = self._compose_with_tenants(new_tenants)
        folded = ops if ops is not None else len(admits) + len(evicts)
        composed = _with_version(composed, self.program.version + folded)
        outcome = self.transition_to(
            composed,
            consistency=consistency,
            epoch=epoch,
            dispatch_gate=dispatch_gate,
            delta_id=delta_id,
        )
        self._tenants = new_tenants
        for name in evicts:
            self._apps.pop(str(AppUri(owner=name, name="extension")), None)
        for spec, _ in admits:
            prefix = f"{spec.name}__"
            elements = {e for e in composed.element_names if e.startswith(prefix)}
            uri = AppUri(owner=spec.name, name="extension")
            record = AppRecord(uri=uri, elements=elements, deployed_at=self.loop.now)
            record.refresh_footprint(outcome.result.new_plan.placement)
            self._apps[str(uri)] = record
        return outcome

    @property
    def tenant_names(self) -> list[str]:
        return sorted(self._tenants)

    # -- routing/placement co-design ------------------------------------------------------

    def _try_detour(self, facts: ProgramFacts) -> bool:
        """Find a loop-free detour route through an off-path runtime
        programmable device on which ``facts.program`` compiles; adopt it
        and return True, or leave the route untouched and return False.
        """
        from repro.errors import PlacementError, UnknownDeviceError

        if self._endpoints is None or self._plan is None:
            return False
        source, destination = self._endpoints
        new_program = facts.program
        survivors = {
            element: device
            for element, device in self._plan.placement.items()
            if new_program.has_table(element)
            or new_program.has_function(element)
            or new_program.has_map(element)
        }
        for via in self.topology.runtime_programmable_devices:
            if via in self._path or via in (source, destination):
                continue
            try:
                path = self.topology.detour_path(source, destination, via)
                candidate_slice = self.topology.slice_along(path)
                self.engine.compile(
                    new_program, facts.certificate, candidate_slice, pinned=survivors
                )
            except (PlacementError, UnknownDeviceError):
                continue
            self._set_path(path)
            return True
        return False

    # -- FlexFault: fault injection + recovery wiring ----------------------------------

    def attach_faults(
        self,
        injector,
        recovery: bool = True,
        policy=None,
        monitor: bool = False,
        resume: bool = True,
    ):
        """Wire a FlexFault injector through every hook point: the
        reconfiguration orchestrator (lost start commands, journaled
        windows), the P4Runtime hub (lossy control channel), and the
        dRPC fabric (flaky handlers).

        With ``recovery=True`` (the default) the full recovery stack is
        armed: retry-with-backoff on control and dRPC calls, a
        write-ahead journal making delta application transactional, and
        a :class:`~repro.faults.recovery.RecoveryManager` that resolves
        crash-interrupted transitions on restart (``resume=True`` rolls
        forward to the new version, ``False`` rolls back).
        ``recovery=False`` is the no-recovery baseline experiment E16
        contrasts against. ``monitor=True`` additionally starts the
        health monitor, which quarantines unresponsive devices and
        detours the datapath around them when an alternate route exists.
        Returns the recovery manager (or None for the baseline).
        """
        from repro.control.p4runtime import ControlChannel
        from repro.faults.journal import ReconfigJournal
        from repro.faults.recovery import HealthMonitor, RecoveryManager, RetryPolicy

        policy = policy or RetryPolicy()
        self.fault_injector = injector
        self.journal = ReconfigJournal()
        self.orchestrator.injector = injector
        self.orchestrator.journal = self.journal
        self.drpc.injector = injector
        self.hub.set_channel(ControlChannel(injector, retry=policy if recovery else None))
        self.recovery = None
        self.health = None
        if recovery:
            self.recovery = RecoveryManager(
                self.loop,
                self.devices,
                self.journal,
                policy,
                telemetry=self.telemetry,
                resume=resume,
            )
            self.orchestrator.recovery = self.recovery
        if monitor:
            self.health = HealthMonitor(
                self.loop,
                self.devices,
                telemetry=self.telemetry,
                on_quarantine=self._on_quarantine,
                on_release=self._on_health_release,
            )
            self.health.start()
        return self.recovery

    def _on_quarantine(self, device_name: str) -> None:
        """Health-monitor callback: detour the datapath around a
        quarantined device when the topology offers a route."""
        try:
            self.reroute_datapath(avoid={device_name})
        except ControlPlaneError:
            pass  # no alternate route — the datapath stays degraded

    def _on_health_release(self, device_name: str) -> None:
        """Health-monitor callback: a quarantined device came back. With
        FlexHA attached, the leader resyncs it — the device may have
        missed whole transition windows while unreachable, and its
        ground truth must be re-read and repaired against the committed
        log."""
        if self.ha is not None:
            self.ha.resync_device(device_name)

    def reroute_datapath(self, avoid: set[str]) -> list[str]:
        """Re-route the datapath between its endpoints, skipping the
        ``avoid`` devices; returns the new path."""
        if self._endpoints is None:
            raise ControlPlaneError("datapath endpoints not set")
        source, destination = self._endpoints
        path = self.topology.path_avoiding(source, destination, set(avoid))
        self._set_path(path)
        return path

    # -- GC hook (the compiler's fungibility loop) --------------------------------------

    def _gc_hook(self, network_slice: NetworkSlice) -> bool:
        """Compiler-facing adapter around :meth:`_gc_once` (used during
        infrastructure install, where no delta replay is needed)."""
        return self._gc_once()

    def _gc_once(self) -> bool:
        """Retire one removable app to free resources; returns True if
        any resources were reclaimed."""
        removable = [
            uri
            for uri, record in self._apps.items()
            if record.sla.removable and record.elements
        ]
        if not removable or self._plan is None:
            return False
        victim_uri = removable[0]
        record = self._apps[victim_uri]
        ops = [
            RemoveElements(pattern=element)
            for element in sorted(record.elements)
            if self.program.has_table(element)
            or self.program.has_function(element)
            or self.program.has_map(element)
        ]
        if not ops:
            return False
        delta = Delta(name=f"gc:{record.uri.name}", ops=tuple(ops))
        new_program, changes = apply_delta(self.program, delta)
        facts = ProgramFacts.of(new_program, previous=self._facts)
        result = self.incremental.recompile(
            self._plan, facts.program, self.slice(), changes, facts.certificate
        )
        self._commit(result, facts)
        del self._apps[victim_uri]
        self._last_gc_evicted.append(victim_uri)
        return True

    # -- reporting ---------------------------------------------------------------------

    def device_utilization(self) -> dict[str, float]:
        if self._plan is None:
            return {}
        usage: dict[str, float] = {}
        for spec in self.slice().devices:
            demand = self._plan.device_demand.get(spec.name)
            if demand is None:
                usage[spec.name] = 0.0
            else:
                usage[spec.name] = demand.utilization_of(spec.target.capacity)
        return usage


def _with_version(program: Program, version: int) -> Program:
    from dataclasses import replace

    return replace(program, version=version)

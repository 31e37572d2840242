"""The FlexNet facade: the library's primary entry point.

Wraps topology construction, the admission pipeline (certify ->
access-control -> compile), the controller, and traffic simulation into
one object so a user can stand up a runtime programmable network in a
few lines::

    net = FlexNet()
    net.add_host("h1"); net.add_smartnic("nic1"); net.add_switch("sw1")
    net.add_host("h2"); net.add_smartnic("nic2")
    net.connect("h1", "nic1"); net.connect("nic1", "sw1")
    net.connect("sw1", "nic2"); net.connect("nic2", "h2")
    net.build_datapath("h1", "h2")
    net.install(program)                  # compile + cold install
    net.update(delta)                     # hitless runtime change
    net.run_traffic(rate_pps=1000, duration_s=2)

Admission: every program or delta entering the network is certified by
the analyzer first (bounded execution / well-behavedness); tenant
extensions additionally pass access-control validation inside the
composer. Rejections raise before any device is touched.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cloud.admission import Ticket

from repro import analysis
from repro.compiler.plan import CompilationPlan
from repro.control.controller import FlexNetController, TransitionOutcome
from repro.errors import AnalysisError, ControlPlaneError
from repro.lang.composition import TenantSpec
from repro.lang.delta import Delta, apply_delta
from repro.lang.ir import Program
from repro.observe import Observer
from repro.runtime.consistency import ConsistencyChecker, ConsistencyLevel
from repro.runtime.device import EngineConfig
from repro.simulator.metrics import RunMetrics
from repro.simulator.flowgen import TimedPacket, constant_rate
from repro.targets import drmt_switch, fpga, host, rmt_switch, smartnic, tiled_switch
from repro.targets.base import Target

from repro.core.datapath import FungibleDatapath
from repro.core.slo import Slo


class InstallOutcome:
    """Outcome of a cold install (FlexScope-era :meth:`FlexNet.install`).

    Proxies attribute access to the wrapped
    :class:`~repro.compiler.plan.CompilationPlan`, so existing callers
    reading ``plan.placement`` / ``plan.estimated_latency_ns`` keep
    working, while new callers get the unified outcome shape: the
    :class:`~repro.observe.report.Reportable` protocol plus the trace
    span ids when observability is enabled.
    """

    def __init__(
        self,
        plan: CompilationPlan,
        span_id: int | None = None,
        trace_id: int | None = None,
    ):
        self.plan = plan
        self.span_id = span_id
        self.trace_id = trace_id

    def __getattr__(self, name: str):
        return getattr(self.plan, name)

    def summary(self) -> str:
        plan = self.plan
        lines = [
            f"installed {plan.program.name!r} v{plan.program.version}: "
            f"{len(plan.placement)} element(s) on "
            f"{len(set(plan.placement.values()))} device(s), "
            f"~{plan.estimated_latency_ns:.0f} ns/packet"
        ]
        for element in sorted(plan.placement):
            lines.append(f"  {element} -> {plan.placement[element]}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        plan = self.plan
        return {
            "program": plan.program.name,
            "version": plan.program.version,
            "placement": dict(sorted(plan.placement.items())),
            "estimated_latency_ns": round(plan.estimated_latency_ns, 3),
            "estimated_energy_nj": round(plan.estimated_energy_nj, 3),
            "iterations": plan.iterations,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
        }


@dataclass
class TelemetrySnapshot:
    """Telemetry totals at the end of a traffic run."""

    total_digests: int = 0
    total_events: int = 0

    def to_dict(self) -> dict:
        return {"total_digests": self.total_digests, "total_events": self.total_events}


@dataclass
class TrafficReport:
    metrics: RunMetrics
    consistency: ConsistencyChecker | None = None
    telemetry: TelemetrySnapshot = field(default_factory=TelemetrySnapshot)

    def summary(self) -> str:
        lines = [self.metrics.summary()]
        if self.telemetry.total_digests:
            lines.append(f"digests: {self.telemetry.total_digests}")
        if self.consistency is not None:
            result = self.consistency.report()
            verdict = "ok" if result.holds else "VIOLATED"
            lines.append(
                f"consistency [{result.level.name}]: {verdict} "
                f"({result.violations} violation(s) / {result.packets_checked} checked)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        data = {
            "metrics": self.metrics.to_dict(),
            "telemetry": self.telemetry.to_dict(),
        }
        if self.consistency is not None:
            result = self.consistency.report()
            data["consistency"] = {
                "level": result.level.name,
                "holds": result.holds,
                "packets_checked": result.packets_checked,
                "violations": result.violations,
            }
        return data


@dataclass
class FlexNet:
    """One runtime programmable network; see module docstring."""

    controller: FlexNetController = field(default_factory=FlexNetController)
    datapath: FungibleDatapath = field(
        default_factory=lambda: FungibleDatapath(name="datapath")
    )
    #: FlexScope façade — ``net.observe.enable()`` wires tracing,
    #: metrics, and profiling through every layer; until then the whole
    #: observation stack stays detached (zero-cost).
    observe: Observer = field(default_factory=Observer)
    #: lazy FlexCloud admission engine (built on first ``net.cloud`` /
    #: ``net.submit`` / tenant call).
    _cloud: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.observe.bind(self.controller)

    # -- topology sugar ------------------------------------------------------

    def add_host(self, name: str, **kwargs) -> None:
        self.controller.add_device(name, host(name, **kwargs))

    def add_smartnic(self, name: str, **kwargs) -> None:
        self.controller.add_device(name, smartnic(name, **kwargs))

    def add_switch(self, name: str, arch: str = "drmt", **kwargs) -> None:
        """``arch``: "drmt" (Spectrum-like), "tiles" (Trident4-like),
        "rmt" (Tofino-like *with* the hypothetical runtime upgrade), or
        "rmt_static" (stock compile-time-only Tofino)."""
        factories = {
            "drmt": drmt_switch,
            "rmt": lambda n, **kw: rmt_switch(n, runtime_capable=True, **kw),
            "rmt_static": lambda n, **kw: rmt_switch(n, runtime_capable=False, **kw),
            "tiles": tiled_switch,
        }
        if arch not in factories:
            raise ControlPlaneError(f"unknown switch architecture {arch!r}")
        self.controller.add_device(name, factories[arch](name, **kwargs))

    def add_fpga(self, name: str, **kwargs) -> None:
        self.controller.add_device(name, fpga(name, **kwargs))

    def add_legacy(self, name: str) -> None:
        """A non-programmable element (forwards, hosts nothing)."""
        self.controller.add_device(name, None)

    def add_custom(self, name: str, target: Target) -> None:
        self.controller.add_device(name, target)

    def connect(self, a: str, b: str, latency_s: float = 1e-6) -> None:
        self.controller.add_link(a, b, latency_s)

    def build_datapath(
        self, source: str, destination: str, slo: Slo | None = None
    ) -> FungibleDatapath:
        self.controller.set_datapath_endpoints(source, destination)
        if slo is not None:
            self.datapath.slo = slo
            self.controller.engine.objective = slo.to_objective()
        self.datapath.source = source
        self.datapath.destination = destination
        return self.datapath

    @classmethod
    def standard(cls, switch_arch: str = "drmt") -> "FlexNet":
        """The canonical 5-hop slice used throughout the examples:
        host - NIC - switch - NIC - host."""
        net = cls()
        net.add_host("h1")
        net.add_smartnic("nic1")
        net.add_switch("sw1", arch=switch_arch)
        net.add_smartnic("nic2")
        net.add_host("h2")
        for a, b in [("h1", "nic1"), ("nic1", "sw1"), ("sw1", "nic2"), ("nic2", "h2")]:
            net.connect(a, b, 2e-6)
        net.build_datapath("h1", "h2")
        return net

    # -- admission + programming -----------------------------------------------

    def admit(self, program: Program, check_placement: bool = False) -> analysis.ProgramFacts:
        """Certify a program for admission (raises AnalysisError if it
        cannot be certified or FlexCheck finds blocking issues) and
        return its :class:`~repro.analysis.ProgramFacts` — the one
        analysis of this version, which :meth:`install` / :meth:`update`
        hand on to the controller. Elements the program keeps unchanged
        from the live version carry their facts over from its record.

        The analyzer proves the *bounds* (ops, state); FlexCheck proves
        *behaviour* (data flow, lints, and — with ``check_placement`` —
        that the slice can physically host the program at all).
        """
        facts = analysis.ProgramFacts.of(program, previous=self.controller.facts)
        target = self.controller.slice() if check_placement else None
        report = analysis.check(facts.program, target=target, facts=facts)
        if not report.ok:
            detail = "; ".join(f"{f.code}: {f.message}" for f in report.errors)
            raise AnalysisError(
                f"program {program.name!r} rejected by FlexCheck: {detail}"
            )
        return facts

    def check(self, program: Program | None = None, delta: Delta | None = None):
        """Run FlexCheck against a program (default: the live one) and
        return the full :class:`~repro.analysis.report.Report` without
        raising — the introspection counterpart of :meth:`admit`."""
        subject = program if program is not None else self.controller.program
        try:
            target = self.controller.slice()
        except ControlPlaneError:
            target = None
        live = self.controller.facts
        facts = live if live is not None and subject is live.program else None
        return analysis.check(subject, delta=delta, target=target, facts=facts)

    def vet(self, program: Program | None = None):
        """Run FlexVet against a program (default: the live one) and
        return its :class:`~repro.analysis.vet.VetReport` — the static
        parallelism classification (stateless / per-flow / cross-flow,
        batch safety, shard affinity) the FlexScale partitioner consults
        before forking any work."""
        subject = program if program is not None else self.controller.program
        if subject is None:
            raise ControlPlaneError("no program installed to vet")
        return analysis.vet(subject)

    def install(self, program: Program) -> InstallOutcome:
        """Admit and cold-install the infrastructure program.

        Returns an :class:`InstallOutcome` (which proxies the underlying
        :class:`~repro.compiler.plan.CompilationPlan`, so plan-reading
        callers are unaffected)."""
        span = None
        with ExitStack() as observed:
            if self.observe.enabled:
                span = observed.enter_context(
                    self.observe.tracer.span(
                        "install",
                        "install",
                        lambda: self.loop.now,
                        program=program.name,
                        version=program.version,
                    )
                )
                observed.enter_context(self.observe.profiler.phase("install"))
            facts = self.admit(program, check_placement=True)
            plan = self.controller.install_infrastructure(facts)
        self.datapath.program = self.controller.program
        self.datapath.plan = plan
        self.datapath.certificate = plan.certificate
        return InstallOutcome(
            plan,
            span_id=span.span_id if span is not None else None,
            trace_id=span.span_id if span is not None else None,
        )

    def update(
        self,
        delta: Delta,
        *,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
        strict: bool = False,
    ) -> TransitionOutcome:
        """Apply a runtime delta hitlessly.

        FlexCheck's race pass runs on every update: hazardous deltas are
        forced through the two-phase consistent path (the outcome reports
        ``forced_two_phase``), or rejected outright with ``strict=True``.
        ``consistency`` and ``strict`` are keyword-only.
        """
        new_program, changes = apply_delta(self.controller.program, delta)
        facts = self.admit(new_program)
        outcome = self.controller.transition_to(
            facts, changes, consistency, strict_analysis=strict
        )
        self._refresh()
        return outcome

    # -- FlexCloud: the unified tenant submission path -----------------------------

    @property
    def cloud(self):
        """The FlexCloud admission engine over this network's controller.

        Every tenant operation funnels through it — :meth:`submit` for
        asynchronous churn, :meth:`admit_tenant` / :meth:`evict_tenant`
        as synchronous wrappers — so there is exactly one admission
        path: queue → SLA backpressure → coalesce → one reconfiguration
        window per scheduling round.
        """
        if self._cloud is None:
            from repro.cloud.admission import CloudEngine, ExtensionExecutor

            executor = ExtensionExecutor(self.controller, on_applied=self._refresh)
            self._cloud = CloudEngine(
                executor,
                clock=lambda: self.loop.now,
                observer=self.observe if self.observe.enabled else None,
            )
        return self._cloud

    def submit(self, delta) -> "Ticket":
        """Enqueue one tenant churn operation (admit/evict/update)
        asynchronously and return its :class:`~repro.cloud.admission.Ticket`.

        The ticket resolves when a scheduling round drains it —
        ``net.cloud.drain_round()`` (or ``drain_until_idle()``) steps
        the rounds; ``net.cloud.start(net.loop)`` runs them on the event
        loop. Compatible queued deltas coalesce into a single
        reconfiguration window.
        """
        return self.cloud.submit(delta)

    def _resolve(self, ticket) -> TransitionOutcome:
        """Drain the queue until the ticket terminates, then translate
        its terminal state back into the synchronous calling convention:
        the outcome object on success, the original exception on
        failure, backpressure as ControlPlaneError."""
        self.cloud.drain_until_idle()
        if ticket.error is not None:
            raise ticket.error
        if ticket.state == "shed":
            reason = ticket.outcome.reason.value if ticket.outcome else "shed"
            raise ControlPlaneError(
                f"admission shed for tenant {ticket.delta.tenant!r}: {reason}"
            )
        if not ticket.done or ticket.result is None:
            raise ControlPlaneError(
                f"admission for tenant {ticket.delta.tenant!r} did not resolve "
                f"(state {ticket.state!r})"
            )
        return ticket.result

    def admit_tenant(
        self,
        tenant: TenantSpec,
        extension: Program,
        *,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
    ) -> TransitionOutcome:
        """Admit a tenant extension synchronously.

        Thin wrapper over :meth:`submit` + an immediate drain — the same
        queue, coalescer, and backpressure the asynchronous path uses.
        """
        from repro.cloud.admission import TenantDelta

        ticket = self.submit(
            TenantDelta(
                kind="admit",
                tenant=tenant.name,
                sla_class="gold",
                spec=tenant,
                extension=extension,
                consistency=consistency,
            )
        )
        return self._resolve(ticket)

    def evict_tenant(
        self,
        name: str,
        *,
        consistency: ConsistencyLevel = ConsistencyLevel.PER_PACKET_PER_DEVICE,
    ) -> TransitionOutcome:
        """Evict a tenant synchronously (wrapper over :meth:`submit`)."""
        from repro.cloud.admission import TenantDelta

        ticket = self.submit(
            TenantDelta(
                kind="evict", tenant=name, sla_class="gold", consistency=consistency
            )
        )
        return self._resolve(ticket)

    def _refresh(self) -> None:
        self.datapath.program = self.controller.program
        self.datapath.plan = self.controller.plan
        self.datapath.certificate = self.controller.plan.certificate

    # -- traffic ------------------------------------------------------------------

    def run_traffic(
        self,
        rate_pps: float = 1000.0,
        duration_s: float = 1.0,
        packets: list[TimedPacket] | None = None,
        consistency_level: ConsistencyLevel | None = None,
        collect_digests: bool = True,
        extra_time_s: float = 1.0,
    ) -> TrafficReport:
        """Inject traffic over the datapath and drain the event loop.

        Custom workloads pass ``packets``; otherwise a constant-rate
        flow is generated. Any updates scheduled on the controller's
        loop run interleaved with the traffic.
        """
        metrics = RunMetrics()
        checker = (
            ConsistencyChecker(consistency_level) if consistency_level is not None else None
        )

        def on_done(packet) -> None:
            if checker is not None:
                checker.observe(packet)
            if collect_digests:
                self.controller.telemetry.ingest_packet(packet, self.controller.loop.now)

        workload = packets if packets is not None else list(
            constant_rate(rate_pps, duration_s, start_s=self.controller.loop.now)
        )
        last = self.controller.loop.now
        for timed in workload:
            self.controller.network.inject(
                timed.packet, "datapath", timed.time, metrics, on_done=on_done
            )
            last = max(last, timed.time)
        self.controller.loop.run_until(last + extra_time_s)
        return TrafficReport(
            metrics=metrics,
            consistency=checker,
            telemetry=TelemetrySnapshot(
                total_digests=self.controller.telemetry.total_digests,
                total_events=self.controller.telemetry.total_events,
            ),
        )

    def scale(
        self,
        shards: int = 2,
        *,
        backend: str = "process",
        rate_pps: float = 1000.0,
        duration_s: float = 1.0,
        packets: list[TimedPacket] | None = None,
        seed: int = 2024,
        drain_s: float = 1.0,
        chaos=None,
        checkpoint_every: int | None = None,
    ):
        """Run traffic sharded across worker processes (FlexScale).

        Partitions the fabric with :func:`repro.scale.plan.plan_shards`
        (vet-gated placement) and drives the conservative lookahead
        protocol; the returned
        :class:`~repro.scale.runner.ScaleReport`'s ``traffic`` section
        is byte-identical to what :meth:`run_traffic` reports for the
        same workload. Like ``run_traffic`` this mutates device state.

        ``chaos`` (a :class:`~repro.faults.plan.FaultPlan` with
        FlexMend worker-fault specs) injects worker-process crashes,
        stalls, and handoff drops/dups into the process backend; the
        supervisor absorbs them via windowed checkpoints and the
        traffic section stays byte-identical regardless.
        ``checkpoint_every`` overrides the checkpoint cadence in
        protocol rounds (default: on when chaos is armed, off
        otherwise; ``0`` forces off).

        Workers inherit the fleet's :meth:`engine` configuration.
        """
        from repro.scale.runner import run_sharded

        workload = packets if packets is not None else list(
            constant_rate(rate_pps, duration_s, start_s=self.controller.loop.now)
        )
        return run_sharded(
            self,
            workload,
            shards,
            backend=backend,
            seed=seed,
            drain_s=drain_s,
            chaos=chaos,
            checkpoint_every=checkpoint_every,
        )

    # -- convenience passthroughs ----------------------------------------------------

    @property
    def loop(self):
        return self.controller.loop

    @property
    def program(self) -> Program:
        return self.controller.program

    def export_program(self) -> str:
        """The live composed program as normalized FlexBPF source —
        what an operator reviews after a chain of runtime changes."""
        from repro.lang.printer import print_program

        return print_program(self.controller.program)

    def device(self, name: str):
        return self.controller.devices[name]

    # -- execution engine ----------------------------------------------------------

    def engine(
        self, *, fastpath: bool | None = None, batch: bool | None = None
    ) -> EngineConfig:
        """Configure the fleet's execution engine — the only verb.

        With no argument this is a pure read of the current
        :class:`~repro.runtime.device.EngineConfig`. ``fastpath`` selects
        the generated per-instance function over the interpreter.
        ``batch=True`` is a second spelling of ``fastpath=True``, kept
        one round for callers of the retired flow memo; it holds no
        state and ``batch=False`` says nothing. The controller holds the
        value and hands it to every current and future device.
        """
        controller = self.controller
        if fastpath is None and batch:
            fastpath = True
        if fastpath is not None:
            config = EngineConfig(fastpath=fastpath)
            controller.engine_config = config
            for device in controller.devices.values():
                device.engine = config
        return controller.engine_config

    def schedule(self, at_s: float, callback) -> None:
        self.controller.loop.schedule_at(at_s, callback)

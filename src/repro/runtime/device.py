"""Per-device runtime: live program versions and hitless transitions.

A :class:`DeviceRuntime` is the node object that sits on simulated
network paths. It owns the device's installed program version(s) and
implements the paper's §2 reconfiguration semantics:

* **Hitless update** (runtime programmable targets): the new version is
  staged alongside the old; during the transition window each packet is
  processed *entirely* by one version (old XOR new, chosen by a
  deterministic per-packet draw that shifts toward the new version as
  the window progresses). Same-shape maps and tables are physically
  shared between versions, so state survives — nothing is lost and no
  packet is dropped.

* **Reflash update** (compile-time baseline): the device drains (all
  packets during drain + reflash + redeploy are *lost*), and the new
  program starts cold — durable state is gone unless the control plane
  migrated it out beforehand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# FlexPath is loaded with the device runtime, not by an instance's first
# compiled packet: a forked shard worker then inherits the module
# instead of importing it inside its first window.
import repro.simulator.fastpath  # noqa: F401
from repro.errors import ReconfigError
from repro.lang.ir import Program
from repro.simulator.packet import FiveTuple, Packet, Verdict
from repro.simulator.pipeline_exec import ProgramInstance
from repro.targets.base import Target
from repro.util import stable_hash


@dataclass(frozen=True)
class EngineConfig:
    """How a fleet executes its programs — the one value
    :meth:`repro.core.flexnet.FlexNet.engine` pushes down to every
    device. Two states: the interpreter, which is the reference arm,
    and one generated function per program instance (``fastpath``),
    differentially checked against it."""

    fastpath: bool = False

    def summary(self) -> str:
        return "engine: compiled" if self.fastpath else "engine: interpreter"

    def to_dict(self) -> dict:
        return {"fastpath": self.fastpath}


@dataclass
class DeviceStats:
    processed: int = 0
    dropped_by_program: int = 0
    total_ops: int = 0
    energy_nj: float = 0.0
    per_version: dict[int, int] = field(default_factory=dict)
    reconfigurations: int = 0
    #: packets lost because the device was unavailable are counted by the
    #: network (the packet never reaches ``process``); this counts only
    #: the drain windows the device has undergone.
    drain_windows: int = 0
    #: packets tail-dropped because the ingress queue overflowed.
    queue_drops: int = 0
    #: maximum queue depth observed (packets).
    max_queue_depth: int = 0
    #: injected crashes (FlexFault) and the restarts that followed.
    crashes: int = 0
    restarts: int = 0
    #: mutations rejected because they carried a stale fencing epoch
    #: (a deposed controller leader kept writing; FlexHA).
    stale_rejections: int = 0


@dataclass
class _Transition:
    old: ProgramInstance
    new: ProgramInstance
    start: float
    end: float
    #: key the per-packet draw by flow instead of packet id, so all
    #: packets of one flow cut over together (PER_FLOW consistency).
    flow_affine: bool = False
    #: sticky per-flow decisions: a flow commits to the version chosen at
    #: its first packet inside the window and never flaps back.
    flow_epochs: dict = field(default_factory=dict)
    #: set when a crash interrupted the window mid-cut-over: the delta
    #: was partially applied, the version-select state is corrupt, and
    #: the split freezes at this progress until recovery resolves it.
    frozen_progress: float | None = None


class DeviceRuntime:
    """One device on the network; see module docstring."""

    def __init__(
        self,
        name: str,
        target: Target,
        queue_capacity_packets: int = 4096,
        engine: EngineConfig = EngineConfig(),
    ):
        self.name = name
        self.target = target
        self.stats = DeviceStats()
        #: FIFO ingress queue model: packets are tail-dropped beyond this
        #: depth (a shared-buffer switch queue).
        self.queue_capacity_packets = queue_capacity_packets
        self._active: ProgramInstance | None = None
        self._transition: _Transition | None = None
        self._unavailable_until = 0.0
        self._crashed = False
        #: single-server queue state: when the "pipeline" frees up, and
        #: the line-rate service slot (``target`` never changes).
        self._busy_until_s = 0.0
        self._service_s = 1.0 / (target.performance.throughput_mpps * 1e6)
        #: ops -> (energy nJ, latency s) as the performance model computes
        #: them; a program yields only a handful of distinct op counts.
        self._op_costs: dict[int, tuple[float, float]] = {}
        self.engine = engine
        #: FlexScope: set by :meth:`repro.observe.Observer.enable` only;
        #: ``None`` keeps the packet path observation-free (one attribute
        #: load per packet, nothing else).
        self.observer = None
        #: FlexHA fencing: highest controller epoch (Raft leader term)
        #: this device has admitted a mutation from. Mutations carrying a
        #: lower epoch come from a deposed leader and are rejected.
        self.fencing_epoch = 0

    # -- FlexHA fencing -----------------------------------------------------------

    def admit_epoch(self, epoch: int | None) -> bool:
        """Fencing check run before any control-plane mutation.

        ``None`` means the writer predates FlexHA (single controller, no
        fencing) and is always admitted. Otherwise the epoch must be at
        least the highest one seen; admitting ratchets the watermark so a
        deposed leader's in-flight writes can never land after the new
        leader's first write reaches this device.
        """
        if epoch is None:
            return True
        if epoch < self.fencing_epoch:
            self.stats.stale_rejections += 1
            return False
        self.fencing_epoch = epoch
        return True

    # -- execution engine ---------------------------------------------------------

    @property
    def engine(self) -> EngineConfig:
        return self._engine

    @engine.setter
    def engine(self, config: EngineConfig) -> None:
        """Apply the fleet's engine configuration to every current and
        future program version on this device."""
        self._engine = config
        for instance in self._instances():
            instance.fastpath_enabled = config.fastpath

    def _instances(self):
        if self._active is not None:
            yield self._active
        if self._transition is not None:
            yield self._transition.old
            yield self._transition.new

    # -- install / update -------------------------------------------------------

    @property
    def active_program(self) -> Program | None:
        return self._active.program if self._active else None

    @property
    def active_instance(self) -> ProgramInstance | None:
        return self._active

    def install(self, program: Program, hosted_elements: set[str] | None = None) -> None:
        """Cold install (device provisioning, before traffic)."""
        self._active = ProgramInstance(program, hosted_elements, fastpath=self._engine.fastpath)
        self._transition = None

    def begin_hitless_update(
        self,
        program: Program,
        now: float,
        duration_s: float,
        hosted_elements: set[str] | None = None,
        flow_affine: bool = False,
    ) -> ProgramInstance:
        """Stage a new version; it takes over gradually until ``now +
        duration_s``, at which point the old version is retired.

        Requires a runtime programmable target (``reconfig.hitless``).
        """
        if not self.target.reconfig.hitless:
            raise ReconfigError(
                f"device {self.name!r} ({self.target.arch}) is not hitlessly reconfigurable"
            )
        if self._active is None:
            raise ReconfigError(f"device {self.name!r} has no active program to update")
        # A previous window may have elapsed without traffic observing it.
        self.settle(now)
        if self._transition is not None:
            if self._transition.frozen_progress is not None:
                raise ReconfigError(
                    f"device {self.name!r} is stranded mid-delta (crashed during its "
                    f"transition window); recovery must resolve it first"
                )
            raise ReconfigError(
                f"device {self.name!r} already has a transition in flight "
                f"(ends t={self._transition.end:.3f}, now t={now:.3f})"
            )
        new_instance = ProgramInstance(program, hosted_elements, fastpath=self._engine.fastpath)
        self._share_state(self._active, new_instance)
        self._transition = _Transition(
            old=self._active,
            new=new_instance,
            start=now,
            end=now + duration_s,
            flow_affine=flow_affine,
        )
        self.stats.reconfigurations += 1
        return new_instance

    def begin_reflash(
        self,
        program: Program,
        now: float,
        hosted_elements: set[str] | None = None,
    ) -> float:
        """The compile-time baseline: drain + full reflash + redeploy.

        Returns the time at which the device is available again. All
        durable state is lost; packets arriving in the window are lost.
        """
        model = self.target.reconfig
        downtime = model.drain_s + model.full_reflash_s + model.redeploy_s
        self._unavailable_until = max(self._unavailable_until, now) + downtime
        # cold state
        self._active = ProgramInstance(program, hosted_elements, fastpath=self._engine.fastpath)
        self._transition = None
        self.stats.reconfigurations += 1
        self.stats.drain_windows += 1
        return self._unavailable_until

    @staticmethod
    def _share_state(old: ProgramInstance, new: ProgramInstance) -> None:
        """Physically share same-shape maps and tables across versions —
        the hardware keeps one copy, so both versions see one state."""
        for map_def in new.program.maps:
            if map_def.name in old.maps:
                old_state = old.maps.state(map_def.name)
                if old_state.definition.key_fields == map_def.key_fields:
                    new.maps._states[map_def.name] = old_state  # noqa: SLF001 - deliberate sharing
        for table in new.program.tables:
            old_rules = old.rules.get(table.name)
            if old_rules is None or old_rules.definition.keys != table.keys:
                continue
            if set(old_rules.definition.actions) <= set(table.actions):
                new.rules[table.name] = old_rules
            else:
                # The table's action set shrank, so the physical table
                # cannot simply be aliased — adopt the compatible rules
                # plus their runtime artifacts (hit counters, miss count,
                # meter) instead of restarting the table cold.
                new.rules[table.name].adopt_from(old_rules)

    # -- crash / restart (FlexFault) --------------------------------------------

    def crash(self, now: float) -> None:
        """Hard-stop the device (fault injection). A crash that lands
        inside a transition window interrupts the cut-over mid-delta:
        the version-select state is left half-programmed, so the split
        between old and new freezes at the progress reached — the
        partial-delta fault the reconfiguration journal repairs."""
        self._crashed = True
        self.stats.crashes += 1
        # A window that had actually closed is finalized, not frozen.
        self.settle(now)
        transition = self._transition
        if transition is not None and transition.frozen_progress is None:
            span = transition.end - transition.start
            transition.frozen_progress = (now - transition.start) / span if span > 0 else 0.0

    def restart(self, now: float) -> None:
        """Power the device back on. Without recovery, an interrupted
        transition stays frozen — the device keeps serving a mixed
        old/new split until :meth:`resolve_interrupted` is called."""
        self._crashed = False
        self._unavailable_until = max(self._unavailable_until, now)
        self.stats.restarts += 1

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def stranded(self) -> bool:
        """True while an interrupted (crash-frozen) transition is live."""
        return self._transition is not None and self._transition.frozen_progress is not None

    def resolve_interrupted(self, to_new: bool) -> None:
        """Recovery resolution of a crash-interrupted transition: replay
        the journal forward (``to_new=True``, resume) or backward
        (rollback). Applied as one atomic transaction on restart."""
        if self._transition is None:
            raise ReconfigError(f"device {self.name!r} has no transition to resolve")
        self._active = self._transition.new if to_new else self._transition.old
        self._transition = None

    def settle(self, now: float) -> None:
        """Finalize an elapsed (non-frozen) transition window without
        waiting for the next packet to observe it."""
        transition = self._transition
        if (
            transition is not None
            and transition.frozen_progress is None
            and now >= transition.end
        ):
            self._active = transition.new
            self._transition = None

    # -- PacketProcessor protocol ---------------------------------------------------

    def available(self, now: float) -> bool:
        return not self._crashed and now >= self._unavailable_until

    def process(self, packet: Packet, now: float) -> float:
        instance = self._active if self._transition is None else self._choose_instance(packet, now)
        if instance is None:
            return self.target.performance.base_latency_ns * 1e-9

        # Ingress queue: one packet per service slot at line rate. The
        # resulting depth is exposed to programs as ``meta.queue_depth``
        # (what ECN-marking CC functions read) and overflow tail-drops.
        stats = self.stats
        service_s = self._service_s
        start = self._busy_until_s
        if start < now:
            start = now
        meta = packet.meta
        meta["queue_depth"] = queue_depth = int((start - now) / service_s)
        if queue_depth > stats.max_queue_depth:
            stats.max_queue_depth = queue_depth
        if queue_depth >= self.queue_capacity_packets:
            packet.verdict = Verdict.LOST
            stats.queue_drops += 1
            return (start - now) + service_s
        self._busy_until_s = start + service_s

        # FlexScope sampling: a sampled packet skips the lane and runs
        # through the interpreter with a frame collector attached
        # (FlexPath's differential-identity guarantee makes the outcome
        # byte-identical to the compiled path, so only this packet's
        # execution *route* changes — never its verdict or cost model).
        observer = self.observer
        trace = observer.begin_packet() if observer is not None else None
        lane = instance.lane
        if (
            lane is not None
            and trace is None
            and instance.fastpath_enabled
            and "_recirculate" not in meta
        ):
            # Pass-through lane (compiled engine only, so every
            # interpreter arm checks it): the slice hosts nothing, and
            # nothing but the parse cost and the egress drop is left of it.
            result = lane[1] if packet.has_header(lane[0]) else lane[2]
            if meta.get("drop_flag"):
                packet.verdict = Verdict.DROP
        else:
            if trace is None:
                result = instance.process(packet, now)
            else:
                result = instance.process(packet, now, trace=trace)
            # Pass-through devices (hosting no element of the program) do
            # not participate in version consistency — a packet's
            # "version" is defined by the elements that processed it.
            # Hosting devices also stamp the version they used so a
            # downstream device that is still mid-window honours the
            # upstream decision (even after the upstream device's own
            # window has closed).
            if instance.hosted_elements is None or instance.hosted_elements:
                packet.versions_seen[self.name] = meta["_epoch"] = result.version
        ops = result.ops
        costs = self._op_costs.get(ops)
        if costs is None:
            performance = self.target.performance
            costs = self._op_costs[ops] = (
                performance.packet_energy_nj(ops),
                performance.packet_latency_ns(ops) * 1e-9,
            )
        stats.processed += 1
        stats.total_ops += ops
        stats.per_version[result.version] = stats.per_version.get(result.version, 0) + 1
        stats.energy_nj += costs[0]
        if meta.get("drop_flag"):
            stats.dropped_by_program += 1
        if trace is not None:
            observer.record_packet(self.name, packet, result, trace, now)
        return (start - now) + costs[1]

    def _choose_instance(self, packet: Packet, now: float) -> ProgramInstance | None:
        transition = self._transition
        if transition is None:
            return self._active
        if transition.frozen_progress is not None:
            # Stranded mid-delta: the cut-over pointer table is half
            # written, so the split is frozen and upstream epoch stamps
            # are NOT honoured (the stamp-matching rules were part of
            # the partially applied delta). This is the mixed old/new
            # state recovery exists to prevent.
            draw = stable_hash((packet.packet_id,)) % 1_000_000 / 1_000_000
            chosen = transition.new if draw < transition.frozen_progress else transition.old
            packet.meta["_epoch"] = chosen.version
            return chosen
        if now >= transition.end:
            # Transition complete: retire the old version. The per-packet
            # twin of :meth:`settle`, inline because mid-window hops are hot.
            self._active = transition.new
            self._transition = None
            return self._active
        # Epoch stamping for path-wide consistency: if an upstream device
        # already bound this packet to a version we also hold, honour it.
        epoch = packet.meta.get("_epoch")
        if epoch == transition.new.version:
            return transition.new
        if epoch == transition.old.version:
            return transition.old
        # Mid-window per-packet atomic choice: the probability of taking
        # the new version rises linearly over the window, modelling the
        # incremental cut-over of table pointers. The draw is a
        # deterministic hash (per packet, or per flow for flow-affine
        # transitions) so runs are reproducible; the decision is stamped
        # on the packet for downstream devices.
        progress = (now - transition.start) / (transition.end - transition.start)
        if transition.flow_affine:
            flow = FiveTuple.of(packet)
            flow_key = (flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port)
            memoized = transition.flow_epochs.get(flow_key)
            if memoized is not None:
                chosen = (
                    transition.new
                    if memoized == transition.new.version
                    else transition.old
                )
                packet.meta["_epoch"] = chosen.version
                return chosen
            draw = stable_hash(flow_key) % 1_000_000 / 1_000_000
            chosen = transition.new if draw < progress else transition.old
            transition.flow_epochs[flow_key] = chosen.version
            packet.meta["_epoch"] = chosen.version
            return chosen
        draw = stable_hash((packet.packet_id,)) % 1_000_000 / 1_000_000
        chosen = transition.new if draw < progress else transition.old
        packet.meta["_epoch"] = chosen.version
        return chosen

    # -- introspection ----------------------------------------------------------------

    @property
    def in_transition(self) -> bool:
        return self._transition is not None

    @property
    def staged_instance(self) -> ProgramInstance | None:
        """The incoming program version while a transition window is open
        (None otherwise). The reconfiguration orchestrator uses this to
        swing-migrate state into maps that could not be physically shared."""
        return self._transition.new if self._transition is not None else None

    def busy_until(self, now: float) -> float:
        """Earliest time a new transition may start on this device."""
        busy = max(self._unavailable_until, now)
        if self._transition is not None:
            busy = max(busy, self._transition.end)
        return busy

    def utilization_fraction(self, interval_s: float, packets_in_interval: int) -> float:
        """Fraction of the device's line-rate budget consumed."""
        budget = self.target.performance.throughput_mpps * 1e6 * interval_s
        return packets_in_interval / budget if budget else 1.0

"""The FlexNet placement engine (§3.1, §3.3).

Compiles one fungible datapath onto its physical slice — an ordered
device path (host → NIC → switch(es) → NIC → host). Placement must
satisfy, in order of priority:

1. **Admission** — each element lands on a device whose architecture
   can host it at all (a 500-op function never fits an RMT pipeline).
2. **Co-location** — every map lives with all of its accessors, so the
   elements sharing a map form an atomic *cluster* (computed by
   union-find over the certificate's map read/write sets).
3. **Path monotonicity** — apply order maps monotonically onto path
   order, because packets traverse the slice in one direction
   ("resources that lie on the same network path are fungible as
   traffic flow through a sequence of devices").
4. **Architecture fungibility** — per-device feasibility under the
   rules of :mod:`repro.compiler.fungibility` (RMT stage planning,
   tile typing, pooled arithmetic).

One attempt commits clusters to devices one after another, pinned ones
first, and asks before each commit whether the device can take one
more. All of those questions — a pin that may no longer fit, the
candidate devices of a free cluster, the final RMT stage plans — go to
one :class:`~repro.compiler.fungibility.Residency`, which keeps a
running total per device and each (device, element) demand once, so an
attempt costs what it places rather than, per question, everything
already placed. An incremental recompile (every survivor pinned) is
then one demand derivation and three vector additions per element (the
question, then the two sums a commit extends), plus the search for
whatever the delta added.

On top of feasibility, the engine optimizes an :class:`Objective`
(latency, energy, or balanced) — the "new operating point" runtime
programmability opens for compilers — and, when a placement fails, it
invokes a caller-supplied **garbage-collection hook** to reclaim
removable programs and retries: the paper's iterative
compile → GC → recompile loop.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import PlacementError
from repro.lang.analyzer import Certificate
from repro.lang.ir import Program
from repro.targets.base import FungibilityClass
from repro.targets.resources import ResourceVector

from repro.compiler.fungibility import Residency
from repro.compiler.plan import CompilationPlan, DeviceSpec, StagePlan
from repro.compiler.state_encoding import select_encoding


class ObjectiveKind(enum.Enum):
    BALANCED = "balanced"  # first feasible device (fast compile)
    LATENCY = "latency"  # minimize per-packet latency
    ENERGY = "energy"  # minimize dynamic + activation energy


@dataclass(frozen=True)
class Objective:
    kind: ObjectiveKind = ObjectiveKind.BALANCED
    #: Optional hard latency ceiling; plans violating it are rejected.
    latency_sla_ns: float | None = None
    #: Relative weight of idle-power activation in energy scoring.
    activation_weight: float = 1.0


@dataclass
class NetworkSlice:
    """The physical slice a fungible datapath is compiled onto (its
    device list is fixed at construction)."""

    devices: list[DeviceSpec]

    def __post_init__(self) -> None:
        self._by_name = {spec.name: spec for spec in self.devices}

    def device(self, name: str) -> DeviceSpec:
        spec = self._by_name.get(name)
        if spec is None:
            raise PlacementError(f"slice has no device {name!r}")
        return spec

    @property
    def names(self) -> list[str]:
        return [d.name for d in self.devices]


GcHook = Callable[["NetworkSlice"], bool]


@dataclass
class _Cluster:
    members: list[str]
    order_index: int


class PlacementEngine:
    """Compiles programs onto slices; see module docstring."""

    def __init__(self, objective: Objective | None = None):
        self.objective = objective or Objective()
        #: FlexScope: set by :meth:`repro.observe.Observer.enable`;
        #: compile/placement/binpack phases are charged to it.
        self.profiler = None

    # -- public API ---------------------------------------------------------

    def compile(
        self,
        program: Program,
        certificate: Certificate,
        network_slice: NetworkSlice,
        gc_hook: GcHook | None = None,
        max_iterations: int = 3,
        pinned: dict[str, str] | None = None,
    ) -> CompilationPlan:
        """Place every element of ``program`` onto the slice.

        ``pinned`` maps element names to device names that incremental
        recompilation wants kept in place ("maximally adjacent
        reconfigurations"); a pinned cluster that no longer fits is
        silently unpinned and placed normally.

        Retries after invoking ``gc_hook`` when placement fails, up to
        ``max_iterations`` total attempts; raises
        :class:`~repro.errors.PlacementError` with per-device deficit
        diagnostics when no iteration succeeds.
        """
        if self.profiler is not None:
            with self.profiler.phase("compile"):
                return self._compile(
                    program, certificate, network_slice, gc_hook, max_iterations, pinned
                )
        return self._compile(
            program, certificate, network_slice, gc_hook, max_iterations, pinned
        )

    def _compile(
        self,
        program: Program,
        certificate: Certificate,
        network_slice: NetworkSlice,
        gc_hook: GcHook | None,
        max_iterations: int,
        pinned: dict[str, str] | None,
    ) -> CompilationPlan:
        notes: list[str] = []
        last_error: PlacementError | None = None
        for iteration in range(1, max_iterations + 1):
            try:
                if self.profiler is not None:
                    with self.profiler.phase("placement"):
                        plan = self._attempt(
                            program, certificate, network_slice, notes, pinned or {}
                        )
                else:
                    plan = self._attempt(
                        program, certificate, network_slice, notes, pinned or {}
                    )
                plan.iterations = iteration
                self._check_sla(plan)
                return plan
            except PlacementError as exc:
                last_error = exc
                if gc_hook is None or iteration == max_iterations:
                    break
                freed = gc_hook(network_slice)
                if not freed:
                    notes.append(f"iteration {iteration}: GC reclaimed nothing, giving up")
                    break
                notes.append(f"iteration {iteration}: placement failed, GC freed resources")
        assert last_error is not None
        raise last_error

    # -- one placement attempt ------------------------------------------------

    def _attempt(
        self,
        program: Program,
        certificate: Certificate,
        network_slice: NetworkSlice,
        notes: list[str],
        pinned: dict[str, str],
    ) -> CompilationPlan:
        devices = network_slice.devices
        residency = Residency(program, certificate, devices)
        clusters = self._clusters(residency.order, certificate)
        index_by_name = {d.name: i for i, d in enumerate(devices)}

        # Phase 1: pre-commit pinned clusters. Honouring pins *first* is
        # what "maximally adjacent" means — new/free clusters get the
        # leftover capacity and must not displace deployed elements.
        placed: set[int] = set()
        for position, cluster in enumerate(clusters):
            device_index = self._pinned_choice(cluster, pinned, index_by_name, devices, residency)
            if device_index is not None:
                residency.commit(devices[device_index], cluster.members)
                placed.add(position)

        # Phase 2: place the remaining clusters in apply order under the
        # monotone path constraint.
        floor = 0
        for position, cluster in enumerate(clusters):
            if position in placed:
                continue
            device_index = self._choose_device(cluster, certificate, devices, residency, floor)
            if device_index is None:
                raise self._placement_failure(cluster, devices, residency)
            residency.commit(devices[device_index], cluster.members)
            floor = device_index

        placement = residency.placement
        stage_plans = self._stage_plans(devices, residency)
        encodings = {
            map_def.name: select_encoding(
                map_def, network_slice.device(placement[map_def.name]).target
            )
            for map_def in program.maps
        }
        plan = CompilationPlan(
            program=program,
            certificate=certificate,
            placement=placement,
            encodings=encodings,
            device_demand=residency.demand,
            stage_plans=stage_plans,
            notes=list(notes),
        )
        self._estimate(plan, network_slice)
        return plan

    # -- clustering ---------------------------------------------------------

    def _clusters(self, order: list[str], certificate: Certificate) -> list[_Cluster]:
        """Union-find over ``order`` (the program's placeable elements
        in apply order): a map joins each of its accessors."""
        index_of = {name: i for i, name in enumerate(order)}
        parent: dict[str, str] = {name: name for name in order}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_b] = root_a

        for name in order:
            profile = certificate.profiles.get(name)
            if profile is None or profile.kind not in ("table", "function"):
                continue
            for map_name in (*profile.map_reads, *profile.map_writes):
                if map_name in parent:
                    union(name, map_name)

        groups: dict[str, list[str]] = {}
        for name in order:
            groups.setdefault(find(name), []).append(name)
        clusters = [
            _Cluster(members=members, order_index=min(index_of[m] for m in members))
            for members in groups.values()
        ]
        clusters.sort(key=lambda c: c.order_index)
        return clusters

    # -- device choice ---------------------------------------------------------

    def _pinned_choice(
        self,
        cluster: _Cluster,
        pinned: dict[str, str],
        index_by_name: dict[str, int],
        devices: list[DeviceSpec],
        residency: Residency,
    ) -> int | None:
        """Honour a pin when the whole cluster agrees and still fits."""
        pinned_devices = {pinned[m] for m in cluster.members if m in pinned}
        if len(pinned_devices) != 1:
            return None
        index = index_by_name.get(pinned_devices.pop())
        if index is None or residency.feasible(devices[index], cluster.members) is False:
            return None
        return index

    def _choose_device(
        self,
        cluster: _Cluster,
        certificate: Certificate,
        devices: list[DeviceSpec],
        residency: Residency,
        floor: int,
    ) -> int | None:
        feasible = [
            index
            for index in range(floor, len(devices))
            if residency.feasible(devices[index], cluster.members) is not False
        ]
        if not feasible:
            return None
        if self.objective.kind is ObjectiveKind.BALANCED:
            # Prefer offloading into the network (switch > NIC > host),
            # tie-breaking on path order — the "one big switch" default.
            tier_rank = {"switch": 0, "nic": 1, "host": 2}
            return min(
                feasible,
                key=lambda i: (tier_rank.get(devices[i].target.tier, 3), i),
            )
        ops = sum(certificate.profile(m).max_ops for m in cluster.members)
        if self.objective.kind is ObjectiveKind.LATENCY:
            return min(feasible, key=lambda i: ops * devices[i].target.performance.per_op_ns)
        # ENERGY: prefer low per-op energy, charge idle activation for
        # devices not yet hosting anything.
        return min(
            feasible,
            key=lambda i: self._cluster_energy_score(ops, devices[i], residency),
        )

    def _cluster_energy_score(self, ops: int, spec: DeviceSpec, residency: Residency) -> float:
        performance = spec.target.performance
        activation = 0.0
        if not residency.members[spec.name] and spec.used.is_zero():
            activation = performance.idle_power_w * self.objective.activation_weight
        return ops * performance.per_op_nj + activation

    # -- RMT stage plans ----------------------------------------------------------

    def _stage_plans(
        self, devices: list[DeviceSpec], residency: Residency
    ) -> dict[str, StagePlan]:
        plans: dict[str, StagePlan] = {}
        for spec in devices:
            if spec.target.fungibility is not FungibilityClass.STAGE_LOCAL:
                continue
            if not residency.members[spec.name]:
                continue
            if self.profiler is not None:
                with self.profiler.phase("binpack"):
                    result = residency.feasible(spec)
            else:
                result = residency.feasible(spec)
            if isinstance(result, StagePlan):
                plans[spec.name] = result
        return plans

    # -- estimation & diagnostics -----------------------------------------------

    def _estimate(self, plan: CompilationPlan, network_slice: NetworkSlice) -> None:
        latency = 0.0
        energy = 0.0
        idle = 0.0
        ops_per_device: dict[str, int] = {}
        for element, device_name in plan.placement.items():
            profile = plan.certificate.profile(element)
            ops_per_device[device_name] = ops_per_device.get(device_name, 0) + profile.max_ops
        for spec in network_slice.devices:
            latency += spec.ingress_link_ns + spec.target.performance.base_latency_ns
            ops = ops_per_device.get(spec.name, 0)
            latency += ops * spec.target.performance.per_op_ns
            energy += ops * spec.target.performance.per_op_nj
            if ops:
                idle += spec.target.performance.idle_power_w
        plan.estimated_latency_ns = latency
        plan.estimated_energy_nj = energy
        plan.estimated_idle_power_w = idle

    def _check_sla(self, plan: CompilationPlan) -> None:
        sla = self.objective.latency_sla_ns
        if sla is not None and plan.estimated_latency_ns > sla:
            raise PlacementError(
                f"plan latency {plan.estimated_latency_ns:.0f} ns violates SLA {sla:.0f} ns"
            )

    def _placement_failure(
        self, cluster: _Cluster, devices: list[DeviceSpec], residency: Residency
    ) -> PlacementError:
        lines = [f"cannot place cluster {cluster.members}"]
        for spec in devices:
            demand = ResourceVector()
            admitted = True
            for member in cluster.members:
                member_demand, member_admitted = residency.sized(spec, member)
                admitted = admitted and member_admitted
                demand = demand + member_demand
            deficit = demand.deficit_against(spec.free)
            reason = "not admitted" if not admitted else (f"deficit {deficit}" if deficit else "ok alone; conflicts with residents or path order")
            lines.append(f"  {spec.name} ({spec.target.arch}): {reason}")
        return PlacementError("\n".join(lines))

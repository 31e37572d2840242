"""FlexScale placement: vet-driven partitioning of devices onto shards.

A :class:`ShardPlan` assigns every simulated device to exactly one OS
worker process (shard). The partitioner is *admission-gated by FlexVet*
(PR 6): the static parallelism classification of the live composed
program decides what may be split and what must stay together.

Constraints, in order of application:

1. **Affinity groups** — maps co-accessed by one element must live on
   one shard, so every device the compiler placed an element of one
   :class:`~repro.analysis.vet.AffinityGroup` on is fused. Groups whose
   accesses run in apply-if conditions (``<apply>``) execute on every
   device of the slice, which fuses the whole slice.
2. **Cross-flow state** — a ``cross_flow`` map admits no partitioning
   at all, so every device hosting a *stateful* element of a program
   with cross-flow state is fused onto one shard (its stateless slices
   — replicated control state — may still shard freely).
3. **Fast links** — the handoff protocol advances shards in windows of
   the minimum cross-shard link latency, so devices joined by a link
   faster than ``colocate_below_s`` are fused; only rack/pod-boundary
   links become shard boundaries.

The fused units are then balanced greedily (largest first, onto the
least-loaded shard, all ties broken lexicographically) — deterministic
by construction. Each shard draws from an independent seeded RNG
stream (:meth:`ShardPlan.shard_seed`, the FlexFault
per-category-stream pattern) so no shard's randomness depends on
another's schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ControlPlaneError, SimulationError
from repro.limits import COLOCATE_LINK_LATENCY_S
from repro.util import stable_digest


class _UnionFind:
    def __init__(self, items):
        self._parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            # Deterministic root choice: the lexicographically smaller
            # name wins, so component identity never depends on union
            # order.
            if root_b < root_a:
                root_a, root_b = root_b, root_a
            self._parent[root_b] = root_a

    def components(self) -> list[tuple[str, ...]]:
        groups: dict[str, list[str]] = {}
        for item in sorted(self._parent):
            groups.setdefault(self.find(item), []).append(item)
        return [tuple(groups[root]) for root in sorted(groups)]


@dataclass(frozen=True)
class ShardPlan:
    """Device-to-shard assignment plus the derived protocol parameters.

    Implements the FlexScope Reportable protocol (``summary()`` /
    ``to_dict()``) so ``flexnet scale`` renders it through the shared
    ``emit()`` path.
    """

    shards: int
    seed: int
    assignment: dict[str, int]
    #: fused placement units (each lands on one shard), sorted.
    units: tuple[tuple[str, ...], ...]
    #: human-readable co-location constraints that were applied.
    constraints: tuple[str, ...]
    #: min cross-shard link latency per directed shard pair — the
    #: conservative lookahead the handoff protocol advances by. The
    #: planner lists every pair a link joins; the plan a run executes
    #: keeps only the pairs its routes cross (:meth:`routed`).
    lookahead_s: dict[tuple[int, int], float] = field(default_factory=dict)

    def shard_of(self, device: str) -> int:
        if device not in self.assignment:
            raise SimulationError(f"device {device!r} not in shard plan")
        return self.assignment[device]

    def devices_on(self, shard: int) -> tuple[str, ...]:
        return tuple(
            name for name in sorted(self.assignment) if self.assignment[name] == shard
        )

    @property
    def populated_shards(self) -> tuple[int, ...]:
        """Shard ids that actually own devices (constraints can fuse
        everything onto fewer shards than requested)."""
        return tuple(sorted({shard for shard in self.assignment.values()}))

    def shard_seed(self, shard: int) -> int:
        """Independent per-shard RNG stream seed (FlexFault pattern)."""
        return stable_digest("flexscale-rng", self.seed, shard)

    def in_neighbors(self, shard: int) -> tuple[int, ...]:
        return tuple(
            sorted({src for (src, dst) in self.lookahead_s if dst == shard})
        )

    def out_neighbors(self, shard: int) -> tuple[int, ...]:
        return tuple(
            sorted({dst for (src, dst) in self.lookahead_s if src == shard})
        )

    def routed(self, routes) -> "ShardPlan":
        """This plan with ``lookahead_s`` narrowed to the *live* edges:
        the directed shard pairs some hop list of ``routes`` crosses.

        A packet follows the hop list fixed when it was injected, so a
        shard pair no route crosses never carries a handoff and needs
        no null messages either: a shard then waits only for the
        shards that can send to it. The planner's edges say what a
        crossing costs; these say which crossings a run can make."""
        live = {
            (self.shard_of(a), self.shard_of(b))
            for hops in routes
            for a, b in zip(hops, hops[1:])
        }
        return replace(
            self,
            lookahead_s={
                pair: latency
                for pair, latency in self.lookahead_s.items()
                if pair in live
            },
        )

    # -- Reportable ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "seed": self.seed,
            "assignment": dict(sorted(self.assignment.items())),
            "units": [list(unit) for unit in self.units],
            "constraints": list(self.constraints),
            "lookahead_s": {
                f"{src}->{dst}": latency
                for (src, dst), latency in sorted(self.lookahead_s.items())
            },
        }

    def summary(self) -> str:
        lines = [
            f"flexscale plan: {len(self.assignment)} device(s) on "
            f"{len(self.populated_shards)}/{self.shards} shard(s)"
        ]
        for shard in self.populated_shards:
            lines.append(f"  shard {shard}: {', '.join(self.devices_on(shard))}")
        for constraint in self.constraints:
            lines.append(f"  co-located: {constraint}")
        lines.extend(f"  edge {edge}" for edge in self.edges())
        return "\n".join(lines)

    def edges(self) -> list[str]:
        """The protocol edges with their lookahead, ``"0 -> 1  500 µs"``
        each — on the plan of a run, the live ones (:meth:`routed`)."""
        return [
            f"{src} -> {dst}  {latency * 1e6:g} µs"
            for (src, dst), latency in sorted(self.lookahead_s.items())
        ]


def _vet_constraints(controller, fused: _UnionFind, devices: list[str]) -> list[str]:
    """Apply FlexVet co-location constraints; returns description lines."""
    from repro.analysis.vet import APPLY_ELEMENT, StateClass, vet

    try:
        program = controller.program
        placement = dict(controller.plan.placement)
    except ControlPlaneError:  # no program installed yet: nothing to constrain
        return []
    report = vet(program)
    slice_devices = sorted({d for d in placement.values() if d in set(devices)})
    constraints: list[str] = []

    for group in report.groups:
        members = sorted(
            {
                placement[element]
                for element in group.elements
                if element in placement
            }
            | (set(slice_devices) if APPLY_ELEMENT in group.elements else set())
        )
        members = [m for m in members if m in fused._parent]
        if len(members) > 1:
            for other in members[1:]:
                fused.union(members[0], other)
            reason = "pinned" if not group.shardable else "affinity"
            constraints.append(
                f"{', '.join(members)} ({reason} group: {', '.join(group.maps)})"
            )

    if report.maps_of_class(StateClass.CROSS_FLOW):
        stateful_devices = sorted(
            {
                placement[verdict.name]
                for verdict in report.elements
                if verdict.stateful_maps and verdict.name in placement
            }
        )
        stateful_devices = [d for d in stateful_devices if d in fused._parent]
        if len(stateful_devices) > 1:
            for other in stateful_devices[1:]:
                fused.union(stateful_devices[0], other)
            constraints.append(
                f"{', '.join(stateful_devices)} (cross-flow program "
                f"{program.name!r} stays on one shard)"
            )
    return constraints


def plan_shards(
    controller,
    shards: int,
    *,
    seed: int = 2024,
    colocate_below_s: float = COLOCATE_LINK_LATENCY_S,
) -> ShardPlan:
    """Partition the controller's devices onto ``shards`` shards.

    See the module docstring for the constraint order. Deterministic:
    same topology, same program, same arguments → identical plan.
    """
    if shards < 1:
        raise SimulationError(f"need at least 1 shard, got {shards}")
    devices = sorted(controller.devices)
    if not devices:
        raise SimulationError("no devices to shard")

    fused = _UnionFind(devices)
    constraints = _vet_constraints(controller, fused, devices)

    network = controller.network
    for (a, b), link in sorted(network._links.items()):  # noqa: SLF001 - planner reads topology
        if a < b and link.latency_s < colocate_below_s:
            fused.union(a, b)

    units = sorted(fused.components(), key=lambda unit: (-len(unit), unit))
    assignment: dict[str, int] = {}
    load = [0] * shards
    for unit in units:
        shard = min(range(shards), key=lambda s: (load[s], s))
        load[shard] += len(unit)
        for device in unit:
            assignment[device] = shard

    lookahead: dict[tuple[int, int], float] = {}
    for (a, b), link in sorted(network._links.items()):  # noqa: SLF001 - planner reads topology
        src, dst = assignment[a], assignment[b]
        if src == dst:
            continue
        key = (src, dst)
        if key not in lookahead or link.latency_s < lookahead[key]:
            lookahead[key] = link.latency_s

    return ShardPlan(
        shards=shards,
        seed=seed,
        assignment=assignment,
        units=tuple(sorted(units)),
        constraints=tuple(constraints),
        lookahead_s=lookahead,
    )

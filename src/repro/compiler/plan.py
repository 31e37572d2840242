"""Compilation artifacts: device specs, placements, and reconfig plans.

The compiler consumes a *network slice* — an ordered list of
:class:`DeviceSpec` along the traffic path (host → NIC → switches → NIC
→ host) — and produces a :class:`CompilationPlan` mapping every
placeable program element onto a device, together with per-map state
encodings, RMT stage assignments, and the plan's estimated latency and
energy.

Incremental recompilation (§3.3) produces a :class:`ReconfigPlan`: the
ordered list of device-level steps (add/remove/move) that transforms
the currently deployed plan into the new one, with a virtual-time cost
estimate derived from each device's reconfiguration cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import CompilationError
from repro.lang.analyzer import Certificate
from repro.lang.ir import Program
from repro.targets.base import StateEncoding, Target
from repro.targets.resources import ResourceVector


@dataclass
class DeviceSpec:
    """A placement-visible device: its target model plus resources already
    committed to other datapaths."""

    name: str
    target: Target
    used: ResourceVector = field(default_factory=ResourceVector)
    #: Latency of the link from the previous device on the slice path (ns).
    ingress_link_ns: float = 1000.0

    @property
    def free(self) -> ResourceVector:
        return self.target.capacity - self.used

    def headroom(self, demand: ResourceVector) -> bool:
        return demand.fits_within(self.free)


@dataclass(frozen=True)
class StagePlan:
    """RMT-only: element -> pipeline stage assignment."""

    assignments: dict[str, int]

    @property
    def stages_used(self) -> int:
        return max(self.assignments.values(), default=-1) + 1


@dataclass
class CompilationPlan:
    """The compiler's output for one fungible datapath."""

    program: Program
    certificate: Certificate
    #: element name -> device name.
    placement: dict[str, str]
    #: map name -> (device name -> chosen physical encoding).
    encodings: dict[str, StateEncoding]
    #: device name -> per-device demand actually charged.
    device_demand: dict[str, ResourceVector]
    #: device name -> RMT stage plan (only for RMT devices).
    stage_plans: dict[str, StagePlan] = field(default_factory=dict)
    #: estimated end-to-end per-packet latency over the slice (ns).
    estimated_latency_ns: float = 0.0
    #: estimated per-packet dynamic energy (nJ).
    estimated_energy_nj: float = 0.0
    #: estimated idle power of powered-on devices (W).
    estimated_idle_power_w: float = 0.0
    #: how many compile iterations (incl. GC rounds) were needed.
    iterations: int = 1
    #: diagnostic notes accumulated during compilation.
    notes: list[str] = field(default_factory=list)

    def elements_on(self, device_name: str) -> list[str]:
        return sorted(e for e, d in self.placement.items() if d == device_name)

    def device_of(self, element: str) -> str:
        if element not in self.placement:
            raise CompilationError(f"element {element!r} is not placed")
        return self.placement[element]

    @property
    def devices_used(self) -> list[str]:
        return sorted(set(self.placement.values()))


class StepKind(enum.Enum):
    ADD = "add"
    REMOVE = "remove"
    MOVE = "move"
    PARSER = "parser"
    RETIER = "retier"  # encoding conversion during a cross-arch move


@dataclass(frozen=True)
class ReconfigStep:
    """One device-level runtime change."""

    kind: StepKind
    element: str
    device: str
    #: For MOVE: the device the element leaves.
    source_device: str | None = None
    #: Whether durable state must travel with the element.
    carries_state: bool = False
    #: Virtual-time cost of this step on its device (seconds).
    cost_s: float = 0.0


@dataclass
class ReconfigPlan:
    """An ordered runtime transition between two compilation plans.

    ``moved_elements`` counts elements that change device — the quantity
    "maximally adjacent reconfigurations" minimizes; ``total_cost_s``
    is the virtual-time the transition occupies (steps on distinct
    devices run concurrently; see :meth:`makespan_s`).
    """

    steps: list[ReconfigStep]
    old_version: int
    new_version: int

    @property
    def moved_elements(self) -> int:
        return sum(1 for s in self.steps if s.kind is StepKind.MOVE)

    @property
    def added_elements(self) -> int:
        return sum(1 for s in self.steps if s.kind is StepKind.ADD)

    @property
    def total_cost_s(self) -> float:
        return sum(s.cost_s for s in self.steps)

    def makespan_s(self) -> float:
        """Transition wall time assuming per-device serial execution and
        cross-device parallelism (a MOVE charges both devices)."""
        per_device: dict[str, float] = {}
        for step in self.steps:
            per_device[step.device] = per_device.get(step.device, 0.0) + step.cost_s
            if step.source_device is not None:
                per_device[step.source_device] = (
                    per_device.get(step.source_device, 0.0) + step.cost_s * 0.5
                )
        return max(per_device.values(), default=0.0)

    def is_empty(self) -> bool:
        return not self.steps

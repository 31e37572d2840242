"""The fungible datapath abstraction (§3.1).

"We call this abstraction a 'fungible datapath', which logically models
a whole-stack network device ... Under the hood, it is implemented on a
physical slice of the end-to-end network. ... Within a fungible
datapath, program components may freely migrate and elastically scale
in and out on different physical devices."

A :class:`FungibleDatapath` is the programmer-facing handle: one
logical device, programmed as a whole (a FlexBPF program plus runtime
deltas), with the controller deciding which physical devices run which
components. It exposes *logical* operations; every physical concern
(placement, encodings, transition windows) is reported, not requested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.plan import CompilationPlan
from repro.errors import ControlPlaneError
from repro.lang.analyzer import Certificate
from repro.lang.ir import Program

from repro.core.slo import BEST_EFFORT, Slo


@dataclass
class DatapathStatus:
    """A point-in-time physical view of the logical datapath."""

    program_name: str
    program_version: int
    devices: list[str]
    placement: dict[str, str]
    estimated_latency_ns: float
    estimated_energy_nj: float
    encodings: dict[str, str]


@dataclass
class FungibleDatapath:
    """One logical whole-stack device over a physical slice."""

    name: str
    owner: str = "infrastructure"
    slo: Slo = field(default_factory=lambda: BEST_EFFORT)
    program: Program | None = None
    certificate: Certificate | None = None
    plan: CompilationPlan | None = None
    #: endpoints whose connecting path is this datapath's slice.
    source: str = ""
    destination: str = ""

    def require_plan(self) -> CompilationPlan:
        if self.plan is None:
            raise ControlPlaneError(f"datapath {self.name!r} is not compiled")
        return self.plan

    def status(self) -> DatapathStatus:
        plan = self.require_plan()
        return DatapathStatus(
            program_name=plan.program.name,
            program_version=plan.program.version,
            devices=plan.devices_used,
            placement=dict(plan.placement),
            estimated_latency_ns=plan.estimated_latency_ns,
            estimated_energy_nj=plan.estimated_energy_nj,
            encodings={m: e.value for m, e in plan.encodings.items()},
        )

    def device_of(self, component: str) -> str:
        return self.require_plan().device_of(component)

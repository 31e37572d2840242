"""The compile-time programmable baseline (§1).

"In compile-time programmable networks, devices that need to be
'repurposed' are first isolated by management operations (e.g.,
draining traffic), reconfigured with a different program, before they
are redeployed to the network again."

:class:`CompileTimeNetwork` mirrors the :class:`~repro.core.FlexNet`
facade but every program change — however small — is a drain + full
reflash + redeploy on each affected device. Packets arriving during the
window are lost and durable state starts cold, which is exactly what
experiments E1/E2 quantify against the runtime path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.incremental import diff_programs
from repro.compiler.placement import NetworkSlice, PlacementEngine
from repro.compiler.plan import CompilationPlan, DeviceSpec
from repro.errors import ControlPlaneError
from repro.lang.analyzer import certify
from repro.lang.delta import Delta, apply_delta
from repro.lang.ir import Program
from repro.runtime.device import DeviceRuntime
from repro.scale.shard import run_one_shard
from repro.simulator.engine import EventLoop
from repro.simulator.flowgen import TimedPacket
from repro.simulator.metrics import RunMetrics
from repro.simulator.network import Network
from repro.targets import host, rmt_switch, smartnic
from repro.targets.base import Target

#: the latency of every link of the baseline's path.
_LINK_LATENCY_S = 2e-6


@dataclass
class ReflashEvent:
    at: float
    available_again: float
    devices: list[str]

    @property
    def downtime_s(self) -> float:
        return self.available_again - self.at


@dataclass
class CompileTimeNetwork:
    """A FlexNet-shaped facade whose update path is drain-and-reflash."""

    loop: EventLoop = field(default_factory=EventLoop)
    devices: dict[str, DeviceRuntime] = field(default_factory=dict)
    path_names: list[str] = field(default_factory=list)
    engine: PlacementEngine = field(default_factory=PlacementEngine)
    program: Program | None = None
    plan: CompilationPlan | None = None
    reflashes: list[ReflashEvent] = field(default_factory=list)
    network: Network = field(init=False)

    def __post_init__(self):
        self.network = Network(self.loop)

    # -- topology ---------------------------------------------------------------

    def add_device(self, name: str, target: Target) -> None:
        runtime = DeviceRuntime(name, target)
        self.devices[name] = runtime
        self.network.add_node(runtime)
        self.path_names.append(name)

    def finalize_path(self) -> None:
        for a, b in zip(self.path_names, self.path_names[1:]):
            self.network.add_link(a, b, _LINK_LATENCY_S)
        self.network.define_path("datapath", self.path_names)

    @classmethod
    def standard(cls) -> "CompileTimeNetwork":
        """The standard 5-hop slice with a stock (non-runtime) RMT switch."""
        baseline = cls()
        baseline.add_device("h1", host("h1"))
        baseline.add_device("nic1", smartnic("nic1"))
        baseline.add_device("sw1", rmt_switch("sw1", runtime_capable=False))
        baseline.add_device("nic2", smartnic("nic2"))
        baseline.add_device("h2", host("h2"))
        baseline.finalize_path()
        return baseline

    def _slice(self) -> NetworkSlice:
        return NetworkSlice(
            devices=[DeviceSpec(name, self.devices[name].target) for name in self.path_names]
        )

    # -- programming -------------------------------------------------------------

    def install(self, program: Program) -> CompilationPlan:
        program = program.validate()
        certificate = certify(program)
        plan = self.engine.compile(program, certificate, self._slice())
        self.program = program
        self.plan = plan
        for name, device in self.devices.items():
            device.install(program, set(plan.elements_on(name)))
        return plan

    def update(self, delta: Delta) -> ReflashEvent:
        """Any change = reflash every device whose hosted set or program
        text changes. Returns the (scheduled) reflash event."""
        if self.program is None or self.plan is None:
            raise ControlPlaneError("install a program first")
        new_program, changes = apply_delta(self.program, delta)
        certificate = certify(new_program)
        new_plan = self.engine.compile(new_program, certificate, self._slice())
        diff = diff_programs(self.plan.program, new_program)

        affected = sorted(
            set(new_plan.placement.values())
            | {
                device
                for element, device in self.plan.placement.items()
                if element in diff.removed or element in diff.modified
            }
        ) or list(self.plan.devices_used)

        now = self.loop.now
        available = now
        for name in affected:
            device = self.devices[name]
            hosted = set(new_plan.elements_on(name))
            until = device.begin_reflash(new_program, now, hosted)
            available = max(available, until)
        # Unaffected devices still need the new program text (their apply
        # block changed); they swap pointers without downtime only if they
        # host nothing — otherwise they reflash too. For the compile-time
        # baseline we conservatively reflash every hosting device above;
        # non-hosting devices get a cold install.
        for name, device in self.devices.items():
            if name not in affected:
                device.install(new_program, set(new_plan.elements_on(name)))

        event = ReflashEvent(at=now, available_again=available, devices=affected)
        self.reflashes.append(event)
        self.program = new_program
        self.plan = new_plan
        return event

    # -- traffic --------------------------------------------------------------------

    def run_traffic(
        self,
        packets: list[TimedPacket],
        extra_time_s: float = 1.0,
    ) -> RunMetrics:
        return run_one_shard(self.network, packets, extra_time_s).metrics

"""HyPer4-style baseline: data plane virtualization (§1.1, cites [30]).

"HyPer4 emulates different network programs with a virtualization
layer." A general-purpose interpreter program is compiled once; logical
programs become *table entries* of the interpreter, so arbitrary new
programs deploy at rule-install speed without reflashing. The price is
emulation overhead: every logical primitive costs several physical
match/action stages, and interpreter tables inflate memory.

The published evaluation reports roughly 6-9x more tables/stages and a
corresponding latency/throughput penalty versus native programs; this
model charges both (``OP_OVERHEAD``, ``MEMORY_OVERHEAD``) at values in
that range.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.analyzer import Certificate
from repro.targets.base import Target
from repro.targets.resources import ResourceVector

#: Calibrated to the HyPer4 paper's reported overheads.
OP_OVERHEAD = 7.0
MEMORY_OVERHEAD = 6.0
#: Installing a logical program = populating interpreter tables.
RULE_INSTALL_S_PER_ELEMENT = 0.01


@dataclass
class EmulationReport:
    program_name: str
    native_ops: int
    emulated_ops: int
    native_memory_kb: float
    emulated_memory_kb: float
    native_latency_ns: float
    emulated_latency_ns: float
    deploy_latency_s: float
    fits: bool

    @property
    def latency_overhead(self) -> float:
        return self.emulated_latency_ns / self.native_latency_ns if self.native_latency_ns else 1.0


class Hyper4Device:
    """A device running the HyPer4-style interpreter."""

    def __init__(self, target: Target):
        self.target = target
        #: memory permanently consumed by the interpreter scaffolding.
        self.interpreter_overhead = ResourceVector(
            sram_kb=target.capacity["sram_kb"] * 0.15,
            tcam_kb=target.capacity["tcam_kb"] * 0.25,
        )
        self.deployed: dict[str, EmulationReport] = {}

    def _memory_kb(self, certificate: Certificate) -> float:
        total = 0.0
        for profile in certificate.profiles.values():
            if profile.kind in ("table", "map"):
                total += profile.table_entries * (profile.key_bits + 96) / 8.0 / 1024.0
        return total

    def deploy(self, certificate: Certificate) -> EmulationReport:
        """Deploy a logical program onto the interpreter (rule installs,
        no reflash)."""
        native_ops = certificate.max_packet_ops
        emulated_ops = int(native_ops * OP_OVERHEAD)
        native_memory = self._memory_kb(certificate)
        emulated_memory = native_memory * MEMORY_OVERHEAD

        used = self.interpreter_overhead
        for report in self.deployed.values():
            used = used + ResourceVector(sram_kb=report.emulated_memory_kb)
        fits = (used + ResourceVector(sram_kb=emulated_memory)).fits_within(
            self.target.capacity
        )

        performance = self.target.performance
        element_count = len(certificate.profiles)
        report = EmulationReport(
            program_name=certificate.program_name,
            native_ops=native_ops,
            emulated_ops=emulated_ops,
            native_memory_kb=native_memory,
            emulated_memory_kb=emulated_memory,
            native_latency_ns=performance.packet_latency_ns(native_ops),
            emulated_latency_ns=performance.packet_latency_ns(emulated_ops),
            deploy_latency_s=element_count * RULE_INSTALL_S_PER_ELEMENT,
            fits=fits,
        )
        if fits:
            self.deployed[certificate.program_name] = report
        return report

    def remove(self, program_name: str) -> None:
        self.deployed.pop(program_name, None)

    @property
    def effective_throughput_mpps(self) -> float:
        """Line rate divided by the emulation slowdown of the heaviest
        deployed program."""
        if not self.deployed:
            return self.target.performance.throughput_mpps
        worst = max(r.latency_overhead for r in self.deployed.values())
        return self.target.performance.throughput_mpps / worst

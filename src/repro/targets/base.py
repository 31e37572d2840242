"""Common target (device architecture) abstractions.

A :class:`Target` describes one programmable device class: its resource
capacities, how FlexBPF elements translate into resource demand, its
performance/energy envelope, which state encodings it supports, and its
runtime-reconfiguration cost model. Concrete architectures (§2 and §3.3
of the paper) live in sibling modules:

=================  ==========================================  =============
module             architecture                                 fungibility
=================  ==========================================  =============
``rmt``            RMT pipeline (Intel FlexPipe/Tofino-like)    stage-local
``drmt``           disaggregated RMT (Nvidia Spectrum-like)     pooled
``tiles``          tiles / elastic pipe (Broadcom-like)         per tile type
``smartnic``       SoC SmartNIC (BlueField/Agilio-like)         full
``fpga``           FPGA (Innova-like, partial reconfiguration)  full
``host``           host kernel eBPF                             full
=================  ==========================================  =============

Numbers are calibrated to the paper's public claims (switch table
add/remove completes well under a second; eBPF reload is milliseconds)
and to the relative ordering the literature reports; they parameterize
the simulator, they are not measurements of real silicon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import CompilationError
from repro.lang.analyzer import ElementProfile
from repro.targets.resources import ResourceVector


class StateEncoding(enum.Enum):
    """Physical encodings of FlexBPF logical maps (§3.1)."""

    REGISTER = "register"  # P4 register arrays (RMT/Tofino externs)
    STATEFUL_TABLE = "stateful_table"  # Spectrum flow-keyed stateful tables
    FLOW_INSTRUCTION = "flow_instruction"  # PoF flow-state instruction sets
    KERNEL_MAP = "kernel_map"  # eBPF maps
    SOC_MEMORY = "soc_memory"  # plain memory on SoC NICs / FPGAs


class FungibilityClass(enum.Enum):
    """How freely resources move between program elements (§3.3)."""

    STAGE_LOCAL = "stage_local"  # RMT: fungible within one stage
    POOLED = "pooled"  # dRMT: one shared pool
    TILE_TYPED = "tile_typed"  # tiles: fungible within same tile type
    FULL = "full"  # NIC / FPGA / host


@dataclass(frozen=True)
class ReconfigCostModel:
    """Virtual-time costs (seconds) of runtime changes on a device.

    ``hitless`` states whether changes apply without packet loss; when
    False the device must be drained first (the compile-time baseline).
    """

    add_table_s: float
    remove_table_s: float
    modify_entries_per_1k_s: float
    parser_change_s: float
    function_reload_s: float
    full_reflash_s: float
    hitless: bool
    #: Time to drain in-flight traffic before a non-hitless change.
    drain_s: float = 0.0
    #: Time to validate/redeploy after a non-hitless change.
    redeploy_s: float = 0.0


@dataclass(frozen=True)
class PerformanceModel:
    """Per-packet latency and energy envelope of a device."""

    base_latency_ns: float  # pipeline traversal with no program work
    per_op_ns: float  # marginal latency per certified abstract op
    per_op_nj: float  # marginal energy per abstract op
    idle_power_w: float  # static power draw
    throughput_mpps: float  # line-rate packet budget

    def packet_latency_ns(self, ops: int) -> float:
        return self.base_latency_ns + ops * self.per_op_ns

    def packet_energy_nj(self, ops: int) -> float:
        return ops * self.per_op_nj


@dataclass
class Target:
    """One device class instance. Concrete architectures are built via
    the factory functions in the sibling modules; direct construction is
    supported for tests and custom targets."""

    name: str
    arch: str
    capacity: ResourceVector
    fungibility: FungibilityClass
    performance: PerformanceModel
    reconfig: ReconfigCostModel
    encodings: tuple[StateEncoding, ...]
    #: Location tier for vertical placement: "host" | "nic" | "switch".
    tier: str = "switch"
    #: Ceiling on certified ops for any single function hosted here
    #: (switch pipelines cannot run big general-purpose bodies).
    max_function_ops: int | None = None
    #: Architecture-specific extras (e.g. number of RMT stages).
    params: dict = field(default_factory=dict)

    # -- demand model ---------------------------------------------------------

    def demand(self, profile: ElementProfile) -> ResourceVector:
        """Resource demand of one element on this target.

        Subclass modules override the helpers below via ``params`` rather
        than subclassing; the generic model covers all built-ins.
        """
        if profile.kind == "table":
            return self._table_demand(profile)
        if profile.kind == "map":
            return self._map_demand(profile)
        if profile.kind == "function":
            return self._function_demand(profile)
        if profile.kind == "action":
            return ResourceVector()  # actions ride along with their tables
        raise CompilationError(f"cannot compute demand for element kind {profile.kind!r}")

    def admits(self, profile: ElementProfile, demand: ResourceVector | None = None) -> bool:
        """Whether this target can host the element at all (independent of
        remaining capacity). ``demand`` is ``self.demand(profile)`` when
        the caller already derived it."""
        if profile.kind == "function" and self.max_function_ops is not None:
            return profile.max_ops <= self.max_function_ops
        if demand is None:
            try:
                demand = self.demand(profile)
            except CompilationError:
                return False
        return demand.fits_within(self.capacity)

    def parser_state_demand(self, state_count: int) -> ResourceVector:
        if "parser_states" in self.capacity:
            return ResourceVector(parser_states=state_count)
        return ResourceVector()

    # -- generic demand helpers ----------------------------------------------

    def _table_bytes(self, profile: ElementProfile) -> float:
        overhead_bits = 32  # action pointer + validity metadata per entry
        return profile.table_entries * (profile.key_bits + overhead_bits) / 8.0

    def _map_bytes(self, profile: ElementProfile) -> float:
        value_bits = 64
        return profile.table_entries * (profile.key_bits + value_bits) / 8.0

    def _table_demand(self, profile: ElementProfile) -> ResourceVector:
        kilobytes = self._table_bytes(profile) / 1024.0
        amounts: dict[str, float] = {}
        if self.arch == "tiles":
            tile_kb = self.params.get("tile_kb", 64.0)
            tiles = max(1.0, kilobytes / tile_kb)
            amounts["tcam_tiles" if profile.is_ternary else "hash_tiles"] = tiles
        elif self.arch == "fpga":
            amounts["bram_kb"] = kilobytes
            amounts["luts"] = max(1.0, profile.table_entries / 512.0)
        elif self.arch in ("smartnic", "host"):
            amounts["sram_kb"] = kilobytes
            amounts["cpu_mhz"] = max(1.0, profile.max_ops * 0.5)
        else:  # rmt / drmt switch memory
            amounts["tcam_kb" if profile.is_ternary else "sram_kb"] = kilobytes
            if profile.is_stateful:
                amounts["alus"] = 1.0
        return ResourceVector(amounts)

    def _map_demand(self, profile: ElementProfile) -> ResourceVector:
        kilobytes = self._map_bytes(profile) / 1024.0
        amounts: dict[str, float] = {}
        if self.arch == "tiles":
            tile_kb = self.params.get("tile_kb", 64.0)
            amounts["index_tiles"] = max(1.0, kilobytes / tile_kb)
        elif self.arch == "fpga":
            amounts["bram_kb"] = kilobytes
        elif self.arch == "host":
            amounts["kernel_maps"] = 1.0
            amounts["sram_kb"] = kilobytes
        elif self.arch == "smartnic":
            amounts["sram_kb"] = kilobytes
        else:
            amounts["sram_kb"] = kilobytes
            amounts["alus"] = 1.0
        return ResourceVector(amounts)

    def _function_demand(self, profile: ElementProfile) -> ResourceVector:
        amounts: dict[str, float] = {}
        if self.arch == "tiles":
            amounts["pem_elems"] = max(1.0, profile.max_ops / 8.0)
        elif self.arch == "fpga":
            amounts["luts"] = max(1.0, profile.max_ops / 4.0)
        elif self.arch in ("smartnic", "host"):
            amounts["cpu_mhz"] = max(1.0, profile.max_ops * 1.0)
        elif self.arch == "drmt":
            amounts["processors"] = max(0.25, profile.max_ops / 64.0)
            if profile.is_stateful:
                amounts["alus"] = 1.0
        else:  # rmt: only tiny functions, consuming ALUs
            amounts["alus"] = max(1.0, profile.max_ops / 8.0)
        return ResourceVector(amounts)

    # ---------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<Target {self.name} arch={self.arch} tier={self.tier}>"

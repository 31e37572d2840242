"""FPGA targets (§2, §3.3(iv)): Innova-class NIC-attached FPGAs.

FPGAs support live *partial* reconfiguration: a region is swapped while
the rest of the fabric keeps processing. Resources (LUTs, BRAM) are
fully fungible across the fabric. Partial reconfiguration of one region
takes tens of milliseconds; a full-bitstream flash takes seconds and is
not hitless.
"""

from __future__ import annotations

from repro.targets.base import (
    FungibilityClass,
    PerformanceModel,
    ReconfigCostModel,
    StateEncoding,
    Target,
)
from repro.targets.resources import ResourceVector


def fpga(name: str) -> Target:
    """Build an FPGA target: 1200 kLUTs, 48 MB of BRAM and eight
    partial-reconfiguration slots."""
    capacity = ResourceVector(
        luts=1200.0,
        bram_kb=48.0 * 1024.0,
    )
    reconfig = ReconfigCostModel(
        add_table_s=0.08,  # partial reconfiguration of one region
        remove_table_s=0.05,
        modify_entries_per_1k_s=0.001,
        parser_change_s=0.08,
        function_reload_s=0.09,
        full_reflash_s=6.0,
        hitless=True,
    )
    return Target(
        name=name,
        arch="fpga",
        capacity=capacity,
        fungibility=FungibilityClass.FULL,
        performance=PerformanceModel(
            base_latency_ns=1200.0,
            per_op_ns=2.0,
            per_op_nj=1.5,
            idle_power_w=35.0,
            throughput_mpps=300.0,
        ),
        reconfig=reconfig,
        encodings=(StateEncoding.REGISTER, StateEncoding.SOC_MEMORY),
        tier="nic",
        max_function_ops=None,
        params={"regions": 8},
    )

"""Tiled / elastic-pipe targets (§3.3(iii)): Broadcom Trident4 / Jericho2.

Trident4 exposes hash and index tiles in SRAM alongside TCAM tiles; NPL
programs determine inter-tile connectivity. Jericho2's Elastic Pipe adds
a Programmable Elements Matrix (PEM). Fungibility on this class holds
*within the same tile type* — a freed hash tile can host another exact
table but not a ternary one. Both are runtime programmable in NPL
("dynamic tables can be runtime reconfigured ... without downtime").
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


def tiled_switch(
    name: str,
    hash_tiles: int = 96,
    tcam_tiles: int = 24,
) -> Target:
    """Build a Trident4/Jericho2-like tiled switch target (48 index
    tiles, 64 PEM elements, 64 KB tiles)."""
    capacity = ResourceVector(
        hash_tiles=hash_tiles,
        index_tiles=48,
        tcam_tiles=tcam_tiles,
        pem_elems=64,
        parser_states=224,
    )
    reconfig = ReconfigCostModel(
        add_table_s=0.50,
        remove_table_s=0.30,
        modify_entries_per_1k_s=0.003,
        parser_change_s=0.60,
        function_reload_s=0.55,
        full_reflash_s=22.0,
        hitless=True,
    )
    return Target(
        name=name,
        arch="tiles",
        capacity=capacity,
        fungibility=FungibilityClass.TILE_TYPED,
        performance=PerformanceModel(
            base_latency_ns=500.0,
            per_op_ns=1.1,
            per_op_nj=0.55,
            idle_power_w=160.0,
            throughput_mpps=1900.0,
        ),
        reconfig=reconfig,
        encodings=(StateEncoding.STATEFUL_TABLE,),
        tier="switch",
        max_function_ops=96,  # PEM elements host moderate bodies
        params={"tile_kb": 64.0},
    )

"""Device architecture models for every target class the paper surveys."""

from repro import _lazy_exports

__all__ = [
    "FungibilityClass",
    "PerformanceModel",
    "ReconfigCostModel",
    "ResourceVector",
    "StateEncoding",
    "Target",
    "drmt_switch",
    "fpga",
    "host",
    "rmt_switch",
    "smartnic",
    "stage_capacity",
    "tiled_switch",
    "total",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "base": (
            "FungibilityClass",
            "PerformanceModel",
            "ReconfigCostModel",
            "StateEncoding",
            "Target",
        ),
        "drmt": ("drmt_switch",),
        "fpga": ("fpga",),
        "host": ("host",),
        "resources": ("ResourceVector", "total"),
        "rmt": ("rmt_switch", "stage_capacity"),
        "smartnic": ("smartnic",),
        "tiles": ("tiled_switch",),
    },
)

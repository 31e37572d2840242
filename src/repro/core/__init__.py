"""FlexNet core: the fungible datapath and the network facade."""

from repro import _lazy_exports

__all__ = [
    "BEST_EFFORT",
    "DatapathStatus",
    "FlexNet",
    "FungibleDatapath",
    "InstallOutcome",
    "Slo",
    "TelemetrySnapshot",
    "TrafficReport",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "datapath": ("DatapathStatus", "FungibleDatapath"),
        "flexnet": ("FlexNet", "InstallOutcome", "TelemetrySnapshot", "TrafficReport"),
        "slo": ("BEST_EFFORT", "Slo"),
    },
)

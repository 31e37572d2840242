"""Discrete-event data plane simulator (the hardware substitution)."""

from repro import _lazy_exports

__all__ = [
    "EventLoop",
    "ExecutionResult",
    "FiveTuple",
    "LatencyStats",
    "Meter",
    "MeterColor",
    "MeterConfig",
    "Link",
    "Network",
    "Packet",
    "PacketProcessor",
    "ProgramInstance",
    "Rule",
    "RunMetrics",
    "TableRules",
    "Verdict",
    "exact",
    "lpm",
    "make_packet",
    "rng",
    "ternary",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "engine": ("EventLoop",),
        "meters": ("Meter", "MeterColor", "MeterConfig"),
        "metrics": ("LatencyStats", "RunMetrics"),
        "network": ("Link", "Network", "PacketProcessor"),
        "packet": ("FiveTuple", "Packet", "Verdict", "make_packet"),
        "pipeline_exec": ("ExecutionResult", "ProgramInstance"),
        "tables": ("Rule", "TableRules", "exact", "lpm", "rng", "ternary"),
    },
)

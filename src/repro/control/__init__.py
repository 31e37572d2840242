"""Real-time network control: the FlexNet controller and its services."""

from repro import _lazy_exports

__all__ = [
    "AppRecord",
    "AppSla",
    "AppUri",
    "ControllerCluster",
    "DeviceGroundTruth",
    "DeviceInfo",
    "DigestRecord",
    "FailoverRecord",
    "FlexHA",
    "FlexNetController",
    "HACommand",
    "MessageBus",
    "P4RuntimeClient",
    "P4RuntimeHub",
    "RaftNode",
    "RaftSnapshot",
    "ReplicationGroup",
    "ReplicationManager",
    "Role",
    "TableEntry",
    "TelemetryCollector",
    "TopologyView",
    "TransitionOutcome",
    "UpdateSchedule",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "apps_api": ("AppRecord", "AppSla", "AppUri"),
        "consensus": ("ControllerCluster", "MessageBus", "RaftNode", "RaftSnapshot", "Role"),
        "controller": ("FlexNetController", "TransitionOutcome"),
        "ha": ("FailoverRecord", "FlexHA", "HACommand"),
        "p4runtime": ("DeviceGroundTruth", "P4RuntimeClient", "P4RuntimeHub", "TableEntry"),
        "replication": ("ReplicationGroup", "ReplicationManager"),
        "scheduler": ("UpdateSchedule",),
        "telemetry": ("DigestRecord", "TelemetryCollector"),
        "topology": ("DeviceInfo", "TopologyView"),
    },
)

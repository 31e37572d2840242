"""Device runtimes, hitless reconfiguration, state migration, and dRPC."""

from repro import _lazy_exports

__all__ = [
    "ConsistencyChecker",
    "ConsistencyLevel",
    "ConsistencyReport",
    "DeviceRuntime",
    "DeviceStats",
    "DrpcFabric",
    "MigrationReport",
    "ReconfigOrchestrator",
    "RpcRegistry",
    "ServiceSpec",
    "TransitionReport",
    "control_plane_migration",
    "data_plane_migration",
    "make_migrate_service",
    "make_state_read_service",
    "make_state_write_service",
    "minimum_copy_rate_for_convergence",
    "version_split",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "consistency": (
            "ConsistencyChecker",
            "ConsistencyLevel",
            "ConsistencyReport",
            "version_split",
        ),
        "device": ("DeviceRuntime", "DeviceStats"),
        "drpc": (
            "DrpcFabric",
            "RpcRegistry",
            "ServiceSpec",
            "make_migrate_service",
            "make_state_read_service",
            "make_state_write_service",
        ),
        "migration": (
            "MigrationReport",
            "control_plane_migration",
            "data_plane_migration",
            "minimum_copy_rate_for_convergence",
        ),
        "reconfig": ("ReconfigOrchestrator", "TransitionReport"),
    },
)

"""Device runtimes, hitless reconfiguration, state migration, and dRPC."""

from repro.runtime.consistency import (
    ConsistencyChecker,
    ConsistencyLevel,
    ConsistencyReport,
    version_split,
)
from repro.runtime.device import DeviceRuntime, DeviceStats
from repro.runtime.drpc import (
    DrpcFabric,
    RpcRegistry,
    ServiceSpec,
    make_migrate_service,
    make_state_read_service,
    make_state_write_service,
)
from repro.runtime.migration import (
    MigrationReport,
    control_plane_migration,
    data_plane_migration,
    minimum_copy_rate_for_convergence,
)
from repro.runtime.reconfig import ReconfigOrchestrator, TransitionReport

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

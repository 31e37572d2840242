"""FlexFault: fault injection and recovery for runtime reconfiguration.

The paper's promise — hitless, packet-consistent reconfiguration piloted
by distributed controllers — must survive the unhappy path: devices
crashing mid-delta, lossy control channels, failed dRPC calls, stalled
migrations. This package provides both halves:

* **Injection** — :class:`FaultPlan` (seeded, declarative) +
  :class:`FaultInjector`, consulted by hooks woven through
  ``runtime.device``, ``control.p4runtime``, ``runtime.drpc``,
  ``runtime.migration`` and ``runtime.reconfig``.
* **Recovery** — :class:`RetryPolicy` (exponential backoff),
  :class:`ReconfigJournal` (write-ahead, transactional delta
  application with resume/rollback), :class:`RecoveryManager` and
  :class:`HealthMonitor` (quarantine + detour).
* **Scenarios** — :func:`run_chaos` (device faults, experiment E16 /
  ``flexnet chaos``) and :func:`run_controller_chaos` (the same scenario
  under FlexHA with leader crashes and partitions, experiment E19 /
  ``flexnet chaos --controller``) share one scaffold and return one
  :class:`ChaosReport`.
"""

from repro.faults.chaos import ChaosReport, run_chaos, run_controller_chaos
from repro.faults.journal import JournalEntry, ReconfigJournal, TxnState
from repro.faults.plan import (
    ChannelFault,
    ControllerCrash,
    DeviceCrash,
    DrpcFault,
    FaultInjector,
    FaultPlan,
    HandoffDrop,
    HandoffDup,
    LeaderPartition,
    MigrationFault,
    WorkerCrash,
    WorkerStall,
)
from repro.faults.recovery import (
    CrashSchedule,
    DegradedEvent,
    HealthMonitor,
    RecoveryManager,
    RetryPolicy,
)

__all__ = [
    "ChannelFault",
    "ChaosReport",
    "ControllerCrash",
    "CrashSchedule",
    "DegradedEvent",
    "DeviceCrash",
    "DrpcFault",
    "FaultInjector",
    "FaultPlan",
    "HandoffDrop",
    "HandoffDup",
    "HealthMonitor",
    "JournalEntry",
    "LeaderPartition",
    "MigrationFault",
    "RecoveryManager",
    "ReconfigJournal",
    "RetryPolicy",
    "TxnState",
    "WorkerCrash",
    "WorkerStall",
    "run_chaos",
    "run_controller_chaos",
]

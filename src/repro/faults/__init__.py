"""FlexFault: fault injection and recovery for runtime reconfiguration.

The paper's promise — hitless, packet-consistent reconfiguration piloted
by distributed controllers — must survive the unhappy path: devices
crashing mid-delta, lossy control channels, failed or stalled state
migrations. This package provides both halves:

* **Injection** — :class:`FaultPlan` (seeded, declarative) +
  :class:`FaultInjector`, consulted by hooks woven through
  ``control.p4runtime``, ``runtime.migration`` and
  ``runtime.reconfig``.
* **Recovery** — :class:`RetryPolicy` (exponential backoff),
  :class:`ReconfigJournal` (write-ahead, a view over the orchestrator's
  applied-action log, resolved by resume/rollback), :class:`RecoveryManager`
  and :class:`HealthMonitor` (quarantine + detour).
* **Scenarios** — :func:`run_chaos` (device faults, experiment E16 /
  ``flexnet chaos``) and :func:`run_controller_chaos` (the same scenario
  under FlexHA with leader crashes and partitions, experiment E19 /
  ``flexnet chaos --controller``) share one scaffold and return one
  :class:`ChaosReport`.
"""

from repro import _lazy_exports

__all__ = [
    "ChannelFault",
    "ChaosReport",
    "ControllerCrash",
    "DegradedEvent",
    "DeviceCrash",
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

__getattr__ = _lazy_exports(
    __name__,
    {
        "chaos": ("ChaosReport", "run_chaos", "run_controller_chaos"),
        "journal": ("JournalEntry", "ReconfigJournal", "TxnState"),
        "plan": (
            "ChannelFault",
            "ControllerCrash",
            "DeviceCrash",
            "FaultInjector",
            "FaultPlan",
            "HandoffDrop",
            "HandoffDup",
            "LeaderPartition",
            "MigrationFault",
            "WorkerCrash",
            "WorkerStall",
        ),
        "recovery": ("DegradedEvent", "HealthMonitor", "RecoveryManager", "RetryPolicy"),
    },
)

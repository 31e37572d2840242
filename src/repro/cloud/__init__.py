"""FlexCloud: batched, asynchronous tenant admission at cloud churn.

ROADMAP item 3. Two halves:

* :mod:`repro.cloud.admission` — the admission queue, coalescer, SLA
  backpressure, and the :class:`CloudEngine` that drains them in
  scheduling rounds (optionally behind FlexHA replication).
* :mod:`repro.cloud.scenarios` — seeded production-shape churn
  (flash crowds, diurnal cycles, DDoS defense, canary rollouts) over
  a sharded admission directory spanning 10⁴–10⁶ tenants.
"""

from repro import _lazy_exports

__all__ = [
    "SCENARIOS",
    "AdmissionOutcome",
    "AdmissionQueue",
    "CloudEngine",
    "CloudEvent",
    "CloudFleet",
    "CloudReport",
    "Coalescer",
    "EntryExecutor",
    "ExecutionResult",
    "ExtensionExecutor",
    "ShedReason",
    "TenantDelta",
    "Ticket",
    "canary_rollout",
    "cloud_base_program",
    "ddos_defense",
    "diurnal",
    "flash_crowd",
    "run_scenario",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "admission": (
            "AdmissionOutcome",
            "AdmissionQueue",
            "CloudEngine",
            "Coalescer",
            "ExecutionResult",
            "ExtensionExecutor",
            "ShedReason",
            "TenantDelta",
            "Ticket",
        ),
        "scenarios": (
            "SCENARIOS",
            "CloudEvent",
            "CloudFleet",
            "CloudReport",
            "EntryExecutor",
            "canary_rollout",
            "cloud_base_program",
            "ddos_defense",
            "diurnal",
            "flash_crowd",
            "run_scenario",
        ),
    },
)

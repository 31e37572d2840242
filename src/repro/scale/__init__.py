"""FlexScale: sharded multi-process data-plane simulation.

Partitions a FlexNet's simulated fabric across OS worker processes —
one shard owns a subset of devices plus their event loop — with
cross-shard packet handoff under a conservative virtual-clock lookahead
protocol, so same-seed sharded runs are bit-identical to the
single-process engine. Placement is admission-gated by FlexVet's
parallelism classification. See DESIGN.md §4i.

FlexMend (:mod:`repro.scale.mend`, DESIGN.md §4l) makes the process
backend fault-tolerant: a sequenced replayable transport and a
supervisor that re-forks a dead worker and re-executes it against its
replayed inbound stream — deterministically, so the traffic report
stays byte-identical even under injected worker crashes (experiment
E23).
"""

from repro import _lazy_exports

__all__ = [
    "Guarantee",
    "Handoff",
    "MendReport",
    "MendTransport",
    "ScaleReport",
    "ShardEngine",
    "ShardPlan",
    "ShardResult",
    "Supervisor",
    "WorkerFaultInjector",
    "e20_net",
    "e20_workload",
    "plan_shards",
    "pod_fabric",
    "run_sharded",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "mend": ("MendReport", "MendTransport", "Supervisor", "WorkerFaultInjector"),
        "plan": ("ShardPlan", "plan_shards"),
        "runner": ("ScaleReport", "run_sharded"),
        "shard": ("Guarantee", "Handoff", "ShardEngine", "ShardResult"),
        "workload": ("e20_net", "e20_workload", "pod_fabric"),
    },
)

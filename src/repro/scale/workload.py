"""E20 fabric and workload builders.

The benchmark needs a topology whose link-latency structure gives the
planner real shard boundaries: *pods* of microsecond-linked devices
(fused by the co-location rule) joined by sub-millisecond inter-pod
links (the shard boundaries, and therefore the protocol lookahead).
The datapath runs h1 → pod 0 → pod 1 → … → h2, so a sharded run
pipelines: while pod 0's shard processes packet *k*, pod 1's shard is
already carrying packet *k−1* — because the protocol's edges follow
the routes (:meth:`~repro.scale.plan.ShardPlan.routed`), which all run
one way here, no shard waits for a shard downstream of it.

Workloads come from the seeded flow generators — distinct arrival
timestamps per packet (strictly increasing Poisson arrivals), which
keeps per-device event times unique and the single-process comparison
exact (see the tie-breaking note in :mod:`repro.simulator.engine`).
"""

from __future__ import annotations

from repro.simulator.flowgen import PoissonFlows

#: Intra-pod link latency (fused by the planner's co-location rule).
INTRA_POD_LATENCY_S = 2e-6
#: Inter-pod link latency — the shard boundary and protocol lookahead.
INTER_POD_LATENCY_S = 5e-4


def pod_fabric(pods: int = 4, switch_arch: str = "drmt"):
    """A FlexNet of ``pods`` pods: ``h1 - [na - s - nb] x pods - h2``.

    Each pod is NIC → switch → NIC on intra-pod links; pods chain over
    inter-pod links. Returns the net with the datapath built h1 → h2
    (no program installed yet)."""
    from repro.core.flexnet import FlexNet

    if pods < 1:
        raise ValueError("need at least one pod")
    net = FlexNet()
    net.add_host("h1")
    net.add_host("h2")
    previous = "h1"
    for pod in range(pods):
        na, sw, nb = f"n{pod}a", f"s{pod}", f"n{pod}b"
        net.add_smartnic(na)
        net.add_switch(sw, arch=switch_arch)
        net.add_smartnic(nb)
        net.connect(
            previous,
            na,
            INTRA_POD_LATENCY_S if previous == "h1" else INTER_POD_LATENCY_S,
        )
        net.connect(na, sw, INTRA_POD_LATENCY_S)
        net.connect(sw, nb, INTRA_POD_LATENCY_S)
        previous = nb
    net.connect(previous, "h2", INTRA_POD_LATENCY_S)
    net.build_datapath("h1", "h2")
    return net


def composed_program():
    """The E20 program: the base pipeline with the firewall, INT probe,
    count-min sketch, and rate-limiter deltas composed on top — a
    realistically heavy per-packet workload with per-flow, sketch, and
    telemetry state."""
    from repro import apps
    from repro.lang.delta import apply_delta

    program = apps.base_infrastructure()
    for delta in (
        apps.firewall_delta(),
        apps.int_probe_delta(),
        apps.count_min_delta(),
        apps.rate_limit_delta(),
    ):
        program, _ = apply_delta(program, delta)
    return program


def e20_net(pods: int = 4, switch_arch: str = "drmt"):
    """The complete E20 scenario net: the pod fabric with the composed
    program installed through the controller (which concentrates the
    datapath slice on the first switch) *plus* a fleet-wide install of
    the same program on every other pod switch — each pod applies the
    full middlebox pipeline against its own private state, the pattern
    that makes the fabric's work genuinely pipeline-parallel."""
    net = pod_fabric(pods, switch_arch=switch_arch)
    program = composed_program()
    net.install(program)
    placed = set(net.controller.plan.placement.values())
    for pod in range(pods):
        switch = f"s{pod}"
        if switch not in placed:
            net.controller.devices[switch].install(program)
    return net


def e20_workload(
    packets: int, rate_pps: float = 20_000.0, flows: int = 64, seed: int = 2024
) -> PoissonFlows:
    """Seeded Poisson multi-flow workload, truncated to ``packets``: a
    :class:`~repro.simulator.flowgen.Series` that builds each packet when
    it is read (a caller that inspects the packets after a run keeps
    ``list(e20_workload(...))`` and passes that)."""
    # Poisson duration is open-ended; generate generously and truncate.
    duration_s = (packets / rate_pps) * 4 + 1.0
    return PoissonFlows(rate_pps, duration_s, flow_count=flows, seed=seed, limit=packets)

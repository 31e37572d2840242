"""The four benchmark workloads and the one function that runs an arm.

Everything here drives the ``FlexNet`` facade only (``install``,
``engine``, ``run_traffic``, ``scale``, ``update``, ``schedule``,
``device``, ``loop``), so a refactor below the facade cannot break the
benchmark. Inputs are made from the seed alone; the program under test
receives only the generated packets and deltas.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from perf import calib
from repro import apps
from repro.core.flexnet import FlexNet
from repro.errors import FlexNetError
from repro.lang import builder as b
from repro.lang.ir import Program
from repro.runtime.consistency import ConsistencyLevel
from repro.scale import e20_net, e20_workload, pod_fabric
from repro.simulator.packet import reset_packet_ids

PODS = 4
FABRIC_DEVICES = ("h1", "h2") + tuple(
    f"{kind[0]}{pod}{kind[1:]}" for pod in range(PODS) for kind in ("na", "s", "nb")
)
SLICE_DEVICES = ("h1", "nic1", "sw1", "nic2", "h2")
FLOWS = 64
#: Virtual seconds between scheduled updates (live workloads spread the
#: same count over their traffic, ~1 s apart too); windows last
#: 0.20-0.35 s, so consecutive windows on a device never overlap.
UPDATE_SPACING_S = 1.0
UPDATE_LEVEL = ConsistencyLevel.PER_PACKET_PATH
#: Calibration ticks scheduled through the timed call (~1 ms each).
RUN_TICKS = 48
#: The paper's claim: a runtime change completes "within a second".
UPDATE_VIRTUAL_LIMIT_S = 1.0
PROBE_CYCLE = ("int_probe_delta", "remove_probe_delta", "dctcp_delta", "remove_cc_delta")
#: The composed program already carries the INT probe, so its cycle
#: removes it first.
COMPOSED_CYCLE = ("dctcp_delta", "remove_cc_delta", "remove_probe_delta", "int_probe_delta")


def forwarding_program() -> Program:
    """The base infrastructure program minus ``flow_counts``: L2, L3,
    ACL and the TTL guard, with no map. It is the only program here the
    memo tier admits whole, so it is the workload on which the event
    loop, transport and device accounting dominate."""
    program = apps.standard_builder("forward")
    program.action("drop", [b.call("mark_drop")])
    program.action("forward", [b.call("set_port", "port")], params=[("port", "u16")])
    program.action("nop", [b.call("no_op")])
    program.action("dec_ttl", [b.assign("ipv4.ttl", b.binop("-", "ipv4.ttl", 1))])
    program.table(
        "acl",
        keys=[("ipv4.src", "ternary"), ("ipv4.dst", "ternary")],
        actions=["drop", "nop"],
        size=1024,
        default="nop",
    )
    program.table(
        "l2", keys=["ethernet.dst"], actions=["forward", "nop"], size=4096,
        default=("forward", (1,)),
    )
    program.table(
        "l3",
        keys=[("ipv4.dst", "lpm")],
        actions=["forward", "dec_ttl", "nop"],
        size=8192,
        default=("forward", (1,)),
    )
    program.function(
        "ttl_guard", [b.if_(b.binop("==", "ipv4.ttl", 0), [b.call("mark_drop")])]
    )
    program.apply("acl", "l2", "l3", "ttl_guard")
    return program.build()


def forwarding_fabric() -> FlexNet:
    """``e20_net``'s shape with the forwarding program: installed through
    the controller, then on every pod switch the placement left out."""
    net = pod_fabric(PODS)
    program = forwarding_program()
    plan = net.install(program)
    placed = set(plan.placement.values())
    for pod in range(PODS):
        if f"s{pod}" not in placed:
            net.device(f"s{pod}").install(program)
    return net


def standard_slice() -> FlexNet:
    net = FlexNet.standard()
    net.install(apps.base_infrastructure())
    return net


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[], FlexNet]
    devices: tuple[str, ...]
    #: packets per repeat, spread over ``duration_s`` virtual seconds.
    packets: int
    duration_s: float
    engine: dict
    cycle: tuple[str, ...]
    drain_s: float = 0.01
    updates: int = 24
    #: updates fire under traffic, inside the timed call; otherwise
    #: they run on the idle net afterwards and only their own latency
    #: is recorded.
    live: bool = False
    #: device whose per-version packet counts prove that every window
    #: carried traffic (live workloads only).
    versions_on: str = ""
    shards: int = 0
    #: ``device.process`` and below run in the forked workers, whose
    #: spans never come back, so they are not probed.
    trace_datapath: bool = True

    @property
    def hops_per_packet(self) -> int:
        return len(self.devices)

    def params(self, packets: int) -> dict:
        return {
            "packets": packets,
            "virtual_duration_s": self.duration_s,
            "rate_pps": packets / self.duration_s,
            "flows": FLOWS,
            "hops_per_packet": self.hops_per_packet,
            "engine": dict(self.engine),
            "updates": self.updates,
            "updates_live": self.live,
            "update_cycle": list(self.cycle),
            "consistency": UPDATE_LEVEL.name if self.live else None,
            "shards": self.shards,
            "drain_s": self.drain_s,
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fabric_stateful",
            why="E20 14-hop fabric, composed middlebox program, compiled path: "
            "executor, map and table work dominate; the flow cache must stay empty",
            build=partial(e20_net, pods=PODS),
            devices=FABRIC_DEVICES,
            packets=2000,
            duration_s=0.04,
            engine={"fastpath": True},
            cycle=COMPOSED_CYCLE,
        ),
        Workload(
            name="fabric_forward",
            why="same fabric, stateless forwarding program, batch engine: ~98% memo "
            "hits, so event loop, transport and device accounting dominate",
            build=forwarding_fabric,
            devices=FABRIC_DEVICES,
            packets=4000,
            duration_s=0.08,
            engine={"batch": True},
            cycle=PROBE_CYCLE,
        ),
        Workload(
            name="reconfig_live",
            why="5-hop slice with 24 live updates under traffic and the consistency "
            "checker on: transition windows, version choice and the control plane",
            build=standard_slice,
            devices=SLICE_DEVICES,
            packets=6000,
            duration_s=25.0,
            engine={"fastpath": True},
            cycle=PROBE_CYCLE,
            drain_s=1.0,
            live=True,
            versions_on="sw1",
        ),
        Workload(
            name="fabric_sharded",
            why="fabric_stateful through scale(shards=2, process): planning, fork, "
            "handoff, lookahead rounds, supervisor and merge on top of the same hops",
            build=partial(e20_net, pods=PODS),
            devices=FABRIC_DEVICES,
            packets=2000,
            duration_s=0.04,
            engine={"fastpath": True},
            cycle=COMPOSED_CYCLE,
            shards=2,
            trace_datapath=False,
        ),
    )
}


@dataclass
class Arm:
    """What one build-and-run of a workload produced."""

    #: raw host seconds (calibration ticks excluded); multiply by the
    #: matching factor for calibrated time.
    setup_s: float
    wall_s: float
    cpu_s: float
    setup_factor: float
    run_factor: float
    update_factor: float
    #: mean seconds per calibration tick during the timed call.
    tick_s: float
    hops: int
    sent: int
    #: ``TrafficReport.to_dict()`` (``ScaleReport.traffic_dict()`` when
    #: sharded): the part that must be identical across arms.
    report: dict
    sim_latency_us: dict[str, float]
    #: lost, mixed-version or inconsistent packets, plus updates that
    #: raised or ran past the virtual limit, plus a conservation breach.
    failures: int
    updates_attempted: int
    update_ms: list[float] = field(default_factory=list)
    update_virtual_s: list[float] = field(default_factory=list)
    forced_two_phase: int = 0
    device_windows: int = 0
    #: ``net.engine().to_dict()`` after the run (a pure status read).
    engine: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)

    @property
    def calibrated_s(self) -> float:
        """The timed call in calibrated seconds."""
        return self.wall_s * self.run_factor


@dataclass
class _UpdateLog:
    ms: list[float] = field(default_factory=list)
    virtual_s: list[float] = field(default_factory=list)
    failures: int = 0
    forced_two_phase: int = 0
    device_windows: int = 0


def _apply_update(net: FlexNet, delta_name: str, log: _UpdateLog) -> None:
    delta = getattr(apps, delta_name)()
    started = time.perf_counter()
    try:
        outcome = net.update(delta, consistency=UPDATE_LEVEL)
    except FlexNetError:
        log.failures += 1
        return
    log.ms.append((time.perf_counter() - started) * 1e3)
    duration = outcome.report.duration_s
    log.virtual_s.append(duration)
    log.forced_two_phase += outcome.forced_two_phase
    log.device_windows += len(outcome.report.device_windows)
    if duration >= UPDATE_VIRTUAL_LIMIT_S:
        log.failures += 1


def _schedule_updates(
    net: FlexNet, workload: Workload, log: _UpdateLog, spacing_s: float = UPDATE_SPACING_S
) -> float:
    """Schedule the workload's update cycle from the net's current
    virtual time, ``spacing_s`` apart; returns the time by which every
    window has closed."""
    start = net.loop.now + spacing_s / 2
    for index in range(workload.updates):
        delta_name = workload.cycle[index % len(workload.cycle)]
        net.schedule(start + index * spacing_s, partial(_apply_update, net, delta_name, log))
    return start + workload.updates * spacing_s


def run_arm(
    workload: Workload,
    seed: int,
    packets: int,
    *,
    reference: bool = False,
    single_process: bool = False,
    inspect: Callable[[FlexNet, object], dict] | None = None,
) -> Arm:
    """Build a fresh net, generate the seeded traffic and run it once.

    ``reference`` is the reference-semantics arm: no ``engine(...)``
    call (the interpreter) and no sharding. ``single_process`` keeps the
    engine but skips sharding (the base of the sharded speed-up).
    ``inspect`` reads layer facts off the finished net.
    """
    reset_packet_ids()
    gc.collect()
    setup_cal, run_cal, update_cal = calib.Ticker(), calib.Ticker(), calib.Ticker()
    setup_cal.spin()
    setup_started = time.perf_counter()
    net = workload.build()
    if not reference:
        net.engine(**workload.engine)
    traffic = e20_workload(
        packets, rate_pps=packets / workload.duration_s, flows=FLOWS, seed=seed
    )
    setup_s = time.perf_counter() - setup_started
    setup_cal.spin()

    log = _UpdateLog()
    sharded = workload.shards > 0 and not (reference or single_process)
    span_s = traffic[-1].time
    if workload.live:
        # Spread over the traffic actually generated (a Poisson stream
        # of N packets ends a little before or after ``duration_s``),
        # so that the last version too carries packets.
        _schedule_updates(net, workload, log, span_s / (workload.updates + 1))
    if sharded:
        # the parent's loop does not run under scale(): bracket instead
        run_cal.spin()
    else:
        for index in range(RUN_TICKS):
            net.schedule(span_s * (index + 0.5) / RUN_TICKS, run_cal.tick)
    cpu_started = time.process_time()
    wall_started = time.perf_counter()
    if sharded:
        result = net.scale(
            shards=workload.shards,
            backend="process",
            packets=traffic,
            seed=11,
            drain_s=workload.drain_s,
        )
    else:
        result = net.run_traffic(
            packets=traffic,
            extra_time_s=workload.drain_s,
            consistency_level=UPDATE_LEVEL if workload.live else None,
        )
    wall_s = time.perf_counter() - wall_started
    cpu_s = time.process_time() - cpu_started
    if sharded:
        run_cal.spin()
    else:
        wall_s -= run_cal.total_s
        cpu_s -= run_cal.total_s
    facts = inspect(net, result) if inspect is not None else {}

    metrics = result.metrics
    if sharded:
        report = result.traffic_dict()
        hops = sum(shard.events_executed for shard in result.shard_results)
    else:
        report = result.to_dict()
        hops = sum(net.device(name).stats.processed for name in workload.devices)
    failures = metrics.lost_by_infrastructure + metrics.version_mixtures
    if metrics.sent != (
        metrics.delivered + metrics.dropped_by_program + metrics.lost_by_infrastructure
    ):
        failures += metrics.sent
    if not sharded and result.consistency is not None:
        failures += result.consistency.report().violations
    if workload.live:
        update_cal = run_cal
        if len(metrics.versions_on(workload.versions_on)) != workload.updates + 1:
            failures += metrics.sent
    else:
        # The control phase: the same update cycle on the now idle net,
        # outside the timed call, so every workload reports update
        # latency; one tick before each update calibrates it.
        start = net.loop.now
        end = _schedule_updates(net, workload, log)
        for index in range(workload.updates):
            net.schedule(start + index * UPDATE_SPACING_S, update_cal.tick)
        net.run_traffic(packets=[], extra_time_s=end - start, collect_digests=False)
    latency = metrics.latency
    return Arm(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        setup_factor=setup_cal.factor(),
        run_factor=run_cal.factor(),
        update_factor=update_cal.factor(),
        tick_s=run_cal.total_s / run_cal.count,
        hops=hops,
        sent=metrics.sent,
        report=report,
        sim_latency_us={
            "mean": latency.mean * 1e6,
            "p50": latency.percentile(0.50) * 1e6,
            "p99": latency.percentile(0.99) * 1e6,
        },
        failures=failures + log.failures,
        updates_attempted=workload.updates,
        update_ms=log.ms,
        update_virtual_s=log.virtual_s,
        forced_two_phase=log.forced_two_phase,
        device_windows=log.device_windows,
        engine=net.engine().to_dict(),
        facts=facts,
    )

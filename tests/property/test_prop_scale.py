"""Soundness of FlexScale's vet-gated placement.

A sharded run is only bit-identical to the single-process engine if no
data-plane-mutated map is ever touched from two shards: the planner
promises that by fusing devices FlexVet says share state. This property
instruments every device's live map states and, for **every bundled
program**, counts runtime accesses that land on a shard other than the
map's writer shard — the count must be exactly zero.

Reads of never-written maps (replicated control state: rule tables the
controller installs fleet-wide) are legitimately cross-shard and are
not counted.

Every bundled program runs over the one-way datapath (a forward chain
of protocol edges); one more case sends a third of the packets back
along the reverse hop list, so both edges are live and the shards run
the cyclic, lock-step protocol.
"""

from __future__ import annotations

import pytest

from repro.analysis.corpus import bundled_programs
from repro.scale.plan import plan_shards
from repro.scale.runner import _engines, build_engines
from repro.scale.shard import run_inline
from repro.scale.workload import e20_workload, pod_fabric
from repro.simulator.packet import reset_packet_ids

PROGRAMS = bundled_programs()
PROGRAM_IDS = [label for label, _ in PROGRAMS]


class _Recorder:
    """Wraps one MapState, logging (device, map, kind) per access."""

    def __init__(self, state, device: str, log: list):
        self._state = state
        self._device = device
        self._log = log

    def get(self, key, default=0):
        self._log.append((self._device, self._state.name, "read"))
        return self._state.get(key, default)

    def put(self, key, value):
        self._log.append((self._device, self._state.name, "write"))
        return self._state.put(key, value)

    def delete(self, key):
        self._log.append((self._device, self._state.name, "write"))
        return self._state.delete(key)

    def __getattr__(self, name):
        return getattr(self._state, name)

    def __contains__(self, key):
        return key in self._state

    def __len__(self):
        return len(self._state)


def _two_way_engines(net, plan, workload, drain_s: float):
    """Engines fed explicit hop lists, a third of them reversed — the
    narrowed plan keeps both directions of the shard boundary."""
    forward = net.controller.network.path("datapath")
    backward = forward[::-1]
    plan = plan.routed([forward, backward])
    assert set(plan.lookahead_s) == {(0, 1), (1, 0)}
    per_shard: dict = {shard: [] for shard in plan.populated_shards}
    for index, timed in enumerate(workload):
        hops = backward if index % 3 == 0 else forward
        per_shard[plan.shard_of(hops[0])].append((timed.packet, hops, timed.time))
    return _engines(net, plan, per_shard, workload[-1].time + drain_s)


@pytest.mark.parametrize(
    "label,program,build",
    [(label, program, build_engines) for label, program in PROGRAMS]
    + [("two-way:" + PROGRAMS[0][0], PROGRAMS[0][1], _two_way_engines)],
    ids=[*PROGRAM_IDS, "two-way:" + PROGRAM_IDS[0]],
)
def test_no_runtime_cross_shard_map_access(label, program, build):
    reset_packet_ids()
    net = pod_fabric(2)
    net.install(program)
    workload = e20_workload(150, rate_pps=20_000.0, seed=3)
    plan = plan_shards(net.controller, 2, seed=11)

    log: list = []
    for device_name in sorted(net.controller.devices):
        instance = net.controller.devices[device_name].active_instance
        if instance is None:
            continue
        states = instance.maps._states  # noqa: SLF001 - test instrumentation
        for map_name in list(states):
            states[map_name] = _Recorder(states[map_name], device_name, log)

    engines = build(net, plan, workload, 0.05)
    run_inline(engines)
    assert sum(engine.metrics.sent for engine in engines.values()) == 150

    writer_shards: dict[str, set[int]] = {}
    for device, map_name, kind in log:
        if kind == "write":
            writer_shards.setdefault(map_name, set()).add(plan.shard_of(device))
    # A map mutated from two shards would make shard interleaving
    # observable — the planner must have fused its writers.
    split = {name: shards for name, shards in writer_shards.items() if len(shards) > 1}
    assert not split, f"{label}: maps written from multiple shards: {split}"

    cross_accesses = [
        (device, map_name, kind)
        for device, map_name, kind in log
        if map_name in writer_shards
        and plan.shard_of(device) not in writer_shards[map_name]
    ]
    assert not cross_accesses, (
        f"{label}: {len(cross_accesses)} runtime access(es) to mutated maps "
        f"from a foreign shard, e.g. {cross_accesses[:3]}"
    )

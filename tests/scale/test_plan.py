"""FlexScale placement tests: fusion rules, balance, determinism."""

from __future__ import annotations

import pytest

from repro.analysis.corpus import bundled_programs
from repro.errors import SimulationError
from repro.scale.plan import plan_shards
from repro.scale.workload import (
    INTER_POD_LATENCY_S,
    pod_fabric,
)


class TestPodFabricPlan:
    def test_intra_pod_devices_fused(self):
        net = pod_fabric(4)
        plan = plan_shards(net.controller, 4, seed=11)
        for pod in range(4):
            shard = plan.shard_of(f"s{pod}")
            assert plan.shard_of(f"n{pod}a") == shard
            assert plan.shard_of(f"n{pod}b") == shard

    def test_four_pods_fill_four_shards(self):
        net = pod_fabric(4)
        plan = plan_shards(net.controller, 4, seed=11)
        assert plan.populated_shards == (0, 1, 2, 3)

    def test_lookahead_is_inter_pod_latency(self):
        net = pod_fabric(4)
        plan = plan_shards(net.controller, 4, seed=11)
        assert plan.lookahead_s
        assert all(
            latency == INTER_POD_LATENCY_S for latency in plan.lookahead_s.values()
        )
        # Neighbor links are symmetric on this fabric.
        for (src, dst) in plan.lookahead_s:
            assert (dst, src) in plan.lookahead_s

    def test_plan_is_deterministic(self):
        net = pod_fabric(3)
        first = plan_shards(net.controller, 3, seed=11)
        second = plan_shards(net.controller, 3, seed=11)
        assert first.to_dict() == second.to_dict()

    def test_every_device_assigned_exactly_once(self):
        net = pod_fabric(2)
        plan = plan_shards(net.controller, 2, seed=11)
        assert sorted(plan.assignment) == sorted(net.controller.devices)
        spanned = [name for unit in plan.units for name in unit]
        assert sorted(spanned) == sorted(plan.assignment)

    def test_single_shard_has_no_boundaries(self):
        net = pod_fabric(2)
        plan = plan_shards(net.controller, 1, seed=11)
        assert plan.populated_shards == (0,)
        assert plan.lookahead_s == {}

    def test_zero_shards_rejected(self):
        net = pod_fabric(1)
        with pytest.raises(SimulationError):
            plan_shards(net.controller, 0)


class TestSeedsAndFlows:
    def test_shard_rng_streams_are_independent(self):
        net = pod_fabric(2)
        plan = plan_shards(net.controller, 4, seed=11)
        seeds = [plan.shard_seed(shard) for shard in range(4)]
        assert len(set(seeds)) == 4
        assert seeds == [plan.shard_seed(shard) for shard in range(4)]


class _Link:
    def __init__(self, latency_s: float):
        self.latency_s = latency_s


class _StubNetwork:
    def __init__(self, links: dict):
        self._links = links


class _StubCompilePlan:
    def __init__(self, placement: dict):
        self.placement = placement


class _StubController:
    """The minimal surface plan_shards reads: devices, topology links,
    the live program, and the compiler's element placement."""

    def __init__(self, devices, links, program, placement):
        self.devices = {name: object() for name in devices}
        both_ways = {}
        for (a, b), latency in links.items():
            both_ways[(a, b)] = _Link(latency)
            both_ways[(b, a)] = _Link(latency)
        self.network = _StubNetwork(both_ways)
        self.program = program
        self.plan = _StubCompilePlan(placement)


class TestVetConstraints:
    def test_cross_flow_program_fuses_stateful_devices(self):
        # The bundled firewall program has cross-flow state (fw_conns);
        # put its two stateful elements on different devices and the
        # planner must refuse to split them.
        program = dict(bundled_programs())["firewall"]
        controller = _StubController(
            devices=["a", "b", "c", "d"],
            links={("a", "b"): 1e-3, ("b", "c"): 1e-3, ("c", "d"): 1e-3},
            program=program,
            placement={"count_flow": "a", "fw_track": "c"},
        )
        plan = plan_shards(controller, 4, seed=11, colocate_below_s=0.0)
        assert plan.shard_of("a") == plan.shard_of("c")
        assert any("cross-flow" in constraint for constraint in plan.constraints)

    def test_per_flow_program_admits_splitting(self):
        # ratelimit has only per-flow state: the same two-device
        # placement must NOT be fused (this is the vet admission gate
        # actually deciding something).
        program = dict(bundled_programs())["ratelimit"]
        controller = _StubController(
            devices=["a", "b", "c", "d"],
            links={("a", "b"): 1e-3, ("b", "c"): 1e-3, ("c", "d"): 1e-3},
            program=program,
            placement={"count_flow": "a"},
        )
        plan = plan_shards(controller, 4, seed=11, colocate_below_s=0.0)
        assert len(plan.populated_shards) == 4

    def test_one_plan_is_one_vet_run(self, monkeypatch):
        # FlexVet walks the whole program; the planner consults it once.
        import importlib

        # (``repro.analysis.vet`` the attribute is the function.)
        vet_module = importlib.import_module("repro.analysis.vet")
        calls = []
        real_vet = vet_module.vet

        def counting_vet(program):
            calls.append(program.name)
            return real_vet(program)

        monkeypatch.setattr(vet_module, "vet", counting_vet)
        program = dict(bundled_programs())["ratelimit"]
        controller = _StubController(
            devices=["a", "b"],
            links={("a", "b"): 1e-3},
            program=program,
            placement={"count_flow": "a"},
        )
        plan_shards(controller, 2, seed=11, colocate_below_s=0.0)
        assert calls == [program.name]

    def test_no_program_means_no_constraints(self):
        net = pod_fabric(2)  # no install
        plan = plan_shards(net.controller, 2, seed=11)
        assert plan.constraints == ()


class _NoProgramController:
    """Raises like a real controller with nothing installed."""

    def __init__(self, exc_type):
        self.devices = {"a": object(), "b": object()}
        link = _Link(1e-3)
        self.network = _StubNetwork({("a", "b"): link, ("b", "a"): link})
        self._exc_type = exc_type

    @property
    def program(self):
        raise self._exc_type("no program installed yet")

    @property
    def plan(self):
        raise self._exc_type("no plan compiled yet")


class TestErrorPropagation:
    def test_control_plane_error_means_unconstrained_plan(self):
        from repro.errors import ControlPlaneError

        controller = _NoProgramController(ControlPlaneError)
        plan = plan_shards(controller, 2, seed=11, colocate_below_s=0.0)
        assert plan.constraints == ()

    def test_unexpected_errors_propagate(self):
        # The planner's except clauses are deliberately narrow: only the
        # "no program installed" signal is swallowed; a broken controller
        # must fail loudly, not silently plan without constraints.
        controller = _NoProgramController(RuntimeError)
        with pytest.raises(RuntimeError):
            plan_shards(controller, 2, seed=11, colocate_below_s=0.0)

"""Placement engine tests."""

import pytest

from repro.compiler.placement import (
    NetworkSlice,
    Objective,
    ObjectiveKind,
    PlacementEngine,
)
from repro.compiler.fungibility import ordered_elements
from repro.compiler.plan import DeviceSpec
from repro.errors import PlacementError
from repro.lang import builder as b
from repro.lang.analyzer import certify
from repro.apps.base import standard_builder
from repro.targets import drmt_switch, host, smartnic, tiled_switch

from tests.conftest import make_standard_slice

#: A placement failure and a vector deficit: the text every process
#: must print the same, whatever its hash seed.
DEFICIT_SCRIPT = """
from repro.apps.base import base_infrastructure
from repro.compiler.placement import NetworkSlice, PlacementEngine
from repro.compiler.plan import DeviceSpec
from repro.errors import PlacementError
from repro.lang.analyzer import certify
from repro.targets import fpga, host, smartnic
from repro.targets.resources import ResourceVector as V

print((V(sram_kb=10, alus=2, tcam_kb=3) + V(processors=1, stages=2, cpu_mhz=5)).deficit_against(
    V(sram_kb=1, alus=1, tcam_kb=1, processors=0.5, stages=1, cpu_mhz=1)))
program = base_infrastructure()
devices = [DeviceSpec(m.__name__, m(m.__name__)) for m in (host, fpga, smartnic)]
for spec in devices:
    spec.used = spec.target.capacity  # full: the deficit is the whole demand
try:
    PlacementEngine().compile(program, certify(program), NetworkSlice(devices=devices))
except PlacementError as exc:
    print(exc)
"""


class TestBasicPlacement:
    def test_all_elements_placed(self, base_program, base_certificate, standard_slice):
        plan = PlacementEngine().compile(base_program, base_certificate, standard_slice)
        assert set(plan.placement) == set(base_program.element_names)

    def test_balanced_prefers_switch(self, base_program, base_certificate, standard_slice):
        plan = PlacementEngine().compile(base_program, base_certificate, standard_slice)
        assert set(plan.placement.values()) == {"sw1"}

    def test_map_colocated_with_accessor(self, base_program, base_certificate, standard_slice):
        plan = PlacementEngine().compile(base_program, base_certificate, standard_slice)
        assert plan.placement["flow_counts"] == plan.placement["count_flow"]

    def test_estimates_populated(self, base_program, base_certificate, standard_slice):
        plan = PlacementEngine().compile(base_program, base_certificate, standard_slice)
        assert plan.estimated_latency_ns > 0
        assert plan.estimated_energy_nj > 0
        assert plan.estimated_idle_power_w > 0

    def test_rmt_device_gets_stage_plan(self, base_program, base_certificate):
        slice_ = make_standard_slice("rmt_static")
        plan = PlacementEngine().compile(base_program, base_certificate, slice_)
        if plan.placement["acl"] == "sw1":
            assert "sw1" in plan.stage_plans

    def test_encodings_selected_per_device(self, base_program, base_certificate, standard_slice):
        plan = PlacementEngine().compile(base_program, base_certificate, standard_slice)
        assert "flow_counts" in plan.encodings


class TestVerticalDistribution:
    def big_function_program(self):
        program = standard_builder("vert")
        program.map("state", keys=["ipv4.dst"], value_type="u32", max_entries=1024)
        program.action("nop", [b.call("no_op")])
        program.table("route", keys=["ipv4.dst"], actions=["nop"], size=256)
        program.function(
            "crunch",
            [
                b.let("x", "u32", b.map_get("state", "ipv4.dst")),
                b.repeat(200, [b.assign("x", b.binop("+", "x", 1))]),
                b.map_put("state", "ipv4.dst", "x"),
            ],
        )
        program.apply("route", "crunch")
        return program.build()

    def test_oversized_function_lands_off_switch(self, standard_slice):
        program = self.big_function_program()
        certificate = certify(program)
        plan = PlacementEngine().compile(program, certificate, standard_slice)
        crunch_device = plan.placement["crunch"]
        assert standard_slice.device(crunch_device).target.tier in ("host", "nic")
        # the table still prefers the switch
        assert plan.placement["route"] == "sw1"

    def test_monotone_path_order(self, standard_slice):
        """Elements later in apply order never land upstream of earlier ones."""
        program = self.big_function_program()
        certificate = certify(program)
        plan = PlacementEngine().compile(program, certificate, standard_slice)
        order = {spec.name: i for i, spec in enumerate(standard_slice.devices)}
        assert order[plan.placement["route"]] <= order[plan.placement["crunch"]]


class TestObjectives:
    def test_energy_objective_picks_low_idle_tier(
        self, base_program, base_certificate
    ):
        plan = PlacementEngine(Objective(ObjectiveKind.ENERGY)).compile(
            base_program, base_certificate, make_standard_slice()
        )
        # NIC has the lowest idle power among feasible devices
        devices = set(plan.placement.values())
        assert devices == {"nic1"}

    def test_latency_sla_violation_raises(self, base_program, base_certificate):
        engine = PlacementEngine(
            Objective(ObjectiveKind.LATENCY, latency_sla_ns=10.0)
        )
        with pytest.raises(PlacementError, match="SLA"):
            engine.compile(base_program, base_certificate, make_standard_slice())

    def test_latency_objective_differs_from_energy(self, base_program, base_certificate):
        latency_plan = PlacementEngine(Objective(ObjectiveKind.LATENCY)).compile(
            base_program, base_certificate, make_standard_slice()
        )
        energy_plan = PlacementEngine(Objective(ObjectiveKind.ENERGY)).compile(
            base_program, base_certificate, make_standard_slice()
        )
        assert latency_plan.estimated_latency_ns <= energy_plan.estimated_latency_ns
        energy_score = energy_plan.estimated_idle_power_w
        assert energy_score <= latency_plan.estimated_idle_power_w


class TestPinning:
    def test_pins_honoured(self, base_program, base_certificate, standard_slice):
        pins = {name: "nic1" for name in base_program.element_names}
        plan = PlacementEngine().compile(
            base_program, base_certificate, standard_slice, pinned=pins
        )
        assert set(plan.placement.values()) == {"nic1"}

    def test_infeasible_pin_silently_unpinned(self, base_program, base_certificate):
        slice_ = make_standard_slice()
        # pin everything to a device that cannot admit the elements: use a
        # tiny switch by exhausting it via 'used'
        slice_.devices[2].used = slice_.devices[2].target.capacity * 0.9999
        pins = {name: "sw1" for name in base_program.element_names}
        plan = PlacementEngine().compile(
            base_program, base_certificate, slice_, pinned=pins
        )
        assert set(plan.placement.values()) != {"sw1"}

    def test_partial_pin_conflict_ignored(self, base_program, base_certificate, standard_slice):
        # count_flow and flow_counts are one cluster; pinning them to
        # different devices is contradictory -> cluster placed normally.
        pins = {"count_flow": "nic1", "flow_counts": "h1"}
        plan = PlacementEngine().compile(
            base_program, base_certificate, standard_slice, pinned=pins
        )
        assert plan.placement["count_flow"] == plan.placement["flow_counts"]


    def test_pinned_clusters_commit_in_apply_order(
        self, base_program, base_certificate, standard_slice
    ):
        """Pins that alternate between two devices, against path order:
        the plan still lists its elements cluster by cluster in apply
        order, as an unpinned plan does, not device by device."""
        engine = PlacementEngine()
        unpinned = engine.compile(base_program, base_certificate, standard_slice)
        clusters = engine._clusters(ordered_elements(base_program), base_certificate)
        pins = {
            member: ("sw1", "nic1")[position % 2]
            for position, cluster in enumerate(clusters)
            for member in cluster.members
        }
        plan = engine.compile(base_program, base_certificate, standard_slice, pinned=pins)
        assert plan.placement == pins
        assert list(plan.placement) == list(unpinned.placement)

    def test_a_pin_where_the_element_is_not_admitted_is_dropped(self):
        """A tiled switch admits no function over 96 ops, however few
        PEM elements it would take: the pin is dropped though the
        device has room, and the function lands where it is admitted."""
        builder = standard_builder("pinned")
        builder.function(
            "big", [b.repeat(60, [b.assign("meta.x", b.binop("+", "meta.x", 1))])]
        )
        builder.apply("big")
        program = builder.build()
        certificate = certify(program)
        tiles = tiled_switch("sw")
        assert certificate.profile("big").max_ops > tiles.max_function_ops
        assert tiles.demand(certificate.profile("big")).fits_within(tiles.capacity)
        slice_ = NetworkSlice(devices=[DeviceSpec("sw", tiles), DeviceSpec("nic", smartnic("nic"))])
        plan = PlacementEngine().compile(program, certificate, slice_, pinned={"big": "sw"})
        assert plan.placement == {"big": "nic"}


class TestGcLoop:
    def test_gc_hook_invoked_and_retry_succeeds(self, base_program, base_certificate):
        slice_ = make_standard_slice()
        # every device completely full
        for spec in slice_.devices:
            spec.used = spec.target.capacity

        calls = []

        def gc_hook(network_slice):
            calls.append(1)
            for spec in network_slice.devices:
                spec.used = spec.target.capacity * 0.0
            return True

        plan = PlacementEngine().compile(
            base_program, base_certificate, slice_, gc_hook=gc_hook
        )
        assert calls
        assert plan.iterations == 2

    def test_gc_that_frees_nothing_gives_up(self, base_program, base_certificate):
        slice_ = make_standard_slice()
        for spec in slice_.devices:
            spec.used = spec.target.capacity

        with pytest.raises(PlacementError):
            PlacementEngine().compile(
                base_program, base_certificate, slice_, gc_hook=lambda s: False
            )

    def test_no_hook_fails_immediately(self, base_program, base_certificate):
        slice_ = make_standard_slice()
        for spec in slice_.devices:
            spec.used = spec.target.capacity
        with pytest.raises(PlacementError) as excinfo:
            PlacementEngine().compile(base_program, base_certificate, slice_)
        assert "cannot place" in str(excinfo.value)


class TestDiagnostics:
    def test_failure_message_names_deficits(self, base_certificate, base_program):
        slice_ = NetworkSlice(
            devices=[DeviceSpec("sw", drmt_switch("sw", sram_mb=0.01, tcam_mb=0.001))]
        )
        with pytest.raises(PlacementError) as excinfo:
            PlacementEngine().compile(base_program, base_certificate, slice_)
        message = str(excinfo.value)
        assert "sw" in message
        assert "deficit" in message or "not admitted" in message

    def test_diagnostics_do_not_depend_on_the_hash_seed(self):
        """A summed vector lists its kinds in insertion order, so the
        deficit text (and a subtraction's "overcommitted" kind) is the
        same in every process. Walking a set union, it came out in a
        per-process salted order."""
        # Imported here: tests.test_determinism imports DEFICIT_SCRIPT
        # from this module.
        from tests.test_determinism import under_two_hash_seeds

        text, diffs = under_two_hash_seeds("-c", DEFICIT_SCRIPT)
        assert diffs == []
        assert "'sram_kb': 9.0, 'alus': 1.0, 'tcam_kb': 2.0, 'processors': 0.5" in text
        assert "deficit {'sram_kb': 12.0, 'cpu_mhz': 1.5}" in text

"""FlexNet controller tests: the app-level API end to end."""

import pytest

from repro.analysis import ProgramFacts
from repro.analysis.corpus import bundled_deltas
from repro.control.apps_api import AppSla
from repro.control.controller import FlexNetController
from repro.errors import CompositionError, ControlPlaneError, FlexNetError, UnknownAppError
from repro.lang.composition import Permission, TenantSpec
from repro.lang.delta import apply_delta, parse_delta
from repro.lang.builder import ProgramBuilder
from repro.lang import builder as b
from repro.apps.base import STANDARD_HEADERS, base_infrastructure
from repro.scale.workload import e20_net
from repro.targets import drmt_switch, host, smartnic

from tests.conftest import assert_live_facts_fresh, five_hop_net

MONITOR_DELTA = """
delta monitor {
  add map hh { key: ipv4.src; value: u32; max_entries: 1024; }
  add func hh_count() {
    let v: u32 = map_get(hh, ipv4.src);
    map_put(hh, ipv4.src, v + 1);
  }
  insert hh_count after count_flow;
}
"""


TWO_MAP_DELTA = """
delta pairs {
  add map by_src { key: ipv4.src; value: u32; max_entries: 1024; }
  add map by_dst { key: ipv4.dst; value: u32; max_entries: 1024; }
  add func pair_count() {
    let s: u32 = map_get(by_src, ipv4.src);
    map_put(by_src, ipv4.src, s + 1);
    let d: u32 = map_get(by_dst, ipv4.dst);
    map_put(by_dst, ipv4.dst, d + 1);
  }
  insert pair_count after count_flow;
}
"""

SHRINK = "delta shrink { resize map flow_counts 64; }"


def make_controller():
    controller = FlexNetController()
    controller.add_device("h1", host("h1"))
    controller.add_device("nic1", smartnic("nic1"))
    controller.add_device("sw1", drmt_switch("sw1"))
    controller.add_device("nic2", smartnic("nic2"))
    controller.add_device("h2", host("h2"))
    for a, bb in [("h1", "nic1"), ("nic1", "sw1"), ("sw1", "nic2"), ("nic2", "h2")]:
        controller.add_link(a, bb, 2e-6)
    controller.set_datapath_endpoints("h1", "h2")
    return controller


@pytest.fixture
def controller():
    c = make_controller()
    c.install_infrastructure(base_infrastructure())
    return c


def tenant_extension():
    program = ProgramBuilder("ext", owner="tenant")
    for header, fields in STANDARD_HEADERS.items():
        program.header(header, **fields)
    program.map("hits", keys=["ipv4.src"], value_type="u32", max_entries=64)
    program.function(
        "watch",
        [
            b.let("n", "u32", b.map_get("hits", "ipv4.src")),
            b.map_put("hits", "ipv4.src", b.binop("+", "n", 1)),
        ],
    )
    program.apply("watch")
    return program.build()


class TestProvisioning:
    def test_install_registers_base_app(self, controller):
        assert "flexnet://infrastructure/base" in controller.app_uris
        record = controller.app("flexnet://infrastructure/base")
        assert record.footprint  # placed somewhere

    def test_program_and_plan_accessible(self, controller):
        assert controller.program.name == "infra"
        assert controller.plan.placement
        assert_live_facts_fresh(controller)

    def test_endpoints_required_before_install(self):
        bare = FlexNetController()
        with pytest.raises(ControlPlaneError):
            bare.install_infrastructure(base_infrastructure())


class TestAppLifecycle:
    def test_deploy_creates_record(self, controller):
        outcome = controller.deploy_app(
            "flexnet://infrastructure/monitor", parse_delta(MONITOR_DELTA)
        )
        record = controller.app("flexnet://infrastructure/monitor")
        assert record.elements == {"hh", "hh_count"}
        assert outcome.result.reconfig.added_elements == 2
        assert_live_facts_fresh(controller)

    def test_double_deploy_rejected(self, controller):
        controller.deploy_app("flexnet://infrastructure/monitor", parse_delta(MONITOR_DELTA))
        with pytest.raises(ControlPlaneError, match="already deployed"):
            controller.deploy_app(
                "flexnet://infrastructure/monitor", parse_delta(MONITOR_DELTA)
            )

    def test_remove_app_releases_elements(self, controller):
        controller.deploy_app("flexnet://infrastructure/monitor", parse_delta(MONITOR_DELTA))
        controller.loop.run_until(controller.loop.now + 2.0)
        outcome = controller.remove_app("flexnet://infrastructure/monitor")
        assert outcome.result.changes.removed == frozenset({"hh", "hh_count"})
        with pytest.raises(UnknownAppError):
            controller.app("flexnet://infrastructure/monitor")
        assert not controller.program.has_map("hh")
        assert_live_facts_fresh(controller)

    def test_scale_app_resizes_maps(self, controller):
        controller.deploy_app("flexnet://infrastructure/monitor", parse_delta(MONITOR_DELTA))
        controller.loop.run_until(controller.loop.now + 2.0)
        controller.scale_app("flexnet://infrastructure/monitor", 4.0)
        assert controller.program.map("hh").max_entries == 4096
        assert_live_facts_fresh(controller)

    def test_migrate_app_moves_elements(self, controller):
        controller.deploy_app("flexnet://infrastructure/monitor", parse_delta(MONITOR_DELTA))
        controller.loop.run_until(controller.loop.now + 2.0)
        outcome = controller.migrate_app("flexnet://infrastructure/monitor", "nic2")
        record = controller.app("flexnet://infrastructure/monitor")
        assert record.devices == ["nic2"]
        assert outcome.result.reconfig.moved_elements == 2
        assert_live_facts_fresh(controller)

    def test_state_migration_certifies_nothing(self, controller, walk_counts):
        # Each moved element is matched against every map the two
        # devices share; its profile comes from the plans' certificates,
        # not from re-certifying the program inside the callback.
        uri = "flexnet://infrastructure/pairs"
        controller.deploy_app(uri, parse_delta(TWO_MAP_DELTA))
        controller.loop.run_until(controller.loop.now + 2.0)
        controller.migrate_app(uri, "nic2")  # nic2 now declares both maps
        controller.loop.run_until(controller.loop.now + 2.0)
        nic2 = controller.devices["nic2"]
        nic2.settle(controller.loop.now)
        nic2.active_instance.maps.state("by_src").put((10,), 7)
        outcome = controller.migrate_app(uri, "sw1")
        assert outcome.result.reconfig.moved_elements == 3
        walk_counts.clear()
        controller.loop.run_until(outcome.report.finished_at)
        assert {m.map_name for m in outcome.report.migrations} == {"by_src", "by_dst"}
        assert controller.devices["sw1"].staged_instance.maps.state("by_src").get((10,)) == 7
        assert walk_counts["certify"] == 0

    def test_migrate_to_unknown_device_rejected(self, controller):
        controller.deploy_app("flexnet://infrastructure/monitor", parse_delta(MONITOR_DELTA))
        controller.loop.run_until(controller.loop.now + 2.0)
        with pytest.raises(ControlPlaneError, match="unknown device"):
            controller.migrate_app("flexnet://infrastructure/monitor", "ghost")

    def test_unknown_app_operations_rejected(self, controller):
        with pytest.raises(UnknownAppError):
            controller.remove_app("flexnet://x/y")
        with pytest.raises(UnknownAppError):
            controller.scale_app("flexnet://x/y", 2.0)


def observed(controller, argument, changes, strict):
    """What one transition produced, in comparable form: its dict and
    race findings, or the error it raised."""
    try:
        outcome = controller.transition_to(argument, changes, strict_analysis=strict)
    except FlexNetError as exc:
        return type(exc).__name__, str(exc)
    return outcome.to_dict(), outcome.race_findings


class TestTransitionAcceptsFacts:
    @pytest.mark.parametrize("build", [five_hop_net, e20_net])
    def test_program_and_facts_are_the_same_transition(self, build):
        cases = [(delta, False) for _, delta in bundled_deltas()]
        cases += [(parse_delta(SHRINK), False), (parse_delta(SHRINK), True)]
        outcomes = []
        for delta, strict in cases:
            by_program, by_facts = build().controller, build().controller
            try:
                program, changes = apply_delta(by_program.program, delta)
            except CompositionError:
                continue  # already composed into the E20 program
            seen = observed(by_program, program, changes, strict)
            assert seen == observed(by_facts, ProgramFacts.of(program), changes, strict), delta.name
            assert_live_facts_fresh(by_program)
            assert_live_facts_fresh(by_facts)
            outcomes.append(seen)
        applied = [head for head, _ in outcomes if isinstance(head, dict)]
        assert len(applied) >= 8
        assert any(head["forced_two_phase"] for head in applied)  # the shrink escalates
        assert "AnalysisError" in [head for head, _ in outcomes]  # and strict rejects it


class TestTenantLifecycle:
    def spec(self, name="t1", vlan=100):
        return TenantSpec(name=name, vlan_id=vlan, permission=Permission())

    def test_admit_creates_namespaced_app(self, controller):
        controller.admit_tenant(self.spec(), tenant_extension())
        assert "t1" in controller.tenant_names
        record = controller.app("flexnet://t1/extension")
        assert "t1__hits" in record.elements
        assert controller.program.has_map("t1__hits")
        assert_live_facts_fresh(controller)

    def test_evict_trims_program(self, controller):
        controller.admit_tenant(self.spec(), tenant_extension())
        controller.loop.run_until(controller.loop.now + 2.0)
        outcome = controller.evict_tenant("t1")
        assert "t1" not in controller.tenant_names
        assert not controller.program.has_map("t1__hits")
        assert "t1__hits" in outcome.result.changes.removed
        assert_live_facts_fresh(controller)

    def test_two_tenants_coexist(self, controller):
        controller.admit_tenant(self.spec("t1", 100), tenant_extension())
        controller.loop.run_until(controller.loop.now + 2.0)
        controller.admit_tenant(self.spec("t2", 200), tenant_extension())
        assert controller.tenant_names == ["t1", "t2"]

    def test_evict_unknown_rejected(self, controller):
        with pytest.raises(ControlPlaneError):
            controller.evict_tenant("ghost")


BIG_APP_DELTA = """
delta {name} {{
  add map {name} {{ key: ipv4.src, ipv4.dst; value: u64; max_entries: 120000; }}
  add func {name}_touch() {{
    let v: u64 = map_get({name}, ipv4.src, ipv4.dst);
    map_put({name}, ipv4.src, ipv4.dst, v + 1);
  }}
  insert {name}_touch after count_flow;
}}
"""


class TestGcLoop:
    def test_removable_app_evicted_under_pressure(self):
        # E6's slice: the only stateful-capable host is one small
        # switch, so two big apps cannot coexist anywhere.
        controller = FlexNetController()
        controller.add_device("h1", host("h1", cores=1, memory_mb=1.0, kernel_maps=2))
        controller.add_device(
            "sw1", drmt_switch("sw1", sram_mb=3.0, tcam_mb=0.3, processors=12, alus=24)
        )
        controller.add_device("h2", host("h2", cores=1, memory_mb=1.0, kernel_maps=2))
        controller.add_link("h1", "sw1")
        controller.add_link("sw1", "h2")
        controller.set_datapath_endpoints("h1", "h2")
        controller.install_infrastructure(
            base_infrastructure(acl_size=128, l2_size=256, l3_size=256, flow_entries=2048)
        )
        controller.deploy_app(
            "flexnet://infrastructure/cache",
            parse_delta(BIG_APP_DELTA.format(name="cache")),
            sla=AppSla(removable=True),
        )
        controller.loop.run_until(controller.loop.now + 2.0)
        # a second app needs the room; GC evicts the cache app and the
        # delta is replayed against the trimmed program
        outcome = controller.deploy_app(
            "flexnet://infrastructure/needy", parse_delta(BIG_APP_DELTA.format(name="need"))
        )
        assert outcome.gc_evicted == ["flexnet://infrastructure/cache"]
        assert outcome.compile_iterations == 2
        assert not controller.program.has_map("cache")
        assert controller.plan.placement["need"] == "sw1"
        assert_live_facts_fresh(controller)


class TestReporting:
    def test_device_utilization_nonzero_on_host_device(self, controller):
        utilization = controller.device_utilization()
        assert utilization["sw1"] > 0
        assert utilization["h1"] == 0

"""Bounded-execution certification tests."""

from dataclasses import replace

import pytest

from repro.analysis import ProgramFacts, vet
from repro.apps.base import STANDARD_HEADERS, base_infrastructure, standard_builder
from repro.compiler.fungibility import element_conflicts
from repro.compiler.optimizer import MergeCandidate, TableMerger
from repro.core.flexnet import FlexNet
from repro.errors import AnalysisError
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.analyzer import Analyzer, certify
from repro.lang.builder import ProgramBuilder
from repro.lang.composition import TenantSpec
from repro.limits import MAX_PACKET_OPS, RECIRCULATION_CAP
from repro.simulator.packet import make_packet
from repro.simulator.pipeline_exec import ProgramInstance


def program_with_function(body, maps=()):
    program = ProgramBuilder("t")
    program.header("h", a=32, b=32)
    for name, entries in maps:
        program.map(name, keys=["h.a"], value_type="u64", max_entries=entries)
    program.function("f", body)
    program.apply("f")
    return program.build()


class TestCosts:
    def test_cost_scales_with_repeat(self):
        small = certify(program_with_function([b.repeat(2, [b.call("no_op")])]))
        large = certify(program_with_function([b.repeat(20, [b.call("no_op")])]))
        assert large.max_packet_ops > small.max_packet_ops
        # repeat cost is affine in the count: 1 dispatch + count * body
        small_body = small.profile("f").max_ops - 1
        large_body = large.profile("f").max_ops - 1
        assert large_body == pytest.approx(10 * small_body, rel=0.01)

    def test_if_takes_worst_branch(self):
        heavy_then = certify(
            program_with_function(
                [b.if_(b.binop(">", "h.a", 0), [b.repeat(50, [b.call("no_op")])], [b.call("no_op")])]
            )
        )
        light = certify(
            program_with_function(
                [b.if_(b.binop(">", "h.a", 0), [b.call("no_op")], [b.call("no_op")])]
            )
        )
        assert heavy_then.profile("f").max_ops > light.profile("f").max_ops

    def test_map_ops_cost_more_than_arithmetic(self):
        with_map = certify(
            program_with_function(
                [b.map_put("m", "h.a", 1)], maps=[("m", 16)]
            )
        )
        without = certify(program_with_function([b.let("x", "u32", 1)]))
        assert with_map.profile("f").max_ops > without.profile("f").max_ops

    def test_parser_states_add_to_packet_cost(self, base_program, base_certificate):
        assert base_certificate.max_packet_ops > 0

    def test_table_cost_includes_worst_action(self):
        program = ProgramBuilder("t")
        program.header("h", a=32)
        program.action("cheap", [b.call("no_op")])
        program.action(
            "pricey",
            [b.assign("h.a", b.binop("+", b.binop("*", "h.a", 3), 7))],
        )
        program.table("t1", keys=["h.a"], actions=["cheap", "pricey"], size=4)
        program.apply("t1")
        certificate = certify(program.build())
        pricey_ops = certificate.profile("pricey").max_ops
        assert certificate.profile("t1").max_ops == 1 + pricey_ops


class TestProfiles:
    def test_map_read_write_sets(self):
        certificate = certify(
            program_with_function(
                [
                    b.let("c", "u64", b.map_get("m", "h.a")),
                    b.map_put("m", "h.a", b.binop("+", "c", 1)),
                ],
                maps=[("m", 64)],
            )
        )
        profile = certificate.profile("f")
        assert profile.map_reads == ("m",)
        assert profile.map_writes == ("m",)
        assert profile.is_stateful

    def test_stateless_function_profile(self):
        certificate = certify(program_with_function([b.call("no_op")]))
        assert not certificate.profile("f").is_stateful
        assert not certificate.is_stateful

    def test_map_profile_entries_and_key_bits(self):
        certificate = certify(
            program_with_function([b.call("no_op")], maps=[("m", 512)])
        )
        profile = certificate.profile("m")
        assert profile.kind == "map"
        assert profile.table_entries == 512
        assert profile.key_bits == 32

    def test_unknown_profile_raises(self):
        certificate = certify(program_with_function([b.call("no_op")]))
        with pytest.raises(AnalysisError):
            certificate.profile("ghost")

    def test_table_profile_ternary_flag(self, base_certificate):
        assert base_certificate.profile("acl").is_ternary
        assert not base_certificate.profile("l2").is_ternary


class TestAdmissionBounds:
    def test_over_ops_budget_rejected(self):
        program = program_with_function(
            [b.repeat(10_000, [b.repeat(100, [b.call("no_op")])])]
        )
        with pytest.raises(AnalysisError, match="exceeds admission bound"):
            certify(program)

    def test_over_map_budget_rejected(self):
        program = program_with_function(
            [b.call("no_op")], maps=[("m", 20_000_000)]
        )
        with pytest.raises(AnalysisError, match="map entries"):
            certify(program)

    def test_custom_bounds(self):
        program = program_with_function([b.repeat(100, [b.call("no_op")])])
        tight = Analyzer(max_packet_ops=10)
        with pytest.raises(AnalysisError):
            tight.certify(program)


class TestWellBehavedness:
    def test_write_to_parser_select_field_rejected(self):
        program = ProgramBuilder("t")
        program.header("eth", ethertype=16)
        program.header("v4", ttl=8)
        program.parser("eth", ("eth.ethertype", 0x0800, "v4"))
        program.function("f", [b.assign("eth.ethertype", 0)])
        program.apply("f")
        with pytest.raises(AnalysisError, match="parser-select"):
            certify(program.build())

    def test_write_to_nonselect_field_allowed(self):
        program = ProgramBuilder("t")
        program.header("eth", ethertype=16)
        program.header("v4", ttl=8)
        program.parser("eth", ("eth.ethertype", 0x0800, "v4"))
        program.function("f", [b.assign("v4.ttl", 7)])
        program.apply("f")
        assert certify(program.build()) is not None

    def test_recirculation_detected(self):
        certificate = certify(program_with_function([b.call("recirculate")]))
        assert certificate.recirculates

    def test_no_recirculation_by_default(self, base_certificate):
        assert not base_certificate.recirculates

    def test_a_body_writing_two_select_fields_names_the_first_by_name(self):
        program = standard_builder("t")
        program.function("f", [b.assign("ipv4.proto", 6), b.assign("ethernet.ethertype", 0)])
        program.apply("f")
        with pytest.raises(AnalysisError, match="'f' writes parser-select field ethernet.ethertype;"):
            certify(program.build())


def acl_with_unlisted_default(statements: int = 1, recirculate: bool = True) -> ir.Program:
    """``base_infrastructure()`` whose ``acl`` runs, on every miss, an
    action it does not list: ``statements`` writes to ``flow_counts``
    and (optionally) a recirculation."""
    base = base_infrastructure()
    body = (b.map_put("flow_counts", "ipv4.src", "ipv4.dst", 1),) * statements
    if recirculate:
        body += (b.call("recirculate"),)
    acl = replace(base.table("acl"), default_action=ir.ActionCall("on_miss"))
    assert "on_miss" not in acl.actions
    return replace(
        base,
        actions=(*base.actions, ir.ActionDef("on_miss", (), body)),
        tables=tuple(acl if t.name == "acl" else t for t in base.tables),
    )


class TestATablesDefaultActionIsOneItMayRun:
    """The default runs on every miss whether or not ``actions`` lists
    it, so the bound, the profile and recirculation count it. (At the
    parent commit this program was certified ``recirculates=False``,
    ``max_packet_ops=32``, ``acl`` stateless — and one packet ran 150
    ops over 4 recirculations.)"""

    def test_the_certificate_covers_what_a_miss_executes(self):
        program = acl_with_unlisted_default()
        certificate = certify(program)
        assert certificate.recirculates
        profile = certificate.profile("acl")
        assert profile.map_writes == ("flow_counts",) and profile.is_stateful
        assert profile.max_ops == 1 + certificate.profile("on_miss").max_ops

        result = ProgramInstance(program).process(make_packet(1, 2))
        assert result.recirculations == RECIRCULATION_CAP
        assert 32 < result.ops <= certificate.max_packet_ops

    def test_certificate_dataflow_and_vet_agree_on_the_table(self):
        program = acl_with_unlisted_default()
        facts = ProgramFacts.of(program)
        assert facts.dataflow.element_access("acl").map_writes == {"flow_counts"}
        assert set(facts.certificate.profile("acl").map_writes) == {"flow_counts"}
        verdicts = {verdict.name: verdict for verdict in vet(program).maps}
        assert "acl" in verdicts["flow_counts"].writers

    def test_placement_and_the_optimizer_see_its_field_writes(self):
        base = base_infrastructure()
        # an exact-match acl, so acl / l2 is a merge candidate ...
        acl = replace(
            base.table("acl"),
            keys=(ir.TableKey(ir.FieldRef("ipv4", "src"), ir.MatchKind.EXACT),),
        )
        plain = replace(base, tables=tuple(acl if t.name == "acl" else t for t in base.tables))
        assert MergeCandidate("acl", "l2") in TableMerger().candidates(plain)
        assert ("acl", "l2") not in element_conflicts(plain, certify(plain))
        # ... until its default rewrites what l2 matches on
        acl = replace(acl, default_action=ir.ActionCall("rewrite"))
        rewriting = replace(
            plain,
            actions=(*base.actions, ir.ActionDef("rewrite", (), (b.assign("ethernet.dst", 1),))),
            tables=tuple(acl if t.name == "acl" else t for t in base.tables),
        ).validate()
        assert MergeCandidate("acl", "l2") not in TableMerger().candidates(rewriting)
        assert ("acl", "l2") in element_conflicts(rewriting, certify(rewriting))

    def test_a_default_past_the_bound_is_refused_at_the_door(self):
        net = FlexNet.standard()
        with pytest.raises(AnalysisError, match="exceeds admission bound"):
            net.admit(acl_with_unlisted_default(statements=MAX_PACKET_OPS // 30))
        # the same cost without the recirculation fits
        net.admit(acl_with_unlisted_default(statements=MAX_PACKET_OPS // 30, recirculate=False))

    def test_and_as_a_tenant_extension(self, flexnet):
        extension = ProgramBuilder("ext", owner="t1")
        for header, fields in STANDARD_HEADERS.items():
            extension.header(header, **fields)
        extension.map("hits", keys=["ipv4.src"], value_type="u64", max_entries=16)
        extension.action("listed", [b.call("no_op")])
        extension.action("on_miss", [b.map_put("hits", "ipv4.src", 1)] * (MAX_PACKET_OPS // 5))
        extension.table("t", keys=["ipv4.src"], actions=["listed"], size=16, default="on_miss")
        extension.apply("t")
        with pytest.raises(AnalysisError, match="exceeds admission bound"):
            flexnet.admit_tenant(TenantSpec("t1", vlan_id=7), extension.build())

"""FlexVet parallelism-classifier tests."""

import json

from repro.analysis.corpus import bundled_programs
from repro.analysis.vet import StateClass, VetReport, vet
from repro.apps.base import base_infrastructure as base_program
from repro.lang import builder as b


def verdict_of(verdicts, name):
    """The verdict on element or map ``name``."""
    return next(verdict for verdict in verdicts if verdict.name == name)


def corpus(label):
    for name, program in bundled_programs():
        if name == label:
            return program
    raise AssertionError(f"no corpus program {label!r}")


class TestBaseProgram:
    def test_flow_counts_is_per_flow(self):
        report = vet(base_program())
        verdict = verdict_of(report.maps, "flow_counts")
        assert verdict.state_class is StateClass.PER_FLOW
        assert verdict.partition_fields == ("ipv4.src", "ipv4.dst")
        assert verdict.writers == ("count_flow",)

    def test_element_classes(self):
        report = vet(base_program())
        assert verdict_of(report.elements, "count_flow").state_class is StateClass.PER_FLOW
        for name in ("acl", "l2", "l3", "ttl_guard"):
            assert verdict_of(report.elements, name).state_class is StateClass.STATELESS

    def test_batch_safe_with_flow_key(self):
        # The id predates the batch-safety verdict's removal; what it
        # pins is the partition key a shard of the base program owns.
        report = vet(base_program())
        assert [g.partition_fields for g in report.groups] == [("ipv4.dst", "ipv4.src")]
        assert not report.stateless

    def test_single_affinity_group_shardable(self):
        report = vet(base_program())
        assert len(report.groups) == 1
        group = report.groups[0]
        assert group.maps == ("flow_counts",)
        assert group.shardable
        assert "count_flow" in group.elements


class TestCorpusClassification:
    def test_firewall_reversed_key_is_cross_flow(self):
        # fw_conns is written (dst, src) but read (src, dst): the two
        # directions of one connection alias a single entry, so no
        # field partition separates its writers from its readers.
        report = vet(corpus("firewall"))
        verdict = verdict_of(report.maps, "fw_conns")
        assert verdict.state_class is StateClass.CROSS_FLOW
        assert any("disagrees" in reason for reason in verdict.reasons)

    def test_hash_bucket_is_cross_flow(self):
        report = vet(corpus("loadbalancer"))
        verdict = verdict_of(report.maps, "lb_load")
        assert verdict.state_class is StateClass.CROSS_FLOW
        assert any("hash bucket" in reason for reason in verdict.reasons)

    def test_nat_rewrite_demotes_flow_counts(self):
        # NAT rewrites ipv4.src/ipv4.dst, so a map keyed by them no
        # longer partitions by the *ingress* flow.
        report = vet(corpus("nat"))
        verdict = verdict_of(report.maps, "flow_counts")
        assert verdict.state_class is StateClass.CROSS_FLOW
        assert any("rewritten" in reason for reason in verdict.reasons)

    def test_syn_defense_flow_key_narrows_to_common_field(self):
        # flow_counts partitions by (src, dst), syn_counts by (dst,): no
        # stage touches both, so each is its own shardable group with
        # its own partition key.
        report = vet(corpus("ddos:syn_defense"))
        keys = {g.maps: g.partition_fields for g in report.groups if g.shardable}
        assert keys == {
            ("flow_counts",): ("ipv4.dst", "ipv4.src"),
            ("syn_counts",): ("ipv4.dst",),
        }

    def test_expected_batch_safety_across_corpus(self):
        # A pinned affinity group is what admission and the shard
        # planner read as "this state cannot be split".
        expected_pinned = {
            "firewall",
            "loadbalancer",
            "nat",
            "sketch:count_min",
            "monitoring:query",
        }
        for label, program in bundled_programs():
            report = vet(program)
            pinned = any(not group.shardable for group in report.groups)
            assert pinned == (label in expected_pinned), label

    def test_sketch_rows_pinned_together(self):
        report = vet(corpus("sketch:count_min"))
        pinned = [g for g in report.groups if not g.shardable]
        pinned_maps = {name for group in pinned for name in group.maps}
        assert {"cms_row0", "cms_row1", "cms_row2"} <= pinned_maps


class TestDemotionRules:
    def test_constant_only_key_is_cross_flow(self):
        program = (
            b.ProgramBuilder("g")
            .header("ipv4", src=32, dst=32)
            .parser("ipv4")
            .map("global_count", keys=["ipv4.src"], max_entries=4)
            .function(
                "bump",
                [
                    b.map_put(
                        "global_count",
                        0,
                        b.binop("+", b.map_get("global_count", 0), 1),
                    )
                ],
            )
            .apply("bump")
            .build()
        )
        report = vet(program)
        verdict = verdict_of(report.maps, "global_count")
        assert verdict.state_class is StateClass.CROSS_FLOW
        assert any("constants" in reason for reason in verdict.reasons)

    def test_read_only_map_is_stateless(self):
        program = (
            b.ProgramBuilder("r")
            .header("ipv4", src=32, dst=32)
            .parser("ipv4")
            .map("policy", keys=["ipv4.src"], max_entries=4)
            .function("consult", [b.let("p", "u64", b.map_get("policy", "ipv4.src"))])
            .apply("consult")
            .build()
        )
        report = vet(program)
        assert verdict_of(report.maps, "policy").state_class is StateClass.STATELESS
        assert report.stateless


class TestReportProtocol:
    def test_reportable_shape(self):
        report = vet(base_program())
        assert isinstance(report, VetReport)
        text = report.summary()
        assert "flow_counts" in text
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["maps"][0]["name"] == "flow_counts"

    def test_maps_of_class_and_stateful(self):
        report = vet(corpus("firewall"))
        assert "fw_conns" in report.maps_of_class(StateClass.CROSS_FLOW)
        assert set(report.stateful_maps) == {"flow_counts", "fw_conns"}

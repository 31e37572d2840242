"""Unit tests for the def-use substrate (`analysis/dataflow.py`)."""

from repro.analysis.dataflow import AccessSet, analyze
from repro.apps.base import base_infrastructure, standard_builder
from repro.lang import builder as b
from repro.lang.ir import FieldRef


def ref(name: str) -> FieldRef:
    return b.field(name)


class TestElementAccess:
    def test_function_read_write_sets(self):
        df = analyze(base_infrastructure())
        count = df.element_access("count_flow")
        assert "flow_counts" in count.map_reads
        assert "flow_counts" in count.map_writes
        assert ref("ipv4.src") in count.field_reads
        assert not count.field_writes

    def test_primitive_effects_are_meta_writes(self):
        df = analyze(base_infrastructure())
        guard = df.element_access("ttl_guard")
        assert "drop_flag" in guard.meta_writes
        assert ref("ipv4.ttl") in guard.field_reads

    def test_table_unions_keys_and_all_actions(self):
        df = analyze(base_infrastructure())
        l3 = df.element_access("l3")
        # key read + every listed action's effects, including dec_ttl's
        # field write and forward's set_port — regardless of rules.
        assert ref("ipv4.dst") in l3.field_reads
        assert ref("ipv4.ttl") in l3.field_writes
        assert "egress_port" in l3.meta_writes

    def test_both_if_branches_counted(self):
        program = standard_builder("p")
        program.function(
            "f",
            [
                b.if_(
                    b.binop("==", "ipv4.proto", 6),
                    [b.assign("ipv4.ttl", 1)],
                    [b.assign("tcp.flags", 2)],
                )
            ],
        )
        program.apply("f")
        access = analyze(program.build()).element_access("f")
        assert {ref("ipv4.ttl"), ref("tcp.flags")} <= set(access.field_writes)


class TestProgramQueries:
    def test_readers_and_writers_filtered_to_applied(self):
        program = standard_builder("p")
        program.map("m", keys=["ipv4.src"], value_type="u64", max_entries=16)
        program.function("live", [b.map_put("m", "ipv4.src", 1)])
        program.function("dead", [b.map_put("m", "ipv4.src", 2)])
        program.apply("live")
        df = analyze(program.build())
        assert df.writers_of_map("m") == frozenset({"live"})

    def test_program_access_union(self):
        df = analyze(base_infrastructure())
        total = df.program_access
        assert "flow_counts" in total.map_writes
        assert ref("ethernet.dst") in total.field_reads


class TestAccessSet:
    def test_union_and_predicates(self):
        a = AccessSet(map_reads=frozenset({"m"}))
        c = a | AccessSet(meta_writes=frozenset({"k"}))
        assert c.map_reads == {"m"} and c.meta_writes == {"k"}
        assert c.writes_anything and c.maps == {"m"}

    def test_to_dict_is_sorted_strings(self):
        access = AccessSet(
            field_writes=frozenset({ref("ipv4.ttl"), ref("ipv4.dst")})
        )
        assert access.to_dict()["field_writes"] == ["ipv4.dst", "ipv4.ttl"]

"""FlexPath tests: compiled execution is byte-identical to the
interpreter, whole and on a hosted slice, and the dataflow pass says
which slices write state (what a table remembers per key is covered in
``test_flow_cache.py``)."""

import copy

import pytest

from repro.analysis.corpus import bundled_programs
from repro.apps import base_infrastructure, firewall_delta
from repro.lang.delta import apply_delta
from repro.lang.ir import ActionCall
from repro.simulator import fastpath
from repro.simulator.packet import Verdict, make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, ternary
from tests.conftest import map_free_slice

PROGRAMS = bundled_programs()


# ---------------------------------------------------------------------------
# Differential: compiled vs interpreted
# ---------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize(
        "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
    )
    def test_bundled_program_default_rules(self, label, program):
        packets = fastpath.seeded_corpus(120, seed=7)
        assert fastpath.differential_check(program, packets) == []

    @pytest.mark.parametrize(
        "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
    )
    def test_bundled_program_seeded_rules(self, label, program):
        packets = fastpath.seeded_corpus(120, seed=11)

        def setup(instance):
            fastpath.seeded_rules(program, instance, seed=13)

        assert fastpath.differential_check(program, packets, setup=setup) == []

    def test_hosted_slice_differential(self):
        program, _ = apply_delta(base_infrastructure(), firewall_delta())
        hosted = map_free_slice(program)
        packets = fastpath.seeded_corpus(100, seed=3)
        assert fastpath.differential_check(program, packets, hosted_elements=hosted) == []

    def test_ops_accounting_exact(self):
        """The certificate-facing op counter is bit-for-bit identical —
        not approximately: FlexCheck's bounds must mean the same thing
        under both executors."""
        program = base_infrastructure()
        interp = ProgramInstance(program)
        compiled = ProgramInstance(program, fastpath=True)
        for i, packet in enumerate(fastpath.seeded_corpus(60, seed=21)):
            a = interp.process(copy.deepcopy(packet), i * 1e-4)
            b = compiled.process(copy.deepcopy(packet), i * 1e-4)
            assert a.ops == b.ops

    def test_recirculation_counted(self):
        """A compiled program that recirculates reports the same count
        as the interpreter (the seeded differentials above compare the
        field on every packet; this pins the plumbing explicitly)."""
        from repro.apps.base import standard_builder
        from repro.lang import builder as b

        builder = standard_builder("recirc")
        builder.function(
            "bounce",
            [
                b.if_(
                    b.binop("==", "meta.bounced", 0),
                    [b.assign("meta.bounced", 1), b.call("recirculate")],
                )
            ],
        )
        builder.apply("bounce")
        program = builder.build()
        interp = ProgramInstance(program)
        compiled = ProgramInstance(program, fastpath=True)
        a = interp.process(make_packet(1, 2), 0.0)
        b_ = compiled.process(make_packet(1, 2), 0.0)
        assert a.recirculations == b_.recirculations == 1
        assert a.ops == b_.ops


class TestCompiledInstance:
    def test_interpreter_by_default(self):
        instance = ProgramInstance(base_infrastructure())
        assert not instance.fastpath_enabled
        packet = make_packet(1, 2)
        instance.process(packet, 0.0)
        assert instance._compiled is None
        assert packet.verdict is Verdict.FORWARD

    def test_compiled_artifact_reused_across_packets(self):
        instance = ProgramInstance(base_infrastructure(), fastpath=True)
        instance.process(make_packet(1, 2), 0.0)
        artifact = instance._compiled
        assert artifact is not None
        instance.process(make_packet(3, 4), 1e-4)
        assert instance._compiled is artifact

    def test_identical_source_compiles_once(self):
        """Version and program name live in the generated function's
        namespace, not its text: two versions of one program (and two
        devices hosting one slice) share a code object, and each still
        reports its own version and signs its own digests."""
        from repro.apps import int_probe_delta

        program, _ = apply_delta(base_infrastructure(), int_probe_delta())
        renamed = program.bump_version()
        renamed = type(renamed)(**{**vars(renamed), "name": "renamed"})
        first = ProgramInstance(program, fastpath=True)
        second = ProgramInstance(renamed, fastpath=True)
        sliced = ProgramInstance(program, hosted_elements={"acl"}, fastpath=True)
        fastpath._code.cache_clear()
        packets = [make_packet(1, 2) for _ in range(3)]
        results = [
            instance.process(packet, 0.0)
            for instance, packet in zip((first, second, sliced), packets)
        ]
        assert first._compiled.source == second._compiled.source != sliced._compiled.source
        assert first._compiled.process.__code__ is second._compiled.process.__code__
        assert (fastpath._code.cache_info().misses, fastpath._code.cache_info().hits) == (2, 1)
        assert [result.version for result in results] == [2, 3, 2]
        assert second._compiled.version == 3
        assert {name for name, _ in packets[0].digests} == {"infra"}
        assert {name for name, _ in packets[1].digests} == {"renamed"}

    def test_rules_inserted_after_compile_visible(self):
        """The generated function indexes the live rule stores — a rule
        inserted after the first packet must take effect."""
        instance = ProgramInstance(base_infrastructure(), fastpath=True)
        packet = make_packet(0xDEAD, 2)
        instance.process(copy.deepcopy(packet), 0.0)
        instance.rules["acl"].insert(
            Rule(
                matches=(ternary(0xDEAD, 0xFFFFFFFF), ternary(0, 0)),
                action=ActionCall("drop"),
                priority=5,
            )
        )
        blocked = copy.deepcopy(packet)
        instance.process(blocked, 1e-4)
        assert blocked.verdict is Verdict.DROP


class TestFlexNetFacade:
    def test_enable_fastpath_all_devices(self, flexnet):
        flexnet.engine(fastpath=True)
        for device in flexnet.controller.devices.values():
            assert device.engine.fastpath
            assert device.active_instance.fastpath_enabled
        report = flexnet.run_traffic(rate_pps=500, duration_s=0.2)
        assert report.metrics.lost_by_infrastructure == 0
        assert report.metrics.delivered > 0

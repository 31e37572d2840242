"""What a non-exact table remembers per key (the file and class names
predate the per-device flow memo's removal): one decision per flow,
bounded and first-in-first-out, dropped by a mutation of that table's
rules and by nothing else, with per-rule counters exact under repeated
flows — on a bare instance, and behind ``DeviceRuntime.process`` under
``EngineConfig(fastpath=True)`` against the interpreter device."""

import copy

from repro.apps import base_infrastructure, firewall_delta
from repro.control.p4runtime import P4RuntimeClient, TableEntry
from repro.lang.delta import apply_delta
from repro.lang.ir import ActionCall
from repro.runtime.device import DeviceRuntime, EngineConfig
from repro.simulator import fastpath, tables
from repro.simulator.packet import Verdict, make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, ternary
from repro.targets import drmt_switch
from tests.conftest import map_free_slice

#: the base program's tables that scan (``l2`` is exact: a hash index).
SCANNING = ("acl", "l3")


def sliced_instance(fast: bool = True) -> ProgramInstance:
    """The map-free hosted slice of the base program, seeded rules."""
    program = base_infrastructure()
    instance = ProgramInstance(
        program, hosted_elements=map_free_slice(program), fastpath=fast
    )
    fastpath.seeded_rules(program, instance, seed=5)
    return instance


def drive(instance, packets, times=None):
    return [
        instance.process(packet, times[index] if times is not None else 0.0)
        for index, packet in enumerate(packets)
    ]


def reference_run(packets, times):
    """The interpreter's outcomes for ``packets`` on a fresh slice."""
    reference = sliced_instance(fast=False)
    work = [copy.deepcopy(p) for p in packets]
    return reference, work, drive(reference, work, times)


def assert_counters_equal(reference, instance):
    for name, rules in reference.rules.items():
        assert rules.hit_counts == instance.rules[name].hit_counts, name
        assert rules.miss_count == instance.rules[name].miss_count, name


def remembered(instance, name):
    return instance.rules[name]._decided  # noqa: SLF001 - the subject of this file


def acl_key(packet):
    return (packet.fields["ipv4", "src"], packet.fields["ipv4", "dst"])


def acl_rule(src=0xBAD):
    return Rule(
        matches=(ternary(src, 0xFFFFFFFF), ternary(0, 0)),
        action=ActionCall("drop"),
        priority=9,
    )


# ---------------------------------------------------------------------------
# On a bare instance
# ---------------------------------------------------------------------------


class TestFlowCache:
    def test_batch_groups_and_hits(self):
        """Flow-mates share one decision per table: the first scans,
        the rest probe, and every one of them is counted."""
        instance = sliced_instance()
        packets = [make_packet(0x0A000001, 0x0A000002) for _ in range(8)]
        assert len(drive(instance, packets)) == 8
        for name in SCANNING:
            rules = instance.rules[name]
            assert len(remembered(instance, name)) == 1, name
            assert sum(rules.hit_counts) + rules.miss_count == 8, name
        assert not remembered(instance, "l2")  # exact: the index answers

    def test_eviction_is_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(tables, "TABLE_MEMO_CAPACITY", 2)
        instance = sliced_instance()
        corpus = fastpath.seeded_corpus(40, seed=3)
        times = [i * 1e-4 for i in range(len(corpus))]
        reference, ref_work, ref_results = reference_run(corpus, times)

        work = [copy.deepcopy(p) for p in corpus]
        results = drive(instance, work, times)
        for name in SCANNING:
            assert len(remembered(instance, name)) == 2, name  # full, never past it
        for left, right, a, c in zip(ref_work, work, ref_results, results):
            assert left.verdict is right.verdict
            assert left.fields == right.fields
            assert left.meta == right.meta
            assert a.ops == c.ops
        assert_counters_equal(reference, instance)

    def test_eviction_is_fifo_not_lru(self, monkeypatch):
        monkeypatch.setattr(tables, "TABLE_MEMO_CAPACITY", 2)
        instance = sliced_instance()
        a, b, c = (make_packet(1, 2), make_packet(3, 4), make_packet(5, 6))
        # The second look at ``a`` must not refresh it: first in, first out.
        drive(instance, [copy.deepcopy(p) for p in (a, b, a, c)])
        assert list(remembered(instance, "acl")) == [acl_key(b), acl_key(c)]
        drive(instance, [copy.deepcopy(a)])  # decides again, pushing ``b`` out
        assert list(remembered(instance, "acl")) == [acl_key(c), acl_key(a)]

    def test_counter_multiplicity_exact(self):
        """``hit_counts`` / ``miss_count`` move once per lookup, so
        interleaved repeats of two flows count as the interpreter does."""
        instance = sliced_instance()
        packets = [
            make_packet(0x0A000001, 0x0A000002) if i % 3 else make_packet(0x0A000003, 0x0A000004)
            for i in range(8)
        ]
        drive(instance, copy.deepcopy(packets))
        assert len(remembered(instance, "acl")) == 2
        reference, _, _ = reference_run(packets, [0.0] * len(packets))
        assert_counters_equal(reference, instance)

    def test_rule_insert_flushes_and_counts_dropped_entries(self):
        """A rule mutation drops that table's decisions — all of them,
        and no other table's — and the counters stay the interpreter's."""
        instance, reference = sliced_instance(), sliced_instance(fast=False)
        flows = [make_packet(1, 2 + i) for i in range(4)]
        for arm in (instance, reference):
            drive(arm, copy.deepcopy(flows))
        assert len(remembered(instance, "acl")) == len(remembered(instance, "l3")) == 4
        for arm in (instance, reference):
            arm.rules["acl"].insert(acl_rule(src=1))
        assert not remembered(instance, "acl")
        assert len(remembered(instance, "l3")) == 4
        for arm in (instance, reference):
            after = [make_packet(1, 2) for _ in range(3)]
            drive(arm, after, [1.0] * 3)
            assert all(packet.verdict is Verdict.DROP for packet in after)
        assert remembered(instance, "acl")[1, 2] == (ActionCall("drop"), len(instance.rules["acl"]) - 1)
        assert_counters_equal(reference, instance)

    def test_new_instance_starts_cold(self):
        """Decisions live in the instance's own tables: a second
        instance of the same version decides for itself."""
        first, second = sliced_instance(), sliced_instance()
        packets = [make_packet(1, 2) for _ in range(3)]
        drive(first, copy.deepcopy(packets))
        assert remembered(first, "acl") and not remembered(second, "acl")
        drive(second, copy.deepcopy(packets))
        reference, _, _ = reference_run(packets, [0.0] * 3)
        assert_counters_equal(reference, first)
        assert_counters_equal(reference, second)


# ---------------------------------------------------------------------------
# Behind DeviceRuntime.process
# ---------------------------------------------------------------------------


def device_for(name, program, hosted, engine):
    device = DeviceRuntime(name, drmt_switch(name), engine=engine)
    device.install(program, hosted_elements=set(hosted))
    fastpath.seeded_rules(program, device.active_instance, seed=5)
    return device


def device_pair(program=None, hosted=None):
    """The same seeded slice on a compiled-engine device and on the
    interpreter device it is checked against."""
    program = program or base_infrastructure()
    hosted = hosted if hosted is not None else map_free_slice(program)
    return (
        device_for("sw1", program, hosted, EngineConfig(fastpath=True)),
        device_for("sw1", program, hosted, EngineConfig()),
    )


def assert_same_hop(device, reference, packet, now):
    mine, theirs = copy.deepcopy(packet), copy.deepcopy(packet)
    assert device.process(mine, now) == reference.process(theirs, now)
    assert mine.verdict is theirs.verdict, now
    assert mine.fields == theirs.fields
    assert mine.meta == theirs.meta
    return mine


class TestDeviceFlowCache:
    def test_hits_and_identical_outcomes(self):
        device, plain = device_pair()
        flows = [make_packet(i % 8, 100 + i % 8) for i in range(64)]
        for i, packet in enumerate(flows):
            assert_same_hop(device, plain, packet, i * 1e-4)
        assert len(remembered(device.active_instance, "acl")) == 8
        assert not remembered(plain.active_instance, "l2")
        assert device.stats.total_ops == plain.stats.total_ops

    def test_table_counters_replayed(self):
        device, reference = device_pair()
        for i in range(30):
            assert_same_hop(device, reference, make_packet(i % 3, 50), i * 1e-4)
        assert_counters_equal(reference.active_instance, device.active_instance)
        acl = device.active_instance.rules["acl"]
        assert sum(acl.hit_counts) + acl.miss_count == 30  # 3 decided, 27 remembered
        assert len(remembered(device.active_instance, "acl")) == 3

    def test_rule_insert_invalidates(self):
        device, reference = device_pair()
        blocked = make_packet(0xBAD, 7)
        for now in (0.0, 1e-4):
            assert assert_same_hop(device, reference, blocked, now).verdict is Verdict.FORWARD
        assert acl_key(blocked) in remembered(device.active_instance, "acl")
        for arm in (device, reference):
            P4RuntimeClient(arm).insert_entry(
                TableEntry(
                    table="acl",
                    matches=(ternary(0xBAD, 0xFFFFFFFF), ternary(0, 0)),
                    action="drop",
                    priority=9,
                )
            )
        after = assert_same_hop(device, reference, blocked, 2e-4)
        assert after.verdict is Verdict.DROP  # not the remembered FORWARD

    def test_rule_remove_invalidates(self):
        device, reference = device_pair()
        rule = acl_rule()
        for arm in (device, reference):
            arm.active_instance.rules["acl"].insert(rule)
        blocked = make_packet(0xBAD, 7)
        for now in (0.0, 1e-4):
            assert assert_same_hop(device, reference, blocked, now).verdict is Verdict.DROP
        for arm in (device, reference):
            assert arm.active_instance.rules["acl"].remove(rule)
        after = assert_same_hop(device, reference, blocked, 2e-4)
        assert after.verdict is Verdict.FORWARD
        assert_counters_equal(reference.active_instance, device.active_instance)

    def test_map_write_invalidates_via_mutation_counter(self):
        """A control-plane write to a map the program *reads* shows in
        the very next verdict: tables remember rules, and nothing
        remembers a map (its mutation counter still ticks per write)."""
        from repro.apps.base import standard_builder
        from repro.lang import builder as b

        builder = standard_builder("blocklist")
        builder.map("blocked", keys=["ipv4.src"], value_type="u64", max_entries=64)
        builder.function(
            "check",
            [
                b.if_(
                    b.binop("==", b.map_get("blocked", "ipv4.src"), 1),
                    [b.call("mark_drop")],
                )
            ],
        )
        builder.apply("check")
        program = builder.build()

        device, reference = device_pair(program, hosted={"check"})
        packet = make_packet(5, 2)
        for now in (0.0, 1e-4):
            assert assert_same_hop(device, reference, packet, now).verdict is Verdict.FORWARD
        for arm in (device, reference):
            state = arm.active_instance.maps.state("blocked")
            writes = state.mutation_count
            state.put((5,), 1)
            assert state.mutation_count == writes + 1
        after = assert_same_hop(device, reference, packet, 2e-4)
        assert after.verdict is Verdict.DROP  # not a stale FORWARD

    def test_mid_run_reconfig_no_stale_verdicts(self):
        program = base_infrastructure()
        device, reference = device_pair(program)

        flows = [make_packet(i % 6, 40 + i % 6) for i in range(24)]
        for i, packet in enumerate(flows):
            assert_same_hop(device, reference, packet, i * 1e-4)

        patched, _ = apply_delta(program, firewall_delta())
        new_hosted = map_free_slice(patched)
        for arm in (device, reference):
            arm.begin_hitless_update(patched, now=1.0, duration_s=0.2,
                                     hosted_elements=set(new_hosted))
        assert device.staged_instance.fastpath_enabled
        # Both versions run over one physical ``acl``: what it remembers
        # depends on its rules alone, so the open window keeps it.
        assert device.staged_instance.rules["acl"] is device.active_instance.rules["acl"]
        assert len(remembered(device.staged_instance, "acl")) == 6

        # During and after the window the two devices agree packet for
        # packet, the new version's ``fw_block`` included.
        for i, packet in enumerate(flows * 2):
            assert_same_hop(device, reference, packet, 1.05 + i * 0.01)
        assert not device.in_transition
        assert len(remembered(device.active_instance, "fw_block")) == 6
        assert_counters_equal(reference.active_instance, device.active_instance)

    def test_engine_change_applies_to_live_instances(self):
        _, device = device_pair()
        assert not device.active_instance.fastpath_enabled
        device.engine = EngineConfig(fastpath=True)
        assert device.active_instance.fastpath_enabled
        device.engine = EngineConfig()
        packet = make_packet(1, 2)
        device.process(packet, 0.0)  # back on the interpreter
        assert not device.active_instance.fastpath_enabled
        assert packet.verdict is Verdict.FORWARD

"""The one flow memo (``FlowCache``): capacity bound and FIFO exactness,
token flushes (rule insert, map mutation, meter attach) and re-admission,
bypass on uncacheable slices, counter exactness under repeated flows —
through ``FlowCache.process`` on a bare instance, driven as the device
drives it, and through ``DeviceRuntime.process``."""

import copy

import pytest

from repro.analysis.cacheability import decide, stateless_slice
from repro.apps import base_infrastructure, firewall_delta
from repro.control.p4runtime import P4RuntimeClient, TableEntry
from repro.errors import SimulationError
from repro.lang.delta import apply_delta
from repro.lang.ir import ActionCall
from repro.runtime.device import DeviceRuntime, EngineConfig
from repro.simulator import fastpath
from repro.simulator.fastpath import FlowCache
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.packet import Verdict, make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, exact, ternary
from repro.targets import drmt_switch


def sliced_instance(fast: bool = True) -> ProgramInstance:
    """A cacheable hosted slice of the base program, seeded rules."""
    program = base_infrastructure()
    instance = ProgramInstance(
        program, hosted_elements=stateless_slice(program), fastpath=fast
    )
    fastpath.seeded_rules(program, instance, seed=5)
    return instance


def drive(cache, instance, packets, times=None):
    """Feed ``packets`` through the memo one at a time, falling to the
    instance on a bypass, as ``DeviceRuntime.process`` does."""
    results = []
    for index, packet in enumerate(packets):
        now = times[index] if times is not None else 0.0
        result = cache.process(instance, packet, now)
        if result is None:
            result = instance.process(packet, now)
        results.append(result)
    return results


def reference_run(packets, times):
    """The interpreter's outcomes for ``packets`` on a fresh slice."""
    reference = sliced_instance(fast=False)
    work = [copy.deepcopy(p) for p in packets]
    results = [reference.process(p, t) for p, t in zip(work, times)]
    return reference, work, results


def assert_counters_equal(reference, instance):
    for name, rules in reference.rules.items():
        assert rules.hit_counts == instance.rules[name].hit_counts, name
        assert rules.miss_count == instance.rules[name].miss_count, name


def new_rule():
    return Rule(matches=(exact(0xBEEF),), action=ActionCall("forward", (1,)))


# ---------------------------------------------------------------------------
# The memo on a bare instance
# ---------------------------------------------------------------------------


class TestFlowCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            FlowCache(capacity=0)

    def test_batch_groups_and_hits(self):
        """Flow-mates share one entry: the first records, the rest hit."""
        cache = FlowCache()
        packets = [make_packet(0x0A000001, 0x0A000002) for _ in range(8)]
        results = drive(cache, sliced_instance(), packets)
        assert len(results) == 8
        assert cache.stats.misses == 1  # one flow -> one observation key
        assert cache.stats.hits == 7
        assert cache.stats.bypasses == 0
        assert len(cache) == 1

    def test_eviction_is_bounded_and_exact(self):
        cache = FlowCache(capacity=2)
        instance = sliced_instance()
        corpus = fastpath.seeded_corpus(40, seed=3)
        times = [i * 1e-4 for i in range(len(corpus))]
        reference, ref_work, ref_results = reference_run(corpus, times)

        work = [copy.deepcopy(p) for p in corpus]
        results = drive(cache, instance, work, times)
        assert len(cache) <= 2  # never exceeds capacity
        assert cache.stats.misses > 2  # ...so it actually evicted
        for left, right, a, c in zip(ref_work, work, ref_results, results):
            assert left.verdict is right.verdict
            assert left.fields == right.fields
            assert left.meta == right.meta
            assert a.ops == c.ops
        assert_counters_equal(reference, instance)

    def test_eviction_is_fifo_not_lru(self):
        cache = FlowCache(capacity=2)
        instance = sliced_instance()
        a, b, c = (make_packet(1, 2), make_packet(3, 4), make_packet(5, 6))
        for i, packet in enumerate((a, b, a, c)):  # the hit on ``a`` must not refresh it
            cache.process(instance, copy.deepcopy(packet), i * 1e-4)
        assert (cache.stats.misses, cache.stats.hits) == (3, 1)
        cache.process(instance, copy.deepcopy(b), 1e-3)  # survived: inserted after a
        assert cache.stats.hits == 2
        cache.process(instance, copy.deepcopy(a), 2e-3)  # evicted first-in
        assert cache.stats.misses == 4

    def test_counter_multiplicity_exact(self):
        """``hit_counts`` / ``miss_count`` replay once per hit, so
        interleaved repeats of two flows count as the interpreter does."""
        cache = FlowCache()
        instance = sliced_instance()
        packets = [
            make_packet(0x0A000001, 0x0A000002) if i % 3 else make_packet(0x0A000003, 0x0A000004)
            for i in range(8)
        ]
        drive(cache, instance, copy.deepcopy(packets))
        assert (cache.stats.misses, cache.stats.hits) == (2, 6)
        reference, _, _ = reference_run(packets, [0.0] * len(packets))
        assert_counters_equal(reference, instance)

    def test_uncacheable_slice_is_bypassed(self):
        program = base_infrastructure()  # whole program writes flow_counts
        reference = ProgramInstance(program)
        instance = ProgramInstance(program, fastpath=True)
        cache = FlowCache()
        packet = make_packet(0x0A000001, 0x0A000002)
        assert cache.process(instance, copy.deepcopy(packet), 0.0) is None
        assert cache.stats.bypasses == 1
        expected = [reference.process(copy.deepcopy(packet), 0.0) for _ in range(3)]
        results = drive(cache, instance, [copy.deepcopy(packet) for _ in range(3)])
        assert [r.ops for r in results] == [r.ops for r in expected]
        assert cache.stats.bypasses == 4
        assert cache.stats.hits == cache.stats.misses == 0 and len(cache) == 0

    def test_rule_insert_flushes_and_counts_dropped_entries(self):
        cache = FlowCache()
        instance = sliced_instance()
        for i in range(4):
            cache.process(instance, make_packet(1, 2 + i), i * 1e-4)
        populated = len(cache)
        assert populated > 0
        assert cache.stats.invalidations == 0 and cache.stats.entries_dropped == 0
        instance.rules["l2"].insert(new_rule())
        drive(cache, instance, [make_packet(1, 2) for _ in range(3)], [1.0] * 3)
        assert cache.stats.invalidations == 1
        assert cache.stats.entries_dropped == populated
        assert cache.stats.to_dict()["entries_dropped"] == populated
        assert cache.stats.hits == 2  # re-recorded once, then served again

    def test_meter_attach_bypasses_and_detach_readmits(self):
        cache = FlowCache()
        instance = sliced_instance()
        assert cache.process(instance, make_packet(1, 2), 0.0) is not None
        assert cache.stats.bypasses == 0
        instance.rules["l2"].meter = Meter(
            MeterConfig(rate_pps=1000.0, burst_packets=10.0)
        )
        for packet in (make_packet(1, 2), make_packet(3, 4)):
            assert cache.process(instance, packet, 0.0) is None
        assert cache.stats.bypasses == 2
        instance.rules["l2"].meter = None  # detach: the memo resumes
        drive(cache, instance, [make_packet(1, 2) for _ in range(2)])
        assert cache.stats.bypasses == 2
        assert cache.stats.hits >= 1

    def test_new_instance_starts_cold(self):
        """Entries hold counter references into one instance's tables;
        a different instance (even of the same version) re-records."""
        cache = FlowCache()
        first, second = sliced_instance(), sliced_instance()
        packets = [make_packet(1, 2) for _ in range(3)]
        drive(cache, first, copy.deepcopy(packets))
        drive(cache, second, copy.deepcopy(packets))
        assert cache.stats.misses == 2 and cache.stats.invalidations == 0
        reference, _, _ = reference_run(packets, [0.0] * 3)
        assert_counters_equal(reference, first)
        assert_counters_equal(reference, second)


# ---------------------------------------------------------------------------
# The memo behind DeviceRuntime.process
# ---------------------------------------------------------------------------


def device_for(name, program, hosted, engine=EngineConfig()):
    device = DeviceRuntime(name, drmt_switch(name), engine=engine)
    device.install(program, hosted_elements=set(hosted))
    return device


def cached_device(program=None, hosted=None):
    program = program or base_infrastructure()
    hosted = hosted if hosted is not None else stateless_slice(program)
    return device_for("sw1", program, hosted, EngineConfig(memo=True))


def plain_device(program=None, hosted=None):
    program = program or base_infrastructure()
    hosted = hosted if hosted is not None else stateless_slice(program)
    return device_for("ref", program, hosted)


class TestDeviceFlowCache:
    def test_hits_and_identical_outcomes(self):
        plain = plain_device()
        device = cached_device()
        flows = [make_packet(i % 8, 100 + i % 8) for i in range(64)]
        for i, packet in enumerate(flows):
            mine, theirs = copy.deepcopy(packet), copy.deepcopy(packet)
            device.process(mine, i * 1e-4)
            plain.process(theirs, i * 1e-4)
            assert mine.verdict is theirs.verdict
            assert mine.fields == theirs.fields
            assert mine.meta == theirs.meta
        stats = device.flow_cache.stats
        assert stats.hits > 0 and stats.bypasses == 0
        assert device.stats.total_ops == plain.stats.total_ops

    def test_table_counters_replayed(self):
        device = cached_device()
        reference = plain_device()
        for i in range(30):
            packet = make_packet(i % 3, 50)
            device.process(copy.deepcopy(packet), i * 1e-4)
            reference.process(copy.deepcopy(packet), i * 1e-4)
        assert_counters_equal(reference.active_instance, device.active_instance)

    def test_rule_insert_invalidates(self):
        device = cached_device()
        blocked = make_packet(0xBAD, 7)
        device.process(copy.deepcopy(blocked), 0.0)
        device.process(copy.deepcopy(blocked), 1e-4)  # memoized now
        assert device.flow_cache.stats.hits >= 1
        P4RuntimeClient(device).insert_entry(
            TableEntry(
                table="acl",
                matches=(ternary(0xBAD, 0xFFFFFFFF), ternary(0, 0)),
                action="drop",
                priority=9,
            )
        )
        after = copy.deepcopy(blocked)
        device.process(after, 2e-4)
        assert after.verdict is Verdict.DROP  # not the stale FORWARD
        assert device.flow_cache.stats.invalidations >= 1

    def test_rule_remove_invalidates(self):
        device = cached_device()
        rule = Rule(
            matches=(ternary(0xBAD, 0xFFFFFFFF), ternary(0, 0)),
            action=ActionCall("drop"),
            priority=9,
        )
        device.active_instance.rules["acl"].insert(rule)
        blocked = make_packet(0xBAD, 7)
        device.process(copy.deepcopy(blocked), 0.0)
        device.process(copy.deepcopy(blocked), 1e-4)
        device.active_instance.rules["acl"].remove(rule)
        after = copy.deepcopy(blocked)
        device.process(after, 2e-4)
        assert after.verdict is Verdict.FORWARD

    def test_meter_set_forces_bypass_and_clear_resumes(self):
        device = cached_device()
        packet = make_packet(1, 2)
        device.process(copy.deepcopy(packet), 0.0)
        device.process(copy.deepcopy(packet), 1e-4)
        hits_before = device.flow_cache.stats.hits
        assert hits_before >= 1

        table = device.active_instance.rules["acl"]
        table.meter = Meter(MeterConfig(rate_pps=1000.0, burst_packets=10.0))
        device.process(copy.deepcopy(packet), 2e-4)
        assert device.flow_cache.stats.bypasses >= 1

        table.meter = None  # detach: the memo resumes
        device.process(copy.deepcopy(packet), 3e-4)
        device.process(copy.deepcopy(packet), 4e-4)
        assert device.flow_cache.stats.hits > hits_before

    def test_map_write_invalidates_via_mutation_counter(self):
        """A control-plane write to a map the program *reads* must drop
        memoized outcomes (the map's mutation counter is in the token)."""
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
        assert decide(program).cacheable  # read-only: whole program memoizes

        device = cached_device(program)
        packet = make_packet(5, 2)
        device.process(copy.deepcopy(packet), 0.0)
        cached = copy.deepcopy(packet)
        device.process(cached, 1e-4)
        assert cached.verdict is Verdict.FORWARD
        assert device.flow_cache.stats.hits >= 1

        device.active_instance.maps.state("blocked").put((5,), 1)
        after = copy.deepcopy(packet)
        device.process(after, 2e-4)
        assert after.verdict is Verdict.DROP  # not the stale FORWARD
        assert device.flow_cache.stats.invalidations >= 1

    def test_mid_run_reconfig_no_stale_verdicts(self):
        program = base_infrastructure()
        hosted = stateless_slice(program)
        device = cached_device(program, hosted)
        reference = plain_device(program, hosted)

        flows = [make_packet(i % 6, 40 + i % 6) for i in range(24)]
        for i, packet in enumerate(flows):
            device.process(copy.deepcopy(packet), i * 1e-4)
            reference.process(copy.deepcopy(packet), i * 1e-4)

        patched, _ = apply_delta(program, firewall_delta())
        new_hosted = stateless_slice(patched)
        device.begin_hitless_update(patched, now=1.0, duration_s=0.2,
                                    hosted_elements=set(new_hosted))
        reference.begin_hitless_update(patched, now=1.0, duration_s=0.2,
                                       hosted_elements=set(new_hosted))
        assert len(device.flow_cache) == 0  # dropped wholesale on program change
        assert device.staged_instance.fastpath_enabled

        # During and after the window, memoized and plain agree packet
        # for packet (the memo is bypassed mid-transition, then re-keys).
        hits_at_update = device.flow_cache.stats.hits
        for i, packet in enumerate(flows * 2):
            now = 1.05 + i * 0.01
            mine, theirs = copy.deepcopy(packet), copy.deepcopy(packet)
            device.process(mine, now)
            reference.process(theirs, now)
            assert mine.verdict is theirs.verdict, (i, now)
            assert mine.fields == theirs.fields
            assert mine.meta == theirs.meta
        assert device.flow_cache.stats.hits > hits_at_update

    def test_engine_change_applies_to_live_instances(self):
        device = plain_device()
        assert device.flow_cache is None
        assert not device.active_instance.fastpath_enabled
        device.engine = EngineConfig(memo=True)
        assert device.active_instance.fastpath_enabled
        assert device.flow_cache is not None
        device.engine = EngineConfig(fastpath=True)
        assert device.active_instance.fastpath_enabled and device.flow_cache is None
        device.engine = EngineConfig()
        packet = make_packet(1, 2)
        device.process(packet, 0.0)  # back on the interpreter
        assert not device.active_instance.fastpath_enabled
        assert packet.verdict is Verdict.FORWARD

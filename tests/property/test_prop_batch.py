"""Repeat-flow differential properties (the file and its ids predate
the flow memo's removal; "batched" is now just ``engine(fastpath=True)``):
the generated function, with every non-exact table answering a repeat
flow from what it remembers, is bit-identical to the tree-walking
interpreter for **every** bundled program — whole, where each of them
writes state, and on its map-free hosted slice — at every flow mix from
one flow repeated (all remembered) through a prime that never aligns
with the run to 256 flows (mostly first sights), and past the number
of keys a table remembers (FIFO eviction); a program that hashes
answers a repeated input from the generated functions' hash memo. A
live change — a meter attaching or a rule inserted *between* packets —
must also preserve bit-identity, the second dropping that table's
decisions."""

import collections

import pytest

from repro.analysis.corpus import bundled_programs
from repro.apps import base_infrastructure
from repro.lang import ir
from repro.lang.ir import ActionCall
from repro.limits import TABLE_MEMO_CAPACITY
from repro.simulator import fastpath
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.packet import make_packet
from repro.simulator.tables import Rule, ternary
from tests.conftest import ir_nodes, map_free_slice
from tests.runtime.test_device import executor_calls

PROGRAMS = bundled_programs()
#: distinct flows tiled over one run; a repeat is what a table answers
#: from memory and what drives per-flow map state past its first touch.
FLOW_MIXES = (1, 7, 64, 256)
RUN_PACKETS = 300


def seeded_setup(program, seed=13, keep=None):
    """``setup`` for ``differential_check``; ``keep`` collects the
    instances it was handed (reference first) for a look inside after."""

    def setup(instance):
        fastpath.seeded_rules(program, instance, seed=seed)
        if keep is not None:
            keep.append(instance)

    return setup


def tiled(flows, count):
    return [flows[i % len(flows)] for i in range(count)]


def assert_identical(report):
    assert not report.divergences, "\n".join(str(d) for d in report.divergences[:5])


def scanning_tables(instance):
    """The hosted non-exact tables: the ones that remember."""
    return [
        rules
        for name, rules in instance.rules.items()
        if instance.hosts(name) and not rules.definition.is_exact
    ]


def hashes(program):
    return any(isinstance(node, ir.HashExpr) for node in ir_nodes(program))


@pytest.mark.parametrize("flows", FLOW_MIXES)
@pytest.mark.parametrize(
    "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_batched_matches_interpreter(label, program, flows):
    packets = tiled(fastpath.seeded_corpus(flows, seed=7), RUN_PACKETS)
    for hosted in (None, map_free_slice(program)):
        hits = fastpath._hash.cache_info().hits  # noqa: SLF001
        arms = []
        assert_identical(
            fastpath.differential_check(
                program,
                packets,
                hosted_elements=hosted,
                setup=seeded_setup(program, keep=arms),
            )
        )
        # However often a flow repeats, a table decides each key once.
        for arm in arms:
            for rules in scanning_tables(arm):
                assert len(rules._decided) <= flows  # noqa: SLF001
        # ... and the generated function hashes a repeated input once:
        # every mix repeats a flow, so a program that hashes must have
        # answered some hash from the memo (the random corpus alone
        # would only ever miss).
        if hosted is None and hashes(program):
            assert fastpath._hash.cache_info().hits > hits  # noqa: SLF001


def test_batched_matches_interpreter_beyond_memo_capacity():
    """One more distinct key than a table remembers: the first-in key
    is forgotten and stays bit-exact when its flow returns, while a
    flow still resident is answered from memory."""
    program = base_infrastructure()
    flows = [
        make_packet(0x0A000000 + index, 0x0B000000 + 3 * index, ttl=index % 256)
        for index in range(TABLE_MEMO_CAPACITY + 1)
    ]
    packets = flows + flows[-25:] + flows[:25]
    arms = []
    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=map_free_slice(program),
        setup=seeded_setup(program, keep=arms),
    )
    assert_identical(report)
    for arm in arms:
        remembered = arm.rules["acl"]._decided  # noqa: SLF001
        assert len(remembered) == TABLE_MEMO_CAPACITY
        # FIFO: deciding each returning old flow again pushed the
        # next-oldest out, so the newest 25 of the old flows are the tail.
        tail = [(p.fields["ipv4", "src"], p.fields["ipv4", "dst"]) for p in flows[:25]]
        assert list(remembered)[-25:] == tail


def test_hosted_slice_memo_matches_interpreter():
    """The disaggregated configuration: the map-free hosted slice of
    every bundled program, repeat flows answered from its tables."""
    flows = fastpath.seeded_corpus(16, seed=23)
    packets = tiled(flows, 120)
    for label, program in PROGRAMS:
        hosted = map_free_slice(program)
        if not hosted:
            continue
        arms = []
        report = fastpath.differential_check(
            program,
            packets,
            hosted_elements=hosted,
            setup=seeded_setup(program, keep=arms),
        )
        assert not report.divergences, (label, report.divergences[:5])
        for rules in scanning_tables(arms[1]):
            assert 0 < len(rules._decided) <= len(flows), label  # noqa: SLF001


def test_memo_arm_calls_only_the_two_entries_traffic_takes(monkeypatch):
    """The harness proves the code that runs: each arm reaches the
    executor through ``ProgramInstance.process`` alone, once per
    packet, whether a table remembered the flow or a meter is attached."""
    program = base_infrastructure()
    packets = tiled(fastpath.seeded_corpus(8, seed=37), 80)
    calls = executor_calls(monkeypatch)

    def mutate(reference, fast, index):
        if index == 60:  # the last quarter is metered
            for instance in (reference, fast):
                instance.rules["acl"].meter = Meter(
                    MeterConfig(rate_pps=50.0, burst_packets=4.0)
                )

    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=map_free_slice(program),
        setup=seeded_setup(program),
        mutate=mutate,
    )
    assert_identical(report)
    by_arm = collections.Counter()
    for (entry, instance), count in calls.items():
        by_arm[entry, instance.fastpath_enabled] += count
    assert by_arm == {("instance", True): 80, ("instance", False): 80}


# ---------------------------------------------------------------------------
# Live changes mid-run
# ---------------------------------------------------------------------------


def test_meter_attach_mid_run_bypasses_and_stays_exact():
    """A meter colours every hit from the packet it attaches at; it
    decides nothing, so the table keeps what it remembers (the flow
    memo had to stand aside here — nothing does now)."""
    program = base_infrastructure()
    flows = fastpath.seeded_corpus(8, seed=29)
    packets = tiled(flows, 160)
    arms = []

    def mutate(reference, fast, index):
        if index == 64:
            for instance in (reference, fast):
                remembered = dict(instance.rules["l3"]._decided)  # noqa: SLF001
                instance.rules["l3"].meter = Meter(MeterConfig(rate_pps=50.0, burst_packets=4.0))
                assert instance.rules["l3"]._decided == remembered  # noqa: SLF001
                assert len(remembered) == len({p.fields["ipv4", "dst"] for p in flows})

    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=map_free_slice(program),
        setup=seeded_setup(program, keep=arms),
        mutate=mutate,
    )
    assert_identical(report)
    for arm in arms:
        meter = arm.rules["l3"].meter
        assert meter.green_count + meter.red_count > 0 and meter.red_count > 0


def test_rule_mutation_mid_run_flushes_memo_and_stays_exact():
    program = base_infrastructure()
    # A small flow mix tiled out, so keys repeat and the table answers
    # from memory before and after the insert.
    flows = fastpath.seeded_corpus(8, seed=31)
    packets = tiled(flows, 160)
    victim = flows[3].fields["ipv4", "src"]
    arms = []

    def mutate(reference, fast, index):
        if index == 64:
            for instance in (reference, fast):
                acl = instance.rules["acl"]
                assert len(acl._decided) == len(flows)  # noqa: SLF001
                acl.insert(
                    Rule(
                        matches=(ternary(victim, 0xFFFFFFFF), ternary(0, 0)),
                        action=ActionCall("drop"),
                        priority=9,
                    )
                )
                assert not acl._decided  # noqa: SLF001

    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=map_free_slice(program),
        setup=seeded_setup(program, keep=arms),
        mutate=mutate,
    )
    assert_identical(report)
    for arm in arms:
        acl = arm.rules["acl"]
        assert len(acl._decided) == len(flows)  # noqa: SLF001 - decided again after the insert
        assert acl.hit_counts[-1] == (160 - 64) // len(flows)  # the new rule, per lookup

"""Batched differential properties: for **every** bundled program —
cacheable slices (memo replay) and uncacheable ones (per-packet bypass)
alike — ``FlowCache.process_batch`` is bit-identical to the tree-walking
interpreter at every batch size, including size 1, a prime that
straddles chunk boundaries, 64, 256, and a batch larger than the memo
capacity (FIFO eviction mid-batch). A live flush — a meter attaching or
a rule mutating *between* batches — must also preserve bit-identity
while the memo's bypass / invalidation counters fire."""

import pytest

from repro.analysis.corpus import bundled_programs
from repro.analysis.cacheability import stateless_slice
from repro.apps import base_infrastructure
from repro.lang.ir import ActionCall
from repro.limits import FLOW_MEMO_CAPACITY
from repro.simulator import fastpath
from repro.simulator.batch import batched_differential
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.tables import Rule, exact

PROGRAMS = bundled_programs()
#: the memo-eviction size: one batch of capacity + 1 distinct-key
#: packets forces FIFO eviction mid-batch — but a 4097-packet
#: interpreter pass per program is too slow for CI, so the big size
#: runs on the base program only (test below).
BATCH_SIZES = (1, 7, 64, 256)
MEMO_CAPACITY_PLUS_ONE = FLOW_MEMO_CAPACITY + 1


def seeded_setup(program, seed=13):
    def setup(instance):
        fastpath.seeded_rules(program, instance, seed=seed)

    return setup


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize(
    "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_batched_matches_interpreter(label, program, batch_size):
    packets = fastpath.seeded_corpus(300, seed=7)
    report = batched_differential(
        program,
        packets,
        setup=seeded_setup(program),
        batch_size=batch_size,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )


def test_batched_matches_interpreter_beyond_memo_capacity():
    """One batch larger than the memo capacity on the cacheable hosted
    slice: FIFO eviction happens mid-batch and stays bit-exact."""
    program = base_infrastructure()
    packets = fastpath.seeded_corpus(MEMO_CAPACITY_PLUS_ONE + 50, seed=17)
    report = batched_differential(
        program,
        packets,
        hosted_elements=stateless_slice(program),
        setup=seeded_setup(program),
        batch_size=MEMO_CAPACITY_PLUS_ONE,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )


def test_hosted_slice_memo_matches_interpreter():
    """The gated configuration: the stateless hosted slice of every
    bundled program replays from the memo bit-exactly."""
    flows = fastpath.seeded_corpus(16, seed=23)
    packets = [flows[i % len(flows)] for i in range(120)]
    for label, program in PROGRAMS:
        hosted = stateless_slice(program)
        if not hosted:
            continue
        cache = fastpath.FlowCache()
        report = batched_differential(
            program,
            packets,
            hosted_elements=hosted,
            setup=seeded_setup(program),
            batch_size=32,
            cache=cache,
        )
        assert not report.divergences, (label, report.divergences[:5])
        assert cache.stats.hits > 0 and cache.stats.bypasses == 0, label


# ---------------------------------------------------------------------------
# Live flushes mid-run
# ---------------------------------------------------------------------------


def test_meter_attach_mid_run_bypasses_and_stays_exact():
    program = base_infrastructure()
    flows = fastpath.seeded_corpus(8, seed=29)
    packets = [flows[i % len(flows)] for i in range(160)]
    cache = fastpath.FlowCache()

    def mutate(reference, batched, batch_index):
        if batch_index == 2:
            meter = lambda: Meter(MeterConfig(rate_pps=50.0, burst_packets=4.0))
            reference.rules["l2"].meter = meter()
            batched.rules["l2"].meter = meter()

    report = batched_differential(
        program,
        packets,
        hosted_elements=stateless_slice(program),
        setup=seeded_setup(program),
        batch_size=32,
        mutate=mutate,
        cache=cache,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )
    assert cache.stats.hits > 0  # admitted for the first two batches...
    assert cache.stats.bypasses == 160 - 2 * 32  # ...bypassed from the third


def test_rule_mutation_mid_run_flushes_memo_and_stays_exact():
    program = base_infrastructure()
    # A small flow mix tiled out, so observation keys repeat and the
    # memo actually serves hits before and after the flush.
    flows = fastpath.seeded_corpus(8, seed=31)
    packets = [flows[i % len(flows)] for i in range(160)]
    cache = fastpath.FlowCache()

    def mutate(reference, batched, batch_index):
        if batch_index == 2:
            rule = lambda: Rule(
                matches=(exact(0xBEEF),), action=ActionCall("forward", (1,))
            )
            reference.rules["l2"].insert(rule())
            batched.rules["l2"].insert(rule())

    report = batched_differential(
        program,
        packets,
        hosted_elements=stateless_slice(program),
        setup=seeded_setup(program),
        batch_size=32,
        mutate=mutate,
        cache=cache,
    )
    assert not report.divergences, "\n".join(
        str(d) for d in report.divergences[:5]
    )
    assert cache.stats.invalidations == 1
    assert cache.stats.entries_dropped > 0
    assert cache.stats.misses > len(flows)  # re-recorded after the flush
    assert cache.stats.hits > 0 and cache.stats.bypasses == 0

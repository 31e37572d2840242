"""Flow-memo differential properties: the batch engine
(``engine(batch=True)``: compiled closures + ``FlowCache.process``,
driven as ``DeviceRuntime.process`` drives it) is bit-identical to the
tree-walking interpreter for **every** bundled program — whole, where
every one of them writes state and the memo may only bypass, and on its
stateless slice, where the memo replays — at every flow mix from one
flow repeated (all hits) through a prime that never aligns with the
run to 256 flows (mostly misses), and past the memo capacity (FIFO
eviction). A live flush — a meter attaching or a rule inserted
*between* packets — must also preserve bit-identity while the memo's
bypass / invalidation counters fire."""

import collections

import pytest

from repro.analysis.corpus import bundled_programs
from repro.analysis.cacheability import stateless_slice
from repro.apps import base_infrastructure
from repro.lang.ir import ActionCall
from repro.limits import FLOW_MEMO_CAPACITY
from repro.simulator import fastpath
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.tables import Rule, exact
from tests.runtime.test_device import executor_calls

PROGRAMS = bundled_programs()
#: distinct flows tiled over one run; a repeat is what the memo serves
#: and what drives per-flow map state past its first touch.
FLOW_MIXES = (1, 7, 64, 256)
RUN_PACKETS = 300


def seeded_setup(program, seed=13):
    def setup(instance):
        fastpath.seeded_rules(program, instance, seed=seed)

    return setup


def tiled(flows, count):
    return [flows[i % len(flows)] for i in range(count)]


def assert_identical(report):
    assert not report.divergences, "\n".join(str(d) for d in report.divergences[:5])


@pytest.mark.parametrize("flows", FLOW_MIXES)
@pytest.mark.parametrize(
    "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_batched_matches_interpreter(label, program, flows):
    packets = tiled(fastpath.seeded_corpus(flows, seed=7), RUN_PACKETS)
    whole, sliced = fastpath.FlowCache(), fastpath.FlowCache()
    assert_identical(
        fastpath.differential_check(
            program, packets, setup=seeded_setup(program), cache=whole
        )
    )
    # Every bundled program writes a map: hosted whole it is never admitted.
    assert whole.stats.bypasses == RUN_PACKETS
    assert whole.stats.hits == whole.stats.misses == len(whole) == 0
    assert_identical(
        fastpath.differential_check(
            program,
            packets,
            hosted_elements=stateless_slice(program),
            setup=seeded_setup(program),
            cache=sliced,
        )
    )
    assert sliced.stats.bypasses == 0
    assert sliced.stats.misses <= flows
    assert sliced.stats.hits == RUN_PACKETS - sliced.stats.misses


def test_batched_matches_interpreter_beyond_memo_capacity():
    """One more distinct key than the memo holds on the cacheable hosted
    slice: the first-in entry is evicted and stays bit-exact when its
    flow returns, while a flow still resident hits."""
    program = base_infrastructure()
    flows = fastpath.seeded_corpus(FLOW_MEMO_CAPACITY + 1, seed=17)
    packets = flows + flows[-25:] + flows[:25]
    cache = fastpath.FlowCache()
    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=stateless_slice(program),
        setup=seeded_setup(program),
        cache=cache,
    )
    assert_identical(report)
    assert len(cache) == FLOW_MEMO_CAPACITY
    # FIFO: the 25 newest flows hit; re-recording each returning old
    # flow evicts the next-oldest, so all 25 of those miss again.
    assert cache.stats.hits == 25
    assert cache.stats.misses == len(packets) - 25


def test_hosted_slice_memo_matches_interpreter():
    """The gated configuration: the stateless hosted slice of every
    bundled program replays from the memo bit-exactly."""
    flows = fastpath.seeded_corpus(16, seed=23)
    packets = tiled(flows, 120)
    for label, program in PROGRAMS:
        hosted = stateless_slice(program)
        if not hosted:
            continue
        cache = fastpath.FlowCache()
        report = fastpath.differential_check(
            program,
            packets,
            hosted_elements=hosted,
            setup=seeded_setup(program),
            cache=cache,
        )
        assert not report.divergences, (label, report.divergences[:5])
        assert cache.stats.hits > 0 and cache.stats.bypasses == 0, label


def test_memo_arm_calls_only_the_two_entries_traffic_takes(monkeypatch):
    """The harness proves the code that runs: its memo arm reaches the
    executor through ``FlowCache.process`` and ``ProgramInstance.process``
    alone, once per packet and once per miss or bypass."""
    program = base_infrastructure()
    packets = tiled(fastpath.seeded_corpus(8, seed=37), 80)

    class OnlyProcess:
        """A memo with nothing to call but ``process``."""

        __slots__ = ("process",)

        def __init__(self, cache):
            self.process = cache.process

    calls = executor_calls(monkeypatch)
    cache = fastpath.FlowCache()

    def mutate(reference, fast, index):
        if index == 60:  # the last quarter bypasses
            for instance in (reference, fast):
                instance.rules["l2"].meter = Meter(
                    MeterConfig(rate_pps=50.0, burst_packets=4.0)
                )

    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=stateless_slice(program),
        setup=seeded_setup(program),
        mutate=mutate,
        cache=OnlyProcess(cache),
    )
    assert_identical(report)
    stats = cache.stats
    assert (stats.misses, stats.hits, stats.bypasses) == (8, 52, 20)
    by_arm = collections.Counter()
    for (entry, instance), count in calls.items():
        by_arm[entry, instance.fastpath_enabled] += count
    assert by_arm == {
        ("memo", True): 80,
        ("instance", True): stats.misses + stats.bypasses,
        ("instance", False): 80,  # the reference arm
    }


# ---------------------------------------------------------------------------
# Live flushes mid-run
# ---------------------------------------------------------------------------


def test_meter_attach_mid_run_bypasses_and_stays_exact():
    program = base_infrastructure()
    flows = fastpath.seeded_corpus(8, seed=29)
    packets = tiled(flows, 160)
    cache = fastpath.FlowCache()

    def mutate(reference, fast, index):
        if index == 64:
            meter = lambda: Meter(MeterConfig(rate_pps=50.0, burst_packets=4.0))
            reference.rules["l2"].meter = meter()
            fast.rules["l2"].meter = meter()

    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=stateless_slice(program),
        setup=seeded_setup(program),
        mutate=mutate,
        cache=cache,
    )
    assert_identical(report)
    # Admitted for the first 64 packets, bypassed from the 65th.
    assert (cache.stats.misses, cache.stats.hits) == (len(flows), 64 - len(flows))
    assert cache.stats.bypasses == 160 - 64
    assert cache.stats.invalidations == 0


def test_rule_mutation_mid_run_flushes_memo_and_stays_exact():
    program = base_infrastructure()
    # A small flow mix tiled out, so observation keys repeat and the
    # memo actually serves hits before and after the flush.
    flows = fastpath.seeded_corpus(8, seed=31)
    packets = tiled(flows, 160)
    cache = fastpath.FlowCache()

    def mutate(reference, fast, index):
        if index == 64:
            rule = lambda: Rule(
                matches=(exact(0xBEEF),), action=ActionCall("forward", (1,))
            )
            reference.rules["l2"].insert(rule())
            fast.rules["l2"].insert(rule())

    report = fastpath.differential_check(
        program,
        packets,
        hosted_elements=stateless_slice(program),
        setup=seeded_setup(program),
        mutate=mutate,
        cache=cache,
    )
    assert_identical(report)
    assert cache.stats.invalidations == 1
    assert cache.stats.entries_dropped == len(flows)
    assert cache.stats.misses == 2 * len(flows)  # re-recorded after the flush
    assert cache.stats.hits == 160 - 2 * len(flows) and cache.stats.bypasses == 0

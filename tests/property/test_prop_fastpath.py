"""Property-based tests for FlexPath.

Two oracles:

* the tree-walking interpreter is the reference executor — compiled
  execution must agree on every observable for arbitrary packets;
* a naive max-rank linear scan is the reference lookup — the indexed
  table paths (exact hash index, pre-sorted first-match scan, and the
  key → rule decisions a non-exact table keeps until its rules change)
  must pick the same winner for arbitrary rule sets, and count every
  lookup on the rule that won it, however often a key repeats and
  whatever happened to the rules in between.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import base_infrastructure, firewall_delta
from repro.lang import builder as b
from repro.lang.delta import apply_delta
from repro.lang.ir import ActionCall, MatchKind, TableDef, TableKey
from repro.limits import TABLE_MEMO_CAPACITY
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.packet import make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.simulator.tables import Rule, TableRules, exact, lpm, rng, ternary

u16 = st.integers(min_value=0, max_value=2**16 - 1)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
small = st.integers(min_value=0, max_value=7)

PROGRAM, _ = apply_delta(base_infrastructure(), firewall_delta())


def executors():
    interp = ProgramInstance(PROGRAM)
    compiled = ProgramInstance(PROGRAM, fastpath=True)
    for instance in (interp, compiled):
        instance.rules["l3"].insert(
            Rule(matches=(lpm(0x0A000000, 8),), action=ActionCall("dec_ttl", ()))
        )
        instance.rules["acl"].insert(
            Rule(
                matches=(ternary(0x0A0000FF, 0xFFFFFFFF), ternary(0, 0)),
                action=ActionCall("drop", ()),
                priority=3,
            )
        )
    return interp, compiled


INTERP, COMPILED = executors()


@settings(max_examples=60, deadline=None)
@given(u32, u32, u16, u16, st.integers(min_value=0, max_value=255), u16)
def test_compiled_matches_interpreter(src, dst, sport, dport, ttl, flags):
    packet = make_packet(src, dst, src_port=sport, dst_port=dport,
                         ttl=ttl, tcp_flags=flags)
    mine, theirs = copy.deepcopy(packet), copy.deepcopy(packet)
    a = INTERP.process(mine, 0.0)
    c = COMPILED.process(theirs, 0.0)
    assert mine.verdict is theirs.verdict
    assert mine.fields == theirs.fields
    assert mine.meta == theirs.meta
    assert a.ops == c.ops
    assert a.recirculations == c.recirculations


def table_def(kinds):
    return TableDef(
        name="t",
        keys=tuple(
            TableKey(field=b.field(f"h.k{i}"), match_kind=kind)
            for i, kind in enumerate(kinds)
        ),
        actions=("a0", "a1", "a2"),
        size=4096,
        default_action=ActionCall(action="a0"),
    )


def naive_winner(rules, key_values):
    """The reference semantics: scan everything, keep the max-(priority,
    specificity) match, earliest insertion breaking ties. Returns the
    winner's position in ``rules``, or None."""
    best = None
    best_rank = None
    for position, rule in enumerate(rules):
        if not all(
            spec.matches(value) for spec, value in zip(rule.matches, key_values)
        ):
            continue
        rank = (rule.priority, rule.specificity, -position)
        if best_rank is None or rank > best_rank:
            best, best_rank = position, rank
    return best


def naive_lookup(rules, key_values):
    winner = naive_winner(rules, key_values)
    return None if winner is None else rules[winner].action


exact_rules = st.lists(
    st.tuples(small, st.integers(min_value=0, max_value=10), st.sampled_from(["a1", "a2"])),
    min_size=0,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(exact_rules, small)
def test_exact_index_matches_naive_scan(specs, probe):
    rules = TableRules(table_def((MatchKind.EXACT,)))
    installed = []
    for value, priority, action in specs:
        rule = Rule(matches=(exact(value),), action=ActionCall(action), priority=priority)
        rules.insert(rule)
        installed.append(rule)
    expected = naive_lookup(installed, (probe,))
    got = rules.lookup((probe,))
    if expected is None:
        assert got == ActionCall(action="a0")  # default on miss
    else:
        assert got == expected


mixed_rules = st.lists(
    st.tuples(
        st.tuples(u32, st.integers(min_value=0, max_value=32)),  # lpm
        st.tuples(small, small),  # range bounds (unordered)
        st.integers(min_value=0, max_value=10),
        st.sampled_from(["a1", "a2"]),
    ),
    min_size=0,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(mixed_rules, u32, small)
def test_ordered_scan_matches_naive_scan(specs, probe_ip, probe_port):
    rules = TableRules(table_def((MatchKind.LPM, MatchKind.RANGE)))
    installed = []
    for (prefix, prefix_len), (lo, hi), priority, action in specs:
        rule = Rule(
            matches=(lpm(prefix, prefix_len), rng(min(lo, hi), max(lo, hi))),
            action=ActionCall(action),
            priority=priority,
        )
        rules.insert(rule)
        installed.append(rule)
    expected = naive_lookup(installed, (probe_ip, probe_port))
    got = rules.lookup((probe_ip, probe_port))
    if expected is None:
        assert got == ActionCall(action="a0")
    else:
        assert got == expected


@settings(max_examples=40, deadline=None)
@given(exact_rules, st.lists(small, min_size=1, max_size=10))
def test_index_invalidation_under_mutation(specs, probes):
    """Interleave lookups with inserts/removes: the rebuilt index always
    agrees with a from-scratch naive scan."""
    rules = TableRules(table_def((MatchKind.EXACT,)))
    installed = []
    for i, (value, priority, action) in enumerate(specs):
        rule = Rule(matches=(exact(value),), action=ActionCall(action), priority=priority)
        rules.insert(rule)
        installed.append(rule)
        if i % 2 == 1 and installed:
            victim = installed.pop(0)
            rules.remove(victim)
        for probe in probes:
            expected = naive_lookup(installed, (probe,))
            got = rules.lookup((probe,))
            assert got == (expected if expected else ActionCall(action="a0"))


# ---------------------------------------------------------------------------
# A non-exact table's remembered decisions: same winners, same counts
# ---------------------------------------------------------------------------

DEFAULT = ActionCall(action="a0")

#: ternary x range over a 3-bit key space, so probes, rules and repeats collide.
ordered_rule = st.tuples(
    st.tuples(small, small),  # ternary value, mask
    st.tuples(small, small),  # range bounds (unordered)
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["a1", "a2"]),
)
probe_key = st.tuples(small, small)
table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ordered_rule),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=11)),
        st.tuples(st.just("probe"), probe_key),
        st.tuples(st.just("probe"), probe_key),
        st.sampled_from([("clear", None), ("adopt", None), ("meter", None)]),
    ),
    min_size=1,
    max_size=30,
)


def ordered_table():
    return TableRules(table_def((MatchKind.TERNARY, MatchKind.RANGE)))


def build_rule(spec):
    (value, mask), (lo, hi), priority, action = spec
    return Rule(
        matches=(ternary(value, mask), rng(min(lo, hi), max(lo, hi))),
        action=ActionCall(action),
        priority=priority,
    )


class CountingScan:
    """The naive scan with the table's bookkeeping spelled out: one
    count per lookup on the rule that won it, aligned with insertion
    order and following a rule through ``remove``."""

    def __init__(self):
        self.installed = []
        self.hits = []
        self.misses = 0

    def insert(self, rule):
        self.installed.append(rule)
        self.hits.append(0)

    def remove(self, index):
        del self.installed[index]
        del self.hits[index]

    def clear(self):
        self.installed.clear()
        self.hits.clear()

    def lookup(self, key_values):
        winner = naive_winner(self.installed, key_values)
        if winner is None:
            self.misses += 1
            return DEFAULT
        self.hits[winner] += 1
        return self.installed[winner].action

    def check(self, rules, key_values, times):
        """Probe ``times`` times over: every repeat is a lookup of its own."""
        for _ in range(times):
            assert rules.lookup(key_values) == self.lookup(key_values)
        assert rules.hit_counts == self.hits
        assert rules.miss_count == self.misses


@settings(max_examples=120, deadline=None)
@given(table_ops, st.lists(probe_key, min_size=1, max_size=4))
def test_remembered_decisions_match_naive_scan_under_mutation(ops, regulars):
    """Probe the same keys two and three times around every kind of
    mutation: the winner and the per-rule counters are the naive scan's,
    with multiplicity."""
    rules, naive = ordered_table(), CountingScan()
    for step, (op, arg) in enumerate(ops):
        if op == "insert":
            rule = build_rule(arg)
            rules.insert(rule)
            naive.insert(rule)
        elif op == "remove":
            if naive.installed:
                victim = naive.installed[arg % len(naive.installed)]
                assert rules.remove(victim)
                naive.remove(naive.installed.index(victim))  # the first equal rule goes
        elif op == "clear":
            rules.clear()
            naive.clear()
        elif op == "adopt":
            # A same-shape successor carries rules, counters and misses.
            successor = ordered_table()
            successor.adopt_from(rules)
            rules = successor
        elif op == "meter":
            attach = rules.meter is None
            rules.meter = Meter(MeterConfig(rate_pps=10.0, burst_packets=2.0)) if attach else None
        else:
            naive.check(rules, arg, 2)
        for key in regulars:
            naive.check(rules, key, 2 + step % 2)


def test_a_remembered_miss_gives_way_to_a_new_rule_and_back():
    rules, naive = ordered_table(), CountingScan()
    key = (5, 3)
    naive.check(rules, key, 3)  # missed, and remembered as a miss
    assert rules.miss_count == 3
    rule = build_rule(((5, 7), (0, 7), 1, "a1"))
    rules.insert(rule)
    naive.insert(rule)
    naive.check(rules, key, 3)
    assert rules.hit_counts == [3] and rules.miss_count == 3
    # ... and a higher-priority rule takes the key over from the first.
    shadow = build_rule(((0, 0), (3, 3), 2, "a2"))
    rules.insert(shadow)
    naive.insert(shadow)
    naive.check(rules, key, 2)
    assert rules.hit_counts == [3, 2]
    for victim in (shadow, rule):  # back through the first rule to a miss
        rules.remove(victim)
        naive.remove(naive.installed.index(victim))
        naive.check(rules, key, 2)
    assert rules.hit_counts == [] and rules.miss_count == 5


def test_more_keys_than_the_table_remembers_stay_exact():
    """Past the capacity constant the oldest keys are forgotten; a
    forgotten key decides again, to the same rule, and is counted once
    per lookup like any other."""
    rules = TableRules(table_def((MatchKind.LPM, MatchKind.RANGE)))
    naive = CountingScan()
    for prefix_len, (lo, hi), priority, action in (
        (0, (0, 7), 0, "a1"),
        (20, (0, 3), 1, "a2"),
        (28, (2, 5), 1, "a1"),
        (32, (0, 0), 3, "a2"),
    ):
        rule = Rule(
            matches=(lpm(0x0A000000, prefix_len), rng(lo, hi)),
            action=ActionCall(action),
            priority=priority,
        )
        rules.insert(rule)
        naive.insert(rule)
    keys = [(0x0A000000 + index * 7, index % 9) for index in range(TABLE_MEMO_CAPACITY + 50)]
    first, last = keys[:50], keys[-50:]
    for key in keys + first + last + first:
        naive.check(rules, key, 1)
    assert sum(rules.hit_counts) + rules.miss_count == len(keys) + 150
    assert rules.miss_count > 0 and all(rules.hit_counts)

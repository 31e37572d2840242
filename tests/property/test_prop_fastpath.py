"""Property-based tests for FlexPath.

Two oracles:

* the tree-walking interpreter is the reference executor — compiled
  execution must agree on every observable for arbitrary packets;
* a naive max-rank linear scan is the reference lookup — the indexed
  table paths (exact hash index, pre-sorted first-match scan) must pick
  the same winner for arbitrary rule sets.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import base_infrastructure, firewall_delta
from repro.lang import builder as b
from repro.lang.delta import apply_delta
from repro.lang.ir import ActionCall, MatchKind, TableDef, TableKey
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


def naive_lookup(rules, key_values):
    """The reference semantics: scan everything, keep the max-(priority,
    specificity) match, earliest insertion breaking ties."""
    best = None
    best_rank = None
    for position, rule in enumerate(rules):
        if not all(
            spec.matches(value) for spec, value in zip(rule.matches, key_values)
        ):
            continue
        rank = (rule.priority, rule.specificity, -position)
        if best_rank is None or rank > best_rank:
            best, best_rank = rule, rank
    return best.action if best else None


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

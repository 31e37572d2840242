"""Runtime table rule tests."""

import pytest

from repro.lang import builder as b
from repro.lang.ir import ActionCall, MatchKind, TableDef, TableKey
from repro.simulator.tables import (
    Rule,
    TableError,
    TableRules,
    exact,
    lpm,
    rng,
    ternary,
)


def table_def(kinds=("exact",), size=8, actions=("allow", "deny"), default="allow"):
    keys = tuple(
        TableKey(field=b.field(f"ipv4.f{i}"), match_kind=MatchKind(kind))
        for i, kind in enumerate(kinds)
    )
    return TableDef(
        name="t",
        keys=keys,
        actions=actions,
        size=size,
        default_action=ActionCall(action=default),
    )


class TestMatchSpecs:
    def test_exact(self):
        assert exact(5).matches(5)
        assert not exact(5).matches(6)

    def test_lpm(self):
        spec = lpm(0x0A000000, 8)
        assert spec.matches(0x0A123456)
        assert not spec.matches(0x0B000000)

    def test_lpm_zero_length_matches_all(self):
        assert lpm(0, 0).matches(0xFFFFFFFF)

    def test_ternary(self):
        spec = ternary(0x0A000000, 0xFF000000)
        assert spec.matches(0x0AFFFFFF)
        assert not spec.matches(0x0B000000)

    def test_range(self):
        spec = rng(10, 20)
        assert spec.matches(10) and spec.matches(20) and spec.matches(15)
        assert not spec.matches(9) and not spec.matches(21)


class TestInsertValidation:
    def test_wrong_arity_rejected(self):
        rules = TableRules(table_def(("exact", "exact")))
        with pytest.raises(TableError, match="keys"):
            rules.insert(Rule(matches=(exact(1),), action=ActionCall("allow")))

    def test_wrong_kind_rejected(self):
        rules = TableRules(table_def(("exact",)))
        with pytest.raises(TableError, match="expects exact"):
            rules.insert(Rule(matches=(ternary(1, 1),), action=ActionCall("allow")))

    def test_unknown_action_rejected(self):
        rules = TableRules(table_def())
        with pytest.raises(TableError, match="does not allow"):
            rules.insert(Rule(matches=(exact(1),), action=ActionCall("explode")))

    def test_capacity_enforced(self):
        rules = TableRules(table_def(size=2))
        rules.insert(Rule(matches=(exact(1),), action=ActionCall("allow")))
        rules.insert(Rule(matches=(exact(2),), action=ActionCall("allow")))
        with pytest.raises(TableError, match="full"):
            rules.insert(Rule(matches=(exact(3),), action=ActionCall("allow")))


class TestLookup:
    def test_miss_returns_default(self):
        rules = TableRules(table_def())
        assert rules.lookup((99,)) == ActionCall("allow")
        assert rules.miss_count == 1

    def test_hit_returns_rule_action(self):
        rules = TableRules(table_def())
        rules.insert(Rule(matches=(exact(5),), action=ActionCall("deny")))
        assert rules.lookup((5,)) == ActionCall("deny")
        assert rules.hit_counts == [1]

    def test_priority_wins(self):
        rules = TableRules(table_def(("ternary",)))
        rules.insert(Rule(matches=(ternary(0, 0),), action=ActionCall("allow"), priority=1))
        rules.insert(Rule(matches=(ternary(5, 0xFF),), action=ActionCall("deny"), priority=10))
        assert rules.lookup((5,)) == ActionCall("deny")

    def test_specificity_breaks_priority_ties(self):
        rules = TableRules(table_def(("lpm",)))
        rules.insert(Rule(matches=(lpm(0x0A000000, 8),), action=ActionCall("allow")))
        rules.insert(Rule(matches=(lpm(0x0A0A0000, 16),), action=ActionCall("deny")))
        assert rules.lookup((0x0A0A0101,)) == ActionCall("deny")  # /16 beats /8
        assert rules.lookup((0x0A0B0101,)) == ActionCall("allow")

    def test_remove(self):
        rules = TableRules(table_def())
        rule = Rule(matches=(exact(5),), action=ActionCall("deny"))
        rules.insert(rule)
        assert rules.remove(rule)
        assert not rules.remove(rule)
        assert rules.lookup((5,)) == ActionCall("allow")

    def test_clear(self):
        rules = TableRules(table_def())
        rules.insert(Rule(matches=(exact(5),), action=ActionCall("deny")))
        rules.clear()
        assert len(rules) == 0

    def test_multi_key_all_must_match(self):
        rules = TableRules(table_def(("exact", "ternary")))
        rules.insert(
            Rule(matches=(exact(1), ternary(0x10, 0xF0)), action=ActionCall("deny"))
        )
        assert rules.lookup((1, 0x1F)) == ActionCall("deny")
        assert rules.lookup((2, 0x1F)) == ActionCall("allow")
        assert rules.lookup((1, 0x2F)) == ActionCall("allow")


class TestMatchesKeyArity:
    def test_length_mismatch_raises(self):
        """Regression: a key-arity mismatch used to zip-truncate and
        silently 'match' on the shorter side; it is a caller bug and
        must raise."""
        rule = Rule(matches=(exact(1), exact(2)), action=ActionCall(action="allow"))
        with pytest.raises(TableError, match="match specs"):
            rule.matches_key((1,))
        with pytest.raises(TableError, match="match specs"):
            rule.matches_key((1, 2, 3))
        assert rule.matches_key((1, 2))

    def test_lookup_arity_mismatch_raises(self):
        rules = TableRules(table_def(kinds=("exact", "exact")))
        with pytest.raises(TableError, match="keys"):
            rules.lookup((1,))


#: ``table_def``'s default action, which a miss returns.
MISS = ActionCall(action="allow")


class TestEpoch:
    """What a non-exact table remembers, and what makes it forget (the
    class and its ids predate the mutation epoch's removal)."""

    @staticmethod
    def decided_table():
        rules = TableRules(table_def(kinds=("ternary",)))
        rule = Rule(matches=(ternary(1, 0xFF),), action=ActionCall(action="deny"))
        rules.insert(rule)
        assert rules.lookup((1,)) == rule.action and rules.lookup((9,)) == MISS
        assert rules._decided == {(1,): (rule.action, 0), (9,): None}
        return rules, rule

    def test_mutations_bump_epoch(self):
        """Insert, remove and clear each drop every decision."""
        rules, rule = self.decided_table()
        rules.insert(Rule(matches=(ternary(9, 0xFF),), action=ActionCall(action="deny")))
        assert rules._decided == {}
        assert rules.lookup((9,)) == ActionCall(action="deny")  # no longer the remembered miss
        rules.remove(rule)
        assert rules._decided == {}
        assert rules.lookup((1,)) == MISS and rules.lookup((9,)) != MISS
        rules.clear()
        assert rules._decided == {}
        assert rules.lookup((9,)) == MISS
        assert (rules.hit_counts, rules.miss_count) == ([], 3)

    def test_meter_attach_detach_bumps_epoch(self):
        """A meter colours hits; it decides nothing, so nothing is dropped."""
        from repro.simulator.meters import Meter, MeterConfig

        rules, rule = self.decided_table()
        before = dict(rules._decided)
        rules.meter = Meter(MeterConfig(rate_pps=10.0, burst_packets=5.0))
        assert rules._decided == before and rules.lookup((1,)) == rule.action
        rules.meter = None
        assert rules._decided == before and rules.lookup((9,)) == MISS
        assert (rules.hit_counts, rules.miss_count) == ([2], 2)

    def test_lookup_does_not_bump_epoch(self):
        """A lookup adds its own key and leaves the others; an exact
        table's index answers and nothing is remembered."""
        rules, _ = self.decided_table()
        rules.lookup((1,))
        rules.lookup((7,))
        assert list(rules._decided) == [(1,), (9,), (7,)]
        exact_rules = TableRules(table_def())
        exact_rules.insert(Rule(matches=(exact(1),), action=ActionCall(action="deny")))
        exact_rules.lookup((1,))
        exact_rules.lookup((9,))
        assert exact_rules._decided == {}

    def test_decisions_are_bounded_first_in_first_out(self, monkeypatch):
        from repro.simulator import tables

        monkeypatch.setattr(tables, "TABLE_MEMO_CAPACITY", 3)
        rules, rule = self.decided_table()
        for value in (2, 1, 3):  # the repeat of 1 does not refresh it: 1 goes, not 9
            rules.lookup((value,))
        assert list(rules._decided) == [(9,), (2,), (3,)]
        assert rules.lookup((1,)) == rule.action  # forgotten, decided again
        assert list(rules._decided) == [(2,), (3,), (1,)]
        assert (rules.hit_counts, rules.miss_count) == ([3], 3)

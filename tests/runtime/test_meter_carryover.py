"""Regression: runtime table artifacts survive hitless reconfiguration.

A rate limiter is pure element-level state: the policing rule, the
table meter, and the per-rule hit counters are all configured through
P4Runtime, not the program text. An *unrelated* structural delta (e.g.
injecting the firewall) must not silently disable it — the bug this
pins down was the state carry-over (``TableRules.adopt_from``) dropping
meters and counters, so a policed customer went unpoliced after any
reconfig.
"""

from dataclasses import replace

from repro.apps import firewall_delta
from repro.apps.ratelimit import RateLimiter, rate_limit_delta
from repro.control.p4runtime import P4RuntimeClient
from repro.lang.delta import AddTableActions, Delta, apply_delta
from repro.lang.ir import ActionCall, MatchKind, TableDef, TableKey
from repro.lang import builder as b
from repro.runtime.device import DeviceRuntime
from repro.simulator.meters import Meter, MeterConfig
from repro.simulator.packet import Verdict, make_packet
from repro.simulator.tables import Rule, TableRules, exact
from repro.targets import drmt_switch

POLICED = 0x0A000033


def _burst(device, count: int, now: float) -> list[Verdict]:
    verdicts = []
    for _ in range(count):
        packet = make_packet(POLICED, 1)
        device.process(packet, now)
        verdicts.append(packet.verdict)
    return verdicts


class TestMeterSurvivesReconfig:
    def test_red_marking_continues_across_unrelated_delta(self, base_program):
        program, _ = apply_delta(base_program, rate_limit_delta())
        device = DeviceRuntime("sw1", drmt_switch("sw1"))
        device.install(program)
        limiter = RateLimiter(P4RuntimeClient(device))
        limiter.police(POLICED, rate_pps=10.0, burst_packets=5.0)

        before = _burst(device, 20, now=0.0)
        assert before.count(Verdict.FORWARD) == 5
        assert before.count(Verdict.DROP) == 15

        # An unrelated structural change: inject the firewall.
        patched, _ = apply_delta(program, firewall_delta())
        device.begin_hitless_update(patched, now=1.0, duration_s=0.5)
        device.settle(now=2.0)
        assert device.active_program.version == patched.version

        # The bucket refilled (10 pps since t=0, cap 5): an identical
        # burst must police identically — the meter, the classify rule,
        # and the RED-drop behaviour all survived the reconfig.
        after = _burst(device, 20, now=2.0)
        assert after.count(Verdict.FORWARD) == 5
        assert after.count(Verdict.DROP) == 15

        rules = device.active_instance.rules["rl_classify"]
        assert rules.meter is not None
        # Hit counters are cumulative across versions: 20 + 20 hits.
        assert sum(rules.hit_counts) == 40

    def test_meter_stats_readable_after_reconfig(self, base_program):
        program, _ = apply_delta(base_program, rate_limit_delta())
        device = DeviceRuntime("sw1", drmt_switch("sw1"))
        device.install(program)
        limiter = RateLimiter(P4RuntimeClient(device))
        limiter.police(POLICED, rate_pps=10.0, burst_packets=5.0)
        _burst(device, 20, now=0.0)

        patched, _ = apply_delta(program, firewall_delta())
        device.begin_hitless_update(patched, now=1.0, duration_s=0.5)
        device.settle(now=2.0)

        green, red = limiter.stats()
        assert green == 5
        assert red == 15


def _table_def(actions=("nop", "drop"), size=16) -> TableDef:
    return TableDef(
        name="t",
        keys=(TableKey(field=b.field("ipv4.src"), match_kind=MatchKind.EXACT),),
        actions=tuple(actions),
        size=size,
        default_action=ActionCall(action="nop"),
    )


class TestAdoptFrom:
    def test_counters_miss_count_and_meter_carry(self):
        old = TableRules(_table_def())
        old.insert(Rule(matches=(exact(1),), action=ActionCall("drop")))
        old.lookup((1,))
        old.lookup((1,))
        old.lookup((9,))  # miss
        old.meter = Meter(MeterConfig(rate_pps=10.0, burst_packets=5.0))

        new = TableRules(_table_def())
        new.adopt_from(old)
        assert new.rules == old.rules
        assert new.hit_counts == [2]
        assert new.miss_count == 1
        assert new.meter is old.meter

    def test_incompatible_rules_skipped_but_rest_carry(self):
        old = TableRules(_table_def(actions=("nop", "drop", "extra")))
        old.insert(Rule(matches=(exact(1),), action=ActionCall("extra")))
        old.insert(Rule(matches=(exact(2),), action=ActionCall("drop")))
        old.lookup((2,))

        new = TableRules(_table_def())  # action set shrank: no "extra"
        new.adopt_from(old)
        assert [rule.action.action for rule in new.rules] == ["drop"]
        assert new.hit_counts == [1]

    def test_key_shape_mismatch_adopts_nothing(self):
        old = TableRules(_table_def())
        old.insert(Rule(matches=(exact(1),), action=ActionCall("drop")))
        mismatched = TableDef(
            name="t",
            keys=(TableKey(field=b.field("ipv4.dst"), match_kind=MatchKind.EXACT),),
            actions=("nop", "drop"),
            size=16,
            default_action=ActionCall(action="nop"),
        )
        new = TableRules(mismatched)
        new.adopt_from(old)
        assert len(new) == 0


class TestAdoptState:
    def test_instance_adopt_carries_runtime_artifacts(self, base_program):
        """The meter, the per-rule hit counts and a map entry of one
        version are the next version's after a hitless update and its
        cut-over, also when the update shrinks the table's action set so
        that :meth:`DeviceRuntime._share_state` adopts the rules into a
        new table instead of sharing the old one."""
        program, _ = apply_delta(base_program, rate_limit_delta())
        wide, _ = apply_delta(
            program, Delta("wide", (AddTableActions("rl_classify", ("drop",)),))
        )
        device = DeviceRuntime("sw1", drmt_switch("sw1"))
        device.install(wide)
        old = device.active_instance
        old.rules["rl_classify"].insert(
            Rule(matches=(exact(POLICED),), action=ActionCall("rl_mark"))
        )
        old.rules["rl_classify"].lookup((POLICED,))
        meter = Meter(MeterConfig(rate_pps=10.0, burst_packets=5.0))
        old.rules["rl_classify"].meter = meter
        old.maps.state("flow_counts").put((1, 2), 7)

        narrow = replace(program, version=wide.version + 1)
        device.begin_hitless_update(narrow, now=1.0, duration_s=0.5)
        device.settle(now=2.0)
        new = device.active_instance
        assert new is not old and new.version == narrow.version
        assert new.rules["rl_classify"] is not old.rules["rl_classify"]
        assert new.rules["rl_classify"].hit_counts == [1]
        assert new.rules["rl_classify"].meter is meter
        assert new.maps.state("flow_counts").get((1, 2)) == 7

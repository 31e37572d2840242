"""Elastic SYN-flood defense (§1.1 "Real-time security").

"Runtime programmable defenses can be summoned into the network
on-the-fly and retired when attacks subside. Such defenses are also
elastic, capable of scaling, replicating, and migrating to other
locations based on changing attack strengths."

Pieces:

* :func:`syn_monitor_delta` — a lightweight always-on monitor that
  digests SYN packets toward the controller (the detection signal).
* :func:`syn_defense_delta` — the defense proper: per-destination SYN
  counters with a rate threshold; packets over threshold are dropped
  in the data plane. The counter map size is the *scale knob*.
* :class:`DdosDefender` — the control loop: watches telemetry, summons
  the defense when the SYN rate to any destination crosses the attack
  threshold, scales it with attack volume, retires it after quiet time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control.controller import FlexNetController, TransitionOutcome
from repro.control.apps_api import AppSla
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import AddFunction, AddMap, Delta, InsertApply, SetMapEntries
from repro.lang.types import BitsType

DEFENSE_URI = "flexnet://infrastructure/syn-defense"
MONITOR_URI = "flexnet://infrastructure/syn-monitor"

SYN_FLAG = 0x02


def syn_monitor_delta() -> Delta:
    """Always-on monitor: emit a digest (dst, src) for every SYN."""
    monitor = ir.FunctionDef(
        name="synmon",
        body=(
            b.if_(
                b.binop("==", b.binop("&", "tcp.flags", SYN_FLAG), SYN_FLAG),
                [b.call("emit_digest", "ipv4.dst", "ipv4.src")],
            ),
        ),
    )
    return Delta(
        name="syn_monitor",
        ops=(AddFunction(monitor), InsertApply(element="synmon")),
    )


def syn_defense_delta(
    threshold: int = 64,
    counter_entries: int = 4096,
) -> Delta:
    """The summoned defense: count SYNs per destination and drop above
    ``threshold`` within the counter's lifetime window. Counters are
    declared ephemeral (LRU) so the map never rejects inserts under
    spoofed-source churn."""
    counters = ir.MapDef(
        name="syn_counts",
        key_fields=(b.field("ipv4.dst"),),
        value_type=BitsType(64),
        max_entries=counter_entries,
        persistence=ir.Persistence.EPHEMERAL,
    )
    defense = ir.FunctionDef(
        name="syn_defense",
        body=(
            b.if_(
                b.binop("==", b.binop("&", "tcp.flags", SYN_FLAG), SYN_FLAG),
                [
                    b.let("n", "u64", b.map_get("syn_counts", "ipv4.dst")),
                    b.map_put("syn_counts", "ipv4.dst", b.binop("+", "n", 1)),
                    b.if_(
                        b.binop(">", "n", threshold),
                        [b.call("mark_drop")],
                    ),
                ],
            ),
        ),
    )
    return Delta(
        name="syn_defense",
        ops=(
            AddMap(counters),
            AddFunction(defense),
            InsertApply(element="syn_defense"),
        ),
    )


def scale_defense_delta(new_entries: int) -> Delta:
    """Elastic scaling: resize the defense's counter map in place."""
    return Delta(
        name="syn_defense_scale",
        ops=(SetMapEntries(pattern="syn_counts", max_entries=new_entries),),
    )


@dataclass
class DefenderConfig:
    attack_threshold_pps: float = 500.0  # digest rate that means "attack"
    quiet_threshold_pps: float = 50.0  # rate under which we retire
    check_interval_s: float = 0.25
    quiet_intervals_to_retire: int = 4
    base_counter_entries: int = 2048
    drop_threshold: int = 64
    #: scale the map so entries ~ attack_rate * this factor.
    entries_per_pps: float = 4.0
    max_counter_entries: int = 65536


@dataclass
class DefenderLog:
    deployed_at: float | None = None
    retired_at: float | None = None
    scale_events: list[tuple[float, int]] = field(default_factory=list)
    detections: int = 0


class DdosDefender:
    """The closed control loop; drive with :meth:`start`."""

    def __init__(self, controller: FlexNetController, config: DefenderConfig | None = None):
        self._controller = controller
        self.config = config or DefenderConfig()
        self.log = DefenderLog()
        self._deployed = False
        self._quiet_streak = 0
        self._current_entries = 0
        self._running = False

    @property
    def deployed(self) -> bool:
        return self._deployed

    def start(self) -> None:
        """Begin periodic checks on the controller's loop."""
        self._running = True
        self._controller.loop.schedule(self.config.check_interval_s, self._check)

    def stop(self) -> None:
        self._running = False

    # -- the control loop ---------------------------------------------------------

    def _check(self) -> None:
        if not self._running:
            return
        now = self._controller.loop.now
        hottest = self._controller.telemetry.hottest_key(now)
        rate = hottest[1] if hottest else 0.0

        if not self._deployed and rate >= self.config.attack_threshold_pps:
            self._summon(rate, now)
        elif self._deployed:
            if rate >= self.config.attack_threshold_pps:
                self._quiet_streak = 0
                self._maybe_scale(rate, now)
            elif rate <= self.config.quiet_threshold_pps:
                self._quiet_streak += 1
                if self._quiet_streak >= self.config.quiet_intervals_to_retire:
                    self._retire(now)
            else:
                self._quiet_streak = 0
        self._controller.loop.schedule(self.config.check_interval_s, self._check)

    def _entries_for(self, rate: float) -> int:
        wanted = int(rate * self.config.entries_per_pps)
        wanted = max(wanted, self.config.base_counter_entries)
        return min(wanted, self.config.max_counter_entries)

    def _summon(self, rate: float, now: float) -> TransitionOutcome:
        entries = self._entries_for(rate)
        delta = syn_defense_delta(
            threshold=self.config.drop_threshold, counter_entries=entries
        )
        outcome = self._controller.deploy_app(
            DEFENSE_URI, delta, sla=AppSla(removable=False)
        )
        self._deployed = True
        self._current_entries = entries
        self._quiet_streak = 0
        self.log.detections += 1
        self.log.deployed_at = now
        self.log.scale_events.append((now, entries))
        return outcome

    def _maybe_scale(self, rate: float, now: float) -> None:
        wanted = self._entries_for(rate)
        if wanted > self._current_entries * 1.5:
            factor = wanted / self._current_entries
            self._controller.scale_app(DEFENSE_URI, factor)
            self._current_entries = int(self._current_entries * factor)
            self.log.scale_events.append((now, self._current_entries))

    def _retire(self, now: float) -> None:
        self._controller.remove_app(DEFENSE_URI)
        self._deployed = False
        self._current_entries = 0
        self.log.retired_at = now

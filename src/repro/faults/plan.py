"""Declarative, seed-driven fault plans (FlexFault).

A :class:`FaultPlan` describes *what goes wrong* during a scenario —
device crashes at fixed virtual times, a lossy/slow control channel,
stalling state migrations — and a single seed that makes every
probabilistic draw reproducible. The plan itself is inert data; a
:class:`FaultInjector` turns it into deterministic per-call decisions
that the runtime hooks consult (:mod:`repro.control.p4runtime`,
:mod:`repro.runtime.migration`, :mod:`repro.runtime.reconfig`).

Determinism: each fault category gets its own RNG stream seeded from
``stable_hash((seed, category))``, so the sequence of draws one hook
sees does not depend on how often the *other* hooks fire. Two runs of
the same scenario with the same plan therefore produce identical
injections — the property experiment E16 asserts.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass

from repro.util import stable_hash


@dataclass(frozen=True)
class DeviceCrash:
    """Crash ``device`` at ``at_s``; it restarts ``restart_after_s``
    later. A crash mid-transition freezes the cut-over half-applied
    (the partial-delta fault the journal/rollback protocol repairs)."""

    device: str
    at_s: float
    restart_after_s: float = 1.0


@dataclass(frozen=True)
class ControllerCrash:
    """Crash a controller replica at ``at_s``; it recovers
    ``restart_after_s`` later. ``node`` is a Raft node id (``ctl0``…)
    or the symbolic ``"leader"``, resolved at fire time to whichever
    node currently leads — the scenario FlexHA's fail-over must absorb.
    """

    node: str = "leader"
    at_s: float = 0.0
    restart_after_s: float = 2.0


@dataclass(frozen=True)
class LeaderPartition:
    """At ``at_s``, partition the current leader away from the other
    replicas (it keeps believing it leads until its term is superseded);
    the partition heals ``heal_after_s`` later. The deposed leader's
    in-flight writes are what fencing epochs must reject."""

    at_s: float = 0.0
    heal_after_s: float = 2.0


@dataclass(frozen=True)
class ChannelFault:
    """A lossy/slow control channel between controller and devices."""

    drop_probability: float = 0.0
    delay_probability: float = 0.0
    delay_s: float = 0.0
    #: which devices the impairment applies to (fnmatch glob).
    device_pattern: str = "*"

    def applies_to(self, device: str) -> bool:
        return fnmatch.fnmatchcase(device, self.device_pattern)


@dataclass(frozen=True)
class MigrationFault:
    """Stall (extra transfer time) or outright failure of in-band state
    migrations whose map name matches the pattern."""

    map_pattern: str = "*"
    stall_probability: float = 0.0
    stall_s: float = 0.0
    fail_probability: float = 0.0

    def applies_to(self, map_name: str) -> bool:
        return fnmatch.fnmatchcase(map_name, self.map_pattern)


@dataclass(frozen=True)
class WorkerCrash:
    """FlexMend: kill shard ``shard``'s worker process when its engine
    reaches protocol window ``window`` (after that window's outbound
    flush). The supervisor forks it afresh and re-executes it; the
    run's traffic report must stay byte-identical regardless."""

    shard: int
    window: int


@dataclass(frozen=True)
class WorkerStall:
    """FlexMend: wedge shard ``shard``'s worker for ``stall_s`` wall
    seconds at protocol window ``window`` — the scenario the
    supervisor's heartbeat-staleness detector must absorb."""

    shard: int
    window: int
    stall_s: float = 1.0


@dataclass(frozen=True)
class HandoffDrop:
    """FlexMend: shard ``shard`` loses each outbound handoff batch with
    probability ``probability`` (per-shard RNG stream). The receiver's
    sequence gap triggers a NACK and the sender retransmits from its
    retention buffer."""

    shard: int
    probability: float = 0.0


@dataclass(frozen=True)
class HandoffDup:
    """FlexMend: shard ``shard`` sends each outbound handoff batch
    twice with probability ``probability``; the receiver's sequence
    dedup must drop the duplicate."""

    shard: int
    probability: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """One seeded, declarative fault scenario."""

    seed: int = 0
    crashes: tuple[DeviceCrash, ...] = ()
    channel: ChannelFault | None = None
    migration: tuple[MigrationFault, ...] = ()
    #: FlexHA controller-side faults (replica crashes, leader partitions).
    controller_crashes: tuple[ControllerCrash, ...] = ()
    partitions: tuple[LeaderPartition, ...] = ()
    #: FlexMend worker-process faults (sharded execution only).
    worker_crashes: tuple[WorkerCrash, ...] = ()
    worker_stalls: tuple[WorkerStall, ...] = ()
    handoff_drops: tuple[HandoffDrop, ...] = ()
    handoff_dups: tuple[HandoffDup, ...] = ()

    def describe(self) -> list[str]:
        lines = [f"seed {self.seed}"]
        for crash in self.crashes:
            lines.append(
                f"crash {crash.device} at t={crash.at_s:g}s, "
                f"restart after {crash.restart_after_s:g}s"
            )
        for crash in self.controller_crashes:
            lines.append(
                f"controller crash {crash.node} at t={crash.at_s:g}s, "
                f"recover after {crash.restart_after_s:g}s"
            )
        for split in self.partitions:
            lines.append(
                f"partition leader at t={split.at_s:g}s, "
                f"heal after {split.heal_after_s:g}s"
            )
        if self.channel is not None:
            lines.append(
                f"control channel [{self.channel.device_pattern}]: "
                f"drop p={self.channel.drop_probability:g}, "
                f"delay p={self.channel.delay_probability:g} (+{self.channel.delay_s:g}s)"
            )
        for spec in self.migration:
            lines.append(
                f"migration [{spec.map_pattern}]: stall p={spec.stall_probability:g} "
                f"(+{spec.stall_s:g}s), fail p={spec.fail_probability:g}"
            )
        for crash in self.worker_crashes:
            lines.append(
                f"worker crash shard {crash.shard} at window {crash.window}"
            )
        for stall in self.worker_stalls:
            lines.append(
                f"worker stall shard {stall.shard} at window {stall.window} "
                f"(+{stall.stall_s:g}s wall)"
            )
        for drop in self.handoff_drops:
            lines.append(
                f"handoff drop shard {drop.shard}: p={drop.probability:g}"
            )
        for dup in self.handoff_dups:
            lines.append(
                f"handoff dup shard {dup.shard}: p={dup.probability:g}"
            )
        return lines


@dataclass
class InjectionStats:
    """What the injector actually did (for chaos reports)."""

    commands_dropped: int = 0
    writes_dropped: int = 0
    writes_delayed: int = 0
    migration_stalls: int = 0
    migration_failures: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "commands_dropped": self.commands_dropped,
            "writes_dropped": self.writes_dropped,
            "writes_delayed": self.writes_delayed,
            "migration_stalls": self.migration_stalls,
            "migration_failures": self.migration_failures,
        }


class FaultInjector:
    """Deterministic decision oracle over a :class:`FaultPlan`.

    Every hook question ("does this write drop?", "does this migration
    fail?") is answered from a category-local RNG stream, so decisions
    are reproducible per scenario and independent across categories.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = InjectionStats()
        self._rngs: dict[str, random.Random] = {}

    def _rng(self, category: str) -> random.Random:
        rng = self._rngs.get(category)
        if rng is None:
            # str hash is salted per process; derive the stream seed from
            # the category's bytes so streams are stable across runs.
            rng = random.Random(stable_hash((self.plan.seed, *category.encode())))
            self._rngs[category] = rng
        return rng

    # -- control channel ----------------------------------------------------

    def command_dropped(self, device: str) -> bool:
        """One controller->device reconfiguration command: lost in transit?"""
        channel = self.plan.channel
        if channel is None or not channel.applies_to(device):
            return False
        dropped = self._rng("command").random() < channel.drop_probability
        if dropped:
            self.stats.commands_dropped += 1
        return dropped

    def channel_outcome(self, device: str) -> tuple[bool, float]:
        """One P4Runtime read/write: (dropped, extra_delay_s)."""
        channel = self.plan.channel
        if channel is None or not channel.applies_to(device):
            return False, 0.0
        rng = self._rng("channel")
        dropped = rng.random() < channel.drop_probability
        delay = 0.0
        if channel.delay_probability and rng.random() < channel.delay_probability:
            delay = channel.delay_s
        if dropped:
            self.stats.writes_dropped += 1
        elif delay:
            self.stats.writes_delayed += 1
        return dropped, delay

    # -- migration ----------------------------------------------------------

    def migration_fails(self, map_name: str) -> bool:
        for spec in self.plan.migration:
            if spec.applies_to(map_name):
                if self._rng("migration").random() < spec.fail_probability:
                    self.stats.migration_failures += 1
                    return True
        return False

    def migration_stall_s(self, map_name: str) -> float:
        for spec in self.plan.migration:
            if spec.applies_to(map_name):
                if spec.stall_probability and self._rng("stall").random() < spec.stall_probability:
                    self.stats.migration_stalls += 1
                    return spec.stall_s
        return 0.0

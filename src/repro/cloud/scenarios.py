"""FlexCloud front 2: production-shape tenant churn scenarios.

This is the entry lane of :mod:`repro.cloud.admission` scaled to the
10⁴–10⁶ tenants of ROADMAP item 3. Composing a million FlexBPF
extensions is not what a production fabric does; what it does is keep a
**sharded admission directory** — each rack device owns the ACL slice
for the tenants homed on it, and tenant churn becomes batched map
writes against those slices (one coalesced
:meth:`~repro.control.p4runtime.P4RuntimeClient.write_map_entries`
WriteRequest per device per scheduling round, the §1.1 "summon the
defense at scale" shape):

* :func:`cloud_base_program` — the ingress program: standard headers,
  L2 forwarding, and a ``tenant_gate`` that drops any packet whose
  ``ipv4.src`` has no ``tenant_acl`` entry. The gate map is
  control-plane-populated only, so FlexVet classes it stateless and
  every execution backend may cache around it.
* :class:`CloudFleet` — the rack fabric (FlexScale's pod topology) with
  the gated ingress program installed through the controller and a
  gate-free variant fleet-installed on every other rack switch; tenants
  hash to home devices deterministically, and the fleet keeps the
  intent registry that ground-truth verification and the anti-entropy
  :meth:`~CloudFleet.reconcile` sweep diff against.
* :class:`EntryExecutor` — the entry-lane window executor: a round's
  tickets group by home device (last writer wins per tenant), land as
  one batched WriteRequest per device, and partial channel failures
  defer only the affected device's tickets. ``shards`` cell-partitions
  the per-round device sweep and rotates cell order every round —
  proving the merged report is independent of sweep order, the same
  property FlexScale's deterministic merge rests on.
* seeded generators — :func:`flash_crowd`, :func:`diurnal`,
  :func:`ddos_defense`, :func:`canary_rollout` — and
  :func:`run_scenario`, which steps the admission engine through
  scheduling rounds in virtual time and emits a :class:`CloudReport`
  whose ``to_dict()`` is byte-identical for the same seed, including
  across shard counts (the shard count itself is deliberately excluded).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import ChannelError, StaleEpochError
from repro.lang import builder as b
from repro.lang.ir import Program
from repro.limits import ADMISSION_ROUND_BUDGET, ADMISSION_ROUND_S
from repro.scale.shard import run_one_shard
from repro.simulator.flowgen import TimedPacket
from repro.simulator.packet import make_packet, reset_packet_ids
from repro.util import stable_digest

from repro.cloud.admission import CloudEngine, ExecutionResult, TenantDelta, Ticket

__all__ = [
    "CloudEvent",
    "CloudFleet",
    "CloudReport",
    "EntryExecutor",
    "canary_rollout",
    "cloud_base_program",
    "ddos_defense",
    "diurnal",
    "flash_crowd",
    "run_scenario",
]

#: Tenant ids map into 10.0.0.0/8 — room for 16M tenants.
_TENANT_SUBNET = 0x0A000000

#: SLA mix used by the generators: (class, weight).
_SLA_MIX = (("gold", 1), ("silver", 3), ("bronze", 6))


def cloud_base_program(max_tenants: int = 1 << 17, *, gate: bool = True) -> Program:
    """The admission-directory program. With ``gate=True`` (the ingress
    instance) packets from unadmitted sources drop; with ``gate=False``
    (rack instances) the map is a pure directory slice — rack devices
    hold admission state for their homed tenants but sit off the gating
    path (ingress-ACL architecture: enforcement happens once, at the
    edge)."""
    from repro.apps.base import standard_builder

    program = standard_builder("cloud_base" if gate else "cloud_rack")
    program.map(
        "tenant_acl", keys=["ipv4.src"], value_type="u32", max_entries=max_tenants
    )
    program.action("forward", [b.call("set_port", "port")], params=[("port", "u16")])
    program.action("nop", [b.call("no_op")])
    program.table(
        "l2",
        keys=["ethernet.dst"],
        actions=["forward", "nop"],
        size=1024,
        default=("forward", (1,)),
    )
    program.function(
        "tenant_gate",
        [
            b.if_(
                b.binop("==", b.map_get("tenant_acl", "ipv4.src"), 0),
                [b.call("mark_drop")],
            )
        ],
    )
    if gate:
        program.apply("tenant_gate", "l2")
    else:
        program.apply("l2")
    return program.build()


class CloudFleet:
    """The rack fabric plus the sharded admission directory over it."""

    def __init__(self, racks: int = 4, max_tenants: int = 1 << 17):
        from repro.scale.workload import pod_fabric

        self.racks = racks
        self.max_tenants = max_tenants
        self.net = pod_fabric(racks)
        self.net.install(cloud_base_program(max_tenants, gate=True))
        controller = self.net.controller
        #: the enforcement point: wherever the plan placed the gate map.
        self.gate_device: str = controller.plan.placement["tenant_acl"]
        rack_program = cloud_base_program(max_tenants, gate=False)
        placed = set(controller.plan.placement.values())
        for rack in range(racks):
            switch = f"s{rack}"
            if switch not in placed:
                controller.devices[switch].install(rack_program)
        #: directory slice owners, sorted: the gate device plus every
        #: rack switch hosting a private slice.
        homes = {self.gate_device} | {
            f"s{rack}" for rack in range(racks) if f"s{rack}" not in placed
        }
        self.homes: list[str] = sorted(homes)
        #: intent registry: tenant -> admission value (0 == evicted).
        #: Updated only after the home device acknowledged the write, so
        #: verification diffs intent against acknowledged state.
        self.registry: dict[str, int] = {}

    # -- tenant addressing --------------------------------------------------

    @staticmethod
    def tenant_id(tenant: str) -> int:
        return int(tenant)

    def tenant_ip(self, tenant: str) -> int:
        return _TENANT_SUBNET | (self.tenant_id(tenant) + 1)

    def home_of(self, tenant: str) -> str:
        return self.homes[self.tenant_id(tenant) % len(self.homes)]

    # -- directory operations ----------------------------------------------

    def apply_entries(self, device: str, entries: dict[str, int]) -> None:
        """Land one batched WriteRequest on a home device; the registry
        reflects the write only once the device acknowledged it."""
        payload = {(self.tenant_ip(tenant),): value for tenant, value in entries.items()}
        self.net.controller.hub.client(device).write_map_entries("tenant_acl", payload)
        for tenant, value in entries.items():
            if value == 0:
                self.registry.pop(tenant, None)
            else:
                self.registry[tenant] = value

    def ground_truth(self) -> dict[str, dict[tuple[int, ...], int]]:
        return {
            device: self.net.controller.hub.client(device).read_map("tenant_acl")
            for device in self.homes
        }

    def verify(self) -> tuple[int, int]:
        """Diff every directory slice against the intent registry.

        Returns ``(violations, entries_checked)``. A violation is an
        isolation failure: an admitted tenant missing from (or wrong
        in) its home slice, a phantom entry for no admitted tenant, or
        a tenant's entry leaking onto a foreign slice."""
        intended: dict[str, dict[tuple[int, ...], int]] = {d: {} for d in self.homes}
        for tenant, value in self.registry.items():
            intended[self.home_of(tenant)][(self.tenant_ip(tenant),)] = value
        violations = 0
        checked = 0
        for device, actual in self.ground_truth().items():
            want = intended[device]
            checked += len(want)
            for key, value in want.items():
                if actual.get(key) != value:
                    violations += 1
            for key in actual:
                if key not in want:
                    violations += 1
        return violations, checked

    def reconcile(self) -> int:
        """Anti-entropy sweep (the churn-under-chaos safety net): read
        each slice's ground truth, re-write the diffs against intent.
        Returns the number of entries repaired."""
        intended: dict[str, dict[tuple[int, ...], int]] = {d: {} for d in self.homes}
        for tenant, value in self.registry.items():
            intended[self.home_of(tenant)][(self.tenant_ip(tenant),)] = value
        repaired = 0
        for device in self.homes:
            client = self.net.controller.hub.client(device)
            actual = client.read_map("tenant_acl")
            want = intended[device]
            diffs: dict[tuple[int, ...], int] = {}
            for key, value in want.items():
                if actual.get(key) != value:
                    diffs[key] = value
            for key in actual:
                if key not in want:
                    diffs[key] = 0
            if diffs:
                client.write_map_entries("tenant_acl", diffs)
                repaired += len(diffs)
        return repaired

    # -- datapath probes ----------------------------------------------------

    def probe(self, tenants: list[str]) -> tuple[int, int]:
        """Push one datapath packet per tenant homed on the gate device
        and check the gate's verdict against the registry: admitted
        sources must forward, evicted ones must drop. Returns
        ``(violations, probes_run)``."""
        eligible = [t for t in tenants if self.home_of(t) == self.gate_device]
        if not eligible:
            return 0, 0
        controller = self.net.controller
        start = controller.loop.now
        verdicts: dict[int, bool] = {}

        def on_done(packet) -> None:
            verdicts[packet.get_field("ipv4", "src")] = packet.dropped

        workload = []
        for index, tenant in enumerate(eligible):
            at = start + index * 1e-4
            packet = make_packet(self.tenant_ip(tenant), _TENANT_SUBNET | 0xFFFE, created_at=at)
            workload.append(TimedPacket(at, packet))
        run_one_shard(controller.network, workload, 1.0, on_done)
        violations = 0
        for tenant in eligible:
            admitted = self.registry.get(tenant, 0) != 0
            dropped = verdicts.get(self.tenant_ip(tenant), True)
            # Admitted tenants must pass the gate; evicted (or never
            # admitted) ones must be dropped by it.
            if admitted == dropped:
                violations += 1
        return violations, len(eligible)


class EntryExecutor:
    """Entry-lane window executor; see the module docstring."""

    def __init__(self, fleet: CloudFleet, shards: int = 1):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.fleet = fleet
        self.shards = shards
        self._round = 0
        self.device_windows: dict[str, int] = {}

    def plan(self, tickets: list[Ticket]) -> tuple[list[list[Ticket]], list[Ticket]]:
        """Entry-lane deltas are per-tenant map entries — always
        compatible; the whole round folds into one batch."""
        return ([tickets] if tickets else []), []

    def _device_order(self, devices: list[str]) -> list[str]:
        """Cell-partition the sorted device sweep and rotate cell order
        each round: write order across devices must not matter, and this
        makes any accidental dependence show up as a broken digest."""
        cells: list[list[str]] = [[] for _ in range(self.shards)]
        for index, device in enumerate(sorted(devices)):
            cells[index % self.shards].append(device)
        rotation = self._round % self.shards
        ordered: list[str] = []
        for offset in range(self.shards):
            ordered.extend(cells[(offset + rotation) % self.shards])
        return ordered

    def execute(self, batch: list[Ticket], *, epoch=None, dispatch_gate=None):
        self._round += 1
        by_device: dict[str, dict[str, int]] = {}
        tickets_by_device: dict[str, list[Ticket]] = {}
        for ticket in sorted(batch, key=lambda t: t.ticket_id):
            delta = ticket.delta
            value = 0 if delta.kind == "evict" else delta.value
            device = self.fleet.home_of(delta.tenant)
            # Last writer wins within the window — exactly the state a
            # serial replay of the same tickets would leave.
            by_device.setdefault(device, {})[delta.tenant] = value
            tickets_by_device.setdefault(device, []).append(ticket)
        result = ExecutionResult()
        for device in self._device_order(list(by_device)):
            try:
                self.fleet.apply_entries(device, by_device[device])
            except (ChannelError, StaleEpochError):
                # This device's window was lost in transit; its tickets
                # retry next round. Other devices' windows stand.
                result.deferred.extend(tickets_by_device[device])
                continue
            result.windows += 1
            self.device_windows[device] = self.device_windows.get(device, 0) + 1
            result.applied.extend(tickets_by_device[device])
        return result


# ---------------------------------------------------------------------------
# Seeded scenario generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CloudEvent:
    """One scheduled tenant delta in a scenario script."""

    time: float
    kind: str  # "admit" | "evict" | "update"
    tenant: str
    sla_class: str = "bronze"
    value: int = 1

    def to_delta(self) -> TenantDelta:
        return TenantDelta(
            kind=self.kind,
            tenant=self.tenant,
            sla_class=self.sla_class,
            value=self.value,
        )


def _sla_for(rng: random.Random) -> str:
    total = sum(weight for _, weight in _SLA_MIX)
    draw = rng.randrange(total)
    for sla, weight in _SLA_MIX:
        if draw < weight:
            return sla
        draw -= weight
    return _SLA_MIX[-1][0]


def _sorted(events: list[CloudEvent]) -> list[CloudEvent]:
    events.sort(key=lambda e: (e.time, e.tenant, e.kind))
    return events


def flash_crowd(
    tenants: int = 100_000,
    ramp_s: float = 20.0,
    seed: int = 2026,
) -> list[CloudEvent]:
    """Every tenant arrives within one ramp, starting at 0.5 s — the
    thundering herd."""
    rng = random.Random(seed)
    events = [
        CloudEvent(
            time=0.5 + rng.random() * ramp_s,
            kind="admit",
            tenant=str(index),
            sla_class=_sla_for(rng),
        )
        for index in range(tenants)
    ]
    return _sorted(events)


def diurnal(
    tenants: int = 50_000,
    duration_s: float = 60.0,
    seed: int = 2026,
) -> list[CloudEvent]:
    """A day compressed into ``duration_s``: arrival intensity follows a
    raised cosine (trough at the edges, peak mid-window), and each
    tenant departs after a seeded exponential lifetime."""
    import math

    rng = random.Random(seed)
    events: list[CloudEvent] = []
    for index in range(tenants):
        # Inverse-free sampling by rejection against the raised cosine.
        while True:
            t = rng.random() * duration_s
            intensity = 0.5 - 0.5 * math.cos(2 * math.pi * t / duration_s)
            if rng.random() <= intensity:
                break
        sla = _sla_for(rng)
        tenant = str(index)
        events.append(CloudEvent(time=t, kind="admit", tenant=tenant, sla_class=sla))
        depart = t + rng.expovariate(1.0 / (duration_s * 0.25))
        if depart < duration_s:
            events.append(
                CloudEvent(time=depart, kind="evict", tenant=tenant, sla_class=sla)
            )
    return _sorted(events)


def ddos_defense(tenants: int = 20_000, seed: int = 2026) -> list[CloudEvent]:
    """The §1.1 security story at fleet scale: a baseline population is
    admitted, then at 10 s the operator *summons the defense* — the
    suspected attackers (5% of tenants) are evicted (quarantined) and
    every gold tenant's entry is flipped to the hardened profile
    (value 2) in one burst of high-priority deltas."""
    attack_at_s, attacker_fraction = 10.0, 0.05
    rng = random.Random(seed)
    events: list[CloudEvent] = []
    slas: dict[str, str] = {}
    for index in range(tenants):
        tenant = str(index)
        sla = _sla_for(rng)
        slas[tenant] = sla
        events.append(
            CloudEvent(
                time=rng.random() * (attack_at_s * 0.8),
                kind="admit",
                tenant=tenant,
                sla_class=sla,
            )
        )
    attackers = {
        str(index)
        for index in rng.sample(range(tenants), int(tenants * attacker_fraction))
    }
    burst_jitter = 0.5
    for tenant in sorted(attackers, key=int):
        events.append(
            CloudEvent(
                time=attack_at_s + rng.random() * burst_jitter,
                kind="evict",
                tenant=tenant,
                sla_class=slas[tenant],
            )
        )
    for tenant, sla in sorted(slas.items(), key=lambda kv: int(kv[0])):
        if sla == "gold" and tenant not in attackers:
            events.append(
                CloudEvent(
                    time=attack_at_s + rng.random() * burst_jitter,
                    kind="update",
                    tenant=tenant,
                    sla_class="gold",
                    value=2,
                )
            )
    return _sorted(events)


def canary_rollout(tenants: int = 20_000, seed: int = 2026) -> list[CloudEvent]:
    """Admit the fleet, then roll a new profile (value 2) out in
    canary waves 5 s apart: each wave updates a seeded, growing prefix
    of the population, 1% → 10% → 100%."""
    waves, wave_gap_s = (0.01, 0.1, 1.0), 5.0
    rng = random.Random(seed)
    events: list[CloudEvent] = []
    slas: dict[str, str] = {}
    order = list(range(tenants))
    rng.shuffle(order)
    for index in range(tenants):
        tenant = str(index)
        sla = _sla_for(rng)
        slas[tenant] = sla
        events.append(
            CloudEvent(
                time=rng.random() * wave_gap_s * 0.8,
                kind="admit",
                tenant=tenant,
                sla_class=sla,
            )
        )
    rolled: set[str] = set()
    for wave_index, fraction in enumerate(waves):
        wave_at = wave_gap_s * (wave_index + 1.5)
        cohort = [str(i) for i in order[: int(tenants * fraction)]]
        for tenant in cohort:
            if tenant in rolled:
                continue
            rolled.add(tenant)
            events.append(
                CloudEvent(
                    time=wave_at + rng.random() * 0.5,
                    kind="update",
                    tenant=tenant,
                    sla_class=slas[tenant],
                    value=2,
                )
            )
    return _sorted(events)


SCENARIOS = {
    "flash-crowd": flash_crowd,
    "diurnal": diurnal,
    "ddos-defense": ddos_defense,
    "canary-rollout": canary_rollout,
}


# ---------------------------------------------------------------------------
# The scenario runner
# ---------------------------------------------------------------------------


@dataclass
class CloudReport:
    """What one churn scenario produced (FlexScope Reportable).

    ``to_dict()`` is deterministic for a given seed and deliberately
    excludes the shard count: E22's acceptance gate is that the report
    is byte-identical across runs *and* across ``--shards`` settings,
    so anything shard-dependent must stay out of the comparable body.
    """

    scenario: str
    seed: int
    tenants: int
    events: int
    rounds: int = 0
    windows: int = 0
    applied: int = 0
    shed: int = 0
    failed: int = 0
    deferrals: int = 0
    transient_deferrals: int = 0
    coalesce_ratio: float = 0.0
    latency_mean_s_by_class: dict[str, float] = field(default_factory=dict)
    violations: int = 0
    entries_checked: int = 0
    probes: int = 0
    repaired: int = 0
    control_writes: int = 0
    end_state_digest: int = 0
    #: shard count of this run — excluded from to_dict() by design.
    shards: int = 1

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "tenants": self.tenants,
            "events": self.events,
            "rounds": self.rounds,
            "windows": self.windows,
            "applied": self.applied,
            "shed": self.shed,
            "failed": self.failed,
            "deferrals": self.deferrals,
            "transient_deferrals": self.transient_deferrals,
            "coalesce_ratio": round(self.coalesce_ratio, 6),
            "latency_mean_s_by_class": {
                sla: round(mean, 9)
                for sla, mean in sorted(self.latency_mean_s_by_class.items())
            },
            "violations": self.violations,
            "entries_checked": self.entries_checked,
            "probes": self.probes,
            "repaired": self.repaired,
            "control_writes": self.control_writes,
            "end_state_digest": self.end_state_digest,
        }

    def summary(self) -> str:
        lines = [
            f"cloud scenario {self.scenario!r} (seed {self.seed}): "
            f"{self.applied}/{self.events} delta(s) applied over "
            f"{self.rounds} round(s), {self.windows} window(s) "
            f"(coalesce {self.coalesce_ratio:.1f}x)",
            f"  backpressure: {self.shed} shed, {self.deferrals} deferral(s)"
            + (
                f" ({self.transient_deferrals} transient)"
                if self.transient_deferrals
                else ""
            )
            + (f", {self.failed} failed" if self.failed else ""),
            f"  isolation: {self.violations} violation(s) over "
            f"{self.entries_checked} entr(ies) + {self.probes} probe(s)"
            + (f", {self.repaired} repaired" if self.repaired else ""),
            f"  state digest: {self.end_state_digest}",
        ]
        if self.latency_mean_s_by_class:
            latencies = ", ".join(
                f"{sla}={mean * 1000:.0f}ms"
                for sla, mean in sorted(self.latency_mean_s_by_class.items())
            )
            lines.insert(2, f"  admission latency (mean): {latencies}")
        return "\n".join(lines)


def run_scenario(
    events: list[CloudEvent],
    *,
    scenario: str = "custom",
    seed: int = 2026,
    racks: int = 4,
    coalesce: bool = True,
    shards: int = 1,
    round_s: float = ADMISSION_ROUND_S,
    budget: int = ADMISSION_ROUND_BUDGET,
    policies: dict[str, tuple[int, int]] | None = None,
    chaos=None,
    probes: int = 64,
    observe: bool = False,
    max_tenants: int | None = None,
) -> CloudReport:
    """Drive a scenario script through the admission engine.

    Rounds step in virtual time: each round first submits every event
    whose timestamp has passed (at the event's own time, so admission
    latency is measured from intent, not from drain), then drains once.
    With ``chaos`` (a :class:`~repro.faults.plan.FaultPlan`), control
    writes can drop — deferred tickets retry round over round, and a
    final anti-entropy :meth:`~CloudFleet.reconcile` sweep (run after
    the channel heals) repairs whatever the retries never landed.
    """
    reset_packet_ids()
    tenant_ids = {event.tenant for event in events}
    capacity = max_tenants if max_tenants is not None else 1 << 17
    fleet = CloudFleet(racks=racks, max_tenants=capacity)
    if observe:
        fleet.net.observe.enable(sample_every=0)
    injector = None
    if chaos is not None:
        from repro.faults.plan import FaultInjector

        injector = FaultInjector(chaos)
        # recovery=False: a dropped write surfaces as ChannelError and
        # becomes a *deferral* — FlexCloud's own retry loop is the
        # recovery story here, not the per-call backoff.
        fleet.net.controller.attach_faults(injector, recovery=False)
    executor = EntryExecutor(fleet, shards=shards)
    engine = CloudEngine(
        executor,
        round_s=round_s,
        budget=budget,
        policies=policies,
        coalesce=coalesce,
        observer=fleet.net.observe if observe else None,
    )
    now = 0.0
    index = 0
    idle_rounds = 0
    # Generous convergence bound: every ticket retries at most a handful
    # of times even under heavy channel loss.
    max_rounds = max(64, 2 * int(len(events) / max(budget, 1)) + 4096)
    for _ in range(max_rounds):
        now = round(now + round_s, 9)
        while index < len(events) and events[index].time <= now:
            engine.submit(events[index].to_delta(), now=events[index].time)
            index += 1
        engine.drain_round(now)
        if index >= len(events) and not len(engine.queue):
            idle_rounds += 1
            if idle_rounds >= 2:
                break
        else:
            idle_rounds = 0
    repaired = 0
    if chaos is not None:
        # Heal the channel, then run the anti-entropy sweep: convergence
        # must not depend on the fault plan's mercy.
        fleet.net.controller.hub.set_channel(None)
        repaired = fleet.reconcile()
    violations, checked = fleet.verify()
    probe_violations, probes_run = 0, 0
    if probes:
        probe_tenants = sorted(tenant_ids, key=int)[: probes * len(fleet.homes)]
        probe_violations, probes_run = fleet.probe(probe_tenants)
    truth = fleet.ground_truth()
    digest_parts: list = [fleet.net.controller.program.version]
    for device in sorted(truth):
        entries = tuple(sorted((key[0], value) for key, value in truth[device].items()))
        digest_parts.append((device, entries))
    report = CloudReport(
        scenario=scenario,
        seed=seed,
        tenants=len(tenant_ids),
        events=len(events),
        rounds=engine.rounds,
        windows=engine.windows,
        applied=engine.applied,
        shed=engine.queue.shed,
        failed=engine.failed,
        deferrals=engine.deferrals,
        transient_deferrals=engine.transient_deferrals,
        coalesce_ratio=engine.coalesce_ratio,
        latency_mean_s_by_class=engine.latency_by_class(),
        violations=violations + probe_violations,
        entries_checked=checked,
        probes=probes_run,
        repaired=repaired,
        control_writes=sum(
            fleet.net.controller.hub.client(device).stats.writes
            for device in fleet.homes
        ),
        end_state_digest=stable_digest(tuple(digest_parts)),
        shards=shards,
    )
    return report

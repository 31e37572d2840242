"""Consistent-update scheduling (§3.4, "Fault tolerance and consistency").

Functional updates to a logical datapath need "application-level,
consistent packet processing, which goes beyond controlling the order
of rule updates". Every device's transition window starts when the
transition begins; the scheduler decides how long each device on a path
keeps it open so a requested consistency level holds:

* ``PER_PACKET_PER_DEVICE`` — no coordination needed: every runtime
  programmable device guarantees old-XOR-new natively. All devices
  start together (minimal makespan).
* ``PER_PACKET_PATH`` — epoch stamping (two-phase): every updated
  device holds both versions for the whole transition; the first
  updated device a packet meets decides old-vs-new and stamps the
  packet, and downstream devices honour the stamp. The scheduler's job
  is to make the stamp always honourable: all windows start together
  and downstream windows are stretched by a per-hop guard so in-flight
  packets never outlive the version they were stamped with.
* ``PER_FLOW`` — path scheduling plus a flow-affine decision: the
  ingress draw is keyed by the packet's five-tuple instead of its id,
  so every packet of a flow cuts over at the same instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.consistency import ConsistencyLevel


@dataclass(frozen=True)
class UpdateSchedule:
    """The per-device window durations; every window starts when the
    transition begins."""

    window_s: dict[str, float]

    @property
    def makespan_s(self) -> float:
        return max(self.window_s.values(), default=0.0)


def plan_schedule(
    level: ConsistencyLevel,
    path_order: list[str],
    window_s: dict[str, float],
    guard_s: float = 0.001,
) -> UpdateSchedule:
    """Compute the window of each device being updated.

    ``path_order`` lists the updated devices in *traffic* order
    (upstream first); ``window_s`` gives each device's transition
    window length. ``guard_s`` is slack added between sequenced windows
    to cover in-flight packets (propagation + queueing headroom).
    """
    if level is ConsistencyLevel.PER_PACKET_PER_DEVICE:
        return UpdateSchedule(window_s=dict(window_s))

    # Path/flow consistency via epoch stamping: every updated device holds
    # both versions for the whole transition; the *first* updated device a
    # packet meets makes the old/new decision and stamps it, downstream
    # devices honour the stamp. For the stamp to always be honourable,
    # each downstream device's window must outlast the upstream decision
    # window by at least the in-flight transit time — so all windows start
    # together and are stretched by ``guard_s`` per hop of depth.
    first = path_order[0] if path_order else None
    base = window_s.get(first, 0.0) if first is not None else 0.0
    stretched: dict[str, float] = {}
    for position, device in enumerate(path_order):
        own = window_s.get(device, 0.0)
        stretched[device] = max(own, base + position * guard_s)
    return UpdateSchedule(window_s=stretched)


def plan_admission_round(
    depths: dict[str, int],
    budget: int,
    weights: dict[str, int],
) -> dict[str, int]:
    """Split one FlexCloud admission round's ticket ``budget`` across
    SLA classes (weighted fair shares over the classes with queued
    tickets).

    ``depths`` maps class name -> queued ticket count; ``weights`` maps
    class name -> drain weight. Every non-empty class is guaranteed at
    least one ticket when the budget allows (anti-starvation), classes
    never receive more than their depth, and leftover budget is
    redistributed to still-backlogged classes in weight order. The
    result is fully determined by the inputs — class names are processed
    in sorted order so two controllers (or two drain arms of a
    differential test) always cut the same shares.
    """
    if budget < 0:
        raise ValueError(f"admission budget must be >= 0, got {budget}")
    active = sorted(name for name, depth in depths.items() if depth > 0)
    shares: dict[str, int] = {name: 0 for name in active}
    if not active or budget == 0:
        return shares
    # Anti-starvation floor first: one ticket per non-empty class, in
    # descending weight order (ties broken by name) while budget lasts.
    by_priority = sorted(active, key=lambda name: (-weights.get(name, 1), name))
    remaining = budget
    for name in by_priority:
        if remaining == 0:
            return shares
        shares[name] = 1
        remaining -= 1
    # Weighted shares over what's left, capped at each class's depth;
    # leftovers (rounding + caps) sweep to backlogged classes by weight.
    total_weight = sum(weights.get(name, 1) for name in active)
    for name in by_priority:
        want = depths[name] - shares[name]
        share = min(want, remaining * weights.get(name, 1) // total_weight)
        shares[name] += share
        remaining -= share
    for name in by_priority:
        if remaining == 0:
            break
        give = min(depths[name] - shares[name], remaining)
        shares[name] += give
        remaining -= give
    return shares

"""State migration between devices (§3.4, "Data plane execution").

The paper's motivating example: migrating a stateful app whose state
"mutates per-packet at nanosecond timescales. If all control operations
are performed in software, many tasks become extremely challenging or
infeasible" — control-plane copy loops chase a moving target, while
data-plane mechanisms (Swing State [41], secure variants [65]) migrate
in-band at line rate.

Both strategies are modelled over the logical map representation:

* :func:`control_plane_migration` — iterative snapshot rounds: each
  round copies the currently dirty entries at the controller's copy
  rate, while the data plane keeps dirtying entries at the workload's
  update rate. Converges only when the copy rate exceeds the update
  rate; otherwise gives up after 12 rounds with residual dirt.
* :func:`data_plane_migration` — in-band transfer: entries piggyback on
  cloned packets at line rate; updates during the transfer are routed
  to *both* instances (swing), so convergence is a single pass and no
  update is lost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MigrationError
from repro.lang.maps import MapState
from repro.targets.base import StateEncoding
from repro.compiler.state_encoding import convert

#: A control-plane migration's copy loop: one controller round trip per
#: round, at most this many rounds, and the final atomic freeze once the
#: dirty set is down to this many entries.
_COPY_ROUND_RTT_S = 0.001
_MAX_COPY_ROUNDS = 12
_FREEZE_THRESHOLD_ENTRIES = 64


@dataclass(frozen=True)
class MigrationReport:
    strategy: str
    map_name: str
    entries: int
    duration_s: float
    rounds: int
    converged: bool
    #: updates that landed on the source after its snapshot round but were
    #: never copied (control-plane loss); always 0 for data plane.
    updates_lost: int
    #: entries dropped or aliased on the way: by an encoding conversion,
    #: or for want of room in a smaller durable destination.
    conversion_loss: int = 0


def control_plane_migration(
    source: MapState,
    destination: MapState,
    update_rate_per_s: float,
    copy_rate_entries_per_s: float = 10_000.0,
) -> MigrationReport:
    """Iteratively copy ``source`` into ``destination`` via the controller.

    Round *i* copies the dirty set left by round *i-1*; while it runs,
    the workload dirties ``update_rate * round_duration`` further entries
    (capped at the map size). Once the dirty set shrinks to
    ``_FREEZE_THRESHOLD_ENTRIES`` the migration finishes with one brief
    atomic freeze that copies the stragglers. It fails after
    ``_MAX_COPY_ROUNDS`` — the dirty set never contracted — in which case the
    migration must freeze the live app indefinitely (losing updates) or
    abort.
    """
    total_entries = len(source)
    dirty = float(total_entries)
    elapsed = 0.0
    rounds = 0
    map_capacity = max(source.definition.max_entries, 1)

    while dirty > _FREEZE_THRESHOLD_ENTRIES and rounds < _MAX_COPY_ROUNDS:
        rounds += 1
        round_duration = dirty / copy_rate_entries_per_s + _COPY_ROUND_RTT_S
        elapsed += round_duration
        dirty = min(update_rate_per_s * round_duration, float(map_capacity))

    converged = dirty <= _FREEZE_THRESHOLD_ENTRIES
    if converged and dirty > 0:
        # Final atomic freeze over the residual dirty set.
        rounds += 1
        elapsed += dirty / copy_rate_entries_per_s + _COPY_ROUND_RTT_S
        dirty = 0.0
    # Whatever is still dirty when we give up is lost to the copy.
    updates_lost = int(dirty) if not converged else 0

    for key, value in source.items():
        destination.put(key, value)

    return MigrationReport(
        strategy="control_plane",
        map_name=source.name,
        entries=total_entries,
        duration_s=elapsed,
        rounds=rounds,
        converged=converged,
        updates_lost=updates_lost,
    )


def data_plane_migration(
    source: MapState,
    destination: MapState,
    line_rate_entries_per_s: float = 5_000_000.0,
    source_encoding: StateEncoding = StateEncoding.STATEFUL_TABLE,
    destination_encoding: StateEncoding = StateEncoding.STATEFUL_TABLE,
    register_slots: int = 4096,
    injector=None,
) -> MigrationReport:
    """Swing-State-style in-band migration.

    Entries travel inside cloned packets at line rate; during the single
    transfer pass, writes are applied to both instances, so no update is
    lost and convergence is guaranteed in one round. If the encodings
    differ, state is converted through the logical representation and
    any aliasing loss is reported, as is each entry a durable
    destination has no room for (it is declared smaller than what the
    source holds): the destination keeps what fits.

    ``injector`` is FlexFault's hook: an injected failure aborts the
    transfer before any entry lands (raising :class:`MigrationError`,
    which the orchestrator's recovery path retries); an injected stall
    stretches the transfer duration (the cloned-packet stream was
    throttled) without affecting correctness.
    """
    if line_rate_entries_per_s <= 0:
        raise MigrationError("line rate must be positive")
    if injector is not None and injector.migration_fails(source.name):
        raise MigrationError(
            f"in-band migration of map {source.name!r} failed: injected fault"
        )
    total_entries = len(source)
    duration = total_entries / line_rate_entries_per_s
    if injector is not None:
        duration += injector.migration_stall_s(source.name)

    snapshot = source.snapshot()
    conversion_loss = 0
    if source_encoding is not destination_encoding:
        converted, report = convert(
            snapshot, source_encoding, destination_encoding, register_slots
        )
        conversion_loss = max(report.entries_in - report.entries_out, 0)
        snapshot = converted
    conversion_loss += destination.merge(snapshot)

    return MigrationReport(
        strategy="data_plane",
        map_name=source.name,
        entries=total_entries,
        duration_s=duration,
        rounds=1,
        converged=True,
        updates_lost=0,
        conversion_loss=conversion_loss,
    )


def minimum_copy_rate_for_convergence(update_rate_per_s: float) -> float:
    """Copy rate a control-plane migration needs to converge.

    The dirty recursion ``d' = u * (d / c + rtt)`` contracts only when
    ``u / c < 1``; a safety factor of 1.25 keeps round counts reasonable.
    """
    return update_rate_per_s * 1.25

"""Write-ahead reconfiguration journal (FlexFault recovery).

The journal is a read-only view over the orchestrator's applied-action
log (:attr:`~repro.runtime.reconfig.ReconfigOrchestrator.log`), which is
the one record of what reconfiguration did. An entry is a window
``open`` that recorded a transaction (old version -> new version, window
bounds); it stays PENDING until a ``commit`` (the window closed), a
resume or a rollback (a ``restart``) names its transaction. A device
that crashes mid-delta therefore leaves a PENDING entry behind, and the
:class:`~repro.faults.recovery.RecoveryManager` reads it on restart to
either **resume** (finish the cut-over to the new version) or **roll
back** (retire the staged version) — never to leave the device in a
mixed old/new state.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.runtime.reconfig import OPEN, RESTART, Applied


class TxnState(enum.Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


class JournalEntry(NamedTuple):
    txn_id: int
    device: str
    old_version: int
    new_version: int
    started_at: float
    window_end: float
    #: the Raft-committed delta this window realizes (None when the
    #: controller is unreplicated); reported, not read back.
    delta_id: int | None = None
    state: TxnState = TxnState.PENDING
    resolved_at: float | None = None
    #: how the entry left PENDING: "window_closed", "resync", "resume",
    #: "rollback".
    resolution: str | None = None

    def to_dict(self) -> dict:
        return {
            "txn": self.txn_id,
            "device": self.device,
            "old_version": self.old_version,
            "new_version": self.new_version,
            "started_at": round(self.started_at, 6),
            "window_end": round(self.window_end, 6),
            "state": self.state.value,
            "resolved_at": None if self.resolved_at is None else round(self.resolved_at, 6),
            "resolution": self.resolution,
            "delta_id": self.delta_id,
        }


class ReconfigJournal:
    """The per-window transactions read off an applied-action log; each
    resolves PENDING -> COMMITTED or PENDING -> ROLLED_BACK once, by the
    first action that names it."""

    def __init__(self, log: list[Applied]):
        self._log = log

    @property
    def entries(self) -> list[JournalEntry]:
        entries: dict[int, JournalEntry] = {}
        for applied in self._log:
            txn = applied.txn
            if txn is None:
                continue
            action = applied.action
            if action.kind == OPEN:
                entries[txn] = JournalEntry(
                    txn,
                    action.device,
                    applied.old_version,
                    action.program.version,
                    applied.time,
                    applied.time + action.duration,
                    action.delta_id,
                )
            elif entries[txn].state is TxnState.PENDING:
                # a restart resolves by its outcome ("resume" or "rollback")
                how = applied.outcome if action.kind == RESTART else action.resolution
                state = TxnState.ROLLED_BACK if how == "rollback" else TxnState.COMMITTED
                entries[txn] = entries[txn]._replace(
                    state=state, resolved_at=applied.time, resolution=how
                )
        return list(entries.values())

    def pending_for(self, device: str) -> JournalEntry | None:
        """The latest unresolved entry for a device (None when clean)."""
        for entry in reversed(self.entries):
            if entry.device == device and entry.state is TxnState.PENDING:
                return entry
        return None

    def committed_by(self) -> float | None:
        """Latest commit time across entries, or None if nothing committed."""
        times = [e.resolved_at for e in self.entries if e.state is TxnState.COMMITTED]
        return max(times) if times else None

    def to_dict(self) -> list[dict]:
        return [entry.to_dict() for entry in self.entries]

"""The write-ahead journal, read off the orchestrator's applied-action log.

Every entry here is made by applying control actions (window ``open``
and its ``commit``, ``crash``, ``restart``) on real devices; the journal
only reads the log they leave.
"""

from functools import partial

from repro.faults import ReconfigJournal, RecoveryManager, TxnState
from repro.lang.delta import apply_delta, parse_delta
from repro.runtime.device import DeviceRuntime
from repro.runtime.reconfig import (
    COMMIT,
    CRASH,
    OPEN,
    RESTART,
    ControlAction,
    ReconfigOrchestrator,
    TransitionReport,
)
from repro.simulator.engine import EventLoop
from repro.targets import drmt_switch

from tests.faults.test_device_faults import ADD_GUARD


class Fleet:
    """Devices under an orchestrator that keeps a log (as once faults are
    attached), with recovery on unless ``resume`` is None."""

    def __init__(self, base_program, names=("sw1",), resume=True):
        self.loop = EventLoop()
        self.devices = {}
        for name in names:
            self.devices[name] = DeviceRuntime(name, drmt_switch(name))
            self.devices[name].install(base_program)
        self.orchestrator = ReconfigOrchestrator(self.loop, self.devices)
        self.orchestrator.log = []
        self.journal = ReconfigJournal(self.orchestrator.log)
        self.recovery = None
        if resume is not None:
            self.recovery = RecoveryManager(
                self.loop, self.devices, self.journal, resume=resume
            )
        self.orchestrator.recovery = self.recovery
        self.new_program, _ = apply_delta(base_program, parse_delta(ADD_GUARD))

    def at(self, time, kind, device="sw1", **fields):
        """Apply one action at ``time``."""
        if kind not in (CRASH, RESTART):
            fields.setdefault("report", TransitionReport(started_at=time))
        action = ControlAction(kind, device, **fields)
        self.loop.schedule_at(time, partial(self.orchestrator.apply_control, action))

    def open(self, time, device="sw1", duration=0.5, program=None):
        """Open a window to ``program`` (the guard delta by default); its
        close commits the transaction at ``time + duration``."""
        self.at(time, OPEN, device, program=program or self.new_program, duration=duration)

    def run(self, until):
        self.loop.run_until(until)

    def kinds(self):
        return [(applied.action.kind, applied.outcome) for applied in self.orchestrator.log]


def test_begin_is_pending(base_program):
    fleet = Fleet(base_program)
    fleet.open(5.0)
    fleet.run(5.1)
    (entry,) = fleet.journal.entries
    assert entry.state is TxnState.PENDING
    assert (entry.txn_id, entry.old_version, entry.new_version) == (0, 1, 2)
    assert fleet.journal.pending_for("sw1") == entry
    assert fleet.journal.pending_for("nic1") is None


def test_commit_resolves_once(base_program):
    fleet = Fleet(base_program)
    fleet.open(5.0)
    fleet.run(6.0)
    (entry,) = fleet.journal.entries
    assert entry.state is TxnState.COMMITTED
    assert entry.resolution == "window_closed"
    assert entry.resolved_at == 5.5
    # A second close naming the same transaction is logged but resolves
    # nothing: the first action that names an entry resolves it.
    fleet.at(9.0, COMMIT, program=fleet.new_program, txn=0, resolution="resync")
    fleet.run(9.5)
    assert fleet.kinds()[-1] == (COMMIT, "commit")
    assert fleet.journal.entries == [entry]


def test_rollback_resolves(base_program):
    fleet = Fleet(base_program, resume=False)
    fleet.open(5.0)
    fleet.at(5.2, CRASH)
    fleet.at(6.2, RESTART)
    fleet.run(7.0)
    (entry,) = fleet.journal.entries
    assert entry.state is TxnState.ROLLED_BACK
    assert (entry.resolution, entry.resolved_at) == ("rollback", 6.2)
    assert fleet.journal.pending_for("sw1") is None
    # The close fired on a crashed device and resolved nothing.
    assert fleet.kinds() == [
        (OPEN, "window_open"), (CRASH, CRASH), (COMMIT, "frozen"), (RESTART, "rollback"),
    ]


def test_pending_for_returns_latest(base_program):
    fleet = Fleet(base_program)
    third, _ = apply_delta(
        fleet.new_program, parse_delta("delta shrink { resize map flow_counts 1024; }")
    )
    fleet.open(1.0)
    fleet.open(2.0, program=third)
    fleet.run(2.1)
    first, second = fleet.journal.entries
    assert first.state is TxnState.COMMITTED
    assert (second.txn_id, second.old_version, second.new_version) == (1, 2, 3)
    assert fleet.journal.pending_for("sw1") == second


def test_committed_by_tracks_latest_commit(base_program):
    fleet = Fleet(base_program, names=("sw1", "nic1"))
    assert fleet.journal.committed_by() is None
    fleet.open(1.0, duration=0.5)
    fleet.open(1.0, device="nic1", duration=0.2)
    fleet.at(1.3, CRASH)
    fleet.at(6.2, RESTART)
    fleet.run(7.0)
    assert [e.resolution for e in fleet.journal.entries] == ["resume", "window_closed"]
    assert fleet.journal.committed_by() == 6.2


def test_to_dict_is_serializable(base_program):
    fleet = Fleet(base_program)
    fleet.open(5.0)
    fleet.at(5.2, CRASH)
    fleet.at(6.2, RESTART)
    fleet.run(7.0)
    assert fleet.journal.to_dict() == [
        {
            "txn": 0,
            "device": "sw1",
            "old_version": 1,
            "new_version": 2,
            "started_at": 5.0,
            "window_end": 5.5,
            "state": "committed",
            "resolved_at": 6.2,
            "resolution": "resume",
            "delta_id": None,
        }
    ]

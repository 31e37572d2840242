"""Recovery mechanisms for runtime reconfiguration (FlexFault).

Three cooperating pieces:

* :class:`RetryPolicy` — bounded retry with exponential backoff, shared
  by the P4Runtime control channel and the orchestrator's
  reconfiguration commands.
* :class:`RecoveryManager` — the orchestrator's ``crash`` and
  ``restart`` actions consult it: on restart it reads the write-ahead
  journal (:mod:`repro.faults.journal`) and resolves any interrupted
  transition by **resume** (finish the cut-over to the new version) or
  **rollback** (retire the staged version), so a device never stays
  stranded in a mixed old/new state.
* :class:`HealthMonitor` — periodic liveness probing; devices that miss
  ``failure_threshold`` consecutive probes are quarantined (degraded
  mode) and a callback lets the controller detour traffic around them
  via :mod:`repro.control.topology`. Quarantine/release events feed the
  telemetry collector.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.faults.journal import ReconfigJournal
from repro.runtime.device import DeviceRuntime
from repro.simulator.engine import EventLoop


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a per-operation attempt budget."""

    max_attempts: int = 5
    base_backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 1.0

    def backoff_s(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (first retry is 1)."""
        return min(
            self.base_backoff_s * self.multiplier ** max(attempt - 1, 0),
            self.max_backoff_s,
        )

    def total_backoff_s(self) -> float:
        """Worst-case time spent backing off before giving up."""
        return sum(self.backoff_s(attempt) for attempt in range(1, self.max_attempts))


@dataclass(frozen=True)
class DegradedEvent:
    """One degraded-mode transition the recovery layer observed."""

    time: float
    kind: str  # crash | restart | resume | rollback | quarantine | release
    device: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "time": round(self.time, 6),
            "kind": self.kind,
            "device": self.device,
            "detail": self.detail,
        }


class RecoveryManager:
    """Crash/restart handling driven by the write-ahead journal."""

    def __init__(
        self,
        loop: EventLoop,
        devices: dict[str, DeviceRuntime],
        journal: ReconfigJournal,
        policy: RetryPolicy | None = None,
        telemetry=None,
        resume: bool = True,
    ):
        self._loop = loop
        self._devices = devices
        self.journal = journal
        self.policy = policy or RetryPolicy()
        self._telemetry = telemetry
        #: resume-on-restart (finish the new version) vs rollback-to-old.
        self.resume = resume
        self.events: list[DegradedEvent] = []
        self.resumed: int = 0
        self.rolled_back: int = 0

    def _record(self, kind: str, device: str, detail: str = "") -> None:
        event = DegradedEvent(time=self._loop.now, kind=kind, device=device, detail=detail)
        self.events.append(event)
        if self._telemetry is not None:
            self._telemetry.ingest_event(kind, device, self._loop.now, detail)

    # -- crash lifecycle -----------------------------------------------------

    def on_crash(self, device_name: str) -> None:
        pending = self.journal.pending_for(device_name)
        detail = f"mid-delta txn {pending.txn_id}" if pending is not None else "idle"
        self._record("crash", device_name, detail)

    def on_restart(self, device_name: str) -> tuple[str, int | None]:
        """Resolve any interrupted transition from the journal. Returns
        the outcome ("resume", "rollback" or a clean "restart") and the
        transaction it resolved, for the restart's log entry."""
        device = self._devices[device_name]
        if not device.stranded:
            # Crash outside a window (or before the window opened): the
            # journal entry, if any, is still actionable by the pending
            # start command's retry loop; just note the restart.
            self._record("restart", device_name, "clean")
            return "restart", None
        entry = self.journal.pending_for(device_name)
        device.resolve_interrupted(to_new=self.resume)
        if self.resume:
            outcome = "resume"
            self.resumed += 1
            self._record(outcome, device_name, f"converged to v{device.active_program.version}")
        else:
            outcome = "rollback"
            self.rolled_back += 1
            self._record(outcome, device_name, f"back to v{device.active_program.version}")
        return outcome, None if entry is None else entry.txn_id


class HealthMonitor:
    """Periodic liveness probes with quarantine and detour hand-off."""

    def __init__(
        self,
        loop: EventLoop,
        devices: dict[str, DeviceRuntime],
        probe_interval_s: float = 0.1,
        failure_threshold: int = 3,
        telemetry=None,
        on_quarantine: Callable[[str], None] | None = None,
        on_release: Callable[[str], None] | None = None,
    ):
        self._loop = loop
        self._devices = devices
        self.probe_interval_s = probe_interval_s
        self.failure_threshold = failure_threshold
        self._telemetry = telemetry
        self.on_quarantine = on_quarantine
        self.on_release = on_release
        self.quarantined: set[str] = set()
        self._misses: dict[str, int] = {}
        self.events: list[DegradedEvent] = []
        self._stopped = False
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._loop.schedule(self.probe_interval_s, self._probe)

    def stop(self) -> None:
        self._stopped = True

    def _record(self, kind: str, device: str, detail: str = "") -> None:
        event = DegradedEvent(time=self._loop.now, kind=kind, device=device, detail=detail)
        self.events.append(event)
        if self._telemetry is not None:
            self._telemetry.ingest_event(kind, device, self._loop.now, detail)

    def _probe(self) -> None:
        if self._stopped:
            return
        now = self._loop.now
        for name, device in self._devices.items():
            if device.available(now):
                self._misses[name] = 0
                if name in self.quarantined:
                    self.quarantined.discard(name)
                    self._record("release", name)
                    if self.on_release is not None:
                        self.on_release(name)
                continue
            self._misses[name] = self._misses.get(name, 0) + 1
            if self._misses[name] >= self.failure_threshold and name not in self.quarantined:
                self.quarantined.add(name)
                self._record(
                    "quarantine", name, f"{self._misses[name]} consecutive probe misses"
                )
                if self.on_quarantine is not None:
                    self.on_quarantine(name)
        self._loop.schedule(self.probe_interval_s, self._probe)

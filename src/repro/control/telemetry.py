"""Network telemetry collection for real-time control (§1, §3.4).

The controller needs "a global view of ... traffic patterns" to make
real-time decisions (summon defenses, scale apps). Telemetry has two
feeds:

* **digests** — data plane programs push ``emit_digest`` records toward
  the controller (per-packet or sampled); the collector bins them into
  sliding-window rates keyed by the digest's first value (by convention
  the victim/afflicted address).
* **device stats** — periodic pulls of per-device counters through
  P4Runtime.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.simulator.packet import Packet


class DigestRecord(NamedTuple):
    time: float
    program: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class HealthEvent:
    """A degraded-mode control event (crash, restart, quarantine, ...)
    fed by FlexFault's recovery layer."""

    time: float
    kind: str
    device: str
    detail: str = ""


class TelemetryCollector:
    """Sliding-window digest aggregation.

    Memory is bounded on the *ingest* path: records older than the
    window are evicted as new ones arrive (not only when a read method
    happens to run), and ``max_records`` hard-caps the buffer for
    bursts that out-pace the window. ``total_digests`` counts every
    digest ever ingested regardless of eviction.
    """

    def __init__(self, window_s: float = 0.5, max_records: int = 100_000):
        self.window_s = window_s
        self.max_records = max_records
        self._digests: deque[DigestRecord] = deque()
        self.total_digests = 0
        #: degraded-mode events (bounded like the digest buffer).
        self.events: deque[HealthEvent] = deque(maxlen=4096)
        self.total_events = 0
        #: FlexScope: set by :meth:`repro.observe.Observer.enable`;
        #: degraded-mode events are mirrored into the tracer's global
        #: event feed (``flexnet trace --events``). The per-packet digest
        #: path never touches this.
        self.observer = None

    def ingest_packet(self, packet: Packet, now: float) -> None:
        """Ingest every digest ``packet`` carries, stamped ``now``: the
        same buffer and count as one :meth:`ingest` per digest, with one
        eviction and one cap for the lot."""
        digests = packet.digests
        if digests:
            self._digests.extend(
                [DigestRecord(now, program, values) for program, values in digests]
            )
            self.total_digests += len(digests)
            self._bound(now)

    def ingest(self, record: DigestRecord) -> None:
        self._digests.append(record)
        self.total_digests += 1
        self._bound(record.time)

    def _bound(self, now: float) -> None:
        # Evict on ingest so a collector that is never queried cannot
        # grow without bound; digest times are monotone in practice
        # (they come from the event loop's clock).
        self._evict(now)
        while len(self._digests) > self.max_records:
            self._digests.popleft()

    def ingest_event(self, kind: str, device: str, now: float, detail: str = "") -> None:
        """Record a degraded-mode event (FlexFault recovery feed)."""
        self.events.append(HealthEvent(time=now, kind=kind, device=device, detail=detail))
        self.total_events += 1
        # Surface the record (the pre-FlexScope collector buffered these
        # and nothing ever read them back out).
        observer = self.observer
        if observer is not None:
            observer.tracer.event(kind, now, device=device, detail=detail)

    def _evict(self, now: float) -> None:
        horizon = now - self.window_s
        while self._digests and self._digests[0].time < horizon:
            self._digests.popleft()

    def rate_by_key(self, now: float) -> dict[int, float]:
        """Digests/second in the window, grouped by first digest value."""
        self._evict(now)
        counts: dict[int, int] = defaultdict(int)
        for record in self._digests:
            if record.values:
                counts[record.values[0]] += 1
        return {key: count / self.window_s for key, count in counts.items()}

    def hottest_key(self, now: float) -> tuple[int, float] | None:
        rates = self.rate_by_key(now)
        if not rates:
            return None
        key = max(rates, key=lambda k: rates[k])
        return key, rates[key]

    def total_rate(self, now: float) -> float:
        self._evict(now)
        return len(self._digests) / self.window_s

"""Measurement collection for simulation runs."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.simulator.packet import Packet, Verdict

# Read once per packet; a module constant skips the enum metaclass.
_FORWARD = Verdict.FORWARD
_DROP = Verdict.DROP


@dataclass
class LatencyStats:
    """Streaming latency statistics (seconds).

    Count, total, min, max, and mean are exact regardless of run length.
    Percentiles come from a bounded reservoir (Vitter's algorithm R)
    seeded deterministically, so memory stays O(``reservoir_size``) on
    multi-million-packet runs and repeated runs reproduce the same
    percentile estimates. Below the cap the reservoir holds every sample
    and percentiles are exact.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = 0.0
    reservoir_size: int = 4096
    seed: int = 2024
    samples: list[float] = field(default_factory=list)
    _rng: random.Random = field(init=False, repr=False, compare=False)
    _sorted: list[float] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        # What min() / max() would keep, NaN and -0.0 included: the
        # stored bound unless ``value`` is strictly beyond it.
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self.samples) < self.reservoir_size:
            self.samples.append(value)
            self._sorted = None
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir_size:
                self.samples[slot] = value
                self._sorted = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        if not self.samples:
            return 0.0
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self.samples)
        index = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def merge(self, *others: "LatencyStats") -> "LatencyStats":
        """Combine per-shard reservoirs into one deterministic result.

        Exact aggregates (count, total, min, max — and therefore mean)
        add losslessly. The merged reservoir is the *sorted* union of
        every input's samples, so the result is independent of both
        merge order and the interleaving the shards ran under. While the
        combined sample count fits the reservoir every sample is kept —
        percentiles are then exactly what a single-process run over the
        union stream would report. Beyond the cap the sorted union is
        downsampled at evenly spaced ranks (deterministic, and a better
        percentile sketch than random subsampling); merge all shards in
        one call rather than pairwise chaining so the downsample happens
        once over the full union.
        """
        merged = LatencyStats(reservoir_size=self.reservoir_size, seed=self.seed)
        parts = (self, *others)
        merged.count = sum(part.count for part in parts)
        merged.total = sum(part.total for part in parts)
        merged.minimum = min(part.minimum for part in parts)
        merged.maximum = max(part.maximum for part in parts)
        union = sorted(sample for part in parts for sample in part.samples)
        if len(union) <= merged.reservoir_size:
            merged.samples = union
        else:
            cap = merged.reservoir_size
            step = (len(union) - 1) / (cap - 1)
            merged.samples = [union[round(index * step)] for index in range(cap)]
        merged._sorted = list(merged.samples)
        return merged


@dataclass
class RunMetrics:
    """Aggregate outcome of one simulation run."""

    sent: int = 0
    delivered: int = 0
    dropped_by_program: int = 0
    lost_by_infrastructure: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    #: packets that saw a *mixed* program version along one device —
    #: impossible under correct per-packet consistency; any nonzero
    #: value is a consistency violation.
    version_mixtures: int = 0
    #: packet counts per (device, program version) pair.
    version_counts: dict[tuple[str, int], int] = field(default_factory=dict)

    def record_sent(self, count: int = 1) -> None:
        self.sent += count

    def record_outcome(self, packet: Packet) -> None:
        verdict = packet.verdict
        if verdict is _FORWARD:
            self.delivered += 1
            delivered_at = packet.delivered_at
            if delivered_at is not None:
                self.latency.record(delivered_at - packet.created_at)
        elif verdict is _DROP:
            self.dropped_by_program += 1
        else:
            self.lost_by_infrastructure += 1
        counts = self.version_counts
        for pair in packet.versions_seen.items():
            counts[pair] = counts.get(pair, 0) + 1

    @property
    def loss_rate(self) -> float:
        return self.lost_by_infrastructure / self.sent if self.sent else 0.0

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0

    def merge(self, *others: "RunMetrics") -> "RunMetrics":
        """Combine per-shard run metrics into one aggregate.

        Every device lives on exactly one shard and every packet
        finishes on exactly one shard, so plain sums are lossless; the
        latency reservoirs combine through
        :meth:`LatencyStats.merge`. Deterministic given deterministic
        inputs — the FlexScale coordinator calls this once, with every
        shard's metrics, after the workers drain.
        """
        parts = (self, *others)
        merged = RunMetrics(
            sent=sum(part.sent for part in parts),
            delivered=sum(part.delivered for part in parts),
            dropped_by_program=sum(part.dropped_by_program for part in parts),
            lost_by_infrastructure=sum(part.lost_by_infrastructure for part in parts),
            latency=self.latency.merge(*(part.latency for part in others)),
            version_mixtures=sum(part.version_mixtures for part in parts),
        )
        for part in parts:
            for key, count in part.version_counts.items():
                merged.version_counts[key] = merged.version_counts.get(key, 0) + count
        return merged

    def versions_on(self, device: str) -> dict[int, int]:
        return {
            version: count
            for (dev, version), count in self.version_counts.items()
            if dev == device
        }

    # -- Reportable protocol (FlexScope) ------------------------------------

    def summary(self) -> str:
        lines = [
            f"sent {self.sent}, delivered {self.delivered} "
            f"({self.delivery_rate * 100:.2f}%), "
            f"program drops {self.dropped_by_program}, "
            f"infrastructure loss {self.lost_by_infrastructure}"
        ]
        if self.latency.count:
            lines.append(
                f"latency: mean {self.latency.mean * 1e6:.2f} us, "
                f"p50 {self.latency.percentile(0.50) * 1e6:.2f} us, "
                f"p99 {self.latency.percentile(0.99) * 1e6:.2f} us"
            )
        if self.version_mixtures:
            lines.append(f"version mixtures: {self.version_mixtures} (VIOLATION)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        data: dict = {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_by_program": self.dropped_by_program,
            "lost_by_infrastructure": self.lost_by_infrastructure,
            "delivery_rate": round(self.delivery_rate, 9),
            "loss_rate": round(self.loss_rate, 9),
            "version_mixtures": self.version_mixtures,
            "version_counts": {
                f"{device}@v{version}": count
                for (device, version), count in sorted(self.version_counts.items())
            },
        }
        if self.latency.count:
            data["latency"] = {
                "count": self.latency.count,
                "mean_s": round(self.latency.mean, 9),
                "min_s": round(self.latency.minimum, 9),
                "max_s": round(self.latency.maximum, 9),
                "p50_s": round(self.latency.percentile(0.50), 9),
                "p99_s": round(self.latency.percentile(0.99), 9),
            }
        return data

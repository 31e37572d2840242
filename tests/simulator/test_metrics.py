"""LatencyStats / RunMetrics aggregation tests (FlexScale merging).

The merge contract: exact aggregates add losslessly, the merged
reservoir is the sorted union of the inputs (exact percentiles while the
union fits the cap, deterministic rank-downsample beyond it), and the
result is independent of shard interleaving. The seeded cases pin the
exact percentile values so any change to the merge math is visible.
"""

from __future__ import annotations

import math
import random

from repro.simulator.metrics import LatencyStats, RunMetrics
from repro.simulator.packet import Verdict, make_packet


def _stats(values, seed=2024, reservoir_size=4096):
    stats = LatencyStats(seed=seed, reservoir_size=reservoir_size)
    for value in values:
        stats.record(value)
    return stats


class TestLatencyStatsRecord:
    def test_bounds_are_what_min_and_max_keep(self):
        """The running bounds equal a fold of the ``min`` / ``max``
        builtins, bit for bit: NaN never replaces a bound it meets
        second, and the first of 0.0 / -0.0 stays."""
        nan = float("nan")
        for values in (
            [0.0, -0.0, 1.0],
            [-0.0, 0.0],
            [nan, 2.0, 1.0],
            [2.0, nan, 3.0],
            [0.5, 0.25, 0.75],
            [],
        ):
            stats, minimum, maximum = _stats(values), math.inf, 0.0
            for value in values:
                minimum, maximum = min(minimum, value), max(maximum, value)
            assert repr(stats.minimum) == repr(minimum), values
            assert repr(stats.maximum) == repr(maximum), values

    def test_a_delivered_packet_records_its_latency(self):
        metrics = RunMetrics()
        packet = make_packet(1, 2, created_at=0.25)
        packet.delivered_at = 1.0
        metrics.record_outcome(packet)
        metrics.record_outcome(make_packet(1, 2))  # forwarded, never delivered
        assert metrics.delivered == 2
        assert metrics.latency.count == 1 and metrics.latency.total == 0.75


class TestLatencyStatsMerge:
    def test_exact_aggregates_add(self):
        merged = _stats([1.0, 3.0]).merge(_stats([2.0]), _stats([5.0, 0.5]))
        assert merged.count == 5
        assert merged.total == 11.5
        assert merged.minimum == 0.5
        assert merged.maximum == 5.0
        assert merged.mean == 2.3

    def test_below_cap_percentiles_match_single_stream(self):
        rng = random.Random(7)
        values = [rng.uniform(1e-6, 1e-3) for _ in range(900)]
        single = _stats(values)
        parts = [_stats(values[i::3], seed=100 + i) for i in range(3)]
        merged = parts[0].merge(*parts[1:])
        for fraction in (0.5, 0.9, 0.99):
            assert merged.percentile(fraction) == single.percentile(fraction)

    def test_merge_is_order_independent(self):
        parts = [
            _stats([float(i) for i in range(start, start + 50)], seed=start)
            for start in (0, 50, 100)
        ]
        forward = parts[0].merge(parts[1], parts[2])
        backward = parts[2].merge(parts[1], parts[0])
        assert forward.samples == backward.samples
        assert forward.percentile(0.99) == backward.percentile(0.99)

    def test_seeded_pinned_percentiles(self):
        # Pinned values: 3 shards x 100 evenly spaced samples in
        # [0, 300) merge to the identity sequence, so percentiles are
        # the rank values themselves.
        parts = [
            _stats([float(v) for v in range(start, 300, 3)], seed=start)
            for start in (0, 1, 2)
        ]
        merged = parts[0].merge(*parts[1:])
        assert merged.count == 300
        assert merged.percentile(0.50) == 150.0
        assert merged.percentile(0.99) == 297.0
        assert merged.percentile(1.0) == 299.0

    def test_beyond_cap_downsample_is_deterministic_and_ranked(self):
        # Each part is below its own cap (every sample retained) but the
        # union exceeds the merged cap, so exactly the merge-time
        # rank-downsample runs: evenly spaced ranks over the sorted
        # union, endpoints included.
        values = [float(v) for v in range(400)]
        parts = [_stats(values[i::2], reservoir_size=256) for i in range(2)]
        merged = parts[0].merge(parts[1])
        again = parts[0].merge(parts[1])
        assert merged.samples == again.samples
        assert len(merged.samples) == 256
        assert merged.samples == sorted(merged.samples)
        assert merged.samples[0] == 0.0
        assert merged.samples[-1] == 399.0
        # Evenly spaced ranks: the sketch median sits at the true one.
        assert abs(merged.percentile(0.5) - 200.0) <= 2.0


def _delivered(latency_s: float, device: str = "sw", version: int = 1):
    packet = make_packet(1, 2, created_at=0.0)
    packet.delivered_at = latency_s
    packet.versions_seen[device] = version
    return packet


class TestRunMetricsMerge:
    def _part(self, latencies, device="sw", version=1, seed=2024):
        metrics = RunMetrics(latency=LatencyStats(seed=seed))
        for latency in latencies:
            metrics.record_sent()
            metrics.record_outcome(_delivered(latency, device, version))
        return metrics

    def test_counts_and_version_counts_add(self):
        first = self._part([1e-4, 2e-4], device="s0")
        second = self._part([3e-4], device="s1", seed=9)
        dropped = make_packet(1, 2)
        dropped.verdict = Verdict.DROP
        second.record_sent()
        second.record_outcome(dropped)
        merged = first.merge(second)
        assert merged.sent == 4
        assert merged.delivered == 3
        assert merged.dropped_by_program == 1
        assert merged.version_counts == {("s0", 1): 2, ("s1", 1): 1}
        assert merged.latency.count == 3
        assert merged.latency.maximum == 3e-4

    def test_merged_to_dict_matches_single_stream(self):
        latencies = [i * 1e-5 + 1e-6 for i in range(200)]
        single = self._part(latencies)
        merged = self._part(latencies[0::2]).merge(
            self._part(latencies[1::2], seed=31)
        )
        assert merged.to_dict() == single.to_dict()

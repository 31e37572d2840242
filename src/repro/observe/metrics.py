"""FlexScope metrics: a labelled counter/gauge/histogram registry.

Prometheus-shaped but dependency-free: a :class:`MetricsRegistry` holds
metric *families* (one per name), each family holds one series per
label set. Exporters render deterministically — families sorted by
name, series sorted by their label items — so two seeded runs of the
same scenario export byte-identical text, which is what makes metric
snapshots regression-testable.

Hot paths never push here. Fast-moving sources (device stats, the
P4Runtime channel, telemetry) already keep their own cheap counters;
the registry *pulls* them through registered collector callbacks at
export time. Control-path sources (the scheduler, the recovery
manager, transitions) push directly — they run a handful of times per
scenario.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets (seconds) sized for transition windows and
#: control-plane latencies.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - labels only
        return str(int(value))
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass
class Counter:
    """Monotonically increasing value."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        """Collectors mirror an externally-kept monotone total."""
        self.value = value


@dataclass
class Gauge:
    """A value that can go up and down."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +inf bucket

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        running = 0
        out = []
        for count in self.counts:
            running += count
            out.append(running)
        return out


@dataclass
class _Family:
    name: str
    kind: str  # counter | gauge | histogram
    help: str
    series: dict[LabelKey, object] = field(default_factory=dict)


class MetricsRegistry:
    """Labelled metric families with deterministic exporters."""

    def __init__(self):
        self._families: dict[str, _Family] = {}
        self._collectors: list = []

    # -- creation (get-or-create per name+labels) ---------------------------

    def _series(self, name: str, kind: str, help_text: str, labels: dict, factory):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name=name, kind=kind, help=help_text)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        key = _label_key(labels)
        series = family.series.get(key)
        if series is None:
            series = family.series[key] = factory()
        return series

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._series(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._series(name, "gauge", help, labels, Gauge)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._series(
            name, "histogram", help, labels, lambda: Histogram(buckets=buckets)
        )

    # -- collectors ---------------------------------------------------------

    def register_collector(self, collector) -> None:
        """``collector(registry)`` runs at every export to mirror
        externally-kept counters (device stats, cache stats, channel
        stats) into the registry."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    def detach_collectors(self) -> None:
        """Drop every registered collector, freezing the registry at its
        current values. A FlexScale shard collects once, detaches, and
        ships the frozen registry to the coordinator — collectors close
        over live worker-process objects and must not cross the process
        boundary."""
        self._collectors.clear()

    def clear(self) -> None:
        self._families.clear()

    # -- merging (FlexScale coordinator) ------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's series into this one, in place.

        Counters and gauges add; histograms add bucket-wise (bucket
        bounds must agree). Series present only in ``other`` are copied
        over. Merging is value-based and commutative, so folding every
        shard's frozen snapshot into one fleet registry yields the same
        deterministic export regardless of worker completion order —
        which is what keeps ``flexnet metrics`` byte-identical across
        same-seed sharded runs. Returns ``self`` for chaining.
        """
        for name in sorted(other._families):
            theirs = other._families[name]
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(
                    name=name, kind=theirs.kind, help=theirs.help
                )
            elif family.kind != theirs.kind:
                raise ValueError(
                    f"cannot merge metric {name!r}: {family.kind} vs {theirs.kind}"
                )
            for key in sorted(theirs.series):
                series = theirs.series[key]
                mine = family.series.get(key)
                if mine is None:
                    if theirs.kind == "histogram":
                        mine = family.series[key] = Histogram(buckets=series.buckets)
                    else:
                        mine = family.series[key] = (
                            Counter() if theirs.kind == "counter" else Gauge()
                        )
                if theirs.kind == "histogram":
                    if mine.buckets != series.buckets:
                        raise ValueError(
                            f"cannot merge histogram {name!r}: bucket bounds differ"
                        )
                    mine.total += series.total
                    mine.count += series.count
                    for index, count in enumerate(series.counts):
                        mine.counts[index] += count
                else:
                    mine.value += series.value
        return self

    # -- export -------------------------------------------------------------

    @staticmethod
    def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
        items = key + extra
        if not items:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in items)
        return "{" + inner + "}"

    def to_prometheus(self) -> str:
        """Deterministic Prometheus text exposition."""
        self.collect()
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.series):
                series = family.series[key]
                if family.kind == "histogram":
                    cumulative = series.cumulative()
                    for bound, count in zip(series.buckets, cumulative):
                        labels = self._render_labels(key, (("le", _format_value(bound)),))
                        lines.append(f"{name}_bucket{labels} {count}")
                    labels = self._render_labels(key, (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{labels} {cumulative[-1]}")
                    lines.append(
                        f"{name}_sum{self._render_labels(key)} {_format_value(series.total)}"
                    )
                    lines.append(f"{name}_count{self._render_labels(key)} {series.count}")
                else:
                    lines.append(
                        f"{name}{self._render_labels(key)} {_format_value(series.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """Deterministic JSON-shaped export."""
        self.collect()
        out: dict = {}
        for name in sorted(self._families):
            family = self._families[name]
            series_list = []
            for key in sorted(family.series):
                series = family.series[key]
                entry: dict = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["count"] = series.count
                    entry["sum"] = round(series.total, 9)
                    entry["buckets"] = {
                        _format_value(bound): count
                        for bound, count in zip(series.buckets, series.cumulative())
                    }
                else:
                    value = series.value
                    entry["value"] = (
                        int(value) if float(value).is_integer() else round(value, 9)
                    )
                series_list.append(entry)
            out[name] = {"type": family.kind, "series": series_list}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def export_device_counters(registry: MetricsRegistry, name: str, device) -> None:
    """Mirror one device's packet counters into ``registry`` — the
    block the single-process Observer and every FlexScale shard both
    export, so merged fleet output is indistinguishable from a
    single-process scrape."""
    stats = device.stats
    for version in sorted(stats.per_version):
        registry.counter(
            "flexnet_device_packets_total",
            help="packets processed per device and program version",
            device=name,
            version=version,
        ).set(stats.per_version[version])
    registry.counter("flexnet_device_dropped_total", device=name).set(
        stats.dropped_by_program
    )
    registry.counter("flexnet_device_ops_total", device=name).set(stats.total_ops)
    registry.counter("flexnet_device_queue_drops_total", device=name).set(
        stats.queue_drops
    )

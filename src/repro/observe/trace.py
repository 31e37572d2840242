"""FlexScope structured tracing: hierarchical spans over sim time.

A :class:`Span` is one timed region of the system's life — a runtime
update, one device's transition window, an in-band migration, or the
execution of one sampled packet. Spans carry an
explicit ``parent_id`` so the full tree can be reconstructed offline,
and every timestamp is the event loop's monotonic *virtual* clock, so
two seeded runs of the same scenario produce byte-identical trees.

The :class:`Tracer` keeps finished-and-open spans in a bounded ring
(oldest spans fall off first) plus a global event feed (fault
injections, journal commits/rollbacks, health transitions). An optional
JSONL sink mirrors every closed span to a file for offline tooling.

Packet-level traces are collected out-of-band by the interpreter into a
:class:`PacketTrace` (a plain frame list, no tracer coupling) and
folded into a span by the device runtime — see
:meth:`repro.runtime.device.DeviceRuntime.process`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field


@dataclass
class SpanEvent:
    """A point-in-time annotation, attached to a span or to the global feed."""

    time: float
    name: str
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {"time": round(self.time, 9), "name": self.name}
        if self.attrs:
            data["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return data


@dataclass
class Span:
    """One timed region; ``parent_id`` links it into the trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    status: str = "ok"

    @property
    def duration_s(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def add_event(self, name: str, time: float, **attrs) -> SpanEvent:
        event = SpanEvent(time=time, name=name, attrs=attrs)
        self.events.append(event)
        return event

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start, 9),
            "end": None if self.end is None else round(self.end, 9),
            "status": self.status,
            "attrs": {k: self.attrs[k] for k in sorted(self.attrs)},
            "events": [e.to_dict() for e in self.events],
        }


class Tracer:
    """Bounded in-memory span ring + global event feed; see module doc."""

    def __init__(self, capacity: int = 65536, sink=None):
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self.events: deque[SpanEvent] = deque(maxlen=capacity)
        self._next_id = 1
        self._stack: list[Span] = []
        #: file-like object (or None); closed spans are mirrored as JSONL.
        self.sink = sink
        self.total_spans = 0
        self.total_events = 0

    # -- span lifecycle -----------------------------------------------------

    def start_span(
        self,
        name: str,
        kind: str,
        now: float,
        parent: Span | int | None = None,
        **attrs,
    ) -> Span:
        if parent is None and self._stack:
            parent_id = self._stack[-1].span_id
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            parent_id = parent
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=now,
            attrs=attrs,
        )
        self._next_id += 1
        self.total_spans += 1
        self._spans.append(span)
        return span

    def end_span(self, span: Span, now: float, status: str = "ok", **attrs) -> Span:
        span.end = now
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        if self.sink is not None:
            self.sink.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return span

    class _SpanContext:
        def __init__(self, tracer: "Tracer", span: Span, end_time):
            self._tracer = tracer
            self._span = span
            self._end_time = end_time

        def __enter__(self) -> Span:
            self._tracer._stack.append(self._span)
            return self._span

        def __exit__(self, exc_type, exc, tb) -> None:
            self._tracer._stack.pop()
            end = self._end_time() if callable(self._end_time) else self._end_time
            self._tracer.end_span(
                self._span, end, status="error" if exc_type else "ok"
            )

    def span(self, name: str, kind: str, now, end_time=None, **attrs):
        """Context manager for synchronous control-path regions. ``now``
        and ``end_time`` may be callables (e.g. ``lambda: loop.now``) so
        control-path work that advances virtual time is timed correctly;
        ``end_time`` defaults to ``now``."""
        start = now() if callable(now) else now
        span = self.start_span(name, kind, start, **attrs)
        return Tracer._SpanContext(self, span, end_time if end_time is not None else now)

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- global event feed --------------------------------------------------

    def event(self, name: str, now: float, span: Span | None = None, **attrs) -> SpanEvent:
        """Record a point event; attached to ``span`` when given, and
        always appended to the global feed (what ``flexnet trace
        --events`` renders)."""
        if span is not None:
            span.add_event(name, now, **attrs)
        event = SpanEvent(time=now, name=name, attrs=attrs)
        self.events.append(event)
        self.total_events += 1
        return event

    # -- introspection ------------------------------------------------------

    def spans(self, kind: str | None = None) -> list[Span]:
        if kind is None:
            return list(self._spans)
        return [s for s in self._spans if s.kind == kind]

    def find(self, span_id: int) -> Span | None:
        for span in self._spans:
            if span.span_id == span_id:
                return span
        return None

    def clear(self) -> None:
        self._spans.clear()
        self.events.clear()
        self._stack.clear()

    def to_dict(self) -> dict:
        """Machine-readable form of the whole ring, ordered by span id
        (deterministic for seeded runs)."""
        return {
            "spans": [s.to_dict() for s in sorted(self._spans, key=lambda s: s.span_id)],
            "events": [e.to_dict() for e in self.events],
        }

    def render_tree(self) -> str:
        """Human-readable indentation tree (what ``flexnet trace`` prints)."""
        spans = sorted(self._spans, key=lambda s: s.span_id)
        ids = {s.span_id for s in spans}
        children: dict[int | None, list[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in ids else None
            children.setdefault(parent, []).append(span)
        lines: list[str] = []

        def emit(span: Span, depth: int) -> None:
            end = "…" if span.end is None else f"{span.end:.6f}"
            attrs = " ".join(f"{k}={span.attrs[k]}" for k in sorted(span.attrs))
            lines.append(
                f"{'  ' * depth}[{span.kind}] {span.name} "
                f"t={span.start:.6f}..{end}"
                + (f" {attrs}" if attrs else "")
                + ("" if span.status == "ok" else f" status={span.status}")
            )
            for event in span.events:
                event_attrs = " ".join(
                    f"{k}={event.attrs[k]}" for k in sorted(event.attrs)
                )
                lines.append(
                    f"{'  ' * (depth + 1)}* {event.name} t={event.time:.6f}"
                    + (f" {event_attrs}" if event_attrs else "")
                )
            for child in children.get(span.span_id, []):
                emit(child, depth + 1)

        for root in children.get(None, []):
            emit(root, 0)
        return "\n".join(lines)


def render_span_tree(spans: list[dict]) -> str:
    """Render serialized spans (``Span.to_dict`` form) as an indentation
    tree — the same layout as :meth:`Tracer.render_tree`, for offline
    dumps such as ``ChaosReport.spans``."""
    ordered = sorted(spans, key=lambda s: s["span_id"])
    ids = {s["span_id"] for s in ordered}
    children: dict[int | None, list[dict]] = {}
    for span in ordered:
        parent = span["parent_id"] if span["parent_id"] in ids else None
        children.setdefault(parent, []).append(span)
    lines: list[str] = []

    def emit(span: dict, depth: int) -> None:
        end = "…" if span["end"] is None else f"{span['end']:.6f}"
        attrs = " ".join(f"{k}={span['attrs'][k]}" for k in sorted(span["attrs"]))
        lines.append(
            f"{'  ' * depth}[{span['kind']}] {span['name']} "
            f"t={span['start']:.6f}..{end}"
            + (f" {attrs}" if attrs else "")
            + ("" if span["status"] == "ok" else f" status={span['status']}")
        )
        for event in span["events"]:
            event_attrs = event.get("attrs", {})
            rendered = " ".join(
                f"{k}={event_attrs[k]}" for k in sorted(event_attrs)
            )
            lines.append(
                f"{'  ' * (depth + 1)}* {event['name']} t={event['time']:.6f}"
                + (f" {rendered}" if rendered else "")
            )
        for child in children.get(span["span_id"], []):
            emit(child, depth + 1)

    for root in children.get(None, []):
        emit(root, 0)
    return "\n".join(lines)


class PacketTrace:
    """Frame collector for one sampled packet's data-plane execution.

    The interpreter appends plain tuples (no tracer coupling — the hot
    path must not know about spans); the device runtime folds the frames
    into span events afterwards. Frame shapes:

    * ``("parse", (headers...))`` — one per parse pass
    * ``("table", name, hit, action_or_None)``
    * ``("function", name)``
    * ``("drop",)`` — ``mark_drop`` executed
    * ``("recirculate", n)`` — n-th recirculation beginning
    * ``("digest", program, values)``
    """

    __slots__ = ("frames",)

    def __init__(self):
        self.frames: list[tuple] = []

    def parse(self, headers: tuple[str, ...]) -> None:
        self.frames.append(("parse", headers))

    def table(self, name: str, hit: bool, action: str | None) -> None:
        self.frames.append(("table", name, hit, action))

    def function(self, name: str) -> None:
        self.frames.append(("function", name))

    def drop(self) -> None:
        self.frames.append(("drop",))

    def recirculate(self, n: int) -> None:
        self.frames.append(("recirculate", n))

    def digest(self, program: str, values: tuple[int, ...]) -> None:
        self.frames.append(("digest", program, values))

"""Span recorder and the class-attribute probes that feed it.

A span is ``(name, start_ns, end_ns, parent)``, kept in four parallel
arrays so a traced repeat of ~1M spans costs tens of MB, not hundreds.
Probes wrap a layer's *public* callable from outside ``src/``: the
target is resolved by dotted name when tracing starts, the wrapper is
set on the owning class (or module) before the net is built, and the
original is put back afterwards. A target that no longer exists is
reported as absent instead of raising, so the benchmark survives the
refactors it is meant to judge.
"""

from __future__ import annotations

import bisect
import functools
import importlib
from array import array
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass
class SpanTotal:
    """Aggregate of every span sharing one name."""

    count: int = 0
    total_ns: int = 0
    #: total minus the time covered by child spans.
    self_ns: int = 0


class Tracer:
    """In-memory span store with a current-span stack (single thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans (names and their ids are kept, because
        installed wrappers hold the ids)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current = -1

    def name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.current)
        self.end.append(0)
        self.current = index
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.current = self.parent[index]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as one span called ``name``."""
        name_id = self.name(name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return mark(traced)

    def first(self, name: str) -> int | None:
        """Index of the first span called ``name``."""
        try:
            return self.name_id.index(self._ids[name])
        except (KeyError, ValueError):
            return None

    def totals(self, root: int | None = None) -> dict[str, SpanTotal]:
        """Per-name count, inclusive time and self time, over every span
        or over ``root`` and its descendants. Every span's time is
        charged to exactly one name's self time, so the self times under
        a root span sum to that root's duration."""
        start, end, parent = self.start, self.end, self.parent
        first, last = 0, len(start)
        if root is not None:
            # Spans are appended in start order, so a span's descendants
            # are the block that starts before it ends.
            first, last = root, bisect.bisect_left(start, end[root], lo=root + 1)
        covered = [0] * (last - first)
        for index in range(first, last):
            above = parent[index]
            if above >= first:
                covered[above - first] += end[index] - start[index]
        out = {name: SpanTotal() for name in self.names}
        by_id = [out[name] for name in self.names]
        name_id = self.name_id
        for index in range(first, last):
            total = by_id[name_id[index]]
            duration = end[index] - start[index]
            total.count += 1
            total.total_ns += duration
            total.self_ns += duration - covered[index - first]
        return out

    def to_columns(self) -> dict:
        """The raw spans, columnar, for ``--spans PATH``."""
        return {
            "names": list(self.names),
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }


def mark(wrapper: Callable) -> Callable:
    """Tag a wrapper so :func:`installed_probes` can find leftovers."""
    wrapper.__perf_probe__ = True
    return wrapper


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``module:Owner.attr`` or ``module:attr``.

    A plain probe records each call as a span called ``span``; a probe
    with a ``factory`` builds its own wrapper (to pick the span name per
    call, or to wrap a callback argument) and lists in ``spans`` every
    name it can record, so that metrics built on them read ``null``
    when the target is gone.
    """

    target: str
    span: str = ""
    factory: Callable[[Tracer, Callable], Callable] | None = None
    spans: tuple[str, ...] = ()

    @property
    def span_names(self) -> tuple[str, ...]:
        return self.spans or (self.span,)


def _resolve(target: str) -> tuple[object, str, Callable]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


@contextmanager
def probing(tracer: Tracer, probes: list[Probe]) -> Iterator[list[str]]:
    """Install ``probes`` for the duration of the block; yields the
    targets that could not be resolved. Originals are restored even if
    the block raises, so later untraced repeats run unpatched."""
    installed: list[tuple[object, str, Callable]] = []
    absent: list[str] = []
    try:
        for probe in probes:
            try:
                owner, attr, original = _resolve(probe.target)
            except (ImportError, AttributeError, KeyError):
                absent.append(probe.target)
                continue
            if probe.factory is not None:
                wrapper = probe.factory(tracer, original)
            else:
                wrapper = tracer.wrap(original, probe.span)
            setattr(owner, attr, wrapper)
            installed.append((owner, attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def installed_probes(probes: list[Probe]) -> list[str]:
    """Targets that currently carry a wrapper (expected: none outside
    a :func:`probing` block)."""
    found = []
    for probe in probes:
        try:
            _, _, current = _resolve(probe.target)
        except (ImportError, AttributeError, KeyError):
            continue
        if getattr(current, "__perf_probe__", False):
            found.append(probe.target)
    return found

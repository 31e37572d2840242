"""Shared utilities for the experiment benchmarks.

Each benchmark module reproduces one experiment from DESIGN.md's index
(the paper has no numeric tables, so each experiment operationalizes
one of its quantitative/directional claims). Benchmarks print the rows
EXPERIMENTS.md records and assert the claim's *shape* (who wins, by
roughly what factor) — absolute numbers come from the simulator's cost
models, not the authors' testbed.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time

from repro.core.flexnet import FlexNet
from repro.apps.base import base_infrastructure

#: In addition to stdout (visible with ``pytest -s``), every table is
#: appended to this untracked file so a plain ``pytest benchmarks/
#: --benchmark-only`` run still leaves a local record.
TABLES_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench_tables.txt"
_session_started = False


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render one experiment table to stdout and to ``bench_tables.txt``."""
    global _session_started
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    rendered = [f"\n== {title} ==", line, "-" * len(line)]
    rendered += [
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)) for row in rows
    ]
    text = "\n".join(rendered)
    print(text)
    mode = "a" if _session_started else "w"
    _session_started = True
    with open(TABLES_PATH, mode, encoding="utf-8") as handle:
        handle.write(text + "\n")


def write_artifact(path: pathlib.Path, results: dict, measured: frozenset) -> None:
    """Write a tracked ``BENCH_e*.json``: ``results`` without its
    ``measured`` keys at any depth. Wall-clock and CPU rows go to the
    printed table only, so the tracked file moves when behaviour does
    and not on every run."""

    def keep(value):
        if isinstance(value, dict):
            return {k: keep(v) for k, v in value.items() if k not in measured}
        return value

    path.write_text(json.dumps(keep(results), indent=2) + "\n", encoding="utf-8")


@contextlib.contextmanager
def call_stats(owner, name: str):
    """Count and time every call to ``owner.name`` made inside the
    block: yields ``{"calls", "seconds"}`` (wall, inclusive), filled as
    the calls happen. For the printed tables only."""
    saved = vars(owner)[name]
    original = getattr(owner, name)
    stats = {"calls": 0, "seconds": 0.0}

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            stats["calls"] += 1
            stats["seconds"] += time.perf_counter() - start

    setattr(owner, name, timed)
    try:
        yield stats
    finally:
        setattr(owner, name, saved)


def standard_net(**infra_kwargs) -> FlexNet:
    """The canonical slice with the base program installed."""
    net = FlexNet.standard()
    net.install(base_infrastructure(**infra_kwargs))
    return net


def fmt(value: float, digits: int = 3) -> str:
    return f"{value:.{digits}g}"

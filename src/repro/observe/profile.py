"""FlexScope profiling: per-phase wall/sim accounting.

The profiler answers "where does a runtime change spend its time":
compile (placement, stage bin-packing), analysis, scheduling, and the
transition windows themselves. Control-plane phases are timed in *wall*
seconds (host time — useful locally, excluded from determinism-checked
exports); data-plane phases are charged in *virtual* seconds from the
event loop, which are deterministic.

Everything is guarded at the call site: a ``None`` profiler costs one
attribute check, so the disabled path stays zero-cost.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseStat:
    calls: int = 0
    wall_s: float = 0.0
    sim_s: float = 0.0

    @property
    def mean_wall_s(self) -> float:
        return self.wall_s / self.calls if self.calls else 0.0


@dataclass
class Profiler:
    phases: dict[str, PhaseStat] = field(default_factory=dict)

    def stat(self, name: str) -> PhaseStat:
        stat = self.phases.get(name)
        if stat is None:
            stat = self.phases[name] = PhaseStat()
        return stat

    @contextmanager
    def phase(self, name: str):
        """Time one control-plane phase in wall seconds."""
        start = time.perf_counter()
        try:
            yield
        finally:
            stat = self.stat(name)
            stat.calls += 1
            stat.wall_s += time.perf_counter() - start

    def add_sim(self, name: str, sim_s: float) -> None:
        """Charge virtual (event-loop) seconds to a phase."""
        stat = self.stat(name)
        stat.calls += 1
        stat.sim_s += sim_s

    def clear(self) -> None:
        self.phases.clear()

    def to_dict(self, include_wall: bool = True) -> dict:
        """Machine-readable snapshot. ``include_wall=False`` drops the
        host-time columns, leaving only deterministic fields."""
        out: dict = {}
        for name in sorted(self.phases):
            stat = self.phases[name]
            entry: dict = {"calls": stat.calls, "sim_s": round(stat.sim_s, 9)}
            if include_wall:
                entry["wall_s"] = round(stat.wall_s, 6)
            out[name] = entry
        return out

    def rows(self) -> list[list]:
        """Table rows for the ``flexnet profile`` CLI."""
        rows = []
        for name in sorted(self.phases):
            stat = self.phases[name]
            rows.append(
                [
                    name,
                    stat.calls,
                    f"{stat.wall_s * 1e3:.2f}",
                    f"{stat.mean_wall_s * 1e3:.3f}",
                    f"{stat.sim_s:.4f}",
                ]
            )
        return rows

    def render(self) -> str:
        headers = ["phase", "calls", "wall ms", "mean ms", "sim s"]
        rows = self.rows()
        widths = [
            max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
        lines.append("-" * len(lines[0]))
        lines.extend(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)) for row in rows
        )
        return "\n".join(lines)

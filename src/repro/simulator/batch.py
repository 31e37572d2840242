"""Batches for the flow memo, and the batched differential harness.

A :class:`PacketBatch` is what
:meth:`~repro.simulator.fastpath.FlowCache.process_batch` consumes:
packets plus their per-packet virtual arrival times.
:func:`batched_differential` is the merge gate for that entry — batched
execution must reproduce the interpreter's per-packet outcomes
*bit-exactly* at every batch size, for cacheable slices (memo replay)
and uncacheable ones (per-packet bypass) alike.
"""

from __future__ import annotations

import copy

from repro.errors import SimulationError
from repro.lang import ir
from repro.simulator.fastpath import DifferentialReport, FlowCache
from repro.simulator.packet import Packet
from repro.simulator.pipeline_exec import ProgramInstance


class PacketBatch:
    """Packets plus their per-packet virtual arrival times."""

    __slots__ = ("packets", "times")

    def __init__(self, packets, times=None, now: float = 0.0):
        self.packets: list[Packet] = list(packets)
        if times is None:
            self.times = [now] * len(self.packets)
        else:
            self.times = list(times)
            if len(self.times) != len(self.packets):
                raise SimulationError(
                    f"batch has {len(self.packets)} packet(s) but "
                    f"{len(self.times)} time(s)"
                )


def batched_differential(
    program: ir.Program,
    packets: list[Packet],
    hosted_elements: set[str] | None = None,
    setup=None,
    batch_size: int = 64,
    now_step: float = 1e-4,
    max_divergences: int = 20,
    mutate=None,
    cache: FlowCache | None = None,
) -> DifferentialReport:
    """Run the interpreter and the flow memo's batch entry side by side
    and report every observable difference (the same checks
    :func:`~repro.simulator.fastpath.differential_check` applies).
    ``mutate(reference, batched, batch_index)`` — when given — runs
    before each batch on both instances, which is how the flush tests
    attach a meter or mutate rules mid-run; ``cache`` lets a caller read
    the memo's stats afterwards."""
    if batch_size <= 0:
        raise SimulationError("batch size must be positive")
    if cache is None:
        cache = FlowCache()
    reference = ProgramInstance(program, hosted_elements)
    batched = ProgramInstance(program, hosted_elements, fastpath=True)
    if setup is not None:
        setup(reference)
        setup(batched)

    report = DifferentialReport()
    for batch_index, start in enumerate(range(0, len(packets), batch_size)):
        if len(report.divergences) >= max_divergences:
            break
        chunk = packets[start : start + batch_size]
        if mutate is not None:
            mutate(reference, batched, batch_index)
        lefts = [copy.deepcopy(packet) for packet in chunk]
        rights = [copy.deepcopy(packet) for packet in chunk]
        times = [(start + offset) * now_step for offset in range(len(chunk))]
        ref_results = [
            reference.process(packet, times[offset])
            for offset, packet in enumerate(lefts)
        ]
        batch_results = cache.process_batch(batched, PacketBatch(rights, times=times))
        for offset in range(len(chunk)):
            report.compare_packet(
                start + offset,
                lefts[offset],
                rights[offset],
                ref_results[offset],
                batch_results[offset],
            )
    report.compare_end_state(reference, batched)
    return report

"""Flow-cacheability analysis for the FlexPath fast path.

A program's per-packet outcome can be served from the flow memo only if re-executing it on an identical input packet is guaranteed to
produce the identical outcome *and* leave no per-packet state behind.
The dataflow pass (:mod:`repro.analysis.dataflow`) gives us the sound
over-approximation to decide that statically:

* **stateless / read-only** — the program must not write any map. Map
  *reads* are allowed: control-plane writes to a read map are caught at
  runtime by the map's mutation counter, which participates in the
  cache-validity token (see :class:`repro.simulator.fastpath.FlowCache`).
* **replayable side effects** — header/metadata writes, the drop flag,
  digests, clones, and recirculation are all deterministic functions of
  the packet contents, so they can be captured once and replayed; they
  do not disqualify a program.

The *cache key* must cover every input the program can observe: all
header fields it reads **or writes** (a replayed post-state is only
valid for packets that agree on the initial value of written locations
too), every metadata key it touches, and the parser's select fields;
the memo adds the packet's set of present fields itself (visibility
semantics make an absent header observable). Meters are intentionally
absent here — they are runtime attachments, and the fast path bypasses
the cache whenever any applied table carries one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.dataflow import analyze, executed_slice
from repro.lang import ir


@dataclass(frozen=True)
class CacheabilityDecision:
    """Static verdict for one program version."""

    cacheable: bool
    #: human-readable disqualification reasons (empty when cacheable).
    reasons: tuple[str, ...]
    #: (header, field) pairs the cache key must include.
    key_fields: tuple[tuple[str, str], ...]
    #: metadata keys the cache key must include.
    key_meta: tuple[str, ...]
    #: maps the program reads — their mutation counters join the
    #: validity token so control-plane writes invalidate the cache.
    read_maps: tuple[str, ...]
    #: tables reachable from apply — their rule/meter epochs join the
    #: validity token.
    applied_tables: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "cacheable": self.cacheable,
            "reasons": list(self.reasons),
            "key_fields": [f"{h}.{f}" for h, f in self.key_fields],
            "key_meta": list(self.key_meta),
            "read_maps": list(self.read_maps),
            "applied_tables": list(self.applied_tables),
        }


def stateless_slice(program: ir.Program) -> set[str]:
    """The hosted elements a cache-friendly device would run: every
    applied element that writes no map."""
    info = analyze(program)
    return {
        name for name in info.applied if not info.element_access(name).map_writes
    }


def decide(
    program: ir.Program, hosted_elements: set[str] | None = None
) -> CacheabilityDecision:
    """Statically decide whether ``program`` is flow-cacheable and, if
    so, what the cache key and validity token must cover.

    ``hosted_elements`` restricts the analysis to the elements one
    device actually executes (the placement model: a device hosts a
    subset of tables/functions; apply-if conditions always run). A
    device hosting only the stateless slice of an otherwise stateful
    program — e.g. the ACL tables while a downstream host runs the flow
    counter — is still cacheable for its slice.
    """
    info = analyze(program)
    executed, access = executed_slice(program, info, hosted_elements)

    reasons: list[str] = []
    for map_name in sorted(access.map_writes):
        reasons.append(f"writes map {map_name!r} (stateful per packet)")

    field_keys = {
        (ref.header, ref.field)
        for ref in access.field_reads | access.field_writes
    }
    parser = program.parser
    if parser is not None:
        for transition in parser.transitions:
            if transition.select_field is not None:
                ref = transition.select_field
                field_keys.add((ref.header, ref.field))
    meta_keys = set(access.meta_reads | access.meta_writes)

    applied_tables = tuple(
        sorted(t.name for t in program.tables if t.name in executed)
    )
    return CacheabilityDecision(
        cacheable=not reasons,
        reasons=tuple(reasons),
        key_fields=tuple(sorted(field_keys)),
        key_meta=tuple(sorted(meta_keys)),
        read_maps=tuple(sorted(access.map_reads)),
        applied_tables=applied_tables,
    )

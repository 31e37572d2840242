"""Static certification of FlexBPF programs.

The paper requires FlexBPF programs to be "analyzable to certify
bounded execution, well-behavedness, and to enable automated
compilation to constrained targets" (§3.1). This module implements that
certification:

* **Bounded execution** — every function/action body has a statically
  computable worst-case operation count (possible because the only loop
  form is ``repeat <const>``); a table costs one lookup plus the worst
  action it may run (:attr:`~repro.lang.ir.TableDef.invocable` — its
  default included, listed or not); the per-packet bound is the sum over
  the apply block, times ``1 + RECIRCULATION_CAP`` when anything
  applied recirculates.
* **Well-behavedness** — no writes to parser-select fields after
  parsing, drop decisions are final, map footprints are declared, and
  recirculation depth is bounded.
* **Resource profile** — per-element statistics (operation counts, map
  footprints, table sizes) that the compiler turns into per-target
  demand vectors.

Only the cost model walks statements here. What a body reads and writes
— its maps, whether it recirculates, whether it assigns a parser-select
field — is read off the node's footprint
(:attr:`~repro.lang.ir.ActionDef.access`).

The analyzer returns a :class:`Certificate` — an immutable report that
the admission pipeline (:class:`repro.core.flexnet.FlexNet`) checks
before a program or extension enters the network.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.errors import AnalysisError
from repro.lang import ir

# Certification limits live in repro.limits so the runtime interpreter
# imports the exact same values; re-exported here for compatibility.
from repro.limits import MAX_MAP_ENTRIES, MAX_PACKET_OPS, RECIRCULATION_CAP

#: Per-statement/expression base costs in abstract "ops". These are
#: deliberately coarse — they exist so relative costs order correctly
#: (a sketch update is pricier than a header rewrite), not to model
#: cycle-accurate hardware.
_EXPR_COST = {
    ir.Const: 0,
    ir.VarRef: 0,
    ir.FieldRef: 1,
    ir.MetaRef: 1,
    ir.MapGet: 4,
    ir.HashExpr: 3,
}

__all__ = [
    "Analyzer",
    "Certificate",
    "ElementProfile",
    "MAX_MAP_ENTRIES",
    "MAX_PACKET_OPS",
    "RECIRCULATION_CAP",
    "certify",
]


@dataclass(frozen=True)
class ElementProfile:
    """Static statistics for one placeable element."""

    name: str
    kind: str  # "table" | "function" | "map" | "action"
    max_ops: int = 0
    map_reads: tuple[str, ...] = ()
    map_writes: tuple[str, ...] = ()
    table_entries: int = 0
    key_bits: int = 0
    is_ternary: bool = False
    is_stateful: bool = False


@dataclass(frozen=True)
class Certificate:
    """The analyzer's output: proof-carrying metadata for a program.

    ``max_packet_ops`` bounds the work any single packet can trigger;
    ``profiles`` gives per-element statistics used for placement.
    """

    program_name: str
    program_version: int
    max_packet_ops: int
    total_map_entries: int
    recirculates: bool
    profiles: dict[str, ElementProfile] = field(default_factory=dict)

    @property
    def is_stateful(self) -> bool:
        return any(p.is_stateful for p in self.profiles.values())

    def profile(self, name: str) -> ElementProfile:
        if name not in self.profiles:
            raise AnalysisError(f"no profile for element {name!r}")
        return self.profiles[name]


class Analyzer:
    """Walks a validated program and produces its :class:`Certificate`.

    Raises :class:`AnalysisError` when a bound cannot be certified or a
    well-behavedness rule is violated — such programs are refused
    admission to the network.
    """

    def __init__(self, max_packet_ops: int = MAX_PACKET_OPS, max_map_entries: int = MAX_MAP_ENTRIES):
        self._max_packet_ops = max_packet_ops
        self._max_map_entries = max_map_entries

    def certify(
        self,
        program: ir.Program,
        carried: Mapping[str, ElementProfile] = MappingProxyType({}),
    ) -> Certificate:
        """Certify ``program``. ``carried`` holds the profiles of the
        elements an earlier version already profiled and this one keeps
        unchanged (:meth:`~repro.lang.ir.Program.unchanged_since`); the
        rest are profiled here. The program-wide bounds below are
        computed on every version."""
        profiles: dict[str, ElementProfile] = {}

        for map_def in program.maps:
            profiles[map_def.name] = carried.get(map_def.name) or ElementProfile(
                name=map_def.name,
                kind="map",
                table_entries=map_def.max_entries,
                key_bits=program.map_key_bits(map_def),
                is_stateful=True,
            )

        for action in program.actions:
            profiles[action.name] = carried.get(action.name) or _body_profile(action, "action")

        for table in program.tables:
            profiles[table.name] = carried.get(table.name) or _table_profile(
                program, table, profiles
            )

        for function in program.functions:
            profiles[function.name] = carried.get(function.name) or _body_profile(
                function, "function"
            )

        # Recirculation is a fact of each body's footprint; a table
        # recirculates when an action it may run does.
        by_action = {a.name for a in program.actions if _recirculates(a)}
        recirculating = {f.name for f in program.functions if _recirculates(f)}
        recirculating.update(
            t.name for t in program.tables if not by_action.isdisjoint(t.invocable)
        )
        max_packet_ops, recirculates = _apply_cost(program.apply, profiles, recirculating)
        if program.parser is not None:
            max_packet_ops += program.parser.state_count
        if recirculates:
            # A recirculating packet reruns parse + apply up to the
            # recirculation cap; the certified bound covers every rerun.
            max_packet_ops *= 1 + RECIRCULATION_CAP

        if max_packet_ops > self._max_packet_ops:
            raise AnalysisError(
                f"program {program.name!r} worst-case packet cost {max_packet_ops} ops "
                f"exceeds admission bound {self._max_packet_ops}"
            )

        total_entries = sum(m.max_entries for m in program.maps)
        if total_entries > self._max_map_entries:
            raise AnalysisError(
                f"program {program.name!r} declares {total_entries} map entries, "
                f"over the {self._max_map_entries} admission bound"
            )

        _check_well_behaved(program)

        return Certificate(
            program_name=program.name,
            program_version=program.version,
            max_packet_ops=max_packet_ops,
            total_map_entries=total_entries,
            recirculates=recirculates,
            profiles=profiles,
        )


def _table_profile(
    program: ir.Program, table: ir.TableDef, profiles: dict[str, ElementProfile]
) -> ElementProfile:
    """One lookup plus the worst action the table may run, and the
    union of what those actions touch."""
    invocable = [profiles[name] for name in table.invocable]
    return ElementProfile(
        name=table.name,
        kind="table",
        max_ops=1 + max((p.max_ops for p in invocable), default=0),
        table_entries=table.size,
        key_bits=program.table_key_bits(table),
        is_ternary=table.is_ternary,
        is_stateful=any(p.is_stateful for p in invocable),
        map_reads=tuple(sorted({m for p in invocable for m in p.map_reads})),
        map_writes=tuple(sorted({m for p in invocable for m in p.map_writes})),
    )


def _body_profile(node: ir.ActionDef | ir.FunctionDef, kind: str) -> ElementProfile:
    """Worst-case op count from the cost model; the map footprint from
    the node's own :attr:`~repro.lang.ir.ActionDef.access`."""
    access = node.access
    return ElementProfile(
        name=node.name,
        kind=kind,
        max_ops=_body_cost(node.body),
        map_reads=tuple(sorted(access.map_reads)),
        map_writes=tuple(sorted(access.map_writes)),
        is_stateful=bool(access.maps),
    )


def _recirculates(node: ir.ActionDef | ir.FunctionDef) -> bool:
    return "_recirculate" in node.access.meta_writes


def _apply_cost(
    steps: tuple[ir.ApplyStep, ...],
    profiles: dict[str, ElementProfile],
    recirculating: set[str],
) -> tuple[int, bool]:
    """Worst-case ops of an apply block, and whether any element it
    applies is in ``recirculating``."""
    total = 0
    recirculates = False
    for step in steps:
        if isinstance(step, ir.ApplyIf):
            then_cost, then_recirc = _apply_cost(step.then_steps, profiles, recirculating)
            else_cost, else_recirc = _apply_cost(step.else_steps, profiles, recirculating)
            total += 1 + max(then_cost, else_cost)
            recirculates |= then_recirc or else_recirc
        else:
            name = step.table if isinstance(step, ir.ApplyTable) else step.function
            total += profiles[name].max_ops
            recirculates |= name in recirculating
    return total, recirculates


# -- the cost model -----------------------------------------------------------


def _body_cost(body: tuple[ir.Stmt, ...]) -> int:
    """Worst-case op count of a body."""
    return sum(_stmt_cost(stmt) for stmt in body)


def _stmt_cost(stmt: ir.Stmt) -> int:
    if isinstance(stmt, (ir.Let, ir.Assign)):
        return 1 + _expr_cost(stmt.value)
    if isinstance(stmt, ir.MapPut):
        return 4 + sum(_expr_cost(part) for part in (*stmt.key, stmt.value))
    if isinstance(stmt, ir.MapDelete):
        return 4 + sum(_expr_cost(part) for part in stmt.key)
    if isinstance(stmt, ir.If):
        return (
            1
            + _expr_cost(stmt.condition)
            + max(_body_cost(stmt.then_body), _body_cost(stmt.else_body))
        )
    if isinstance(stmt, ir.Repeat):
        return 1 + stmt.count * _body_cost(stmt.body)
    if isinstance(stmt, ir.PrimitiveCall):
        return 2 + sum(_expr_cost(arg) for arg in stmt.args)
    raise AnalysisError(f"cannot cost statement {stmt!r}")  # pragma: no cover


def _expr_cost(expr: ir.Expr) -> int:
    if isinstance(expr, ir.BinOp):
        return 1 + _expr_cost(expr.left) + _expr_cost(expr.right)
    if isinstance(expr, ir.UnOp):
        return 1 + _expr_cost(expr.operand)
    if isinstance(expr, ir.MapGet):
        return _EXPR_COST[ir.MapGet] + sum(_expr_cost(part) for part in expr.key)
    if isinstance(expr, ir.HashExpr):
        return _EXPR_COST[ir.HashExpr] + sum(_expr_cost(arg) for arg in expr.args)
    return _EXPR_COST.get(type(expr), 1)


# -- well-behavedness ---------------------------------------------------------


def _check_well_behaved(program: ir.Program) -> None:
    """No body writes a field the parser selects on (it would
    desynchronize reparsing on recirculation). A body that writes
    several names the first by ``str``."""
    if program.parser is None:
        return
    select_fields = {
        transition.select_field
        for transition in program.parser.transitions
        if transition.select_field is not None
    }
    if not select_fields:
        return
    for kind, nodes in (("action", program.actions), ("function", program.functions)):
        for node in nodes:
            written = node.access.field_writes & select_fields
            if written:
                raise AnalysisError(
                    f"{kind} {node.name!r} writes parser-select field "
                    f"{min(written, key=str)}; this would desynchronize reparsing "
                    "on recirculation"
                )


def certify(
    program: ir.Program, carried: Mapping[str, ElementProfile] = MappingProxyType({})
) -> Certificate:
    """Convenience wrapper: certify with default admission bounds."""
    return Analyzer().certify(program, carried)

"""Static certification of FlexBPF programs.

The paper requires FlexBPF programs to be "analyzable to certify
bounded execution, well-behavedness, and to enable automated
compilation to constrained targets" (§3.1). This module implements that
certification:

* **Bounded execution** — every function/action body has a statically
  computable worst-case operation count (possible because the only loop
  form is ``repeat <const>``); the per-packet bound is the sum over the
  apply block.
* **Well-behavedness** — no writes to parser-select fields after
  parsing, drop decisions are final, map footprints are declared, and
  recirculation depth is bounded.
* **Resource profile** — per-element statistics (operation counts, map
  footprints, table sizes) that the compiler turns into per-target
  demand vectors.

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
            profiles[action.name] = carried.get(action.name) or self._body_profile(
                program, action.name, "action", action.body
            )

        for table in program.tables:
            profiles[table.name] = carried.get(table.name) or ElementProfile(
                name=table.name,
                kind="table",
                # one lookup + worst action
                max_ops=1 + max((profiles[a].max_ops for a in table.actions), default=0),
                table_entries=table.size,
                key_bits=program.table_key_bits(table),
                is_ternary=table.is_ternary,
                is_stateful=any(profiles[a].is_stateful for a in table.actions),
                map_reads=tuple(
                    sorted({m for a in table.actions for m in profiles[a].map_reads})
                ),
                map_writes=tuple(
                    sorted({m for a in table.actions for m in profiles[a].map_writes})
                ),
            )

        for function in program.functions:
            profiles[function.name] = carried.get(function.name) or self._body_profile(
                program, function.name, "function", function.body
            )

        max_packet_ops, recirculates = self._apply_cost(program, program.apply, profiles)
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

        self._check_well_behaved(program)

        return Certificate(
            program_name=program.name,
            program_version=program.version,
            max_packet_ops=max_packet_ops,
            total_map_entries=total_entries,
            recirculates=recirculates,
            profiles=profiles,
        )

    # -- cost computation ----------------------------------------------------

    def _body_profile(
        self, program: ir.Program, name: str, kind: str, body: tuple[ir.Stmt, ...]
    ) -> ElementProfile:
        ops, reads, writes = self._body_cost(program, body)
        return ElementProfile(
            name=name,
            kind=kind,
            max_ops=ops,
            map_reads=tuple(sorted(reads)),
            map_writes=tuple(sorted(writes)),
            is_stateful=bool(reads or writes),
        )

    def _apply_cost(
        self,
        program: ir.Program,
        steps: tuple[ir.ApplyStep, ...],
        profiles: dict[str, ElementProfile],
    ) -> tuple[int, bool]:
        total = 0
        recirculates = False
        for step in steps:
            if isinstance(step, ir.ApplyTable):
                total += profiles[step.table].max_ops
                recirculates |= self._table_recirculates(program, step.table)
            elif isinstance(step, ir.ApplyFunction):
                total += profiles[step.function].max_ops
                recirculates |= _body_recirculates(program.function(step.function).body)
            else:
                then_cost, then_recirc = self._apply_cost(program, step.then_steps, profiles)
                else_cost, else_recirc = self._apply_cost(program, step.else_steps, profiles)
                total += 1 + max(then_cost, else_cost)
                recirculates |= then_recirc or else_recirc
        return total, recirculates

    def _table_recirculates(self, program: ir.Program, table_name: str) -> bool:
        table = program.table(table_name)
        return any(_body_recirculates(program.action(a).body) for a in table.actions)

    def _body_cost(
        self, program: ir.Program, body: tuple[ir.Stmt, ...]
    ) -> tuple[int, set[str], set[str]]:
        """Worst-case op count plus the map read/write sets of a body."""
        total = 0
        reads: set[str] = set()
        writes: set[str] = set()
        for stmt in body:
            cost, stmt_reads, stmt_writes = self._stmt_cost(program, stmt)
            total += cost
            reads |= stmt_reads
            writes |= stmt_writes
        return total, reads, writes

    def _stmt_cost(self, program: ir.Program, stmt: ir.Stmt) -> tuple[int, set[str], set[str]]:
        if isinstance(stmt, ir.Let):
            cost, reads = self._expr_cost(stmt.value)
            return 1 + cost, reads, set()
        if isinstance(stmt, ir.Assign):
            cost, reads = self._expr_cost(stmt.value)
            return 1 + cost, reads, set()
        if isinstance(stmt, ir.MapPut):
            cost = 4
            reads: set[str] = set()
            for part in (*stmt.key, stmt.value):
                part_cost, part_reads = self._expr_cost(part)
                cost += part_cost
                reads |= part_reads
            return cost, reads, {stmt.map_name}
        if isinstance(stmt, ir.MapDelete):
            cost = 4
            reads = set()
            for part in stmt.key:
                part_cost, part_reads = self._expr_cost(part)
                cost += part_cost
                reads |= part_reads
            return cost, reads, {stmt.map_name}
        if isinstance(stmt, ir.If):
            cond_cost, cond_reads = self._expr_cost(stmt.condition)
            then_cost, then_reads, then_writes = self._body_cost(program, stmt.then_body)
            else_cost, else_reads, else_writes = self._body_cost(program, stmt.else_body)
            return (
                1 + cond_cost + max(then_cost, else_cost),
                cond_reads | then_reads | else_reads,
                then_writes | else_writes,
            )
        if isinstance(stmt, ir.Repeat):
            body_cost, reads, writes = self._body_cost(program, stmt.body)
            return 1 + stmt.count * body_cost, reads, writes
        if isinstance(stmt, ir.PrimitiveCall):
            cost = 2
            reads = set()
            for arg in stmt.args:
                arg_cost, arg_reads = self._expr_cost(arg)
                cost += arg_cost
                reads |= arg_reads
            return cost, reads, set()
        raise AnalysisError(f"cannot cost statement {stmt!r}")  # pragma: no cover

    def _expr_cost(self, expr: ir.Expr) -> tuple[int, set[str]]:
        if isinstance(expr, ir.BinOp):
            left_cost, left_reads = self._expr_cost(expr.left)
            right_cost, right_reads = self._expr_cost(expr.right)
            return 1 + left_cost + right_cost, left_reads | right_reads
        if isinstance(expr, ir.UnOp):
            cost, reads = self._expr_cost(expr.operand)
            return 1 + cost, reads
        if isinstance(expr, ir.MapGet):
            cost = _EXPR_COST[ir.MapGet]
            reads = {expr.map_name}
            for part in expr.key:
                part_cost, part_reads = self._expr_cost(part)
                cost += part_cost
                reads |= part_reads
            return cost, reads
        if isinstance(expr, ir.HashExpr):
            cost = _EXPR_COST[ir.HashExpr]
            reads: set[str] = set()
            for arg in expr.args:
                arg_cost, arg_reads = self._expr_cost(arg)
                cost += arg_cost
                reads |= arg_reads
            return cost, reads
        return _EXPR_COST.get(type(expr), 1), set()

    # -- well-behavedness ------------------------------------------------------

    def _check_well_behaved(self, program: ir.Program) -> None:
        if program.parser is None:
            return
        select_fields = {
            transition.select_field
            for transition in program.parser.transitions
            if transition.select_field is not None
        }
        if not select_fields:
            return
        for action in program.actions:
            _forbid_select_writes(action.body, select_fields, f"action {action.name!r}")
        for function in program.functions:
            _forbid_select_writes(function.body, select_fields, f"function {function.name!r}")


def _forbid_select_writes(
    body: tuple[ir.Stmt, ...], select_fields: set[ir.FieldRef], context: str
) -> None:
    for stmt in body:
        if isinstance(stmt, ir.Assign) and isinstance(stmt.target, ir.FieldRef):
            if stmt.target in select_fields:
                raise AnalysisError(
                    f"{context} writes parser-select field {stmt.target}; this would "
                    "desynchronize reparsing on recirculation"
                )
        elif isinstance(stmt, ir.If):
            _forbid_select_writes(stmt.then_body, select_fields, context)
            _forbid_select_writes(stmt.else_body, select_fields, context)
        elif isinstance(stmt, ir.Repeat):
            _forbid_select_writes(stmt.body, select_fields, context)


def _body_recirculates(body: tuple[ir.Stmt, ...]) -> bool:
    for stmt in body:
        if isinstance(stmt, ir.PrimitiveCall) and stmt.name == "recirculate":
            return True
        if isinstance(stmt, ir.If) and (
            _body_recirculates(stmt.then_body) or _body_recirculates(stmt.else_body)
        ):
            return True
        if isinstance(stmt, ir.Repeat) and _body_recirculates(stmt.body):
            return True
    return False


def certify(
    program: ir.Program, carried: Mapping[str, ElementProfile] = MappingProxyType({})
) -> Certificate:
    """Convenience wrapper: certify with default admission bounds."""
    return Analyzer().certify(program, carried)

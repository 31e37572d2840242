"""Def-use / data-flow analysis over FlexBPF IR.

Computes, for every program element (table, function, action, and the
apply block itself), the set of header fields, metadata keys, and maps
it *reads* and *writes*. These access sets are the substrate every
other FlexCheck pass builds on: the race detector intersects them
across program versions, the tenant-interference pass intersects them
across tenants, and the lints look for elements whose sets prove them
dead or useless.

The analysis is a sound over-approximation: both branches of every
``If``/``ApplyIf`` are assumed reachable, every action a table lists is
assumed invocable, and primitive side effects are modelled as metadata
writes (``mark_drop`` → ``meta.drop_flag``, ``set_port`` →
``meta.egress_port``, ...). Consequently any access observed while
executing packets through :mod:`repro.simulator.pipeline_exec` is
contained in the static sets — the property tests in
``tests/property/`` assert exactly this inclusion.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.lang import ir

#: Metadata keys written by each datapath primitive, matching the keys
#: the interpreter actually writes. ``emit_digest`` appends to the
#: packet's digest list rather than metadata, so it is modelled as a
#: write to the synthetic ``_digest`` key (``_``-prefixed keys are
#: treated as non-shared state by the race pass).
PRIMITIVE_META_WRITES: dict[str, tuple[str, ...]] = {
    "mark_drop": ("drop_flag",),
    "set_port": ("egress_port",),
    "set_queue": ("queue_id",),
    "emit_digest": ("_digest",),
    "clone": ("clones",),
    "recirculate": ("_recirculate",),
    "no_op": (),
}


@dataclass(frozen=True)
class AccessSet:
    """Read/write footprint of one element (or a union of elements)."""

    field_reads: frozenset[ir.FieldRef] = frozenset()
    field_writes: frozenset[ir.FieldRef] = frozenset()
    meta_reads: frozenset[str] = frozenset()
    meta_writes: frozenset[str] = frozenset()
    map_reads: frozenset[str] = frozenset()
    map_writes: frozenset[str] = frozenset()

    def __or__(self, other: "AccessSet") -> "AccessSet":
        return AccessSet(
            field_reads=self.field_reads | other.field_reads,
            field_writes=self.field_writes | other.field_writes,
            meta_reads=self.meta_reads | other.meta_reads,
            meta_writes=self.meta_writes | other.meta_writes,
            map_reads=self.map_reads | other.map_reads,
            map_writes=self.map_writes | other.map_writes,
        )

    @property
    def reads_anything(self) -> bool:
        return bool(self.field_reads or self.meta_reads or self.map_reads)

    @property
    def writes_anything(self) -> bool:
        return bool(self.field_writes or self.meta_writes or self.map_writes)

    def touches_map(self, map_name: str) -> bool:
        return map_name in self.map_reads or map_name in self.map_writes

    def to_dict(self) -> dict:
        return {
            "field_reads": sorted(str(f) for f in self.field_reads),
            "field_writes": sorted(str(f) for f in self.field_writes),
            "meta_reads": sorted(self.meta_reads),
            "meta_writes": sorted(self.meta_writes),
            "map_reads": sorted(self.map_reads),
            "map_writes": sorted(self.map_writes),
        }


class _Collector:
    """Mutable accumulator the tree walkers write into."""

    def __init__(self) -> None:
        self.field_reads: set[ir.FieldRef] = set()
        self.field_writes: set[ir.FieldRef] = set()
        self.meta_reads: set[str] = set()
        self.meta_writes: set[str] = set()
        self.map_reads: set[str] = set()
        self.map_writes: set[str] = set()

    def freeze(self) -> AccessSet:
        return AccessSet(
            field_reads=frozenset(self.field_reads),
            field_writes=frozenset(self.field_writes),
            meta_reads=frozenset(self.meta_reads),
            meta_writes=frozenset(self.meta_writes),
            map_reads=frozenset(self.map_reads),
            map_writes=frozenset(self.map_writes),
        )

    # -- expressions (always reads) ---------------------------------------

    def expr(self, expr: ir.Expr) -> None:
        if isinstance(expr, ir.FieldRef):
            self.field_reads.add(expr)
        elif isinstance(expr, ir.MetaRef):
            self.meta_reads.add(expr.key)
        elif isinstance(expr, ir.BinOp):
            self.expr(expr.left)
            self.expr(expr.right)
        elif isinstance(expr, ir.UnOp):
            self.expr(expr.operand)
        elif isinstance(expr, ir.MapGet):
            self.map_reads.add(expr.map_name)
            for part in expr.key:
                self.expr(part)
        elif isinstance(expr, ir.HashExpr):
            for arg in expr.args:
                self.expr(arg)
        # Const / VarRef: no element-level data flow.

    # -- statements --------------------------------------------------------

    def stmt(self, stmt: ir.Stmt) -> None:
        if isinstance(stmt, ir.Let):
            self.expr(stmt.value)
        elif isinstance(stmt, ir.Assign):
            self.expr(stmt.value)
            if isinstance(stmt.target, ir.FieldRef):
                self.field_writes.add(stmt.target)
            elif isinstance(stmt.target, ir.MetaRef):
                self.meta_writes.add(stmt.target.key)
        elif isinstance(stmt, ir.MapPut):
            self.map_writes.add(stmt.map_name)
            for part in stmt.key:
                self.expr(part)
            self.expr(stmt.value)
        elif isinstance(stmt, ir.MapDelete):
            self.map_writes.add(stmt.map_name)
            for part in stmt.key:
                self.expr(part)
        elif isinstance(stmt, ir.If):
            self.expr(stmt.condition)
            self.body(stmt.then_body)
            self.body(stmt.else_body)
        elif isinstance(stmt, ir.Repeat):
            self.body(stmt.body)
        elif isinstance(stmt, ir.PrimitiveCall):
            for arg in stmt.args:
                self.expr(arg)
            for key in PRIMITIVE_META_WRITES.get(stmt.name, ()):
                self.meta_writes.add(key)

    def body(self, body: tuple[ir.Stmt, ...]) -> None:
        for stmt in body:
            self.stmt(stmt)


def access_of_body(body: tuple[ir.Stmt, ...]) -> AccessSet:
    collector = _Collector()
    collector.body(body)
    return collector.freeze()


def access_of_action(action: ir.ActionDef) -> AccessSet:
    return access_of_body(action.body)


def access_of_table(program: ir.Program, table: ir.TableDef) -> AccessSet:
    """Keys are reads; the union of all listed actions may run."""
    collector = _Collector()
    for key in table.keys:
        collector.field_reads.add(key.field)
    access = collector.freeze()
    action_names = set(table.actions)
    if table.default_action is not None:
        action_names.add(table.default_action.action)
    for name in sorted(action_names):
        access = access | access_of_action(program.action(name))
    return access


@dataclass(frozen=True)
class DataflowInfo:
    """Full data-flow summary of one program."""

    program: ir.Program
    #: Access set per element name (tables, functions, actions).
    elements: dict[str, AccessSet]
    #: Elements reachable from the apply block (tables/functions named in
    #: apply steps, plus actions reachable via an applied table).
    applied: frozenset[str]
    #: Reads performed directly by apply-if conditions.
    apply_reads: AccessSet

    # -- indexed views -----------------------------------------------------

    def _applied_items(self):
        return ((name, acc) for name, acc in self.elements.items() if name in self.applied)

    def readers_of_map(self, map_name: str) -> frozenset[str]:
        return frozenset(n for n, a in self._applied_items() if map_name in a.map_reads)

    def writers_of_map(self, map_name: str) -> frozenset[str]:
        return frozenset(n for n, a in self._applied_items() if map_name in a.map_writes)

    def readers_of_field(self, ref: ir.FieldRef) -> frozenset[str]:
        return frozenset(n for n, a in self._applied_items() if ref in a.field_reads)

    def writers_of_field(self, ref: ir.FieldRef) -> frozenset[str]:
        return frozenset(n for n, a in self._applied_items() if ref in a.field_writes)

    @property
    def program_access(self) -> AccessSet:
        """Union access set over everything reachable from apply."""
        total = self.apply_reads
        for _, access in self._applied_items():
            total = total | access
        return total

    def element_access(self, name: str) -> AccessSet:
        return self.elements.get(name, AccessSet())


def _applied_elements(program: ir.Program) -> tuple[frozenset[str], AccessSet]:
    """Names reachable from the apply block + direct apply-if reads."""
    reached: set[str] = set()
    collector = _Collector()

    def walk(steps: tuple[ir.ApplyStep, ...]) -> None:
        for step in steps:
            if isinstance(step, ir.ApplyTable):
                reached.add(step.table)
                table = program.table(step.table)
                for action_name in table.actions:
                    reached.add(action_name)
                if table.default_action is not None:
                    reached.add(table.default_action.action)
            elif isinstance(step, ir.ApplyFunction):
                reached.add(step.function)
            else:
                collector.expr(step.condition)
                walk(step.then_steps)
                walk(step.else_steps)

    walk(program.apply)
    return frozenset(reached), collector.freeze()


def executed_slice(
    program: ir.Program, info: DataflowInfo, hosted_elements: set[str] | None
) -> tuple[set[str], AccessSet]:
    """The elements one device actually executes, plus their union access.

    ``hosted_elements`` is the placement model's hosting set: a device
    hosts a subset of tables/functions (apply-if conditions always run).
    Hosting a table implies executing its actions. ``None`` hosts the
    whole program. This is what FlexVet means by "this device runs".
    """
    if hosted_elements is None:
        return set(info.applied), info.program_access
    hosted = frozenset(hosted_elements)
    executed: set[str] = set()
    for table in program.tables:
        if table.name in info.applied and table.name in hosted:
            executed.add(table.name)
            executed.update(table.actions)
            if table.default_action is not None:
                executed.add(table.default_action.action)
    for function in program.functions:
        if function.name in info.applied and function.name in hosted:
            executed.add(function.name)
    access = info.apply_reads
    for name in sorted(executed):
        access = access | info.element_access(name)
    return executed, access


def analyze(
    program: ir.Program, carried: Mapping[str, AccessSet] = MappingProxyType({})
) -> DataflowInfo:
    """Compute access sets for every element of ``program``. ``carried``
    holds the sets of the elements an earlier version already analysed
    and this one keeps unchanged
    (:meth:`~repro.lang.ir.Program.unchanged_since`); what the apply
    block reaches is worked out on every version."""
    elements: dict[str, AccessSet] = {}
    for action in program.actions:
        elements[action.name] = carried.get(action.name) or access_of_action(action)
    for table in program.tables:
        elements[table.name] = carried.get(table.name) or access_of_table(program, table)
    for function in program.functions:
        elements[function.name] = carried.get(function.name) or access_of_body(function.body)
    applied, apply_reads = _applied_elements(program)
    return DataflowInfo(
        program=program, elements=elements, applied=applied, apply_reads=apply_reads
    )

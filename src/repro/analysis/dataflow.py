"""Def-use / data-flow analysis over FlexBPF IR.

Computes, for every program element (table, function, action, and the
apply block itself), the set of header fields, metadata keys, and maps
it *reads* and *writes*. These access sets are the substrate every
other FlexCheck pass builds on: the race detector intersects them
across program versions, the tenant-interference pass intersects them
across tenants, and the lints look for elements whose sets prove them
dead or useless.

The footprint of a statement body is not derived here: it is
:class:`~repro.lang.ir.AccessSet`, collected once per action / function
node in :mod:`repro.lang.ir` (``node.access``) and re-exported under
its old names. This module adds what depends on more than one node: a
table's union over the actions it may run, what the apply block
reaches, and the per-device executed slice.

The analysis is a sound over-approximation: both branches of every
``If``/``ApplyIf`` are assumed reachable, every action a table may run
(the listed ones and its default) is assumed invoked, and primitive
side effects are modelled as metadata writes (``mark_drop`` →
``meta.drop_flag``, ``set_port`` → ``meta.egress_port``, ...).
Consequently any access observed while
executing packets through :mod:`repro.simulator.pipeline_exec` is
contained in the static sets — the property tests in
``tests/property/`` assert exactly this inclusion.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from repro.lang import ir
from repro.lang.ir import PRIMITIVE_META_WRITES, AccessSet, _Collector, access_of_body

__all__ = [
    "PRIMITIVE_META_WRITES",
    "AccessSet",
    "DataflowInfo",
    "access_of_body",
    "access_of_table",
    "analyze",
    "executed_slice",
]


def access_of_table(program: ir.Program, table: ir.TableDef) -> AccessSet:
    """Keys are reads; any action the table may run
    (:attr:`~repro.lang.ir.TableDef.invocable`) contributes its body."""
    access = AccessSet(field_reads=frozenset(key.field for key in table.keys))
    for name in table.invocable:
        access = access | program.action(name).access
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
                reached.update(program.table(step.table).invocable)
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
            executed.update(table.invocable)
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
    """Compute access sets for every element of ``program``. An action
    or function brings its footprint with it (``node.access``);
    ``carried`` holds the sets of the tables an earlier version already
    unioned and this one keeps unchanged
    (:meth:`~repro.lang.ir.Program.unchanged_since`); what the apply
    block reaches is worked out on every version."""
    elements: dict[str, AccessSet] = {}
    for action in program.actions:
        elements[action.name] = action.access
    for table in program.tables:
        elements[table.name] = carried.get(table.name) or access_of_table(program, table)
    for function in program.functions:
        elements[function.name] = function.access
    applied, apply_reads = _applied_elements(program)
    return DataflowInfo(
        program=program, elements=elements, applied=applied, apply_reads=apply_reads
    )

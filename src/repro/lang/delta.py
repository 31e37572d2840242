"""The FlexNet incremental-change DSL (§3.2 of the paper).

Runtime changes "are simply additions, deletions, or changes to the
existing programs" and should be expressible "without having to
re-specify the entire stacks all over again". This module provides:

* A set of delta *operations* (:class:`AddTable`, :class:`RemoveElements`,
  :class:`SetTableSize`, :class:`InsertApply`, ...), each of which
  transforms an immutable :class:`~repro.lang.ir.Program` into a new one.
* **Name-pattern selectors** (``fw_*``-style globs) so deltas can
  "programmatically select and modify the firewall- or CC-related
  functions in the base program" without knowing exact names.
* A textual surface syntax (:func:`parse_delta`) reusing FlexBPF
  declaration syntax for added elements. Its grammar lives with
  FlexBPF's in :mod:`repro.lang.parser`, so building and applying a
  delta loads no lexer or parser.
* Joint analysis with the base program: applying a delta re-validates
  and re-certifies the result, so an ill-typed or unbounded patch is
  rejected atomically (the base program is untouched).

The output of application is ``(new_program, ChangeSet)``; the
:class:`ChangeSet` names exactly which elements changed, which is what
the incremental compiler (:mod:`repro.compiler.incremental`) minimizes
against.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, replace

from repro.errors import CompositionError, TypeCheckError
from repro.lang import ir


@dataclass(frozen=True)
class ChangeSet:
    """Names of elements touched by a delta, per category.

    ``apply_changed`` flags control-flow edits that may require
    re-sequencing even when no element was added or removed.
    """

    added: frozenset[str] = frozenset()
    removed: frozenset[str] = frozenset()
    modified: frozenset[str] = frozenset()
    apply_changed: bool = False

    def merge(self, other: "ChangeSet") -> "ChangeSet":
        return ChangeSet(
            added=(self.added | other.added) - other.removed,
            removed=(self.removed | other.removed) - other.added,
            modified=self.modified | other.modified,
            apply_changed=self.apply_changed or other.apply_changed,
        )

    @property
    def touched(self) -> frozenset[str]:
        return self.added | self.removed | self.modified

    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.modified or self.apply_changed)


def match_elements(program: ir.Program, pattern: str, kind: str | None = None) -> list[str]:
    """Glob-match element names in a program.

    ``kind`` restricts the search to ``"table"``, ``"function"``,
    ``"map"``, or ``"action"``; None searches all placeable kinds.
    """
    pools: dict[str, list[str]] = {
        "table": [t.name for t in program.tables],
        "function": [f.name for f in program.functions],
        "map": [m.name for m in program.maps],
        "action": [a.name for a in program.actions],
    }
    if kind is not None:
        if kind not in pools:
            raise CompositionError(f"unknown element kind {kind!r}")
        names = pools[kind]
    else:
        names = [name for pool in pools.values() for name in pool]
    return sorted(name for name in names if fnmatch.fnmatchcase(name, pattern))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class DeltaOp:
    """Base class: one atomic edit. Subclasses implement ``apply``."""

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        raise NotImplementedError


@dataclass(frozen=True)
class AddHeader(DeltaOp):
    header: ir.HeaderDef

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if any(h.name == self.header.name for h in program.headers):
            raise CompositionError(f"header {self.header.name!r} already exists")
        new = replace(program, headers=program.headers + (self.header,))
        return new, ChangeSet()


@dataclass(frozen=True)
class AddMap(DeltaOp):
    map_def: ir.MapDef

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if program.has_map(self.map_def.name):
            raise CompositionError(f"map {self.map_def.name!r} already exists")
        new = replace(program, maps=program.maps + (self.map_def,))
        return new, ChangeSet(added=frozenset({self.map_def.name}))


@dataclass(frozen=True)
class AddAction(DeltaOp):
    action: ir.ActionDef

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if program.has_action(self.action.name):
            raise CompositionError(f"action {self.action.name!r} already exists")
        new = replace(program, actions=program.actions + (self.action,))
        return new, ChangeSet()


@dataclass(frozen=True)
class AddTable(DeltaOp):
    table: ir.TableDef

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if program.has_table(self.table.name):
            raise CompositionError(f"table {self.table.name!r} already exists")
        new = replace(program, tables=program.tables + (self.table,))
        return new, ChangeSet(added=frozenset({self.table.name}))


@dataclass(frozen=True)
class AddFunction(DeltaOp):
    function: ir.FunctionDef

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if program.has_function(self.function.name):
            raise CompositionError(f"function {self.function.name!r} already exists")
        new = replace(program, functions=program.functions + (self.function,))
        return new, ChangeSet(added=frozenset({self.function.name}))


@dataclass(frozen=True)
class AddParserTransition(DeltaOp):
    transition: ir.ParserTransition

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if program.parser is None:
            raise CompositionError("program has no parser to extend")
        parser = replace(
            program.parser, transitions=program.parser.transitions + (self.transition,)
        )
        return replace(program, parser=parser), ChangeSet(apply_changed=True)


@dataclass(frozen=True)
class RemoveParserTransition(DeltaOp):
    next_header: str

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if program.parser is None:
            raise CompositionError("program has no parser")
        remaining = tuple(
            t for t in program.parser.transitions if t.next_header != self.next_header
        )
        if len(remaining) == len(program.parser.transitions):
            raise CompositionError(f"no parser transition extracts {self.next_header!r}")
        parser = replace(program.parser, transitions=remaining)
        return replace(program, parser=parser), ChangeSet(apply_changed=True)


@dataclass(frozen=True)
class RemoveElements(DeltaOp):
    """Remove every table/function/map matching a glob pattern, and prune
    apply-steps referencing removed elements. Actions referenced only by
    removed tables are garbage collected."""

    pattern: str
    kind: str | None = None

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        victims = set(match_elements(program, self.pattern, self.kind))
        victims -= {a.name for a in program.actions}  # actions handled by GC below
        if not victims:
            raise CompositionError(
                f"pattern {self.pattern!r} matches no removable element"
            )
        tables = tuple(t for t in program.tables if t.name not in victims)
        functions = tuple(f for f in program.functions if f.name not in victims)
        maps = tuple(m for m in program.maps if m.name not in victims)

        still_referenced = {a for t in tables for a in t.invocable}
        removed_table_actions = {
            a for t in program.tables if t.name in victims for a in t.invocable
        }
        orphaned = removed_table_actions - still_referenced
        actions = tuple(a for a in program.actions if a.name not in orphaned)

        new_apply = _prune_apply(program.apply, victims)
        new = replace(
            program,
            tables=tables,
            functions=functions,
            maps=maps,
            actions=actions,
            apply=new_apply,
        )
        return new, ChangeSet(removed=frozenset(victims), apply_changed=True)


@dataclass(frozen=True)
class SetTableSize(DeltaOp):
    """Resize tables matching a pattern (elastic scale up/down)."""

    pattern: str
    size: int

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        names = match_elements(program, self.pattern, "table")
        if not names:
            raise CompositionError(f"pattern {self.pattern!r} matches no table")
        tables = tuple(
            replace(t, size=self.size) if t.name in names else t for t in program.tables
        )
        return replace(program, tables=tables), ChangeSet(modified=frozenset(names))


@dataclass(frozen=True)
class SetMapEntries(DeltaOp):
    """Resize maps matching a pattern."""

    pattern: str
    max_entries: int

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        names = match_elements(program, self.pattern, "map")
        if not names:
            raise CompositionError(f"pattern {self.pattern!r} matches no map")
        maps = tuple(
            replace(m, max_entries=self.max_entries) if m.name in names else m
            for m in program.maps
        )
        return replace(program, maps=maps), ChangeSet(modified=frozenset(names))


@dataclass(frozen=True)
class AddTableActions(DeltaOp):
    """Attach extra actions to tables matching a pattern."""

    pattern: str
    actions: tuple[str, ...]

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        names = match_elements(program, self.pattern, "table")
        if not names:
            raise CompositionError(f"pattern {self.pattern!r} matches no table")
        tables = tuple(
            replace(t, actions=t.actions + tuple(a for a in self.actions if a not in t.actions))
            if t.name in names
            else t
            for t in program.tables
        )
        return replace(program, tables=tables), ChangeSet(modified=frozenset(names))


@dataclass(frozen=True)
class InsertApply(DeltaOp):
    """Insert an apply-step for an element, anchored relative to another.

    ``anchor=None`` appends at the end of the apply block.
    """

    element: str
    position: str = "after"  # "before" | "after"
    anchor: str | None = None

    def apply(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        if program.has_table(self.element):
            step: ir.ApplyStep = ir.ApplyTable(table=self.element)
        elif program.has_function(self.element):
            step = ir.ApplyFunction(function=self.element)
        else:
            raise CompositionError(f"apply insert: unknown element {self.element!r}")
        if self.anchor is None:
            new_apply = program.apply + (step,)
        else:
            new_apply, inserted = _insert_near(program.apply, step, self.anchor, self.position)
            if not inserted:
                raise CompositionError(f"apply insert: anchor {self.anchor!r} not found")
        return replace(program, apply=new_apply), ChangeSet(apply_changed=True)


@dataclass(frozen=True)
class Delta:
    """A named, ordered bundle of operations applied atomically."""

    name: str
    ops: tuple[DeltaOp, ...]
    owner: str = "infrastructure"

    def apply_to(self, program: ir.Program) -> tuple[ir.Program, ChangeSet]:
        """Apply all ops; validate the result; bump the version. What
        the ops left untouched keeps the verdict it has in ``program``
        (see :meth:`~repro.lang.ir.Program.validate`).

        On any failure (bad op, type error in the joint program) the
        original program is returned untouched via the raised exception —
        callers never observe a half-applied delta.
        """
        current = program
        changes = ChangeSet()
        for op in self.ops:
            current, op_changes = op.apply(current)
            changes = changes.merge(op_changes)
        current = current.bump_version().validate(previous=program)
        return current, changes


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _step_name(step: ir.ApplyStep) -> str | None:
    if isinstance(step, ir.ApplyTable):
        return step.table
    if isinstance(step, ir.ApplyFunction):
        return step.function
    return None


def _prune_apply(
    steps: tuple[ir.ApplyStep, ...], victims: set[str]
) -> tuple[ir.ApplyStep, ...]:
    pruned: list[ir.ApplyStep] = []
    for step in steps:
        if isinstance(step, ir.ApplyIf):
            pruned.append(
                ir.ApplyIf(
                    condition=step.condition,
                    then_steps=_prune_apply(step.then_steps, victims),
                    else_steps=_prune_apply(step.else_steps, victims),
                )
            )
        elif _step_name(step) not in victims:
            pruned.append(step)
    return tuple(pruned)


def _insert_near(
    steps: tuple[ir.ApplyStep, ...], new_step: ir.ApplyStep, anchor: str, position: str
) -> tuple[tuple[ir.ApplyStep, ...], bool]:
    result: list[ir.ApplyStep] = []
    inserted = False
    for step in steps:
        if isinstance(step, ir.ApplyIf) and not inserted:
            then_steps, then_inserted = _insert_near(step.then_steps, new_step, anchor, position)
            else_steps, else_inserted = (
                _insert_near(step.else_steps, new_step, anchor, position)
                if not then_inserted
                else (step.else_steps, False)
            )
            if then_inserted or else_inserted:
                inserted = True
                step = ir.ApplyIf(
                    condition=step.condition, then_steps=then_steps, else_steps=else_steps
                )
            result.append(step)
            continue
        if not inserted and _step_name(step) == anchor:
            if position == "before":
                result.extend([new_step, step])
            else:
                result.extend([step, new_step])
            inserted = True
        else:
            result.append(step)
    return tuple(result), inserted


def apply_delta(program: ir.Program, delta: Delta) -> tuple[ir.Program, ChangeSet]:
    """Apply a delta atomically, returning the new program and change set."""
    try:
        return delta.apply_to(program)
    except TypeCheckError as exc:
        raise CompositionError(
            f"delta {delta.name!r} produces an ill-typed program: {exc}"
        ) from exc


def __getattr__(name: str):
    # ``parse_delta`` is defined with the grammar it reuses; it is read
    # from here too, and resolved on that first read.
    if name == "parse_delta":
        from repro.lang.parser import parse_delta

        return parse_delta
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

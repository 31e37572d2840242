"""FlexVet front 1: static parallelism-safety classification.

FlexScale (sharded multi-process simulation) and the batched/vectorized
packet engine both need to know, *before any process is forked*, which
program state can be partitioned, which must be co-located, and which
forbids reordering packets at all. This pass answers that with an
abstract interpretation over the FlexBPF IR that assigns every map (and
every stage that touches one) a state class:

* ``stateless`` — the map is never mutated from the data path (reads of
  control-plane-populated state are fine: such maps replicate to every
  shard). Elements are stateless when they touch no data-plane-mutated
  map at all.
* ``per_flow`` — every data-path access keys the map by the *same*
  tuple of packet header fields, and none of those fields is rewritten
  by the data path. Packets can then be partitioned by those fields:
  two packets touching the same entry necessarily agree on the
  partition fields, so a shard that owns a slice of the field space
  observes every access to its entries.
* ``cross_flow`` — anything else: hash-bucketed keys (sketches, load
  balancers deliberately alias many flows into one entry), constant or
  metadata keys, keys derived from other map values or action
  arguments, access sites that disagree on which field feeds a key
  position (the firewall writes ``(dst, src)`` but reads ``(src,
  dst)``), or partition fields the program itself rewrites (NAT
  rewrites ``ipv4.src``, so nothing downstream can shard by it).

From the per-map classes the pass derives:

* **batch-safety** — a program is ``batch_safe`` when reordering
  packets of *different* flows cannot change any outcome: every
  data-plane-mutated map is ``per_flow`` and all of them share at least
  one common partition field (the ``flow_key``). A vectorized
  struct-of-arrays backend may then sub-batch by the flow key and
  process groups in any order, preserving order only within a group.
  A slice that mutates no map is stateless, and batch-safe with an
  empty flow key.
* **shard-affinity** — data-plane-mutated maps co-accessed by one
  element must live on one shard; affinity groups are the connected
  components of that relation. A group is shardable when its members
  are all per-flow with a nonempty common partition field set,
  otherwise it is pinned to a single shard.

Like every FlexCheck pass this is a sound over-approximation: the
property tests in ``tests/property/test_prop_vet.py`` execute the
bundled corpus through the interpreter and assert the dynamic behaviour
is contained in the static classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.analysis.dataflow import analyze, executed_slice
from repro.lang import ir


class StateClass(enum.Enum):
    """How one map (or one stage's state footprint) relates to flows."""

    STATELESS = "stateless"
    PER_FLOW = "per_flow"
    CROSS_FLOW = "cross_flow"

    @property
    def rank(self) -> int:
        return {"stateless": 0, "per_flow": 1, "cross_flow": 2}[self.value]


#: Element name the report uses for reads performed directly by
#: apply-if conditions (they run on every device hosting any slice).
APPLY_ELEMENT = "<apply>"

# Abstract value kinds for key parts.
_FIELD = "field"
_CONST = "const"
_OPAQUE = "opaque"


# ---------------------------------------------------------------------------
# Abstract interpretation: key-signature collection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Access:
    """One syntactic map access with its abstract key signature."""

    map_name: str
    element: str
    kind: str  # "read" | "write"
    #: per key position: (_FIELD, "hdr.fld") | (_CONST, None) | (_OPAQUE, why)
    signature: tuple[tuple[str, str | None], ...]


def _abstract(expr: ir.Expr, env: dict[str, tuple[str, str | None]]):
    """Abstract value of ``expr``: which packet input (if any) it copies."""
    if isinstance(expr, ir.FieldRef):
        return (_FIELD, str(expr))
    if isinstance(expr, ir.Const):
        return (_CONST, None)
    if isinstance(expr, ir.VarRef):
        return env.get(expr.name, (_OPAQUE, f"local {expr.name!r}"))
    if isinstance(expr, ir.MetaRef):
        return (_OPAQUE, f"metadata {expr.key!r}")
    if isinstance(expr, ir.MapGet):
        return (_OPAQUE, f"value read from map {expr.map_name!r}")
    if isinstance(expr, ir.HashExpr):
        return (_OPAQUE, "hash bucket")
    return (_OPAQUE, "computed expression")


class _Scanner:
    """Walks bodies tracking local bindings, collecting map accesses."""

    def __init__(self) -> None:
        self.accesses: list[_Access] = []

    # -- expressions (reads) ----------------------------------------------

    def expr(self, expr: ir.Expr, env, element: str) -> None:
        if isinstance(expr, ir.MapGet):
            self.accesses.append(
                _Access(
                    map_name=expr.map_name,
                    element=element,
                    kind="read",
                    signature=tuple(_abstract(part, env) for part in expr.key),
                )
            )
            for part in expr.key:
                self.expr(part, env, element)
        elif isinstance(expr, ir.BinOp):
            self.expr(expr.left, env, element)
            self.expr(expr.right, env, element)
        elif isinstance(expr, ir.UnOp):
            self.expr(expr.operand, env, element)
        elif isinstance(expr, ir.HashExpr):
            for arg in expr.args:
                self.expr(arg, env, element)

    # -- statements --------------------------------------------------------

    def body(self, body: tuple[ir.Stmt, ...], env, element: str) -> None:
        for stmt in body:
            self.stmt(stmt, env, element)

    def stmt(self, stmt: ir.Stmt, env, element: str) -> None:
        if isinstance(stmt, ir.Let):
            self.expr(stmt.value, env, element)
            env[stmt.name] = _abstract(stmt.value, env)
        elif isinstance(stmt, ir.Assign):
            self.expr(stmt.value, env, element)
            if isinstance(stmt.target, ir.VarRef):
                env[stmt.target.name] = _abstract(stmt.value, env)
        elif isinstance(stmt, ir.MapPut):
            self.accesses.append(
                _Access(
                    map_name=stmt.map_name,
                    element=element,
                    kind="write",
                    signature=tuple(_abstract(part, env) for part in stmt.key),
                )
            )
            for part in stmt.key:
                self.expr(part, env, element)
            self.expr(stmt.value, env, element)
        elif isinstance(stmt, ir.MapDelete):
            self.accesses.append(
                _Access(
                    map_name=stmt.map_name,
                    element=element,
                    kind="write",
                    signature=tuple(_abstract(part, env) for part in stmt.key),
                )
            )
            for part in stmt.key:
                self.expr(part, env, element)
        elif isinstance(stmt, ir.If):
            self.expr(stmt.condition, env, element)
            then_env = dict(env)
            else_env = dict(env)
            self.body(stmt.then_body, then_env, element)
            self.body(stmt.else_body, else_env, element)
            # Join: a variable whose binding differs across branches is
            # control-flow dependent and no longer a plain field copy.
            for name in set(then_env) | set(else_env):
                left = then_env.get(name)
                right = else_env.get(name)
                if left == right:
                    if left is not None:
                        env[name] = left
                elif name in env and then_env.get(name) == env[name] == else_env.get(name):
                    pass
                else:
                    env[name] = (_OPAQUE, f"control-flow dependent local {name!r}")
        elif isinstance(stmt, ir.Repeat):
            # Later iterations may observe bindings produced by earlier
            # ones; pre-demote everything the body assigns before the scan
            # so first-iteration signatures are not treated as invariant.
            for name in _assigned_names(stmt.body):
                env[name] = (_OPAQUE, f"loop-carried local {name!r}")
            self.body(stmt.body, env, element)
        elif isinstance(stmt, ir.PrimitiveCall):
            for arg in stmt.args:
                self.expr(arg, env, element)


def _assigned_names(body: tuple[ir.Stmt, ...]) -> set[str]:
    names: set[str] = set()
    for stmt in body:
        if isinstance(stmt, ir.Let):
            names.add(stmt.name)
        elif isinstance(stmt, ir.Assign) and isinstance(stmt.target, ir.VarRef):
            names.add(stmt.target.name)
        elif isinstance(stmt, ir.If):
            names |= _assigned_names(stmt.then_body) | _assigned_names(stmt.else_body)
        elif isinstance(stmt, ir.Repeat):
            names |= _assigned_names(stmt.body)
    return names


def _collect_accesses(
    program: ir.Program, executed: set[str]
) -> list[_Access]:
    """Every syntactic map access in the executed slice, attributed to
    the applied table/function that performs it (actions fold into each
    table listing them; apply-if condition reads get ``<apply>``)."""
    scanner = _Scanner()

    for table in program.tables:
        if table.name not in executed:
            continue
        for action_name in sorted(table.invocable):
            action = program.action(action_name)
            env = {
                param: (_OPAQUE, f"action argument {param!r}")
                for param, _ in action.params
            }
            scanner.body(action.body, env, table.name)

    for function in program.functions:
        if function.name not in executed:
            continue
        scanner.body(function.body, {}, function.name)

    def walk(steps: tuple[ir.ApplyStep, ...]) -> None:
        for step in steps:
            if isinstance(step, ir.ApplyIf):
                scanner.expr(step.condition, {}, APPLY_ELEMENT)
                walk(step.then_steps)
                walk(step.else_steps)

    walk(program.apply)
    return scanner.accesses


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapVet:
    """Static verdict for one map."""

    name: str
    state_class: StateClass
    #: "hdr.fld" partition fields (per_flow only) in key-position order.
    partition_fields: tuple[str, ...]
    readers: tuple[str, ...]
    writers: tuple[str, ...]
    #: why the map is cross-flow (empty otherwise).
    reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "class": self.state_class.value,
            "partition_fields": list(self.partition_fields),
            "readers": list(self.readers),
            "writers": list(self.writers),
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class ElementVet:
    """Static verdict for one applied stage (table or function)."""

    name: str
    kind: str  # "table" | "function"
    state_class: StateClass
    #: data-plane-mutated maps this element reads or writes.
    stateful_maps: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "class": self.state_class.value,
            "stateful_maps": list(self.stateful_maps),
        }


@dataclass(frozen=True)
class AffinityGroup:
    """Maps that must be co-located (plus the stages that bind them)."""

    maps: tuple[str, ...]
    elements: tuple[str, ...]
    shardable: bool
    #: common partition fields when shardable.
    partition_fields: tuple[str, ...]
    #: why the group is pinned to one shard (None when shardable).
    pinned_reason: str | None

    def to_dict(self) -> dict:
        return {
            "maps": list(self.maps),
            "elements": list(self.elements),
            "shardable": self.shardable,
            "partition_fields": list(self.partition_fields),
            "pinned_reason": self.pinned_reason,
        }


@dataclass(frozen=True)
class VetReport:
    """The FlexVet classification of one program (or hosted slice).

    Implements the FlexScope :class:`~repro.observe.report.Reportable`
    protocol (``summary()``/``to_dict()``) so the CLI renders it through
    the shared ``emit()`` path.
    """

    program_name: str
    program_version: int
    #: sorted hosted element names, or None for the whole program.
    hosted: tuple[str, ...] | None
    maps: tuple[MapVet, ...]
    elements: tuple[ElementVet, ...]
    groups: tuple[AffinityGroup, ...]
    #: True when no data-plane map mutation exists in the slice
    #: (trivially batch-safe).
    stateless: bool
    batch_safe: bool
    batch_reasons: tuple[str, ...]
    #: sorted common partition fields a batched backend may group by
    #: (empty for stateless programs — any grouping works).
    flow_key: tuple[str, ...]

    # -- lookups ----------------------------------------------------------

    def map_vet(self, name: str) -> MapVet:
        for verdict in self.maps:
            if verdict.name == name:
                return verdict
        raise KeyError(f"no map {name!r} in vet report")

    def element_vet(self, name: str) -> ElementVet:
        for verdict in self.elements:
            if verdict.name == name:
                return verdict
        raise KeyError(f"no element {name!r} in vet report")

    def maps_of_class(self, state_class: StateClass) -> tuple[str, ...]:
        return tuple(v.name for v in self.maps if v.state_class is state_class)

    @property
    def stateful_maps(self) -> tuple[str, ...]:
        """Maps mutated from the data path (per_flow ∪ cross_flow)."""
        return tuple(
            v.name for v in self.maps if v.state_class is not StateClass.STATELESS
        )

    # -- Reportable --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "program": self.program_name,
            "version": self.program_version,
            "hosted": list(self.hosted) if self.hosted is not None else None,
            "batch_safe": self.batch_safe,
            "batch_reasons": list(self.batch_reasons),
            "stateless": self.stateless,
            "flow_key": list(self.flow_key),
            "maps": [v.to_dict() for v in self.maps],
            "elements": [v.to_dict() for v in self.elements],
            "affinity_groups": [g.to_dict() for g in self.groups],
        }

    def summary(self) -> str:
        counts = {cls: 0 for cls in StateClass}
        for verdict in self.maps:
            counts[verdict.state_class] += 1
        scope = "" if self.hosted is None else f" [hosted: {', '.join(self.hosted)}]"
        lines = [
            f"flexvet {self.program_name!r} (version {self.program_version}){scope}: "
            f"batch_safe={'yes' if self.batch_safe else 'no'}"
            + (f" flow_key=({', '.join(self.flow_key)})" if self.flow_key else "")
            + f" — {counts[StateClass.PER_FLOW]} per-flow, "
            f"{counts[StateClass.CROSS_FLOW]} cross-flow, "
            f"{counts[StateClass.STATELESS]} stateless map(s)"
        ]
        if self.maps:
            lines.append("  maps:")
            for verdict in self.maps:
                extra = ""
                if verdict.state_class is StateClass.PER_FLOW:
                    extra = f"  partition=({', '.join(verdict.partition_fields)})"
                elif verdict.reasons:
                    extra = f"  {verdict.reasons[0]}"
                lines.append(
                    f"    {verdict.name:24s} {verdict.state_class.value:10s}{extra}"
                )
        if self.elements:
            lines.append("  elements:")
            for verdict in self.elements:
                touched = (
                    f"  [{', '.join(verdict.stateful_maps)}]"
                    if verdict.stateful_maps
                    else ""
                )
                lines.append(
                    f"    {verdict.name:24s} {verdict.kind:8s} "
                    f"{verdict.state_class.value:10s}{touched}"
                )
        if self.groups:
            lines.append("  shard affinity:")
            for index, group in enumerate(self.groups):
                if group.shardable:
                    detail = f"shard by ({', '.join(group.partition_fields)})"
                else:
                    detail = f"pinned — {group.pinned_reason}"
                lines.append(
                    f"    group {index}: {{{', '.join(group.maps)}}} {detail}"
                )
        for reason in self.batch_reasons:
            lines.append(f"  batch: {reason}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _classify_map(
    name: str,
    accesses: list[_Access],
    written: bool,
    slice_field_writes: set[str],
) -> tuple[StateClass, tuple[str, ...], tuple[str, ...]]:
    """(class, partition fields, reasons) for one accessed map."""
    if not written:
        return StateClass.STATELESS, (), ()

    reasons: list[str] = []
    arity = len(accesses[0].signature)
    partition: list[str] = []
    for position in range(arity):
        parts = {access.signature[position] for access in accesses}
        kinds = {kind for kind, _ in parts}
        if _OPAQUE in kinds:
            details = sorted(
                detail for kind, detail in parts if kind == _OPAQUE and detail
            )
            reasons.append(
                f"key position {position} is not a packet field ({details[0]})"
            )
        elif kinds == {_FIELD}:
            fields = sorted(detail for _, detail in parts)
            if len(fields) == 1:
                partition.append(fields[0])
            else:
                reasons.append(
                    f"key position {position} disagrees across access sites "
                    f"({' vs '.join(fields)})"
                )
        elif _FIELD in kinds:
            reasons.append(
                f"key position {position} is sometimes a field, sometimes not"
            )
        # all-const positions select sub-entries; they neither help nor
        # hurt partitioning.
    if not reasons and not partition:
        reasons.append("keyed only by constants (one global entry set)")
    for field in partition:
        if field in slice_field_writes:
            reasons.append(
                f"partition field {field} is rewritten by the data path "
                f"(no longer identifies the ingress flow)"
            )
    if reasons:
        return StateClass.CROSS_FLOW, (), tuple(reasons)
    return StateClass.PER_FLOW, tuple(partition), ()


def vet(program: ir.Program, hosted_elements: set[str] | None = None) -> VetReport:
    """Classify every map and stage of ``program`` (or the slice one
    device hosts) and derive batch-safety and shard-affinity."""
    info = analyze(program)
    executed, access = executed_slice(program, info, hosted_elements)
    accesses = _collect_accesses(program, executed)

    slice_field_writes = {str(ref) for ref in access.field_writes}
    by_map: dict[str, list[_Access]] = {}
    for item in accesses:
        by_map.setdefault(item.map_name, []).append(item)
    written_maps = {a.map_name for a in accesses if a.kind == "write"}

    stage_names = {t.name for t in program.tables} | {
        f.name for f in program.functions
    }

    map_verdicts: list[MapVet] = []
    partition_by_map: dict[str, tuple[str, ...]] = {}
    class_by_map: dict[str, StateClass] = {}
    for map_def in sorted(program.maps, key=lambda m: m.name):
        name = map_def.name
        sites = by_map.get(name, [])
        if not sites:
            state_class, partition, reasons = StateClass.STATELESS, (), ()
        else:
            state_class, partition, reasons = _classify_map(
                name, sites, name in written_maps, slice_field_writes
            )
        readers = sorted(
            {a.element for a in sites if a.kind == "read" and a.element in stage_names | {APPLY_ELEMENT}}
        )
        writers = sorted({a.element for a in sites if a.kind == "write"})
        class_by_map[name] = state_class
        partition_by_map[name] = partition
        map_verdicts.append(
            MapVet(
                name=name,
                state_class=state_class,
                partition_fields=partition,
                readers=tuple(readers),
                writers=tuple(writers),
                reasons=reasons,
            )
        )

    stateful = {
        name for name, cls in class_by_map.items() if cls is not StateClass.STATELESS
    }

    # -- per-stage verdicts ------------------------------------------------
    element_verdicts: list[ElementVet] = []
    touched_by_element: dict[str, set[str]] = {}
    for kind, names in (
        ("table", [t.name for t in program.tables]),
        ("function", [f.name for f in program.functions]),
    ):
        for name in sorted(names):
            if name not in executed:
                continue
            element_access = info.element_access(name)
            touched = (
                (element_access.map_reads | element_access.map_writes) & stateful
            )
            touched_by_element[name] = touched
            if not touched:
                state_class = StateClass.STATELESS
            elif all(class_by_map[m] is StateClass.PER_FLOW for m in touched):
                state_class = StateClass.PER_FLOW
            else:
                state_class = StateClass.CROSS_FLOW
            element_verdicts.append(
                ElementVet(
                    name=name,
                    kind=kind,
                    state_class=state_class,
                    stateful_maps=tuple(sorted(touched)),
                )
            )

    # -- shard affinity: union-find over co-accessed stateful maps --------
    parent: dict[str, str] = {name: name for name in stateful}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def union(left: str, right: str) -> None:
        root_left, root_right = find(left), find(right)
        if root_left != root_right:
            parent[max(root_left, root_right)] = min(root_left, root_right)

    for touched in touched_by_element.values():
        ordered = sorted(touched)
        for other in ordered[1:]:
            union(ordered[0], other)

    members: dict[str, set[str]] = {}
    for name in stateful:
        members.setdefault(find(name), set()).add(name)

    groups: list[AffinityGroup] = []
    for root in sorted(members):
        group_maps = tuple(sorted(members[root]))
        group_elements = tuple(
            sorted(
                element
                for element, touched in touched_by_element.items()
                if touched & members[root]
            )
        )
        cross = [m for m in group_maps if class_by_map[m] is StateClass.CROSS_FLOW]
        if cross:
            groups.append(
                AffinityGroup(
                    maps=group_maps,
                    elements=group_elements,
                    shardable=False,
                    partition_fields=(),
                    pinned_reason=f"cross-flow map(s): {', '.join(cross)}",
                )
            )
            continue
        common = set(partition_by_map[group_maps[0]])
        for name in group_maps[1:]:
            common &= set(partition_by_map[name])
        if common:
            groups.append(
                AffinityGroup(
                    maps=group_maps,
                    elements=group_elements,
                    shardable=True,
                    partition_fields=tuple(sorted(common)),
                    pinned_reason=None,
                )
            )
        else:
            groups.append(
                AffinityGroup(
                    maps=group_maps,
                    elements=group_elements,
                    shardable=False,
                    partition_fields=(),
                    pinned_reason="per-flow maps share no common partition field",
                )
            )

    # -- batch safety ------------------------------------------------------
    batch_reasons: list[str] = []
    flow_key: tuple[str, ...] = ()
    if stateful:
        for verdict in map_verdicts:
            if verdict.state_class is StateClass.CROSS_FLOW:
                why = verdict.reasons[0] if verdict.reasons else "cross-flow"
                batch_reasons.append(
                    f"map {verdict.name!r} is cross-flow: {why}"
                )
        if not batch_reasons:
            common = set(partition_by_map[sorted(stateful)[0]])
            for name in sorted(stateful):
                common &= set(partition_by_map[name])
            if common:
                flow_key = tuple(sorted(common))
            else:
                batch_reasons.append(
                    "per-flow maps share no common partition field to batch by"
                )

    return VetReport(
        program_name=program.name,
        program_version=program.version,
        hosted=tuple(sorted(hosted_elements)) if hosted_elements is not None else None,
        maps=tuple(map_verdicts),
        elements=tuple(element_verdicts),
        groups=tuple(groups),
        stateless=not stateful,
        batch_safe=not batch_reasons,
        batch_reasons=tuple(batch_reasons),
        flow_key=flow_key,
    )

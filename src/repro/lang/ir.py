"""The FlexBPF intermediate representation.

The IR is a typed, validated object model of a FlexBPF program. It is
produced by the parser (:mod:`repro.lang.parser`) or the programmatic
builder (:mod:`repro.lang.builder`), certified by the analyzer
(:mod:`repro.lang.analyzer`), compiled by :mod:`repro.compiler`, and
interpreted packet-by-packet by :mod:`repro.simulator.pipeline_exec`.

Design notes
------------
* Every element (header, map, table, action, function, parser state) is
  named; names are the unit of incremental change (the delta DSL selects
  elements by name pattern) and of placement (the compiler places
  elements, not whole programs).
* Expressions and statements are immutable dataclass trees. The
  simulator interprets them directly; the analyzer walks them to bound
  execution cost. There is no separate bytecode — for a Python-hosted
  data plane an AST interpreter is both simpler and fast enough.
* ``Program`` instances are immutable once frozen; runtime changes
  produce *new* programs via :mod:`repro.lang.delta`, mirroring the
  paper's per-packet old-XOR-new consistency model (a packet holds a
  reference to exactly one immutable program version).
* Because nothing is ever edited in place, a verdict about a node holds
  for as long as the node does. ``Program.validate`` marks the instance
  it passed, so a program is type-checked once however many doors it
  goes through, and a new version re-checks only the elements that are
  not its predecessor's own nodes resolving the same names to the same
  objects (:meth:`Program.unchanged_since`).
* What a statement body reads, writes and names is derived in one place
  (:class:`AccessSet`, collected by the one walk below) and kept on the
  only nodes that own a body: ``ActionDef.access`` /
  ``FunctionDef.access``. Every pass that asks a question of a body —
  certification, data flow, composition, placement — reads a projection
  of it, so a new statement or expression kind is taught to the
  collector, not to each pass. Likewise "the actions a table may run"
  is spelled once, :attr:`TableDef.invocable`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

from repro.errors import TypeCheckError
from repro.lang.types import BitsType, BoolType, ValueType, require_bits, require_bool, unify

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldRef:
    """A reference to a packet header field, e.g. ``ipv4.src``."""

    header: str
    field: str

    def __str__(self) -> str:
        return f"{self.header}.{self.field}"


@dataclass(frozen=True)
class VarRef:
    """A reference to a local variable or action parameter."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """An integer literal with an optional explicit width."""

    value: int
    width: int | None = None

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class MetaRef:
    """A reference to packet metadata maintained by the datapath.

    Well-known keys: ``ingress_port``, ``egress_port``, ``packet_length``,
    ``timestamp_ns``, ``drop_flag``, ``vlan_id``, ``queue_id``. Targets may
    expose more.
    """

    key: str

    def __str__(self) -> str:
        return f"meta.{self.key}"


class BinOpKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LAND = "&&"
    LOR = "||"


#: Operators producing booleans from integer operands.
COMPARISONS = frozenset(
    {BinOpKind.EQ, BinOpKind.NE, BinOpKind.LT, BinOpKind.LE, BinOpKind.GT, BinOpKind.GE}
)
#: Operators over booleans.
LOGICALS = frozenset({BinOpKind.LAND, BinOpKind.LOR})


@dataclass(frozen=True)
class BinOp:
    kind: BinOpKind
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.kind.value} {self.right})"


@dataclass(frozen=True)
class UnOp:
    """Unary operators: ``!`` (boolean not) and ``~`` (bitwise not)."""

    op: str
    operand: "Expr"

    def __str__(self) -> str:
        return f"{self.op}{self.operand}"


@dataclass(frozen=True)
class MapGet:
    """``map_get(map, key...)`` — returns the value or 0 when absent."""

    map_name: str
    key: tuple["Expr", ...]

    def __str__(self) -> str:
        keys = ", ".join(str(k) for k in self.key)
        return f"map_get({self.map_name}, {keys})"


@dataclass(frozen=True)
class HashExpr:
    """``hash(expr...) % width`` — a stable hash over the operands.

    Used by sketches and load balancers; lowered to CRC units on switch
    targets and to jhash on eBPF hosts.
    """

    args: tuple["Expr", ...]
    modulus: int

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.args)
        return f"hash({body}) % {self.modulus}"


Expr = FieldRef | VarRef | Const | MetaRef | BinOp | UnOp | MapGet | HashExpr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Let:
    """``let name: uN = expr;`` — declare and initialize a local."""

    name: str
    value_type: BitsType
    value: Expr


@dataclass(frozen=True)
class Assign:
    """Assignment to a local, header field, or metadata key."""

    target: VarRef | FieldRef | MetaRef
    value: Expr


@dataclass(frozen=True)
class MapPut:
    """``map_put(map, key..., value);``"""

    map_name: str
    key: tuple[Expr, ...]
    value: Expr


@dataclass(frozen=True)
class MapDelete:
    """``map_delete(map, key...);``"""

    map_name: str
    key: tuple[Expr, ...]


@dataclass(frozen=True)
class If:
    condition: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class Repeat:
    """``repeat N { ... }`` — the only loop form; N is a compile-time
    constant, which is what makes every FlexBPF program certifiably
    bounded (§3.1 of the paper)."""

    count: int
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class PrimitiveCall:
    """A call to a datapath primitive (``mark_drop``, ``set_port``,
    ``emit_digest``, ``clone``, ``recirculate``, ``no_op``)."""

    name: str
    args: tuple[Expr, ...] = ()


PRIMITIVES = frozenset(
    {"mark_drop", "set_port", "emit_digest", "clone", "recirculate", "no_op", "set_queue"}
)


Stmt = Let | Assign | MapPut | MapDelete | If | Repeat | PrimitiveCall


# ---------------------------------------------------------------------------
# Footprints
# ---------------------------------------------------------------------------

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

    field_reads: frozenset[FieldRef] = frozenset()
    field_writes: frozenset[FieldRef] = frozenset()
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

    @property
    def maps(self) -> frozenset[str]:
        return self.map_reads | self.map_writes

    def touches_map(self, map_name: str) -> bool:
        return map_name in self.map_reads or map_name in self.map_writes

    @property
    def referents(self) -> frozenset[tuple[str, str]]:
        """``(kind, name)`` of every header and map the footprint names
        — the lookups ``Program._check_stmt`` / ``type_of`` resolve."""
        named = {("header", ref.header) for ref in self.field_reads | self.field_writes}
        named.update(("map", name) for name in self.maps)
        return frozenset(named)

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
    """The one walk that says what a statement reads and writes: a
    mutable accumulator of the six :class:`AccessSet` components. A
    sound over-approximation — both branches of every ``If`` count."""

    def __init__(self) -> None:
        self.field_reads: set[FieldRef] = set()
        self.field_writes: set[FieldRef] = set()
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

    def expr(self, expr: Expr) -> None:
        if isinstance(expr, FieldRef):
            self.field_reads.add(expr)
        elif isinstance(expr, MetaRef):
            self.meta_reads.add(expr.key)
        elif isinstance(expr, BinOp):
            self.expr(expr.left)
            self.expr(expr.right)
        elif isinstance(expr, UnOp):
            self.expr(expr.operand)
        elif isinstance(expr, MapGet):
            self.map_reads.add(expr.map_name)
            for part in expr.key:
                self.expr(part)
        elif isinstance(expr, HashExpr):
            for arg in expr.args:
                self.expr(arg)
        # Const / VarRef: no element-level data flow.

    # -- statements --------------------------------------------------------

    def stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Let):
            self.expr(stmt.value)
        elif isinstance(stmt, Assign):
            self.expr(stmt.value)
            if isinstance(stmt.target, FieldRef):
                self.field_writes.add(stmt.target)
            elif isinstance(stmt.target, MetaRef):
                self.meta_writes.add(stmt.target.key)
        elif isinstance(stmt, MapPut):
            self.map_writes.add(stmt.map_name)
            for part in stmt.key:
                self.expr(part)
            self.expr(stmt.value)
        elif isinstance(stmt, MapDelete):
            self.map_writes.add(stmt.map_name)
            for part in stmt.key:
                self.expr(part)
        elif isinstance(stmt, If):
            self.expr(stmt.condition)
            self.body(stmt.then_body)
            self.body(stmt.else_body)
        elif isinstance(stmt, Repeat):
            self.body(stmt.body)
        elif isinstance(stmt, PrimitiveCall):
            for arg in stmt.args:
                self.expr(arg)
            self.meta_writes.update(PRIMITIVE_META_WRITES.get(stmt.name, ()))

    def body(self, body: tuple[Stmt, ...]) -> None:
        for stmt in body:
            self.stmt(stmt)


def access_of_body(body: tuple[Stmt, ...]) -> AccessSet:
    collector = _Collector()
    collector.body(body)
    return collector.freeze()


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeaderDef:
    """A packet header layout: ordered (field -> width-in-bits)."""

    name: str
    fields: tuple[tuple[str, int], ...]

    def field_width(self, field_name: str) -> int:
        for name, width in self.fields:
            if name == field_name:
                return width
        raise TypeCheckError(f"header {self.name!r} has no field {field_name!r}")


@dataclass(frozen=True)
class ParserTransition:
    """Extract ``next_header`` when ``field == value`` in an already
    extracted header (None field means unconditional)."""

    next_header: str
    select_field: FieldRef | None = None
    select_value: int | None = None


@dataclass(frozen=True)
class ParserDef:
    """A linearized parse graph: the start header plus conditional
    transitions. Each transition consumes one parser-state resource on
    switch targets."""

    start_header: str
    transitions: tuple[ParserTransition, ...] = ()

    @property
    def headers_extracted(self) -> tuple[str, ...]:
        seen = [self.start_header]
        for transition in self.transitions:
            if transition.next_header not in seen:
                seen.append(transition.next_header)
        return tuple(seen)

    @property
    def state_count(self) -> int:
        return 1 + len(self.transitions)


class Persistence(enum.Enum):
    """How map state relates to reconfiguration and migration."""

    EPHEMERAL = "ephemeral"  # may be dropped on reconfig (e.g., caches)
    DURABLE = "durable"  # must be migrated with the program


@dataclass(frozen=True)
class MapDef:
    """A logical key/value map — the paper's virtualized network state.

    The compiler chooses a physical encoding per target (registers,
    stateful tables, flow-instruction state, or kernel maps); see
    :mod:`repro.compiler.state_encoding`.
    """

    name: str
    key_fields: tuple[FieldRef, ...]
    value_type: BitsType
    max_entries: int
    persistence: Persistence = Persistence.DURABLE

    @cached_property
    def referents(self) -> frozenset[tuple[str, str]]:
        """``(kind, name)`` of every declaration this one names."""
        return frozenset(("header", ref.header) for ref in self.key_fields)

    @property
    def key_bits(self) -> int:
        # Widths resolved against the program in Program.validate();
        # stored here only once known. Use key arity as a fallback.
        return 32 * len(self.key_fields)


class MatchKind(enum.Enum):
    EXACT = "exact"
    LPM = "lpm"
    TERNARY = "ternary"
    RANGE = "range"


@dataclass(frozen=True)
class TableKey:
    field: FieldRef
    match_kind: MatchKind


@dataclass(frozen=True)
class ActionDef:
    """A named action: parameters plus a straight-line body.

    Action bodies reuse the statement IR but the validator rejects
    control flow inside actions (as RMT-class hardware does).
    """

    name: str
    params: tuple[tuple[str, BitsType], ...]
    body: tuple[Stmt, ...]

    @cached_property
    def access(self) -> AccessSet:
        """The body's footprint. The node is frozen and the footprint a
        function of the body alone, so whoever holds the node — a later
        version, a composition, another program — holds this too."""
        return access_of_body(self.body)

    @cached_property
    def referents(self) -> frozenset[tuple[str, str]]:
        """``(kind, name)`` of every declaration this one names."""
        return self.access.referents


@dataclass(frozen=True)
class ActionCall:
    action: str
    args: tuple[int, ...] = ()


@dataclass(frozen=True)
class TableDef:
    """A match/action table."""

    name: str
    keys: tuple[TableKey, ...]
    actions: tuple[str, ...]
    size: int
    default_action: ActionCall | None = None

    @cached_property
    def referents(self) -> frozenset[tuple[str, str]]:
        """``(kind, name)`` of every declaration this one names."""
        named = {("header", key.field.header) for key in self.keys}
        named.update(("action", name) for name in self.invocable)
        return frozenset(named)

    @property
    def invocable(self) -> tuple[str, ...]:
        """The actions this table may run: the listed ones, then a
        default action that is not among them (it runs on every miss)."""
        default = self.default_action
        if default is None or default.action in self.actions:
            return self.actions
        return (*self.actions, default.action)

    @property
    def is_exact(self) -> bool:
        """Every key exact-match (a keyless table is not): the table
        resolves a lookup through a hash index, not a scan."""
        return bool(self.keys) and all(k.match_kind is MatchKind.EXACT for k in self.keys)

    @property
    def is_ternary(self) -> bool:
        return any(k.match_kind in (MatchKind.TERNARY, MatchKind.RANGE) for k in self.keys)

    @property
    def is_lpm(self) -> bool:
        return any(k.match_kind == MatchKind.LPM for k in self.keys)


@dataclass(frozen=True)
class FunctionDef:
    """An eBPF-style function: arbitrary (bounded) statement body."""

    name: str
    body: tuple[Stmt, ...]

    @cached_property
    def access(self) -> AccessSet:
        """The body's footprint. The node is frozen and the footprint a
        function of the body alone, so whoever holds the node — a later
        version, a composition, another program — holds this too."""
        return access_of_body(self.body)

    @cached_property
    def referents(self) -> frozenset[tuple[str, str]]:
        """``(kind, name)`` of every declaration this one names."""
        return self.access.referents


# -- apply block --------------------------------------------------------------


@dataclass(frozen=True)
class ApplyTable:
    table: str


@dataclass(frozen=True)
class ApplyFunction:
    function: str


@dataclass(frozen=True)
class ApplyIf:
    condition: Expr
    then_steps: tuple["ApplyStep", ...]
    else_steps: tuple["ApplyStep", ...] = ()


ApplyStep = ApplyTable | ApplyFunction | ApplyIf


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A complete, validated FlexBPF program.

    ``version`` is bumped by the delta engine on every runtime change so
    the consistency machinery can tag packets with the exact program
    version that processed them.
    """

    name: str
    headers: tuple[HeaderDef, ...] = ()
    parser: ParserDef | None = None
    maps: tuple[MapDef, ...] = ()
    actions: tuple[ActionDef, ...] = ()
    tables: tuple[TableDef, ...] = ()
    functions: tuple[FunctionDef, ...] = ()
    apply: tuple[ApplyStep, ...] = ()
    version: int = 1
    owner: str = "infrastructure"

    # -- lookups ----------------------------------------------------------

    def header(self, name: str) -> HeaderDef:
        return _find(self.headers, name, "header")

    def map(self, name: str) -> MapDef:
        return _find(self.maps, name, "map")

    def action(self, name: str) -> ActionDef:
        return _find(self.actions, name, "action")

    def table(self, name: str) -> TableDef:
        return _find(self.tables, name, "table")

    def function(self, name: str) -> FunctionDef:
        return _find(self.functions, name, "function")

    def has_table(self, name: str) -> bool:
        return any(t.name == name for t in self.tables)

    def has_function(self, name: str) -> bool:
        return any(f.name == name for f in self.functions)

    def has_map(self, name: str) -> bool:
        return any(m.name == name for m in self.maps)

    def has_action(self, name: str) -> bool:
        return any(a.name == name for a in self.actions)

    def field_width(self, ref: FieldRef) -> int:
        return self.header(ref.header).field_width(ref.field)

    def map_key_bits(self, map_def: MapDef) -> int:
        return sum(self.field_width(ref) for ref in map_def.key_fields)

    def table_key_bits(self, table: TableDef) -> int:
        return sum(self.field_width(key.field) for key in table.keys)

    @property
    def element_names(self) -> tuple[str, ...]:
        """All placeable element names (tables, functions, maps)."""
        return tuple(
            [t.name for t in self.tables]
            + [f.name for f in self.functions]
            + [m.name for m in self.maps]
        )

    def bump_version(self) -> "Program":
        return replace(self, version=self.version + 1)

    # -- validation --------------------------------------------------------

    #: set on the instance by a :meth:`validate` that passed.
    #: ``dataclasses.replace`` builds a new instance without it.
    _validated: ClassVar[bool] = False

    def validate(self, previous: "Program | None" = None) -> "Program":
        """Resolve names and type-check every expression; returns self.

        Raises :class:`TypeCheckError` on the first inconsistency found.
        A program that already passed returns at once. ``previous`` is
        a validated earlier version: the elements this one carries over
        from it unchanged (:meth:`unchanged_since`) keep their verdict;
        the whole-program checks — unique names, parser, apply block —
        always run.
        """
        if self._validated:
            return self
        _check_unique([h.name for h in self.headers], "header")
        _check_unique([m.name for m in self.maps], "map")
        _check_unique([a.name for a in self.actions], "action")
        _check_unique([t.name for t in self.tables], "table")
        _check_unique([f.name for f in self.functions], "function")
        _check_unique(list(self.element_names) + [a.name for a in self.actions], "element")

        if self.parser is not None:
            self.header(self.parser.start_header)
            for transition in self.parser.transitions:
                self.header(transition.next_header)
                if transition.select_field is not None:
                    self.field_width(transition.select_field)

        checked: frozenset[str] = frozenset()
        if previous is not None and previous._validated:
            checked = self.unchanged_since(previous)
        for map_def in self.maps:
            if map_def.name not in checked:
                self._check_map(map_def)
        for action in self.actions:
            if action.name not in checked:
                self._check_action(action)
        for table in self.tables:
            if table.name not in checked:
                self._check_table(table)
        for function in self.functions:
            if function.name not in checked:
                self._check_body(function.body, {})

        self._check_apply(self.apply)
        object.__setattr__(self, "_validated", True)
        return self

    def unchanged_since(self, previous: "Program") -> frozenset[str]:
        """Names of the maps, actions, tables and functions that are
        ``previous``'s own nodes (object identity — deltas keep what
        they do not touch by reference) *and* name only headers, maps
        and actions that are the same objects in both versions.

        Whatever was established about such an element in ``previous``
        — its type-check verdict, its profile, its access set — is a
        function of the node and those referents alone, so it holds
        here. Expects unique names on both sides."""
        changed: set[tuple[str, str]] = set()
        for kind, ours, theirs in (
            ("header", self.headers, previous.headers),
            ("map", self.maps, previous.maps),
            ("action", self.actions, previous.actions),
        ):
            if ours is not theirs:
                after = {node.name: node for node in ours}
                before = {node.name: node for node in theirs}
                changed.update(
                    (kind, name)
                    for name in after.keys() | before.keys()
                    if after.get(name) is not before.get(name)
                )
        unchanged: set[str] = set()
        for ours, theirs in (
            (self.maps, previous.maps),
            (self.actions, previous.actions),
            (self.tables, previous.tables),
            (self.functions, previous.functions),
        ):
            known = {id(node) for node in theirs}
            unchanged.update(
                node.name
                for node in ours
                if id(node) in known and node.referents.isdisjoint(changed)
            )
        return frozenset(unchanged)

    # -- internal type checking -------------------------------------------

    def _check_map(self, map_def: MapDef) -> None:
        if map_def.max_entries <= 0:
            raise TypeCheckError(f"map {map_def.name!r} needs positive max_entries")
        for ref in map_def.key_fields:
            self.field_width(ref)

    def _check_action(self, action: ActionDef) -> None:
        scope = {name: value_type for name, value_type in action.params}
        for stmt in action.body:
            if isinstance(stmt, (If, Repeat)):
                raise TypeCheckError(
                    f"action {action.name!r} contains control flow; move it to a function"
                )
            self._check_stmt(stmt, dict(scope))

    def _check_table(self, table: TableDef) -> None:
        if table.size <= 0:
            raise TypeCheckError(f"table {table.name!r} needs positive size")
        if not table.keys and table.default_action is None:
            raise TypeCheckError(f"table {table.name!r} is keyless with no default action")
        for key in table.keys:
            self.field_width(key.field)
        for action_name in table.actions:
            self.action(action_name)
        if table.default_action is not None:
            self._check_action_call(table.default_action, table.name)

    def _check_action_call(self, call: ActionCall, context: str) -> None:
        action = self.action(call.action)
        if len(call.args) != len(action.params):
            raise TypeCheckError(
                f"{context}: action {call.action!r} expects {len(action.params)} args, "
                f"got {len(call.args)}"
            )
        for value, (param_name, param_type) in zip(call.args, action.params):
            if value > param_type.max_value:
                raise TypeCheckError(
                    f"{context}: argument {value} overflows {param_name}: {param_type!r}"
                )

    def _check_apply(self, steps: tuple[ApplyStep, ...]) -> None:
        for step in steps:
            if isinstance(step, ApplyTable):
                self.table(step.table)
            elif isinstance(step, ApplyFunction):
                self.function(step.function)
            else:
                condition_type = self.type_of(step.condition, {})
                require_bool(condition_type, "apply-if condition")
                self._check_apply(step.then_steps)
                self._check_apply(step.else_steps)

    def _check_body(self, body: tuple[Stmt, ...], scope: dict[str, ValueType]) -> None:
        for stmt in body:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: Stmt, scope: dict[str, ValueType]) -> None:
        if isinstance(stmt, Let):
            if stmt.name in scope:
                raise TypeCheckError(f"variable {stmt.name!r} redeclared")
            require_bits(self.type_of(stmt.value, scope), f"let {stmt.name}")
            scope[stmt.name] = stmt.value_type
        elif isinstance(stmt, Assign):
            value_type = self.type_of(stmt.value, scope)
            if isinstance(stmt.target, VarRef):
                if stmt.target.name not in scope:
                    raise TypeCheckError(f"assignment to undeclared variable {stmt.target.name!r}")
                unify(scope[stmt.target.name], value_type, f"assign {stmt.target.name}")
            elif isinstance(stmt.target, FieldRef):
                self.field_width(stmt.target)
                require_bits(value_type, f"assign {stmt.target}")
            else:
                require_bits(value_type, f"assign {stmt.target}")
        elif isinstance(stmt, MapPut):
            map_def = self.map(stmt.map_name)
            self._check_map_key(map_def, stmt.key, scope)
            require_bits(self.type_of(stmt.value, scope), f"map_put {stmt.map_name}")
        elif isinstance(stmt, MapDelete):
            map_def = self.map(stmt.map_name)
            self._check_map_key(map_def, stmt.key, scope)
        elif isinstance(stmt, If):
            require_bool(self.type_of(stmt.condition, scope), "if condition")
            self._check_body(stmt.then_body, dict(scope))
            self._check_body(stmt.else_body, dict(scope))
        elif isinstance(stmt, Repeat):
            if stmt.count <= 0:
                raise TypeCheckError(f"repeat count must be positive, got {stmt.count}")
            self._check_body(stmt.body, dict(scope))
        elif isinstance(stmt, PrimitiveCall):
            if stmt.name not in PRIMITIVES:
                raise TypeCheckError(f"unknown primitive {stmt.name!r}")
            for arg in stmt.args:
                require_bits(self.type_of(arg, scope), f"primitive {stmt.name}")
        else:  # pragma: no cover - exhaustiveness guard
            raise TypeCheckError(f"unknown statement {stmt!r}")

    def _check_map_key(
        self, map_def: MapDef, key: tuple[Expr, ...], scope: dict[str, ValueType]
    ) -> None:
        if len(key) != len(map_def.key_fields):
            raise TypeCheckError(
                f"map {map_def.name!r} expects {len(map_def.key_fields)} key parts, got {len(key)}"
            )
        for part in key:
            require_bits(self.type_of(part, scope), f"map key for {map_def.name}")

    def type_of(self, expr: Expr, scope: dict[str, ValueType]) -> ValueType:
        """Compute the static type of ``expr`` in ``scope``."""
        if isinstance(expr, Const):
            width = expr.width if expr.width is not None else max(expr.value.bit_length(), 1)
            if expr.value < 0:
                raise TypeCheckError("FlexBPF integers are unsigned; negative literal")
            return BitsType(min(width, 128))
        if isinstance(expr, FieldRef):
            return BitsType(self.field_width(expr))
        if isinstance(expr, MetaRef):
            return BitsType(64)
        if isinstance(expr, VarRef):
            if expr.name not in scope:
                raise TypeCheckError(f"undeclared variable {expr.name!r}")
            return scope[expr.name]
        if isinstance(expr, MapGet):
            map_def = self.map(expr.map_name)
            self._check_map_key(map_def, expr.key, scope)
            return map_def.value_type
        if isinstance(expr, HashExpr):
            if expr.modulus <= 0:
                raise TypeCheckError("hash modulus must be positive")
            for arg in expr.args:
                require_bits(self.type_of(arg, scope), "hash operand")
            return BitsType(max(expr.modulus.bit_length(), 1))
        if isinstance(expr, UnOp):
            operand_type = self.type_of(expr.operand, scope)
            if expr.op == "!":
                return require_bool(operand_type, "operator !")
            if expr.op == "~":
                return require_bits(operand_type, "operator ~")
            raise TypeCheckError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            left = self.type_of(expr.left, scope)
            right = self.type_of(expr.right, scope)
            if expr.kind in LOGICALS:
                require_bool(left, expr.kind.value)
                require_bool(right, expr.kind.value)
                return BoolType()
            require_bits(left, expr.kind.value)
            require_bits(right, expr.kind.value)
            if expr.kind in COMPARISONS:
                return BoolType()
            return unify(left, right, expr.kind.value)
        raise TypeCheckError(f"unknown expression {expr!r}")


def _find(elements, name: str, kind: str):
    for element in elements:
        if element.name == name:
            return element
    raise TypeCheckError(f"unknown {kind} {name!r}")


def _check_unique(names: list[str], kind: str) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise TypeCheckError(f"duplicate {kind} name {name!r}")
        seen.add(name)

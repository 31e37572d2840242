"""FlexPath: the compiled fast path for the data-plane simulator.

The reference interpreter (:mod:`repro.simulator.pipeline_exec`) walks
the FlexBPF IR tree for every packet, paying an ``isinstance`` dispatch
chain per node. FlexPath turns one :class:`ProgramInstance` — once, on
its first packet, exactly when real runtime programmable targets
rewrite their pipelines — into the *source text of one Python function*
``process(packet, now)`` and ``exec``s it (print
``instance._compiled.source``), preserving the interpreter's semantics
*bit for bit* (DESIGN §4e has the full account):

* the parser is inlined and header visibility lives in locals that stay
  fixed until the next parse; a header field no action or function
  writes is read once per parse into a local, a written one at each
  read; FlexBPF locals are Python locals, and a read the generator
  cannot prove bound raises the interpreter's ``unbound variable``
  error; a table lookup is inlined over the live ``instance.rules[name]``
  — the hash index or the remembered scan, whichever the table's keys
  call for, chosen here and not per packet — and followed by an ``if``
  / ``elif`` over the table's actions with each body inlined; map state
  is indexed live per packet, a read is a dict ``get`` on its entries
  and a write the dict store ``MapState.put`` makes — only a full map
  calls ``put``, for its eviction or ``MapFullError``;
* **exact ops accounting** — op costs are summed statically per
  straight-line region and added in one ``ops += k`` per region; only
  dynamic costs (a taken branch, a loop iteration, the action a lookup
  selected, a short-circuited ``&&`` / ``||`` right operand,
  recirculation) are counted where they arise, so the function reports
  the identical ``ExecutionResult.ops`` and latency/energy models are
  unchanged;
* a suite nested deeper than Python compiles becomes a closure of
  ``process``: there is no other executor to fall to.

A program shape is generated and compiled once per process: what
tells two instances apart (rule and map stores, version, program name)
lives in the function's namespace, not its text, so the source and its
code object are memoized on the program with its name and version
blanked plus the set of elements hosted. Likewise every generated
function hashes through one process-wide memo of ``stable_hash`` keyed
on the input tuple, so a sketch row pays the hash once per flow, not
once per packet.

The function holds no per-flow state of its own. What repeats per
flow is the table decision, and the table keeps that: a non-exact
:class:`~repro.simulator.tables.TableRules` remembers key → rule until
its rules change, and the inlined lookup probes it before the scan and
bumps the per-rule counter either way — the same steps in the
interpreter's ``lookup`` and in the generated function, so there is
nothing to replay and nothing to admit.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import random
from types import CodeType
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.lang import ir
from repro.lang.composition import shared_field_writes
from repro.limits import (
    FLEXPATH_CODE_MEMO_CAPACITY,
    FLEXPATH_HASH_MEMO_CAPACITY,
    RECIRCULATION_CAP,
)
from repro.simulator.packet import Packet, Verdict, make_packet
from repro.simulator.pipeline_exec import ExecutionResult, ProgramInstance
from repro.util import stable_hash

if TYPE_CHECKING:
    from repro.observe.report import Divergence

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

_INDENT = "    "
#: Deepest indentation the generator nests a suite at before it spills
#: it into a closure (its own lookup code nests two levels further).
_MAX_DEPTH = 14

_COUNT_HIT = """\
if hit is None:
    rules.miss_count += 1
    call = rules.definition.default_action
else:
    call, position = hit
    rules.hit_counts[position] += 1
"""

#: ``TableRules.lookup`` inlined, keyed by ``TableDef.is_exact``: the
#: kind of lookup and the generated key arity are fixed per table, so
#: the per-call kind test and arity validation (and the call frame) are
#: skipped; semantics are otherwise identical, and a key a non-exact
#: table has not decided yet goes through the same ``_decide`` as
#: ``lookup``'s.
_LOOKUP = {
    True: (
        """\
index = rules._exact_index
if index is None:
    index = rules._build_exact_index()
hit = index.get(key)
"""
        + _COUNT_HIT
    ).splitlines(),
    False: (
        """\
hit = rules._decided.get(key, False)
if hit is False:
    hit = rules._decide(key)
"""
        + _COUNT_HIT
    ).splitlines(),
}

#: ``MapState.put`` inlined after ``state``, ``entries``, ``mkey`` and
#: ``value`` are bound: a store to a present key or into a map with room
#: is the dict op, and only a full map — LRU eviction or
#: ``MapFullError`` — calls ``put``. The width and capacity are read off
#: the live state.
_PUT = """\
if mkey in entries:
    entries[mkey] = value & state._max_value
    entries.move_to_end(mkey)
    state.mutation_count += 1
elif len(entries) < state._max_entries:
    entries[mkey] = value & state._max_value
    state.mutation_count += 1
else:
    state.put(mkey, value)
""".splitlines()

#: Operators whose FlexBPF semantics is not Python's infix operator of
#: the same spelling: ``-`` saturates, ``/`` and ``%`` by zero give 0,
#: shifts clamp at 64 (and ``<<`` at 128 bits).
_BINOPS = {
    ir.BinOpKind.SUB: "max({left} - {right}, 0)",
    ir.BinOpKind.DIV: "div({left}, {right})",
    ir.BinOpKind.MOD: "mod({left}, {right})",
    ir.BinOpKind.SHL: f"(({{left}} << min({{right}}, 64)) & {_MASK128})",
    ir.BinOpKind.SHR: "({left} >> min({right}, 64))",
}
#: What a primitive does with its arguments (all are evaluated, used or not).
_PRIMITIVES = {
    "mark_drop": "meta['drop_flag'] = 1",
    "set_port": "meta['egress_port'] = {first}",
    "set_queue": "meta['queue_id'] = {first}",
    "emit_digest": "packet.digests.append((NAME, {args}))",
    "clone": "meta['clones'] = mget('clones', 0) + 1",
    "recirculate": "meta['_recirculate'] = 1",
    "no_op": "",
}


def _unbound(name: str):
    raise SimulationError(f"unbound variable {name!r} at runtime")


#: ``stable_hash`` for the generated functions, remembered per input
#: tuple and shared by every instance in the process: it is a pure
#: function of its ints, and a sketch row hashes the same tuple for
#: every packet of a flow. An input it refuses (a negative or over-wide
#: part) raises every time, as nothing is remembered for it.
_hash = functools.lru_cache(maxsize=FLEXPATH_HASH_MEMO_CAPACITY)(stable_hash)

#: What every generated function finds in its globals, whatever its instance.
_NAMESPACE = {
    "H": _hash,
    "U": _unbound,
    "div": lambda left, right: left // right if right else 0,
    "mod": lambda left, right: left % right if right else 0,
    "DROP": Verdict.DROP,
    "Result": ExecutionResult,
}


def _is_bool(expr) -> bool:
    """Whether ``expr`` evaluates to a bool (everything else in the IR
    evaluates to an exact int: every storage location is written
    through a mask or an ``int()``)."""
    if isinstance(expr, ir.BinOp):
        return expr.kind in ir.COMPARISONS or expr.kind in ir.LOGICALS
    return isinstance(expr, ir.UnOp) and expr.op == "!"


def _indent(lines: list[str]) -> list[str]:
    return [_INDENT + line for line in lines]


def _charge(ops: int) -> list[str]:
    return [f"ops += {ops}"] if ops else []


def _display(parts: list[str]) -> str:
    """A tuple display: ``()``, ``(a,)``, ``(a, b)``."""
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


class _Generator:
    """Emits the source of ``process`` for one program shape: a program
    and the set of elements an instance of it hosts (None: all).

    Expression methods return ``(source, static ops)`` and statement
    methods append lines and return their static ops: the caller owns
    the region and charges the sum once. ``bound`` is the set of
    FlexBPF locals assigned on every path to the point being generated.
    """

    def __init__(self, program: ir.Program, hosted: frozenset[str] | None):
        self._program = program
        #: the elements the instance hosts (None: every element)
        self._hosted = hosted
        self._maps = frozenset(map_def.name for map_def in program.maps)
        parser = program.parser
        parsed = (
            [header.name for header in program.headers]
            if parser is None
            else parser.headers_extracted
        )
        #: header -> the Python local holding its visibility; a header
        #: the parser can never extract has none and is never visible.
        self._visible = {
            header: self._ident("v", header, index) for index, header in enumerate(parsed)
        }
        #: the header fields some action or function writes, read live;
        #: any other holds its value for a whole pass, so it is read once
        #: after the parse into the Python local ``_once`` names for it.
        self._written = shared_field_writes(program)
        self._once: dict[ir.FieldRef, str] = {}
        self._locals: dict[str, str] = {}
        #: names the scope being generated reads, and the subset read
        #: where they may be unbound.
        self._read: set[str] = set()
        self._maybe: set[str] = set()
        #: the bodies of ``deep_0`` …, the suites nested too deep to inline
        self._closures: list[list[str]] = []

    @staticmethod
    def _ident(prefix: str, name: str, index: int) -> str:
        """A Python identifier for a FlexBPF name, which need not be one."""
        plain = name.isascii() and name.isidentifier()
        return f"{prefix}_{name}" if plain else f"{prefix}{index}"

    def _hosts(self, element: str) -> bool:
        return self._hosted is None or element in self._hosted

    def _local(self, name: str) -> str:
        if name not in self._locals:
            self._locals[name] = self._ident("x", name, len(self._locals))
        return self._locals[name]

    # -- the function --------------------------------------------------------

    def source(self) -> str:
        steps, ops = self._steps(self._program.apply, 2)
        loop = [
            *self._parse(),
            *(f"{local} = {self._live(ref)}" for ref, local in self._once.items()),
            *_charge(ops),
            *steps,
            f"if not (meta.pop('_recirculate', 0) and recirculations < {RECIRCULATION_CAP}):",
            _INDENT + "break",
            "recirculations += 1",
        ]
        body = [
            "fields = packet.fields",
            "fget = fields.get",
            "meta = packet.meta",
            "mget = meta.get",
            "ops = recirculations = 0",
        ]
        if self._closures:
            # A closure shares every FlexBPF local with ``process``, which
            # must therefore bind each before the closure is defined.
            shared = list(self._locals.values())
            body.append(" = ".join([*shared, "None"]))
            for index, suite in enumerate(self._closures):
                body.append(f"def deep_{index}():")
                body += _indent([f"nonlocal {', '.join(['ops', *shared])}", *suite])
        body += [
            "while True:",
            *_indent(loop),
            "if mget('drop_flag'):",
            _INDENT + "packet.verdict = DROP",
            "if recirculations:",
            _INDENT + "return Result(ops, VERSION, recirculations)",
            "result = DONE.get(ops)",
            "if result is None:",
            _INDENT + "result = DONE[ops] = Result(ops, VERSION)",
            "return result",
        ]
        return "\n".join(["def process(packet, now=0.0):", *_indent(body), ""])

    def _parse(self) -> list[str]:
        parser = self._program.parser
        lines = ["present = packet.headers"]
        if parser is None:
            # No parser: every declared header the packet carries is visible.
            return lines + [
                f"{local} = {header!r} in present" for header, local in self._visible.items()
            ]
        found = [f"{self._visible[parser.start_header]} = True"]
        found += _charge(1 + len(parser.transitions))
        for transition in parser.transitions:
            conditions = [f"{transition.next_header!r} in present"]
            select = transition.select_field
            if select is not None:
                if select.header not in self._visible:
                    continue
                conditions.append(self._visible[select.header])
                conditions.append(
                    f"fget({(select.header, select.field)!r}, 0) == {transition.select_value!r}"
                )
            found += [
                f"if {' and '.join(conditions)}:",
                _INDENT + f"{self._visible[transition.next_header]} = True",
            ]
        return lines + [
            " = ".join(self._visible.values()) + " = False",
            f"if {parser.start_header!r} in present:",
            *_indent(found),
        ]

    def _suite(self, build, depth: int) -> list[str]:
        """The suite under a compound statement at ``depth``:
        ``build(depth)`` returns its ``(lines, static ops)``, charged on
        entry. Past ``_MAX_DEPTH`` the suite becomes a closure of
        ``process`` and nesting starts over."""
        if depth < _MAX_DEPTH:
            lines, ops = build(depth + 1)
            return _indent(_charge(ops) + lines) or [_INDENT + "pass"]
        lines, ops = build(2)
        self._closures.append(_charge(ops) + lines)
        return [_INDENT + f"deep_{len(self._closures) - 1}()"]

    def _fresh_scope(self, build):
        """Run ``build()`` in the fresh scope the interpreter gives a
        function body, an action body and an apply-if condition (inside,
        ``self._read`` is what the scope has read so far): returns the
        lines that open the scope and what ``build`` returned."""
        outer = self._read, self._maybe
        self._read, self._maybe = set(), set()
        result = build()
        opening = [f"{self._local(name)} = None" for name in sorted(self._maybe)]
        self._read, self._maybe = outer
        return opening, result

    # -- apply steps ---------------------------------------------------------

    def _steps(self, steps, depth: int) -> tuple[list[str], int]:
        lines: list[str] = []
        static = 0
        for step in steps:
            # Hosting is immutable per instance: filter at generation time.
            if isinstance(step, ir.ApplyTable):
                if self._hosts(step.table):
                    lines += self._table(self._program.table(step.table), depth)
                    static += 1
            elif isinstance(step, ir.ApplyFunction):
                if self._hosts(step.function):
                    body = self._program.function(step.function).body
                    opening, (body_lines, ops) = self._fresh_scope(
                        lambda: self._stmts(body, set(), depth)
                    )
                    lines += opening + body_lines
                    static += ops
            else:
                opening, (condition, ops) = self._fresh_scope(
                    lambda: self._expr(step.condition, set())
                )
                lines += [*opening, f"if {condition}:"]
                lines += self._suite(lambda d: self._steps(step.then_steps, d), depth)
                if step.else_steps:
                    lines.append("else:")
                    lines += self._suite(lambda d: self._steps(step.else_steps, d), depth)
                static += 1 + ops
        return lines, static

    def _live(self, ref: ir.FieldRef) -> str:
        """A visibility-masked read of the field as the packet holds it now."""
        return f"fget({(ref.header, ref.field)!r}, 0) if {self._visible[ref.header]} else 0"

    def _field(self, ref: ir.FieldRef) -> str:
        """The field's value: 0 for a header never parsed, a live read
        for a written field, else the local bound after the parse."""
        if ref.header not in self._visible:
            return "0"
        if ref in self._written:
            return f"({self._live(ref)})"
        local = self._once.get(ref)
        if local is None:
            local = self._ident("f", f"{ref.header}_{ref.field}", len(self._once))
            if local in self._once.values():  # ("a_b", "c") against ("a", "b_c")
                local = f"f{len(self._once)}"
            self._once[ref] = local
        return local

    def _table(self, table: ir.TableDef, depth: int) -> list[str]:
        key = _display([self._field(key.field) for key in table.keys])
        dispatch: list[str] = []
        for name in dict.fromkeys(table.invocable):
            action = self._program.action(name)
            dispatch.append(f"{'elif' if dispatch else 'if'} name == {name!r}:")
            dispatch += self._suite(lambda d: self._action(action, d), depth + 1)
        stray = "raise KeyError(name)"
        dispatch = [*dispatch, "else:", _INDENT + stray] if dispatch else [stray]
        return [
            f"rules = R[{table.name!r}]",
            f"key = {key}",
            *_LOOKUP[table.is_exact],
            "if call is not None:",
            *_indent(
                [
                    "meter = rules.meter",
                    "if meter is not None:",
                    _INDENT + "meta['meter_color'] = meter.mark(now).value",
                    "name = call.action",
                    *dispatch,
                ]
            ),
        ]

    def _action(self, action: ir.ActionDef, depth: int) -> tuple[list[str], int]:
        params = [name for name, _ in action.params]

        def body():
            lines, ops = self._stmts(action.body, set(params), depth)
            return lines, ops, [i for i, name in enumerate(params) if name in self._read]

        opening, (lines, ops, used) = self._fresh_scope(body)
        if used:
            # A rule carrying fewer args than its action reads leaves the
            # parameter unbound, as the interpreter's zip() does.
            short = tuple(params[min(i for i in used if i >= index)] for index in range(used[-1] + 1))
            opening += [
                "args = call.args",
                f"if len(args) < {len(short)}:",
                _INDENT + f"U({short!r}[len(args)])",
                *(f"{self._local(params[index])} = args[{index}]" for index in used),
            ]
        return opening + lines, ops

    # -- statements ----------------------------------------------------------

    def _stmts(self, body, bound: set[str], depth: int) -> tuple[list[str], int]:
        lines: list[str] = []
        static = sum(self._stmt(stmt, bound, depth, lines) for stmt in body)
        return lines, static

    def _stmt(self, stmt, bound: set[str], depth: int, lines: list[str]) -> int:
        if isinstance(stmt, ir.Let):
            value, ops = self._int(stmt.value, bound)
            lines.append(f"{self._local(stmt.name)} = {value} & {stmt.value_type.max_value}")
            bound.add(stmt.name)
            return 1 + ops
        if isinstance(stmt, ir.Assign):
            value, ops = self._int(stmt.value, bound)
            target = stmt.target
            if isinstance(target, ir.VarRef):
                lines.append(f"{self._local(target.name)} = {value}")
                bound.add(target.name)
            elif isinstance(target, ir.MetaRef):
                lines.append(f"meta[{target.key!r}] = {value}")
            elif target.header not in self._visible:
                lines.append(value)  # never written, still evaluated
            else:
                mask = (1 << self._program.field_width(target)) - 1
                lines += [
                    f"value = {value}",
                    f"if {self._visible[target.header]}:",
                    _INDENT + f"fields[{(target.header, target.field)!r}] = value & {mask}",
                ]
            return 1 + ops
        if isinstance(stmt, ir.MapPut):
            key, key_ops = self._tuple(stmt.key, bound)
            value, value_ops = self._int(stmt.value, bound)
            if stmt.map_name in self._maps:
                lines += [
                    f"state = S[{stmt.map_name!r}]",
                    "entries = state._entries",
                    f"mkey = {key}",
                    f"value = {value}",
                    *_PUT,
                ]
            else:
                lines.append(f"({key}, {value})")  # no state, still evaluated
            return 4 + key_ops + value_ops
        if isinstance(stmt, ir.MapDelete):
            key, key_ops = self._tuple(stmt.key, bound)
            if stmt.map_name in self._maps:
                lines.append(f"S[{stmt.map_name!r}].delete({key})")
            else:
                lines.append(key)  # no state, still evaluated
            return 4 + key_ops
        if isinstance(stmt, ir.If):
            # Branches share the enclosing scope at run time; what is
            # bound after the statement is what both bound.
            condition, ops = self._expr(stmt.condition, bound)
            then_bound, else_bound = set(bound), set(bound)
            lines.append(f"if {condition}:")
            lines += self._suite(lambda d: self._stmts(stmt.then_body, then_bound, d), depth)
            if stmt.else_body:
                lines.append("else:")
                lines += self._suite(lambda d: self._stmts(stmt.else_body, else_bound, d), depth)
            bound |= then_bound & else_bound
            return 1 + ops
        if isinstance(stmt, ir.Repeat):
            body_bound = set(bound)
            lines.append(f"for _ in range({stmt.count!r}):")
            lines += self._suite(lambda d: self._stmts(stmt.body, body_bound, d), depth)
            if stmt.count > 0:
                bound |= body_bound
            return 1
        if isinstance(stmt, ir.PrimitiveCall):
            return self._primitive(stmt, bound, lines)
        raise SimulationError(f"cannot compile {stmt!r}")  # pragma: no cover

    def _primitive(self, call: ir.PrimitiveCall, bound: set[str], lines: list[str]) -> int:
        effect = _PRIMITIVES.get(call.name)
        if effect is None:  # pragma: no cover - validator rejects unknown primitives
            raise SimulationError(f"unknown primitive {call.name!r}")
        parts, ops = self._ints(call.args, bound)
        args = _display(parts)
        first = "0" if not parts else parts[0] if len(parts) == 1 else f"{args}[0]"
        if parts and "{" not in effect:
            lines.append(args)  # unused, still evaluated
        if effect:
            lines.append(effect.format(first=first, args=args))
        return 1 + ops

    # -- expressions ---------------------------------------------------------

    def _ints(self, exprs, bound: set[str]) -> tuple[list[str], int]:
        parts = [self._int(part, bound) for part in exprs]
        return [src for src, _ in parts], sum(ops for _, ops in parts)

    def _tuple(self, exprs, bound: set[str]) -> tuple[str, int]:
        """A tuple display of exact ints (a map key or hash input)."""
        parts, ops = self._ints(exprs, bound)
        return _display(parts), ops

    def _int(self, expr, bound: set[str]) -> tuple[str, int]:
        """Like :meth:`_expr`, for a context that stores or computes
        with the value: only bool-producing expressions need the
        interpreter's ``int()``."""
        src, ops = self._expr(expr, bound)
        return (f"int({src})" if _is_bool(expr) else src), ops

    def _truth(self, expr, bound: set[str]) -> tuple[str, int]:
        """Like :meth:`_expr`, for an ``&&`` / ``||`` operand, whose
        value (not just its truth) is what the operator returns."""
        src, ops = self._expr(expr, bound)
        return (src if _is_bool(expr) else f"bool({src})"), ops

    def _expr(self, expr, bound: set[str]) -> tuple[str, int]:
        """``(source, static ops)``; the source is an atom or is
        parenthesized, and adds its dynamic ops itself."""
        if isinstance(expr, ir.Const):
            return repr(expr.value), 0
        if isinstance(expr, ir.VarRef):
            name = expr.name
            local = self._local(name)
            self._read.add(name)
            if name in bound:
                return local, 0
            self._maybe.add(name)
            return f"({local} if {local} is not None else U({name!r}))", 0
        if isinstance(expr, ir.FieldRef):
            return self._field(expr), 1
        if isinstance(expr, ir.MetaRef):
            return f"mget({expr.key!r}, 0)", 1
        if isinstance(expr, ir.MapGet):
            key, ops = self._tuple(expr.key, bound)
            if expr.map_name in self._maps:
                return f"S[{expr.map_name!r}]._entries.get({key}, 0)", 4 + ops
            return f"({key}, 0)[1]", 4 + ops
        if isinstance(expr, ir.HashExpr):
            args, ops = self._tuple(expr.args, bound)
            return f"(H({args}) % {expr.modulus!r})", 3 + ops
        if isinstance(expr, ir.UnOp):
            if expr.op == "!":
                operand, ops = self._expr(expr.operand, bound)
                return f"(not {operand})", 1 + ops
            operand, ops = self._int(expr.operand, bound)
            return f"(~{operand} & {_MASK64})", 1 + ops
        if isinstance(expr, ir.BinOp):
            return self._binop(expr, bound)
        raise SimulationError(f"cannot compile {expr!r}")  # pragma: no cover

    def _binop(self, expr: ir.BinOp, bound: set[str]) -> tuple[str, int]:
        kind = expr.kind
        if kind in ir.LOGICALS:
            # The right operand's ops are charged only when it is
            # evaluated, mirroring the interpreter's short-circuit
            # accounting; ``ops + k`` is positive, so the walrus never
            # decides the result.
            left, left_ops = self._truth(expr.left, bound)
            right, right_ops = self._truth(expr.right, bound)
            if right_ops:
                right = f"(ops := ops + {right_ops}) and {right}"
            joiner = "and" if kind is ir.BinOpKind.LAND else "or"
            return f"({left} {joiner} {right})", 1 + left_ops
        left, left_ops = self._int(expr.left, bound)
        right, right_ops = self._int(expr.right, bound)
        template = _BINOPS.get(kind, f"({{left}} {kind.value} {{right}})")
        return template.format(left=left, right=right), 1 + left_ops + right_ops


@functools.lru_cache(maxsize=FLEXPATH_CODE_MEMO_CAPACITY)
def _code(shape: ir.Program, hosted: frozenset[str] | None) -> tuple[str, CodeType]:
    """The generated source of a program shape and its code object:
    generated and ``compile()``d once per shape per process. A shape is
    the program with its name and version blanked (the text holds
    neither) and the set of elements hosted."""
    source = _Generator(shape, hosted).source()
    return source, compile(source, "<flexpath>", "exec")


class CompiledProgram:
    """The FlexPath executable for one :class:`ProgramInstance`:
    ``process(packet, now)`` is the generated function, ``source`` the
    text it was compiled from. What tells two instances with the same
    text apart — their rule and map stores, the version they report and
    the name their digests carry — is bound in the function's globals,
    as is ``DONE``: the one result per op count that a pass without
    recirculation returns (nothing writes a result, as nothing writes
    the pass-through lane's)."""

    __slots__ = ("version", "source", "process")

    def __init__(self, instance):
        program = instance.program
        self.version = program.version
        hosted = instance.hosted_elements
        self.source, code = _code(
            dataclasses.replace(program, name="", version=0),
            None if hosted is None else frozenset(hosted),
        )
        namespace = {
            **_NAMESPACE,
            "R": instance.rules,
            "S": instance.maps._states,  # noqa: SLF001 - hot-path binding
            "NAME": program.name,
            "VERSION": program.version,
            "DONE": {},
        }
        exec(code, namespace)  # noqa: S102 - generated from the IR, no packet data
        self.process = namespace["process"]


def compile_instance(instance) -> CompiledProgram:
    """Compile ``instance`` (a :class:`ProgramInstance`) for FlexPath."""
    return CompiledProgram(instance)


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def seeded_corpus(count: int, seed: int = 2024) -> list[Packet]:
    """A deterministic packet corpus exercising header visibility, field
    ranges, and metadata variation."""
    rng = random.Random(seed)
    packets: list[Packet] = []
    for index in range(count):
        packet = make_packet(
            src_ip=rng.randrange(1, 1 << 32),
            dst_ip=rng.randrange(1, 1 << 32),
            proto=rng.choice((6, 6, 6, 17, 1)),
            src_port=rng.randrange(1, 1 << 16),
            dst_port=rng.choice((80, 443, 53, rng.randrange(1, 1 << 16))),
            vlan_id=rng.randrange(0, 8),
            ttl=rng.randrange(0, 256),
            tcp_flags=rng.choice((0x02, 0x10, 0x12, 0x18, rng.randrange(0, 256))),
            created_at=index * 1e-4,
        )
        packet.meta["ingress_port"] = rng.randrange(0, 48)
        packet.meta["queue_depth"] = rng.randrange(0, 64)
        if rng.random() < 0.15:  # un-parse the L4 header
            packet.fields = {
                key: value for key, value in packet.fields.items() if key[0] != "tcp"
            }
        if rng.random() < 0.05:  # mangle the ethertype chain
            packet.fields[("ethernet", "ethertype")] = rng.choice((0x0800, 0x86DD, 0x8100))
        packets.append(packet)
    return packets


def seeded_rules(program: ir.Program, instance, seed: int = 99):
    """Install a deterministic rule set compatible with every table of
    ``program``, up to six rules a table (same rules for every instance
    given the same seed)."""
    from repro.simulator.tables import exact, lpm, rng as range_match, ternary

    rand = random.Random(seed)
    for table in program.tables:
        rules = instance.rules[table.name]
        if not table.actions:
            continue
        for _ in range(min(6, table.size)):
            matches = []
            for key in table.keys:
                width = program.field_width(key.field)
                top = (1 << width) - 1
                if key.match_kind is ir.MatchKind.EXACT:
                    matches.append(exact(rand.randrange(0, top + 1)))
                elif key.match_kind is ir.MatchKind.LPM:
                    matches.append(
                        lpm(rand.randrange(0, top + 1), rand.randrange(0, width + 1), width)
                    )
                elif key.match_kind is ir.MatchKind.TERNARY:
                    matches.append(
                        ternary(rand.randrange(0, top + 1), rand.randrange(0, top + 1))
                    )
                else:
                    low = rand.randrange(0, top + 1)
                    matches.append(range_match(low, min(low + rand.randrange(0, 1 << 12), top)))
            action_name = rand.choice(table.actions)
            action = program.action(action_name)
            args = tuple(
                rand.randrange(0, param_type.max_value + 1)
                for _, param_type in action.params
            )
            from repro.lang.ir import ActionCall
            from repro.simulator.tables import Rule

            rules.insert(
                Rule(
                    matches=tuple(matches),
                    action=ActionCall(action=action_name, args=args),
                    priority=rand.randrange(0, 4),
                )
            )


def observation(instance, runs) -> dict:
    """What ``instance`` showed over ``runs``, its ``(packet, result)``
    pairs in order: per packet the verdict, fields, metadata, digests,
    op count, recirculations and version; at the end every map's entries
    and every table's per-rule and miss counters. Two arms are
    equivalent when :func:`~repro.observe.report.divergences` finds
    nothing between their observations."""
    return {
        "packets": [
            {
                "verdict": packet.verdict,
                "fields": packet.fields,
                "meta": packet.meta,
                "digests": packet.digests,
                "ops": result.ops,
                "recirculations": result.recirculations,
                "version": result.version,
            }
            for packet, result in runs
        ],
        "maps": {
            name: dict(instance.maps.state(name).items())
            for name in instance.maps.names()
        },
        "tables": {
            name: {"hit_counts": list(rules.hit_counts), "miss_count": rules.miss_count}
            for name, rules in instance.rules.items()
        },
    }


def differential_check(
    program: ir.Program,
    packets: list[Packet],
    hosted_elements: set[str] | None = None,
    setup=None,
    mutate=None,
) -> list[Divergence]:
    """Run the interpreter and FlexPath side by side over ``packets``
    and return where FlexPath's :func:`observation` diverges from the
    interpreter's (empty: none). ``mutate(reference, fast, index)`` —
    when given — runs before each packet on both instances, which is
    how the mid-run tests attach a meter or insert a rule."""
    from repro.observe.report import divergences

    reference = ProgramInstance(program, hosted_elements)
    fast = ProgramInstance(program, hosted_elements, fastpath=True)
    if setup is not None:
        setup(reference)
        setup(fast)
    arms = ((reference, []), (fast, []))
    for index, packet in enumerate(packets):
        if mutate is not None:
            mutate(reference, fast, index)
        for instance, runs in arms:
            work = copy.deepcopy(packet)
            runs.append((work, instance.process(work, index * 1e-4)))
    return divergences(*(observation(instance, runs) for instance, runs in arms))

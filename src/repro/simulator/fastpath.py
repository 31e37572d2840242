"""FlexPath: the compiled fast path for the data-plane simulator.

The reference interpreter (:mod:`repro.simulator.pipeline_exec`) walks
the FlexBPF IR tree for every packet, paying an ``isinstance`` dispatch
chain per node. FlexPath compiles a :class:`~repro.lang.ir.Program`
once — at install / reconfiguration time, exactly when real runtime
programmable targets rewrite their pipelines — into a tree of
specialized Python closures, eliminating per-packet dispatch while
preserving the interpreter's semantics *bit for bit*:

* **exact ops accounting** — op costs are aggregated statically per
  straight-line region and added in one ``ctx.ops += k`` per region;
  only genuinely dynamic costs (taken branches, short-circuited
  ``&&``/``||`` right operands, recirculation) are counted at runtime.
  The compiled path reports the identical ``ExecutionResult.ops`` the
  interpreter would, so latency/energy models are unchanged.
* **header visibility, recirculation, digests, meters** — all modelled
  identically; the differential harness below enforces it.

On top of compilation, the per-device **flow memo**
(:class:`FlowCache`) serves repeat packets of a flow without executing
the program at all, but only for hosted slices FlexCheck's cacheability
pass (:mod:`repro.analysis.cacheability`) proves stateless/read-only.
Entries are validated against a token covering the program version,
every applied table's mutation epoch, and every read map's mutation
counter; any reconfiguration delta, rule insert/remove, meter
attach/detach, or control-plane map write therefore flushes the memo
before a stale verdict can be served.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.lang import ir
from repro.limits import FLOW_MEMO_CAPACITY
from repro.simulator.packet import Packet, Verdict, make_packet
from repro.util import stable_hash

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class _Ctx:
    """Mutable per-packet execution context threaded through closures."""

    __slots__ = ("packet", "fields", "meta", "scope", "visible", "now", "ops")

    def __init__(self) -> None:
        self.packet = None
        self.fields = None
        self.meta = None
        self.scope: dict[str, int] = {}
        self.visible: set[str] = set()
        self.now = 0.0
        self.ops = 0


def _touches_scope(node) -> bool:
    """Whether executing ``node`` could read or write local scope.

    Bodies that provably never touch scope skip the per-invocation
    scope-dict set-up entirely (the elision is unobservable)."""
    if isinstance(node, (ir.VarRef, ir.Let)):
        return True
    if isinstance(node, (ir.Const, ir.FieldRef, ir.MetaRef)):
        return False
    if isinstance(node, ir.Assign):
        return isinstance(node.target, ir.VarRef) or _touches_scope(node.value)
    if isinstance(node, ir.MapGet):
        return any(_touches_scope(part) for part in node.key)
    if isinstance(node, ir.MapPut):
        return any(_touches_scope(part) for part in node.key) or _touches_scope(node.value)
    if isinstance(node, ir.MapDelete):
        return any(_touches_scope(part) for part in node.key)
    if isinstance(node, ir.HashExpr):
        return any(_touches_scope(arg) for arg in node.args)
    if isinstance(node, ir.UnOp):
        return _touches_scope(node.operand)
    if isinstance(node, ir.BinOp):
        return _touches_scope(node.left) or _touches_scope(node.right)
    if isinstance(node, ir.If):
        return (
            _touches_scope(node.condition)
            or any(_touches_scope(s) for s in node.then_body)
            or any(_touches_scope(s) for s in node.else_body)
        )
    if isinstance(node, ir.Repeat):
        return any(_touches_scope(s) for s in node.body)
    if isinstance(node, ir.PrimitiveCall):
        return any(_touches_scope(arg) for arg in node.args)
    return True  # unknown node: stay conservative


def _is_bool(expr) -> bool:
    """Whether ``expr`` evaluates to a bool (everything else in the IR
    evaluates to an exact int, given the storage invariants below)."""
    if isinstance(expr, ir.BinOp):
        return expr.kind in ir.COMPARISONS or expr.kind in ir.LOGICALS
    return isinstance(expr, ir.UnOp) and expr.op == "!"


def _chain(fns):
    """Fuse a statement/step list into one closure."""
    if not fns:
        return lambda ctx: None
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        first, second = fns

        def chain2(ctx):
            first(ctx)
            second(ctx)

        return chain2
    fns = tuple(fns)

    def chain(ctx):
        for fn in fns:
            fn(ctx)

    return chain


class _Compiler:
    """Compiles one :class:`ProgramInstance` into closures.

    Bound dictionaries (``instance.rules``, ``instance.maps._states``)
    are captured once but indexed *live* on every packet, so state
    shared or re-bound across program versions by the device runtime
    stays visible to compiled code.
    """

    def __init__(self, instance):
        self._instance = instance
        self._program = instance.program
        self._rules = instance.rules
        self._states = instance.maps._states  # noqa: SLF001 - hot-path binding
        self._actions = {
            action.name: self._compile_action(action)
            for action in self._program.actions
        }

    # -- expressions -------------------------------------------------------

    def expr(self, expr: ir.Expr):
        """Compile one expression; returns ``(fn, static_ops)`` where
        ``fn`` adds only *dynamic* ops itself (short-circuit operands)."""
        if isinstance(expr, ir.Const):
            value = expr.value
            return (lambda ctx: value), 0
        if isinstance(expr, ir.VarRef):
            name = expr.name

            def var_fn(ctx):
                try:
                    return ctx.scope[name]
                except KeyError:
                    raise SimulationError(
                        f"unbound variable {name!r} at runtime"
                    ) from None

            return var_fn, 0
        if isinstance(expr, ir.FieldRef):
            header = expr.header
            key = (expr.header, expr.field)

            def field_fn(ctx):
                if header in ctx.visible:
                    return ctx.fields.get(key, 0)
                return 0

            return field_fn, 1
        if isinstance(expr, ir.MetaRef):
            meta_key = expr.key
            return (lambda ctx: ctx.meta.get(meta_key, 0)), 1
        if isinstance(expr, ir.MapGet):
            parts, parts_ops = self._key_parts(expr.key)
            states = self._states
            name = expr.map_name

            build_key = self._tuple_builder(parts)

            def map_get_fn(ctx):
                map_key = build_key(ctx)
                state = states.get(name)
                if state is not None:
                    return state.get(map_key)
                return 0

            return map_get_fn, 4 + parts_ops
        if isinstance(expr, ir.HashExpr):
            args, args_ops = self._key_parts(expr.args)
            build_args = self._tuple_builder(args)
            modulus = expr.modulus

            def hash_fn(ctx):
                return stable_hash(build_args(ctx)) % modulus

            return hash_fn, 3 + args_ops
        if isinstance(expr, ir.UnOp):
            operand_fn, operand_ops = self.expr(expr.operand)
            if expr.op == "!":
                return (lambda ctx: not bool(operand_fn(ctx))), 1 + operand_ops
            return (lambda ctx: ~operand_fn(ctx) & _MASK64), 1 + operand_ops
        if isinstance(expr, ir.BinOp):
            return self._binop(expr)
        raise SimulationError(f"cannot compile {expr!r}")  # pragma: no cover

    def _int_expr(self, expr: ir.Expr):
        """Like :meth:`expr` but the closure returns an *exact int*.

        Every storage location (scope, meta, fields, maps) is written
        through a coercion (truncate/mask/``int()``), so non-bool
        expressions are already exact ints and need no wrapper; only
        bool-producing expressions get an ``int()``.
        """
        fn, ops = self.expr(expr)
        if _is_bool(expr):
            return (lambda ctx: int(fn(ctx))), ops
        return fn, ops

    def _key_parts(self, exprs):
        compiled = [self._int_expr(part) for part in exprs]
        return tuple(fn for fn, _ in compiled), sum(ops for _, ops in compiled)

    @staticmethod
    def _tuple_builder(fns):
        """Build an int tuple from compiled part closures (specialized
        for the common small arities)."""
        if len(fns) == 1:
            only = fns[0]
            return lambda ctx: (only(ctx),)
        if len(fns) == 2:
            first, second = fns
            return lambda ctx: (first(ctx), second(ctx))
        return lambda ctx: tuple(fn(ctx) for fn in fns)

    def _binop(self, expr: ir.BinOp):
        kind = expr.kind
        left_fn, left_ops = self.expr(expr.left)
        right_fn, right_ops = self.expr(expr.right)
        if kind is ir.BinOpKind.LAND:
            if not right_ops:
                return (
                    lambda ctx: bool(left_fn(ctx)) and bool(right_fn(ctx))
                ), 1 + left_ops

            # The right operand's ops are charged only when evaluated,
            # mirroring the interpreter's short-circuit accounting.
            def land_fn(ctx):
                if not bool(left_fn(ctx)):
                    return False
                ctx.ops += right_ops
                return bool(right_fn(ctx))

            return land_fn, 1 + left_ops
        if kind is ir.BinOpKind.LOR:
            if not right_ops:
                return (
                    lambda ctx: bool(left_fn(ctx)) or bool(right_fn(ctx))
                ), 1 + left_ops

            def lor_fn(ctx):
                if bool(left_fn(ctx)):
                    return True
                ctx.ops += right_ops
                return bool(right_fn(ctx))

            return lor_fn, 1 + left_ops

        # Bool operands behave identically to their int() coercion in
        # every arithmetic/comparison operator (True == 1, False == 0),
        # so the interpreter's _as_int is dropped wholesale here.
        static = 1 + left_ops + right_ops
        K = ir.BinOpKind
        if kind is K.ADD:
            fn = lambda ctx: left_fn(ctx) + right_fn(ctx)  # noqa: E731
        elif kind is K.SUB:
            # saturating subtraction, as the interpreter models it
            fn = lambda ctx: max(left_fn(ctx) - right_fn(ctx), 0)  # noqa: E731
        elif kind is K.MUL:
            fn = lambda ctx: left_fn(ctx) * right_fn(ctx)  # noqa: E731
        elif kind is K.DIV:

            def div_fn(ctx):
                left = left_fn(ctx)
                right = right_fn(ctx)
                return left // right if right else 0

            fn = div_fn
        elif kind is K.MOD:

            def mod_fn(ctx):
                left = left_fn(ctx)
                right = right_fn(ctx)
                return left % right if right else 0

            fn = mod_fn
        elif kind is K.AND:
            fn = lambda ctx: left_fn(ctx) & right_fn(ctx)  # noqa: E731
        elif kind is K.OR:
            fn = lambda ctx: left_fn(ctx) | right_fn(ctx)  # noqa: E731
        elif kind is K.XOR:
            fn = lambda ctx: int(left_fn(ctx)) ^ int(right_fn(ctx))  # noqa: E731
        elif kind is K.SHL:
            fn = lambda ctx: (int(left_fn(ctx)) << min(int(right_fn(ctx)), 64)) & _MASK128  # noqa: E731
        elif kind is K.SHR:
            fn = lambda ctx: int(left_fn(ctx)) >> min(int(right_fn(ctx)), 64)  # noqa: E731
        elif kind is K.EQ:
            fn = lambda ctx: int(left_fn(ctx)) == int(right_fn(ctx))  # noqa: E731
        elif kind is K.NE:
            fn = lambda ctx: int(left_fn(ctx)) != int(right_fn(ctx))  # noqa: E731
        elif kind is K.LT:
            fn = lambda ctx: int(left_fn(ctx)) < int(right_fn(ctx))  # noqa: E731
        elif kind is K.LE:
            fn = lambda ctx: int(left_fn(ctx)) <= int(right_fn(ctx))  # noqa: E731
        elif kind is K.GT:
            fn = lambda ctx: int(left_fn(ctx)) > int(right_fn(ctx))  # noqa: E731
        elif kind is K.GE:
            fn = lambda ctx: int(left_fn(ctx)) >= int(right_fn(ctx))  # noqa: E731
        else:  # pragma: no cover - exhaustiveness guard
            raise SimulationError(f"unknown operator {kind}")
        return fn, static

    # -- statements --------------------------------------------------------

    def body(self, body: tuple[ir.Stmt, ...]):
        compiled = [self.stmt(stmt) for stmt in body]
        return _chain([fn for fn, _ in compiled]), sum(ops for _, ops in compiled)

    def stmt(self, stmt: ir.Stmt):
        if isinstance(stmt, ir.Let):
            # Let values are bits-typed (validated), so truncate's mask
            # is the only coercion needed.
            value_fn, value_ops = self._int_expr(stmt.value)
            truncate = stmt.value_type.truncate
            name = stmt.name

            def let_fn(ctx):
                ctx.scope[name] = truncate(value_fn(ctx))

            return let_fn, 1 + value_ops
        if isinstance(stmt, ir.Assign):
            return self._assign(stmt)
        if isinstance(stmt, ir.MapPut):
            parts, parts_ops = self._key_parts(stmt.key)
            build_key = self._tuple_builder(parts)
            value_fn, value_ops = self._int_expr(stmt.value)
            states = self._states
            name = stmt.map_name

            def put_fn(ctx):
                map_key = build_key(ctx)
                value = value_fn(ctx)
                state = states.get(name)
                if state is not None:
                    state.put(map_key, value)

            return put_fn, 4 + parts_ops + value_ops
        if isinstance(stmt, ir.MapDelete):
            parts, parts_ops = self._key_parts(stmt.key)
            build_key = self._tuple_builder(parts)
            states = self._states
            name = stmt.map_name

            def delete_fn(ctx):
                map_key = build_key(ctx)
                state = states.get(name)
                if state is not None:
                    state.delete(map_key)

            return delete_fn, 4 + parts_ops
        if isinstance(stmt, ir.If):
            cond_fn, cond_ops = self.expr(stmt.condition)
            then_fn, then_ops = self.body(stmt.then_body)
            else_fn, else_ops = self.body(stmt.else_body)

            def if_fn(ctx):
                if cond_fn(ctx):
                    ctx.ops += then_ops
                    then_fn(ctx)
                else:
                    ctx.ops += else_ops
                    else_fn(ctx)

            return if_fn, 1 + cond_ops
        if isinstance(stmt, ir.Repeat):
            body_fn, body_ops = self.body(stmt.body)
            count = stmt.count

            def repeat_fn(ctx):
                for _ in range(count):
                    body_fn(ctx)

            return repeat_fn, 1 + count * body_ops
        if isinstance(stmt, ir.PrimitiveCall):
            return self._primitive(stmt)
        raise SimulationError(f"cannot compile {stmt!r}")  # pragma: no cover

    def _assign(self, stmt: ir.Assign):
        value_fn, value_ops = self._int_expr(stmt.value)
        target = stmt.target
        if isinstance(target, ir.VarRef):
            name = target.name

            def assign_var(ctx):
                ctx.scope[name] = value_fn(ctx)

            return assign_var, 1 + value_ops
        if isinstance(target, ir.FieldRef):
            header = target.header
            key = (target.header, target.field)
            mask = (1 << self._program.field_width(target)) - 1

            def assign_field(ctx):
                value = value_fn(ctx)
                if header in ctx.visible:
                    ctx.fields[key] = value & mask

            return assign_field, 1 + value_ops
        meta_key = target.key

        def assign_meta(ctx):
            ctx.meta[meta_key] = value_fn(ctx)

        return assign_meta, 1 + value_ops

    def _primitive(self, call: ir.PrimitiveCall):
        arg_fns, args_ops = self._key_parts(call.args)
        static = 1 + args_ops
        name = call.name
        if name == "mark_drop":

            def mark_drop(ctx):
                ctx.meta["drop_flag"] = 1

            return mark_drop, static
        if name == "set_port":
            if len(arg_fns) == 1:
                arg0 = arg_fns[0]
                return (
                    lambda ctx: ctx.meta.__setitem__("egress_port", arg0(ctx))
                ), static

            def set_port(ctx):
                args = [fn(ctx) for fn in arg_fns]
                ctx.meta["egress_port"] = args[0] if args else 0

            return set_port, static
        if name == "set_queue":
            if len(arg_fns) == 1:
                arg0 = arg_fns[0]
                return (
                    lambda ctx: ctx.meta.__setitem__("queue_id", arg0(ctx))
                ), static

            def set_queue(ctx):
                args = [fn(ctx) for fn in arg_fns]
                ctx.meta["queue_id"] = args[0] if args else 0

            return set_queue, static
        if name == "emit_digest":
            program_name = self._program.name
            build_args = self._tuple_builder(arg_fns) if arg_fns else (lambda ctx: ())

            def emit_digest(ctx):
                ctx.packet.digests.append((program_name, build_args(ctx)))

            return emit_digest, static
        if name == "clone":

            def clone(ctx):
                meta = ctx.meta
                meta["clones"] = meta.get("clones", 0) + 1

            return clone, static
        if name == "recirculate":

            def recirculate(ctx):
                ctx.meta["_recirculate"] = 1

            return recirculate, static
        if name == "no_op":

            def no_op(ctx):
                for arg in arg_fns:
                    arg(ctx)

            return no_op, static
        raise SimulationError(f"unknown primitive {name!r}")  # pragma: no cover

    # -- actions and apply steps -------------------------------------------

    def _compile_action(self, action: ir.ActionDef):
        body_fn, body_ops = self.body(action.body)
        param_names = tuple(name for name, _ in action.params)
        needs_scope = any(_touches_scope(stmt) for stmt in action.body)
        return param_names, body_fn, body_ops, needs_scope

    def _field_read(self, ref: ir.FieldRef):
        """A raw table-key read: visibility-masked, zero op cost."""
        header = ref.header
        key = (ref.header, ref.field)

        def read(ctx):
            if header in ctx.visible:
                return ctx.fields.get(key, 0)
            return 0

        return read

    def steps(self, steps: tuple[ir.ApplyStep, ...]):
        fns = []
        static = 0
        for step in steps:
            if isinstance(step, ir.ApplyTable):
                # Hosting is immutable per instance: filter at compile time.
                if not self._instance.hosts(step.table):
                    continue
                fn, ops = self._apply_table(step.table)
            elif isinstance(step, ir.ApplyFunction):
                if not self._instance.hosts(step.function):
                    continue
                fn, ops = self._apply_function(step.function)
            else:
                fn, ops = self._apply_if(step)
            fns.append(fn)
            static += ops
        return _chain(fns), static

    def _apply_if(self, step: ir.ApplyIf):
        cond_fn, cond_ops = self.expr(step.condition)
        then_fn, then_ops = self.steps(step.then_steps)
        else_fn, else_ops = self.steps(step.else_steps)

        if _touches_scope(step.condition):
            # Parity: the interpreter evaluates apply-if conditions in a
            # fresh empty scope, never a leftover action scope.
            def apply_if_scoped(ctx):
                ctx.scope = {}
                if cond_fn(ctx):
                    ctx.ops += then_ops
                    then_fn(ctx)
                else:
                    ctx.ops += else_ops
                    else_fn(ctx)

            return apply_if_scoped, 1 + cond_ops

        def apply_if(ctx):
            if cond_fn(ctx):
                ctx.ops += then_ops
                then_fn(ctx)
            else:
                ctx.ops += else_ops
                else_fn(ctx)

        return apply_if, 1 + cond_ops

    def _apply_function(self, name: str):
        body = self._program.function(name).body
        body_fn, body_ops = self.body(body)
        if not any(_touches_scope(stmt) for stmt in body):
            return body_fn, body_ops

        def apply_function(ctx):
            ctx.scope = {}
            body_fn(ctx)

        return apply_function, body_ops

    def _apply_table(self, name: str):
        table = self._program.table(name)
        key_fns = tuple(self._field_read(key.field) for key in table.keys)
        rules_by_name = self._rules
        actions = self._actions
        if len(key_fns) == 1:
            key0 = key_fns[0]
            build_key = lambda ctx: (key0(ctx),)  # noqa: E731
        elif len(key_fns) == 2:
            key0, key1 = key_fns
            build_key = lambda ctx: (key0(ctx), key1(ctx))  # noqa: E731
        else:
            build_key = lambda ctx: tuple(fn(ctx) for fn in key_fns)  # noqa: E731

        def apply_table(ctx):
            # Inlined TableRules.lookup: the compiled key arity is
            # statically correct, so the per-call validation (and the
            # call frame) are skipped; semantics are otherwise identical.
            rules = rules_by_name[name]
            key = build_key(ctx)
            action_call = None
            if rules._all_exact:
                index = rules._exact_index
                if index is None:
                    index = rules._build_exact_index()
                hit = index.get(key)
                if hit is not None:
                    action_call, position = hit
                    rules.hit_counts[position] += 1
            else:
                ordered = rules._ordered
                if ordered is None:
                    ordered = rules._build_ordered()
                for predicate, action, position in ordered:
                    if predicate(key):
                        action_call = action
                        rules.hit_counts[position] += 1
                        break
            if action_call is None:
                rules.miss_count += 1
                action_call = rules.definition.default_action
                if action_call is None:
                    return
            meter = rules._meter
            if meter is not None:
                ctx.meta["meter_color"] = meter.mark(ctx.now).value
            param_names, body_fn, body_ops, needs_scope = actions[action_call.action]
            if needs_scope:
                ctx.scope = dict(zip(param_names, action_call.args))
            ctx.ops += body_ops
            body_fn(ctx)

        return apply_table, 1

    # -- parser ------------------------------------------------------------

    def parse(self):
        program = self._program
        parser = program.parser
        if parser is None:
            declared = tuple(header.name for header in program.headers)

            def parse_all(ctx):
                visible = ctx.visible
                visible.clear()
                present = {key[0] for key in ctx.fields}
                for name in declared:
                    if name in present:
                        visible.add(name)

            return parse_all

        start = parser.start_header
        transitions = []
        for transition in parser.transitions:
            select = transition.select_field
            transitions.append(
                (
                    transition.next_header,
                    None if select is None else select.header,
                    None if select is None else (select.header, select.field),
                    transition.select_value,
                )
            )
        transitions = tuple(transitions)
        parse_ops = 1 + len(transitions)

        def parse(ctx):
            visible = ctx.visible
            visible.clear()
            fields = ctx.fields
            present = {key[0] for key in fields}
            if start not in present:
                return
            visible.add(start)
            ctx.ops += parse_ops
            for next_header, select_header, select_key, select_value in transitions:
                if next_header not in present:
                    continue
                if select_header is not None:
                    if select_header not in visible:
                        continue
                    if fields.get(select_key, 0) != select_value:
                        continue
                visible.add(next_header)

        return parse


class CompiledProgram:
    """The FlexPath executable for one :class:`ProgramInstance`."""

    __slots__ = ("version", "_parse", "_apply", "_apply_ops", "_ctx")

    def __init__(self, instance):
        compiler = _Compiler(instance)
        self.version = instance.program.version
        self._parse = compiler.parse()
        self._apply, self._apply_ops = compiler.steps(instance.program.apply)
        self._ctx = _Ctx()

    def process(self, packet: Packet, now: float = 0.0):
        from repro.simulator.pipeline_exec import MAX_RECIRCULATIONS, ExecutionResult

        ctx = self._ctx
        ctx.packet = packet
        ctx.fields = packet.fields
        meta = ctx.meta = packet.meta
        ctx.scope = {}
        ctx.now = now
        ctx.ops = 0
        parse = self._parse
        apply_fn = self._apply
        apply_ops = self._apply_ops

        parse(ctx)
        ctx.ops += apply_ops
        apply_fn(ctx)
        recirculations = 0
        while meta.pop("_recirculate", 0) and recirculations < MAX_RECIRCULATIONS:
            recirculations += 1
            parse(ctx)
            ctx.ops += apply_ops
            apply_fn(ctx)
        if meta.get("drop_flag"):
            packet.verdict = Verdict.DROP
        return ExecutionResult(
            ops=ctx.ops, version=self.version, recirculations=recirculations
        )


def compile_instance(instance) -> CompiledProgram:
    """Compile ``instance`` (a :class:`ProgramInstance`) for FlexPath."""
    return CompiledProgram(instance)


# ---------------------------------------------------------------------------
# Flow memo
# ---------------------------------------------------------------------------


@dataclass
class _CachedOutcome:
    """Replayable effect of one recorded run, pre-resolved for replay:
    counter deltas are bound to their live ``hit_counts`` lists (valid
    until the token moves, which flushes the memo), and one
    ExecutionResult is shared by every replayed packet (results are
    value-compared, never mutated)."""

    fields_post: dict
    fields_absent: tuple
    meta_post: dict
    meta_absent: tuple
    verdict: Verdict
    digests: tuple
    #: ((hit_counts, rule index, delta), ...) and ((rules, miss delta),
    #: ...), so P4Runtime direct counters stay exact under memo hits.
    hit_ops: tuple
    miss_ops: tuple
    result: object
    #: no absent keys or digests: replay takes the shorter loop.
    simple: bool = field(init=False)

    def __post_init__(self) -> None:
        self.simple = not (self.fields_absent or self.meta_absent or self.digests)

    def replay(self, packet: Packet) -> None:
        """Apply the outcome to ``packet`` (a flow-mate of the recorded
        one) and its counter deltas to the live tables."""
        packet.fields.update(self.fields_post)
        packet.meta.update(self.meta_post)
        packet.verdict = self.verdict
        if not self.simple:
            fields = packet.fields
            for absent in self.fields_absent:
                fields.pop(absent, None)
            meta = packet.meta
            for absent in self.meta_absent:
                meta.pop(absent, None)
            packet.digests.extend(self.digests)
        for hit_counts, position, delta in self.hit_ops:
            hit_counts[position] += delta
        for rules, delta in self.miss_ops:
            rules.miss_count += delta


def _compile_obs_key(decision):
    """Codegen the per-packet observation-key function (the FlexPath
    trick applied to key extraction: one specialized function instead
    of a generic loop over key descriptors).

    The key is ``(tuple(packet.fields), observed field values…, meta
    values…)``. The leading ordered field-key tuple determines the set
    of present fields — and with it every header-presence bit the
    parser observes — so packets sharing a key are indistinguishable to
    the hosted slice and the memoized outcome replays bit-exactly.
    """
    lines = ["def obs_key(p):", "    f = p.fields", "    g = f.get"]
    if decision.key_meta:
        lines.append("    m = p.meta.get")
    parts = ["tuple(f)"]
    namespace: dict = {}
    for index, key in enumerate(decision.key_fields):
        namespace[f"F{index}"] = key
        parts.append(f"g(F{index}, 0)")
    for index, key in enumerate(decision.key_meta):
        namespace[f"M{index}"] = key
        parts.append(f"m(M{index}, 0)")
    lines.append("    return (" + ", ".join(parts) + ")")
    exec("\n".join(lines), namespace)  # noqa: S102 - static codegen, no packet data
    return namespace["obs_key"]


class _CacheBinding:
    """Per-instance memo plumbing: the static cacheability decision,
    key extraction, validity token, and outcome capture."""

    def __init__(self, instance):
        from repro.analysis.cacheability import decide

        self.instance = instance
        self.decision = decide(instance.program, instance.hosted_elements)
        self.cacheable = self.decision.cacheable
        self.key = _compile_obs_key(self.decision) if self.cacheable else None
        self._field_keys = self.decision.key_fields
        self._meta_keys = self.decision.key_meta
        self._tables = self.decision.applied_tables
        self._maps = self.decision.read_maps

    def token(self):
        """Current validity token, or None when the memo must be
        bypassed entirely (a meter makes outcomes stateful)."""
        instance = self.instance
        rules_by_name = instance.rules
        table_epochs = []
        for name in self._tables:
            rules = rules_by_name.get(name)
            if rules is None:
                continue
            if rules.meter is not None:
                return None
            table_epochs.append(rules.epoch)
        states = instance.maps._states  # noqa: SLF001 - hot path
        map_counts = []
        for name in self._maps:
            state = states.get(name)
            if state is not None:
                map_counts.append(state.mutation_count)
        return (instance.version, tuple(table_epochs), tuple(map_counts))

    def record(self, packet: Packet, now: float) -> _CachedOutcome:
        """Run the packet through the real path, capturing a replayable
        outcome for subsequent flow-mates."""
        instance = self.instance
        rules_by_name = instance.rules
        before = [
            (rules, list(rules.hit_counts), rules.miss_count)
            for rules in map(rules_by_name.get, self._tables)
            if rules is not None
        ]
        digests_before = len(packet.digests)

        result = instance.process(packet, now)

        hit_ops = []
        miss_ops = []
        for rules, hits_before, miss_before in before:
            hit_counts = rules.hit_counts
            for position, after in enumerate(hit_counts):
                if after != hits_before[position]:
                    hit_ops.append((hit_counts, position, after - hits_before[position]))
            if rules.miss_count != miss_before:
                miss_ops.append((rules, rules.miss_count - miss_before))

        fields = packet.fields
        fields_post = {}
        fields_absent = []
        for key in self._field_keys:
            if key in fields:
                fields_post[key] = fields[key]
            else:
                fields_absent.append(key)
        meta = packet.meta
        meta_post = {}
        meta_absent = []
        for key in self._meta_keys:
            if key in meta:
                meta_post[key] = meta[key]
            else:
                meta_absent.append(key)
        return _CachedOutcome(
            fields_post=fields_post,
            fields_absent=tuple(fields_absent),
            meta_post=meta_post,
            meta_absent=tuple(meta_absent),
            verdict=packet.verdict,
            digests=tuple(packet.digests[digests_before:]),
            hit_ops=tuple(hit_ops),
            miss_ops=tuple(miss_ops),
            result=result,
        )


@dataclass
class FlowCacheStats:
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    #: token-change invalidation *events* (one per token move that found
    #: a populated cache).
    invalidations: int = 0
    #: entries dropped across those invalidation events — a single token
    #: move can flush thousands of flows, which the event count hides.
    entries_dropped: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "invalidations": self.invalidations,
            "entries_dropped": self.entries_dropped,
            "hit_rate": self.hit_rate,
        }

    def summary(self) -> str:
        return (
            f"flow cache: {self.hits} hit(s) / {self.misses} miss(es) "
            f"({self.hit_rate:.0%}), {self.bypasses} bypass(es), "
            f"{self.invalidations} invalidation(s) dropping "
            f"{self.entries_dropped} entr(ies)"
        )


class FlowCache:
    """The per-device flow memo over cacheable program versions.

    Entries are keyed by the packet values the program can observe (per
    the cacheability decision) and validated against an epoch token; a
    token change drops every entry at once, so no reconfiguration can
    leave a stale verdict behind. Eviction is FIFO.
    """

    def __init__(self, capacity: int = FLOW_MEMO_CAPACITY):
        if capacity <= 0:
            raise SimulationError("flow cache capacity must be positive")
        self.capacity = capacity
        self.stats = FlowCacheStats()
        self._entries: dict = {}
        self._token = None
        self._binding = None

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._token = None

    def _admit(self, instance):
        """The binding for ``instance`` once its slice is cacheable and
        its token is live (entries validated against it); None when the
        caller must run the normal path."""
        binding = self._binding
        if binding is None or binding.instance is not instance:
            # Entries hold counter references into the previous
            # instance's tables, so a new instance starts cold.
            binding = self._binding = _CacheBinding(instance)
            self.clear()
        if not binding.cacheable:
            return None
        token = binding.token()
        if token is None:
            return None
        if token != self._token:
            if self._token is not None and self._entries:
                self.stats.invalidations += 1
                self.stats.entries_dropped += len(self._entries)
            self._entries.clear()
            self._token = token
        return binding

    def process(self, instance, packet: Packet, now: float):
        """Serve ``packet`` from the memo if possible; returns the
        :class:`ExecutionResult`, or None when the caller must run the
        normal path itself (uncacheable slice, or a meter attached)."""
        binding = self._admit(instance)
        if binding is None:
            self.stats.bypasses += 1
            return None
        key = binding.key(packet)
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self.stats.misses += 1
            entry = binding.record(packet, now)
            if len(entries) >= self.capacity:
                del entries[next(iter(entries))]
            entries[key] = entry
        else:
            self.stats.hits += 1
            entry.replay(packet)
        return entry.result


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Divergence:
    """One observed difference between interpreter and FlexPath."""

    packet_index: int
    kind: str
    interpreted: object
    compiled: object

    def __str__(self) -> str:
        return (
            f"packet {self.packet_index}: {self.kind} diverged "
            f"(interpreter {self.interpreted!r} vs FlexPath {self.compiled!r})"
        )


@dataclass
class DifferentialReport:
    packets: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def compare_packet(self, index: int, left, right, ref_result, result) -> None:
        """Record every observable difference between one packet's
        reference run (``left``) and its run under test (``right``)."""
        self.packets += 1
        checks = (
            ("verdict", left.verdict, right.verdict),
            ("fields", left.fields, right.fields),
            ("meta", left.meta, right.meta),
            ("digests", left.digests, right.digests),
            ("ops", ref_result.ops, result.ops),
            ("recirculations", ref_result.recirculations, result.recirculations),
            ("version", ref_result.version, result.version),
        )
        for kind, expected, actual in checks:
            if expected != actual:
                self.divergences.append(
                    Divergence(index, kind, copy.deepcopy(expected), copy.deepcopy(actual))
                )

    def compare_end_state(self, reference, other) -> None:
        """Record end-of-run differences in map state and table
        counters between two instances."""
        for map_name in reference.maps.names():
            ref_state = dict(reference.maps.state(map_name).items())
            other_state = dict(other.maps.state(map_name).items())
            if ref_state != other_state:
                self.divergences.append(
                    Divergence(-1, f"map:{map_name}", ref_state, other_state)
                )
        for table_name, ref_rules in reference.rules.items():
            other_rules = other.rules[table_name]
            if ref_rules.hit_counts != other_rules.hit_counts:
                self.divergences.append(
                    Divergence(
                        -1,
                        f"hit_counts:{table_name}",
                        list(ref_rules.hit_counts),
                        list(other_rules.hit_counts),
                    )
                )
            if ref_rules.miss_count != other_rules.miss_count:
                self.divergences.append(
                    Divergence(
                        -1,
                        f"miss_count:{table_name}",
                        ref_rules.miss_count,
                        other_rules.miss_count,
                    )
                )


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


def seeded_rules(program: ir.Program, instance, seed: int = 99, per_table: int = 6):
    """Install a deterministic rule set compatible with every table of
    ``program`` (same rules for every instance given the same seed)."""
    from repro.simulator.tables import exact, lpm, rng as range_match, ternary

    rand = random.Random(seed)
    for table in program.tables:
        rules = instance.rules[table.name]
        if not table.actions:
            continue
        for _ in range(min(per_table, table.size)):
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


def differential_check(
    program: ir.Program,
    packets: list[Packet],
    hosted_elements: set[str] | None = None,
    setup=None,
    now_step: float = 1e-4,
    max_divergences: int = 20,
    mutate=None,
    cache: FlowCache | None = None,
) -> DifferentialReport:
    """Run the interpreter and FlexPath side by side over ``packets``
    and report every observable difference: verdicts, header fields,
    metadata, digests, op counts, recirculations — and, at the end,
    map state and table counters. Handed a ``cache``, the arm under
    test is compiled + memo, driven as ``DeviceRuntime.process`` drives
    it: :meth:`FlowCache.process`, falling to the instance when that
    returns None. ``mutate(reference, fast, index)`` — when given —
    runs before each packet on both instances, which is how the flush
    tests attach a meter or insert a rule mid-run."""
    from repro.simulator.pipeline_exec import ProgramInstance

    reference = ProgramInstance(program, hosted_elements)
    fast = ProgramInstance(program, hosted_elements, fastpath=True)
    if setup is not None:
        setup(reference)
        setup(fast)

    report = DifferentialReport()
    for index, packet in enumerate(packets):
        if len(report.divergences) >= max_divergences:
            break
        if mutate is not None:
            mutate(reference, fast, index)
        left = copy.deepcopy(packet)
        right = copy.deepcopy(packet)
        now = index * now_step
        ref_result = reference.process(left, now)
        fast_result = None if cache is None else cache.process(fast, right, now)
        if fast_result is None:
            fast_result = fast.process(right, now)
        report.compare_packet(index, left, right, ref_result, fast_result)
    report.compare_end_state(reference, fast)
    return report

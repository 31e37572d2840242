"""Packet-level interpreter for FlexBPF programs.

A :class:`ProgramInstance` is one immutable program version *installed
on one device*, together with that device's runtime artifacts: table
rules and map state. The interpreter executes the program's parse
graph and apply block against a packet, faithfully modelling the
datapath semantics the rest of the system depends on:

* parsing controls header *visibility* — reads of unparsed headers
  return 0 and writes to them are ignored (as a real pipeline's PHV
  simply would not contain them);
* ``mark_drop`` sets the drop flag but the pipeline keeps executing
  (hardware drops at egress, so later stages still observe the packet);
* ``recirculate`` re-runs the apply block, bounded by
  ``MAX_RECIRCULATIONS``;
* every packet records the program version that processed it, which is
  what the consistency experiments check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.lang import ir
from repro.limits import RECIRCULATION_CAP
from repro.lang.maps import MapSet
from repro.simulator.packet import Packet, Verdict
from repro.simulator.tables import TableRules
from repro.util import stable_hash

MAX_RECIRCULATIONS = RECIRCULATION_CAP


@dataclass
class ExecutionResult:
    ops: int
    version: int
    recirculations: int = 0


class ProgramInstance:
    """One program version's runtime state on one device."""

    def __init__(
        self,
        program: ir.Program,
        hosted_elements: set[str] | None = None,
        fastpath: bool = False,
    ):
        self.program = program
        #: None hosts the whole program; otherwise only these elements
        #: execute here (the rest run on other devices of the slice).
        self.hosted_elements = hosted_elements
        self.rules: dict[str, TableRules] = {
            table.name: TableRules(table) for table in program.tables
        }
        self.maps = MapSet(program.maps)
        #: FlexPath: when set, packets execute through the function
        #: generated for this instance instead of the tree-walking
        #: interpreter. The compiled artifact is built lazily on the
        #: first packet (after any state sharing/adoption has re-bound
        #: rules and maps).
        self.fastpath_enabled = fastpath
        self._compiled = None
        #: FlexVet: lazily computed parallelism classification of the
        #: hosted slice (see :meth:`vet`).
        self._vet = None
        #: Pass-through lane: a slice hosting *nothing* whose apply block
        #: has no top-level ``if`` (a condition is evaluated and costed
        #: even here) only parses, so its outcome is two-valued: ``(start
        #: header, result with it, result without)``, each result shared
        #: by every packet. None when the slice must really execute.
        self.lane = None
        if hosted_elements is not None and not hosted_elements and not any(
            isinstance(step, ir.ApplyIf) for step in program.apply
        ):
            parser = program.parser
            start, ops = (
                (None, 0) if parser is None else (parser.start_header, 1 + len(parser.transitions))
            )
            version = program.version
            self.lane = (start, ExecutionResult(ops, version), ExecutionResult(0, version))

    @property
    def version(self) -> int:
        return self.program.version

    def vet(self):
        """The FlexVet :class:`~repro.analysis.vet.VetReport` for the
        slice this instance hosts — the static parallelism contract the
        FlexScale partitioner consults at install time. Computed once per instance (the program is immutable)."""
        if self._vet is None:
            from repro.analysis.vet import vet

            self._vet = vet(self.program, self.hosted_elements)
        return self._vet

    def hosts(self, element: str) -> bool:
        return self.hosted_elements is None or element in self.hosted_elements

    def adopt_state(self, previous: "ProgramInstance") -> None:
        """Carry map state and table rules over from the prior version
        (same-name, same-shape elements keep their contents across a
        hitless reconfiguration). Runtime artifacts configured through
        P4Runtime — the table meter, per-rule hit counters, and the miss
        count — travel with the rules, so e.g. an active rate limiter is
        not silently disabled by an unrelated delta."""
        self.maps.adopt(previous.maps)
        for name, old_rules in previous.rules.items():
            if name not in self.rules:
                continue
            self.rules[name].adopt_from(old_rules)

    # -- execution ------------------------------------------------------------

    def process(self, packet: Packet, now: float = 0.0, trace=None) -> ExecutionResult:
        # FlexScope: a sampled packet (``trace`` is a PacketTrace) always
        # runs through the interpreter, which narrates its execution into
        # the trace. FlexPath's differential-identity guarantee makes the
        # outcome identical to the compiled path, so sampling observes
        # real behaviour without instrumenting the generated code.
        if self.fastpath_enabled and trace is None:
            compiled = self._compiled
            if compiled is None:
                from repro.simulator.fastpath import compile_instance

                compiled = self._compiled = compile_instance(self)
            return compiled.process(packet, now)
        interpreter = _Interpreter(self, packet, now, trace=trace)
        return interpreter.run()


class _Interpreter:
    def __init__(self, instance: ProgramInstance, packet: Packet, now: float = 0.0, trace=None):
        self._instance = instance
        self._program = instance.program
        self._packet = packet
        self._now = now
        self._ops = 0
        self._visible_headers: set[str] = set()
        self._recirculations = 0
        #: FlexScope frame collector for sampled packets (None otherwise).
        self._trace = trace

    def run(self) -> ExecutionResult:
        self._parse()
        self._run_apply()
        while self._packet.meta.pop("_recirculate", 0) and self._recirculations < MAX_RECIRCULATIONS:
            self._recirculations += 1
            if self._trace is not None:
                self._trace.recirculate(self._recirculations)
            self._parse()
            self._run_apply()
        if self._packet.meta.get("drop_flag"):
            self._packet.verdict = Verdict.DROP
        return ExecutionResult(
            ops=self._ops, version=self._program.version, recirculations=self._recirculations
        )

    # -- parsing -----------------------------------------------------------

    def _parse(self) -> None:
        self._run_parser()
        if self._trace is not None:
            self._trace.parse(tuple(sorted(self._visible_headers)))

    def _run_parser(self) -> None:
        self._visible_headers.clear()
        parser = self._program.parser
        if parser is None:
            # No parser: every declared header the packet carries is visible.
            self._visible_headers.update(
                header.name
                for header in self._program.headers
                if self._packet.has_header(header.name)
            )
            return
        if not self._packet.has_header(parser.start_header):
            return
        self._visible_headers.add(parser.start_header)
        self._ops += 1
        for transition in parser.transitions:
            self._ops += 1
            if not self._packet.has_header(transition.next_header):
                continue
            if transition.select_field is not None:
                if transition.select_field.header not in self._visible_headers:
                    continue
                actual = self._packet.get_field(
                    transition.select_field.header, transition.select_field.field
                )
                if actual != transition.select_value:
                    continue
            self._visible_headers.add(transition.next_header)

    # -- apply block ----------------------------------------------------------

    def _run_apply(self) -> None:
        self._exec_steps(self._program.apply)

    def _exec_steps(self, steps: tuple[ir.ApplyStep, ...]) -> None:
        for step in steps:
            if isinstance(step, ir.ApplyTable):
                if self._instance.hosts(step.table):
                    self._apply_table(step.table)
            elif isinstance(step, ir.ApplyFunction):
                if self._instance.hosts(step.function):
                    if self._trace is not None:
                        self._trace.function(step.function)
                    self._exec_body(self._program.function(step.function).body, {})
            else:
                self._ops += 1
                if self._truthy(self._eval(step.condition, {})):
                    self._exec_steps(step.then_steps)
                else:
                    self._exec_steps(step.else_steps)

    def _apply_table(self, table_name: str) -> None:
        table = self._program.table(table_name)
        rules = self._instance.rules[table_name]
        key_values = tuple(
            self._read_field(key.field.header, key.field.field) for key in table.keys
        )
        self._ops += 1
        action_call = rules.lookup(key_values)
        if self._trace is not None:
            self._trace.table(
                table_name,
                action_call is not None,
                action_call.action if action_call is not None else None,
            )
        if action_call is None:
            return
        if rules.meter is not None:
            color = rules.meter.mark(self._now)
            self._packet.meta["meter_color"] = color.value
        action = self._program.action(action_call.action)
        scope: dict[str, int] = {
            param_name: value
            for (param_name, _), value in zip(action.params, action_call.args)
        }
        self._exec_body(action.body, scope)

    # -- statements ---------------------------------------------------------------

    def _exec_body(self, body: tuple[ir.Stmt, ...], scope: dict[str, int]) -> None:
        for stmt in body:
            self._exec_stmt(stmt, scope)

    def _exec_stmt(self, stmt: ir.Stmt, scope: dict[str, int]) -> None:
        self._ops += 1
        if isinstance(stmt, ir.Let):
            scope[stmt.name] = stmt.value_type.truncate(self._as_int(self._eval(stmt.value, scope)))
        elif isinstance(stmt, ir.Assign):
            value = self._as_int(self._eval(stmt.value, scope))
            target = stmt.target
            if isinstance(target, ir.VarRef):
                scope[target.name] = value
            elif isinstance(target, ir.FieldRef):
                if target.header in self._visible_headers:
                    width = self._program.field_width(target)
                    self._packet.set_field(
                        target.header, target.field, value & ((1 << width) - 1)
                    )
            else:
                self._packet.meta[target.key] = value
        elif isinstance(stmt, ir.MapPut):
            key = tuple(self._as_int(self._eval(part, scope)) for part in stmt.key)
            value = self._as_int(self._eval(stmt.value, scope))
            if stmt.map_name in self._instance.maps:
                self._instance.maps.state(stmt.map_name).put(key, value)
            self._ops += 3
        elif isinstance(stmt, ir.MapDelete):
            key = tuple(self._as_int(self._eval(part, scope)) for part in stmt.key)
            if stmt.map_name in self._instance.maps:
                self._instance.maps.state(stmt.map_name).delete(key)
            self._ops += 3
        elif isinstance(stmt, ir.If):
            # Branches share the enclosing scope: assignments to outer
            # variables must be visible after the branch (the validator
            # already enforces lexical let-scoping statically).
            if self._truthy(self._eval(stmt.condition, scope)):
                self._exec_body(stmt.then_body, scope)
            else:
                self._exec_body(stmt.else_body, scope)
        elif isinstance(stmt, ir.Repeat):
            for _ in range(stmt.count):
                self._exec_body(stmt.body, scope)
        elif isinstance(stmt, ir.PrimitiveCall):
            self._exec_primitive(stmt, scope)
        else:  # pragma: no cover
            raise SimulationError(f"cannot execute {stmt!r}")

    def _exec_primitive(self, call: ir.PrimitiveCall, scope: dict[str, int]) -> None:
        args = [self._as_int(self._eval(arg, scope)) for arg in call.args]
        meta = self._packet.meta
        if call.name == "mark_drop":
            meta["drop_flag"] = 1
            if self._trace is not None:
                self._trace.drop()
        elif call.name == "set_port":
            meta["egress_port"] = args[0] if args else 0
        elif call.name == "set_queue":
            meta["queue_id"] = args[0] if args else 0
        elif call.name == "emit_digest":
            self._packet.digests.append((self._program.name, tuple(args)))
            if self._trace is not None:
                self._trace.digest(self._program.name, tuple(args))
        elif call.name == "clone":
            meta["clones"] = meta.get("clones", 0) + 1
        elif call.name == "recirculate":
            meta["_recirculate"] = 1
        elif call.name == "no_op":
            pass
        else:  # pragma: no cover - validator rejects unknown primitives
            raise SimulationError(f"unknown primitive {call.name!r}")

    # -- expressions ----------------------------------------------------------------

    def _read_field(self, header: str, field_name: str) -> int:
        if header not in self._visible_headers:
            return 0
        return self._packet.get_field(header, field_name)

    def _eval(self, expr: ir.Expr, scope: dict[str, int]):
        # Constants and locals are immediates/registers — free at runtime
        # and costed as zero by the analyzer; everything else costs 1.
        if not isinstance(expr, (ir.Const, ir.VarRef)):
            self._ops += 1
        if isinstance(expr, ir.Const):
            return expr.value
        if isinstance(expr, ir.FieldRef):
            return self._read_field(expr.header, expr.field)
        if isinstance(expr, ir.MetaRef):
            return self._packet.meta.get(expr.key, 0)
        if isinstance(expr, ir.VarRef):
            if expr.name not in scope:
                raise SimulationError(f"unbound variable {expr.name!r} at runtime")
            return scope[expr.name]
        if isinstance(expr, ir.MapGet):
            key = tuple(self._as_int(self._eval(part, scope)) for part in expr.key)
            self._ops += 3
            if expr.map_name in self._instance.maps:
                return self._instance.maps.state(expr.map_name).get(key)
            return 0
        if isinstance(expr, ir.HashExpr):
            values = tuple(self._as_int(self._eval(arg, scope)) for arg in expr.args)
            self._ops += 2
            return stable_hash(values) % expr.modulus
        if isinstance(expr, ir.UnOp):
            operand = self._eval(expr.operand, scope)
            if expr.op == "!":
                return not self._truthy(operand)
            return ~self._as_int(operand) & ((1 << 64) - 1)
        if isinstance(expr, ir.BinOp):
            return self._eval_binop(expr, scope)
        raise SimulationError(f"cannot evaluate {expr!r}")  # pragma: no cover

    def _eval_binop(self, expr: ir.BinOp, scope: dict[str, int]):
        kind = expr.kind
        if kind is ir.BinOpKind.LAND:
            return self._truthy(self._eval(expr.left, scope)) and self._truthy(
                self._eval(expr.right, scope)
            )
        if kind is ir.BinOpKind.LOR:
            return self._truthy(self._eval(expr.left, scope)) or self._truthy(
                self._eval(expr.right, scope)
            )
        left = self._as_int(self._eval(expr.left, scope))
        right = self._as_int(self._eval(expr.right, scope))
        if kind is ir.BinOpKind.ADD:
            return left + right
        if kind is ir.BinOpKind.SUB:
            # saturating subtraction (unsigned hardware semantics without
            # surprising wraparound for counters and TTL arithmetic)
            return max(left - right, 0)
        if kind is ir.BinOpKind.MUL:
            return left * right
        if kind is ir.BinOpKind.DIV:
            return left // right if right else 0
        if kind is ir.BinOpKind.MOD:
            return left % right if right else 0
        if kind is ir.BinOpKind.AND:
            return left & right
        if kind is ir.BinOpKind.OR:
            return left | right
        if kind is ir.BinOpKind.XOR:
            return left ^ right
        if kind is ir.BinOpKind.SHL:
            return (left << min(right, 64)) & ((1 << 128) - 1)
        if kind is ir.BinOpKind.SHR:
            return left >> min(right, 64)
        if kind is ir.BinOpKind.EQ:
            return left == right
        if kind is ir.BinOpKind.NE:
            return left != right
        if kind is ir.BinOpKind.LT:
            return left < right
        if kind is ir.BinOpKind.LE:
            return left <= right
        if kind is ir.BinOpKind.GT:
            return left > right
        if kind is ir.BinOpKind.GE:
            return left >= right
        raise SimulationError(f"unknown operator {kind}")  # pragma: no cover

    @staticmethod
    def _truthy(value) -> bool:
        return bool(value)

    @staticmethod
    def _as_int(value) -> int:
        return int(value)

"""Performance/energy optimizations over fungible resources (§3.3).

Two optimizations the paper names explicitly:

* **Table merging** — "Merging two match/action tables ... will lead to
  increased memory usage due to a table cross product, but it saves one
  table lookup time and reduces latency." :class:`TableMerger` finds
  merge candidates (consecutively applied, exact-match, conflict-free
  tables), evaluates the memory-vs-latency trade under a given target,
  and can rewrite the program with the merged table and composite
  actions.

* **Objective re-optimization** — :func:`refine` performs local search
  over an existing plan, moving one co-location cluster at a time to a
  different feasible device whenever it improves the plan's weighted
  latency/energy score. This is the "shuffle resources around and
  optimize for the current workload" loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CompilationError, PlacementError
from repro.lang import ir
from repro.targets.base import Target

from repro.compiler.placement import NetworkSlice, Objective, ObjectiveKind, PlacementEngine
from repro.compiler.plan import CompilationPlan


# ---------------------------------------------------------------------------
# Table merging
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergeCandidate:
    first: str
    second: str


@dataclass(frozen=True)
class MergeEvaluation:
    """The cross-product trade for one candidate on one target."""

    candidate: MergeCandidate
    entries_before: int
    entries_after: int  # size1 * size2 (cross product)
    memory_before_kb: float
    memory_after_kb: float
    latency_before_ns: float
    latency_after_ns: float

    @property
    def memory_growth(self) -> float:
        if self.memory_before_kb == 0:
            return float("inf")
        return self.memory_after_kb / self.memory_before_kb

    @property
    def latency_saving_ns(self) -> float:
        return self.latency_before_ns - self.latency_after_ns

    @property
    def worthwhile(self) -> bool:
        return self.latency_saving_ns > 0


class TableMerger:
    """Finds, evaluates, and applies match/action table merges."""

    def candidates(self, program: ir.Program) -> list[MergeCandidate]:
        """Pairs of tables applied back-to-back at top level, both
        exact-match (cross products over ternary entries explode in both
        dimensions and are never worthwhile on the modelled targets)."""
        found: list[MergeCandidate] = []
        steps = program.apply
        for first_step, second_step in zip(steps, steps[1:]):
            if not (
                isinstance(first_step, ir.ApplyTable) and isinstance(second_step, ir.ApplyTable)
            ):
                continue
            first = program.table(first_step.table)
            second = program.table(second_step.table)
            if first.is_ternary or second.is_ternary or first.is_lpm or second.is_lpm:
                continue
            if self._tables_conflict(program, first, second):
                continue
            found.append(MergeCandidate(first=first.name, second=second.name))
        return found

    def _tables_conflict(
        self, program: ir.Program, first: ir.TableDef, second: ir.TableDef
    ) -> bool:
        """A merge is illegal when the first table's actions write fields
        the second table matches on (the combined lookup would read
        pre-modification values)."""
        matched = {key.field for key in second.keys}
        return any(
            program.action(name).access.field_writes & matched for name in first.invocable
        )

    def evaluate(
        self, program: ir.Program, candidate: MergeCandidate, target: Target
    ) -> MergeEvaluation:
        first = program.table(candidate.first)
        second = program.table(candidate.second)
        key_bits_first = program.table_key_bits(first)
        key_bits_second = program.table_key_bits(second)
        overhead = 32

        entries_before = first.size + second.size
        entries_after = first.size * second.size
        memory_before_kb = (
            first.size * (key_bits_first + overhead) + second.size * (key_bits_second + overhead)
        ) / 8.0 / 1024.0
        memory_after_kb = (
            entries_after * (key_bits_first + key_bits_second + overhead) / 8.0 / 1024.0
        )
        per_op = target.performance.per_op_ns
        # Each table apply costs one lookup op plus its worst action; the
        # merge eliminates exactly one lookup.
        latency_before_ns = 2 * per_op
        latency_after_ns = 1 * per_op
        return MergeEvaluation(
            candidate=candidate,
            entries_before=entries_before,
            entries_after=entries_after,
            memory_before_kb=memory_before_kb,
            memory_after_kb=memory_after_kb,
            latency_before_ns=latency_before_ns,
            latency_after_ns=latency_after_ns,
        )

    def apply(self, program: ir.Program, candidate: MergeCandidate) -> ir.Program:
        """Rewrite the program with ``first`` and ``second`` merged.

        The merged table matches the union of both key sets and its
        actions are composite pairs ``a__then__b`` with concatenated
        bodies (parameters are prefixed to avoid capture).
        """
        first = program.table(candidate.first)
        second = program.table(candidate.second)
        merged_name = f"{first.name}__x__{second.name}"
        if program.has_table(merged_name):
            raise CompilationError(f"merge target {merged_name!r} already exists")

        composite_actions: list[ir.ActionDef] = []
        composite_names: list[str] = []
        for first_action_name in first.actions:
            for second_action_name in second.actions:
                first_action = program.action(first_action_name)
                second_action = program.action(second_action_name)
                name = f"{first_action_name}__then__{second_action_name}"
                params = tuple(
                    (f"a_{p}", t) for p, t in first_action.params
                ) + tuple((f"b_{p}", t) for p, t in second_action.params)
                body = tuple(_rename_params(first_action.body, "a_")) + tuple(
                    _rename_params(second_action.body, "b_")
                )
                composite_actions.append(ir.ActionDef(name=name, params=params, body=body))
                composite_names.append(name)

        default = None
        if first.default_action is not None and second.default_action is not None:
            default = ir.ActionCall(
                action=(
                    f"{first.default_action.action}__then__{second.default_action.action}"
                ),
                args=first.default_action.args + second.default_action.args,
            )

        merged = ir.TableDef(
            name=merged_name,
            keys=first.keys + second.keys,
            actions=tuple(composite_names),
            size=first.size * second.size,
            default_action=default,
        )

        tables = tuple(
            t for t in program.tables if t.name not in (first.name, second.name)
        ) + (merged,)
        actions = program.actions + tuple(composite_actions)
        new_apply = _replace_pair_in_apply(program.apply, first.name, second.name, merged_name)
        return replace(
            program, tables=tables, actions=actions, apply=new_apply
        ).bump_version().validate()


def _rename_params(body: tuple[ir.Stmt, ...], prefix: str) -> list[ir.Stmt]:
    def rename_expr(expr: ir.Expr) -> ir.Expr:
        if isinstance(expr, ir.VarRef):
            return ir.VarRef(name=prefix + expr.name)
        if isinstance(expr, ir.BinOp):
            return ir.BinOp(kind=expr.kind, left=rename_expr(expr.left), right=rename_expr(expr.right))
        if isinstance(expr, ir.UnOp):
            return ir.UnOp(op=expr.op, operand=rename_expr(expr.operand))
        if isinstance(expr, ir.MapGet):
            return ir.MapGet(map_name=expr.map_name, key=tuple(rename_expr(k) for k in expr.key))
        if isinstance(expr, ir.HashExpr):
            return ir.HashExpr(args=tuple(rename_expr(a) for a in expr.args), modulus=expr.modulus)
        return expr

    renamed: list[ir.Stmt] = []
    for stmt in body:
        if isinstance(stmt, ir.Assign):
            target = stmt.target
            if isinstance(target, ir.VarRef):
                target = ir.VarRef(name=prefix + target.name)
            renamed.append(ir.Assign(target=target, value=rename_expr(stmt.value)))
        elif isinstance(stmt, ir.PrimitiveCall):
            renamed.append(
                ir.PrimitiveCall(name=stmt.name, args=tuple(rename_expr(a) for a in stmt.args))
            )
        elif isinstance(stmt, ir.MapPut):
            renamed.append(
                ir.MapPut(
                    map_name=stmt.map_name,
                    key=tuple(rename_expr(k) for k in stmt.key),
                    value=rename_expr(stmt.value),
                )
            )
        elif isinstance(stmt, ir.MapDelete):
            renamed.append(
                ir.MapDelete(map_name=stmt.map_name, key=tuple(rename_expr(k) for k in stmt.key))
            )
        else:
            renamed.append(stmt)
    return renamed


def _replace_pair_in_apply(
    steps: tuple[ir.ApplyStep, ...], first: str, second: str, merged: str
) -> tuple[ir.ApplyStep, ...]:
    result: list[ir.ApplyStep] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        next_step = steps[index + 1] if index + 1 < len(steps) else None
        if (
            isinstance(step, ir.ApplyTable)
            and step.table == first
            and isinstance(next_step, ir.ApplyTable)
            and next_step.table == second
        ):
            result.append(ir.ApplyTable(table=merged))
            index += 2
            continue
        result.append(step)
        index += 1
    return tuple(result)


# ---------------------------------------------------------------------------
# Plan refinement (local search)
# ---------------------------------------------------------------------------


def plan_score(plan: CompilationPlan, objective: Objective) -> float:
    """Scalar score of a plan under an objective (lower is better)."""
    if objective.kind is ObjectiveKind.LATENCY:
        return plan.estimated_latency_ns
    if objective.kind is ObjectiveKind.ENERGY:
        return plan.estimated_energy_nj + plan.estimated_idle_power_w * objective.activation_weight
    return plan.estimated_latency_ns + plan.estimated_energy_nj


def refine(
    plan: CompilationPlan,
    network_slice: NetworkSlice,
    objective: Objective,
    max_rounds: int = 4,
) -> CompilationPlan:
    """Local search: recompile under the objective with pins relaxed one
    cluster at a time, keeping any strictly improving plan."""
    engine = PlacementEngine(objective)
    certificate = plan.certificate
    best = plan
    best_score = plan_score(plan, objective)
    element_names = list(plan.placement)

    for _ in range(max_rounds):
        improved = False
        for relaxed in element_names:
            pins = {e: d for e, d in best.placement.items() if e != relaxed}
            try:
                candidate = engine.compile(
                    best.program, certificate, network_slice, pinned=pins, max_iterations=1
                )
            except PlacementError:
                # Relaxing this element made placement infeasible; keep
                # the pin and move on. Anything else (a genuine engine
                # bug) must propagate, not be eaten by the search loop.
                continue
            score = plan_score(candidate, objective)
            if score < best_score - 1e-9:
                best, best_score = candidate, score
                improved = True
        if not improved:
            break
    return best

"""Incremental recompilation (§3.3): maximally adjacent reconfigurations.

Given the currently deployed :class:`CompilationPlan` and a new program
version (usually produced by a delta), compute:

1. a new plan that keeps unchanged elements **pinned** to their current
   devices whenever still feasible, and
2. the :class:`ReconfigPlan` — the ordered device-level steps (add,
   remove, move, parser change) that transform the network from the old
   plan to the new one, each step costed from its device's runtime
   reconfiguration model.

"Maximally adjacent" means minimizing moved elements: a move both costs
reconfiguration time on two devices and forces state migration for
stateful elements. :func:`full_recompile_plan` computes the naive
alternative (recompile from scratch, diff the placements) that
experiment E7 compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.analyzer import Certificate, certify
from repro.lang.delta import ChangeSet
from repro.lang.ir import Program

from repro.compiler.placement import NetworkSlice, PlacementEngine
from repro.compiler.plan import CompilationPlan, ReconfigPlan, ReconfigStep, StepKind


def diff_programs(old: Program, new: Program) -> ChangeSet:
    """Structural diff between two program versions.

    Elements are compared by name and definition equality; used when a
    new version arrives without an accompanying delta ChangeSet.
    """
    old_elements = _element_table(old)
    new_elements = _element_table(new)
    added = frozenset(new_elements) - frozenset(old_elements)
    removed = frozenset(old_elements) - frozenset(new_elements)
    modified = frozenset(
        name
        for name in set(old_elements) & set(new_elements)
        if old_elements[name] != new_elements[name]
    )
    apply_changed = old.apply != new.apply or old.parser != new.parser
    return ChangeSet(
        added=added, removed=removed, modified=modified, apply_changed=apply_changed
    )


def _element_table(program: Program) -> dict[str, object]:
    table: dict[str, object] = {}
    for element in (*program.tables, *program.functions, *program.maps):
        table[element.name] = element
    return table


@dataclass
class IncrementalResult:
    new_plan: CompilationPlan
    reconfig: ReconfigPlan
    changes: ChangeSet


class IncrementalCompiler:
    """Plans minimal runtime transitions between program versions."""

    def __init__(self, engine: PlacementEngine | None = None):
        self._engine = engine or PlacementEngine()

    def recompile(
        self,
        old_plan: CompilationPlan,
        new_program: Program,
        network_slice: NetworkSlice,
        changes: ChangeSet | None = None,
        certificate: Certificate | None = None,
        pinned: dict[str, str] | None = None,
    ) -> IncrementalResult:
        """Compute the maximally-adjacent new plan and its reconfig steps.

        Every element the delta neither added nor removed stays pinned
        to its device; ``pinned`` overrides individual pins (a
        migration names the device its elements must land on)."""
        certificate = certificate or certify(new_program)
        changes = changes or diff_programs(old_plan.program, new_program)

        survivors = {
            element: device
            for element, device in old_plan.placement.items()
            if element not in changes.removed and element not in changes.added
        }
        if pinned:
            survivors.update(pinned)
        new_plan = self._engine.compile(
            new_program,
            certificate,
            network_slice,
            pinned=survivors,
        )
        reconfig = self.transition(old_plan, new_plan, network_slice, changes)
        return IncrementalResult(new_plan=new_plan, reconfig=reconfig, changes=changes)

    def transition(
        self,
        old_plan: CompilationPlan,
        new_plan: CompilationPlan,
        network_slice: NetworkSlice,
        changes: ChangeSet | None = None,
    ) -> ReconfigPlan:
        """Diff two plans into ordered, costed reconfiguration steps.

        Step order follows make-before-break: additions and moves land
        the new element before removals retire the old one, so traffic
        always has a complete program version to run against.
        """
        changes = changes or diff_programs(old_plan.program, new_plan.program)
        steps: list[ReconfigStep] = []

        def cost_of(kind: StepKind, element: str, device_name: str) -> float:
            target = network_slice.device(device_name).target
            profile = None
            if element in new_plan.certificate.profiles:
                profile = new_plan.certificate.profile(element)
            elif element in old_plan.certificate.profiles:
                profile = old_plan.certificate.profile(element)
            model = target.reconfig
            base = 0.0 if model.hitless else model.drain_s + model.redeploy_s
            if kind is StepKind.ADD:
                if profile is not None and profile.kind == "function":
                    return base + model.function_reload_s
                return base + model.add_table_s
            if kind is StepKind.REMOVE:
                return base + model.remove_table_s
            if kind is StepKind.PARSER:
                return base + model.parser_change_s
            return base + model.add_table_s  # MOVE charged per landing device

        # Additions (new elements).
        for element in sorted(changes.added):
            if element not in new_plan.placement:
                continue
            device = new_plan.placement[element]
            steps.append(
                ReconfigStep(
                    kind=StepKind.ADD,
                    element=element,
                    device=device,
                    cost_s=cost_of(StepKind.ADD, element, device),
                )
            )

        # Moves (same element, different device) — carry durable state.
        for element, new_device in sorted(new_plan.placement.items()):
            old_device = old_plan.placement.get(element)
            if old_device is None or old_device == new_device:
                continue
            profile = new_plan.certificate.profile(element)
            steps.append(
                ReconfigStep(
                    kind=StepKind.MOVE,
                    element=element,
                    device=new_device,
                    source_device=old_device,
                    carries_state=profile.is_stateful,
                    cost_s=cost_of(StepKind.MOVE, element, new_device),
                )
            )

        # Modifications in place (resizes): charged as entry updates.
        for element in sorted(changes.modified):
            device = new_plan.placement.get(element)
            if device is None or old_plan.placement.get(element) != device:
                continue
            target = network_slice.device(device).target
            profile = new_plan.certificate.profile(element)
            entries = max(profile.table_entries, 1)
            steps.append(
                ReconfigStep(
                    kind=StepKind.RETIER,
                    element=element,
                    device=device,
                    cost_s=target.reconfig.modify_entries_per_1k_s * entries / 1000.0,
                )
            )

        # Parser changes.
        if old_plan.program.parser != new_plan.program.parser:
            parser_devices = sorted(
                {
                    device
                    for device in new_plan.placement.values()
                    if network_slice.device(device).target.tier == "switch"
                }
            ) or new_plan.devices_used[:1]
            for device in parser_devices:
                steps.append(
                    ReconfigStep(
                        kind=StepKind.PARSER,
                        element="<parser>",
                        device=device,
                        cost_s=cost_of(StepKind.PARSER, "<parser>", device),
                    )
                )

        # Removals last (break after make).
        for element in sorted(changes.removed):
            device = old_plan.placement.get(element)
            if device is None:
                continue
            steps.append(
                ReconfigStep(
                    kind=StepKind.REMOVE,
                    element=element,
                    device=device,
                    cost_s=cost_of(StepKind.REMOVE, element, device),
                )
            )

        return ReconfigPlan(
            steps=steps,
            old_version=old_plan.program.version,
            new_version=new_plan.program.version,
        )


def full_recompile_plan(
    old_plan: CompilationPlan,
    new_program: Program,
    network_slice: NetworkSlice,
    engine: PlacementEngine | None = None,
) -> IncrementalResult:
    """The baseline: recompile from scratch (no pins) and diff.

    Because the packer re-balances freely, unchanged elements routinely
    land on different devices, producing many more MOVE steps — the
    "significant resource reallocation and shuffling" incremental
    recompilation exists to avoid.
    """
    engine = engine or PlacementEngine()
    certificate = certify(new_program)
    new_plan = engine.compile(new_program, certificate, network_slice)
    changes = diff_programs(old_plan.program, new_program)
    reconfig = IncrementalCompiler(engine).transition(
        old_plan, new_plan, network_slice, changes
    )
    return IncrementalResult(new_plan=new_plan, reconfig=reconfig, changes=changes)

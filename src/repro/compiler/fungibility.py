"""Architecture-specific fungibility rules (§3.3 of the paper).

Resource fungibility "varies across device architectures": RMT is
fungible only within a pipeline stage, dRMT pools memory and compute,
tiled architectures are fungible within a tile type, and NIC/FPGA/host
resources are fully fungible. This module turns those rules into the
operations placement needs:

* :func:`device_feasible` — can this set of elements co-reside on this
  device at all? For RMT that includes solving the stage-assignment
  problem (:class:`StagePlanner`); for tiles it checks per-tile-type
  budgets; for pooled/full classes it is plain vector arithmetic. It
  asks the question of a whole set from nothing, which is what E5-style
  probes and the tests want.
* :class:`Residency` — the same question asked incrementally, which is
  what one placement attempt wants: it commits clusters to devices one
  after another and asks, before each, whether a device can take one
  more. It keeps a running total per device, which a commit takes from
  the question before it, so a question costs what the candidate
  cluster adds, not what the device already hosts.
* :func:`fungibility_score` — a scalar in [0, 1] measuring how much of
  a device's nominally-free capacity is actually reachable by a new
  element, given fragmentation. This is what experiment E5 sweeps
  across architectures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.lang.analyzer import Certificate, ElementProfile
from repro.lang.ir import ApplyFunction, ApplyStep, ApplyTable, FieldRef, Program
from repro.targets.base import FungibilityClass, Target
from repro.targets.resources import ZERO, ResourceVector
from repro.targets.rmt import stage_capacity

from repro.compiler.plan import DeviceSpec, StagePlan


def ordered_elements(program: Program) -> list[str]:
    """Placeable elements in apply order (tables and functions), followed
    by maps attached after their first accessor."""
    order: dict[str, None] = {}

    def walk(steps: tuple[ApplyStep, ...]) -> None:
        for step in steps:
            if isinstance(step, ApplyTable):
                order.setdefault(step.table)
            elif isinstance(step, ApplyFunction):
                order.setdefault(step.function)
            else:
                walk(step.then_steps)
                walk(step.else_steps)

    walk(program.apply)
    # Elements declared but never applied still need placement (they may
    # be activated later by a delta); append them in declaration order.
    for table in program.tables:
        order.setdefault(table.name)
    for function in program.functions:
        order.setdefault(function.name)
    return [*order, *(map_def.name for map_def in program.maps)]


def element_conflicts(program: Program, certificate: Certificate) -> set[tuple[str, str]]:
    """Pairs of elements with a data dependency (same map, or write/read
    of the same header field), which RMT must separate into stages."""
    touched_fields: dict[str, frozenset[FieldRef]] = {}
    touched_maps: dict[str, set[str]] = {}

    for name, profile in certificate.profiles.items():
        if profile.kind in ("table", "function"):
            touched_maps[name] = set(profile.map_reads) | set(profile.map_writes)

    for table in program.tables:
        touched_fields[table.name] = frozenset(key.field for key in table.keys).union(
            *(program.action(name).access.field_writes for name in table.invocable)
        )
    for function in program.functions:
        touched_fields[function.name] = function.access.field_reads | function.access.field_writes

    names = sorted(touched_fields)
    conflicts: set[tuple[str, str]] = set()
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            if touched_fields[first] & touched_fields[second]:
                conflicts.add((first, second))
            elif touched_maps.get(first, set()) & touched_maps.get(second, set()):
                conflicts.add((first, second))
    return conflicts


# ---------------------------------------------------------------------------
# RMT stage planning
# ---------------------------------------------------------------------------


@dataclass
class StagePlanner:
    """Greedy dependency-respecting stage assignment for RMT pipelines.

    Elements are taken in apply order; an element shares the current
    stage unless it conflicts with an element already in it or the
    stage's resources are exhausted, in which case it opens the next
    stage. Returns None when the pipeline runs out of stages — the
    stage-local fungibility failure mode the paper contrasts with dRMT.
    """

    target: Target

    def plan(
        self,
        elements: list[str],
        demands: dict[str, ResourceVector],
        conflicts: set[tuple[str, str]],
    ) -> StagePlan | None:
        stages: int = self.target.params["stages"]
        per_stage = stage_capacity(self.target)
        stage_used: list[ResourceVector] = [ResourceVector() for _ in range(stages)]
        stage_members: list[list[str]] = [[] for _ in range(stages)]
        assignments: dict[str, int] = {}
        current = 0

        for element in elements:
            demand = demands[element]
            placed = False
            candidate = current
            while candidate < stages:
                conflicted = any(
                    _conflicting(member, element, conflicts)
                    for member in stage_members[candidate]
                )
                if conflicted:
                    candidate += 1
                    continue
                if (stage_used[candidate] + demand).fits_within(per_stage):
                    stage_used[candidate] = stage_used[candidate] + demand
                    stage_members[candidate].append(element)
                    assignments[element] = candidate
                    current = candidate
                    placed = True
                    break
                candidate += 1
            if not placed:
                return None
        return StagePlan(assignments=assignments)


def _conflicting(a: str, b: str, conflicts: set[tuple[str, str]]) -> bool:
    return (a, b) in conflicts or (b, a) in conflicts


# ---------------------------------------------------------------------------
# Feasibility per fungibility class
# ---------------------------------------------------------------------------


def device_feasible(
    target: Target,
    element_names: list[str],
    certificate: Certificate,
    program: Program,
    already_used: ResourceVector | None = None,
) -> StagePlan | None | bool:
    """Can ``element_names`` co-reside on ``target`` given ``already_used``?

    Returns a :class:`StagePlan` for stage-local RMT devices, ``True``
    for other feasible placements, and ``False``/``None`` when infeasible.
    """
    used = already_used or ResourceVector()
    demands = {name: target.demand(certificate.profile(name)) for name in element_names}

    for name in element_names:
        if not target.admits(certificate.profile(name)):
            return False

    total = used
    for demand in demands.values():
        total = total + demand
    if not total.fits_within(target.capacity):
        return False

    if target.fungibility is FungibilityClass.STAGE_LOCAL:
        conflicts = element_conflicts(program, certificate)
        resident = set(element_names)
        ordered = [e for e in ordered_elements(program) if e in resident]
        plan = StagePlanner(target).plan(ordered, demands, conflicts)
        return plan if plan is not None else False

    # TILE_TYPED and POOLED and FULL reduce to vector arithmetic because
    # the demand model already expresses tile-typed needs in distinct
    # resource kinds (hash_tiles vs tcam_tiles vs pem_elems).
    return True


class Residency:
    """What one placement attempt has committed to each device of a
    slice, and whether a device can take one more cluster.

    ``feasible(spec, members)`` answers what ``device_feasible(
    spec.target, committed + members, ..., already_used=spec.used)``
    answers, from state kept up to date by :meth:`commit`:

    * ``_total[device]`` starts at ``spec.used`` and is extended by each
      committed member's demand in commit order. ``device_feasible``
      sums ``used + d1 + ... + dn`` over the same list in the same
      order, and adding a candidate cluster continues that sum, so both
      reach the same floats by the same additions.
    * a question that fits remembers the total it reached, and the
      :meth:`commit` of the same members to the same device takes it
      rather than adding them again: one addition per placed element.
      On a device no other datapath uses (``spec.used`` empty) the
      charged ``demand`` is the same additions from the same empty
      start, so it *is* that total; otherwise it is summed apart.
    * each (device, element) demand and admission verdict is looked up
      on first use and kept for the attempt; the target derives it once
      per profile for its life (:meth:`~repro.targets.base.Target.demand`).
    * a STAGE_LOCAL device still runs :class:`StagePlanner` over its
      full resident set, but apply order and the conflict pairs are
      properties of the program and are computed once.
    * :meth:`fits_together` asks of several clusters at once what
      :meth:`feasible` asks of each in turn, by the same additions, and
      hands each commit the total it reaches.
    """

    def __init__(
        self, program: Program, certificate: Certificate, devices: list[DeviceSpec]
    ) -> None:
        self._program = program
        self._certificate = certificate
        #: placeable elements in apply order (also the clustering order).
        self.order = ordered_elements(program)
        self._conflicts: set[tuple[str, str]] | None = None
        #: element -> device name, in commit order.
        self.placement: dict[str, str] = {}
        #: device name -> members committed so far, in commit order.
        self.members: dict[str, list[str]] = {d.name: [] for d in devices}
        #: device name -> demand charged by this datapath alone.
        self.demand: dict[str, ResourceVector] = {d.name: ZERO for d in devices}
        self._total: dict[str, ResourceVector] = {d.name: d.used for d in devices}
        #: devices whose charged demand is their running total.
        self._alone = {d.name for d in devices if not d.used}
        #: device name -> (members, total) of its last question that fit.
        self._asked: dict[str, tuple[tuple[str, ...], ResourceVector]] = {}
        self._sized: dict[str, dict[str, tuple[ResourceVector, bool]]] = {
            d.name: {} for d in devices
        }

    def sized(self, spec: DeviceSpec, element: str) -> tuple[ResourceVector, bool]:
        """``element``'s demand on ``spec``'s target and whether the
        target admits it at all."""
        sized = self._sized[spec.name]
        entry = sized.get(element)
        if entry is None:
            profile = self._certificate.profile(element)
            entry = sized[element] = (spec.target.demand(profile), spec.target.admits(profile))
        return entry

    def feasible(self, spec: DeviceSpec, members: Sequence[str] = ()) -> StagePlan | bool:
        """Can ``members`` join what ``spec`` already hosts? A
        :class:`StagePlan` for stage-local devices, else True / False."""
        total = self._total[spec.name]
        for member in members:
            demand, admitted = self.sized(spec, member)
            if not admitted:
                return False
            total = total + demand
        if not total.fits_within(spec.target.capacity):
            return False
        self._asked[spec.name] = (tuple(members), total)
        if spec.target.fungibility is not FungibilityClass.STAGE_LOCAL:
            return True
        if self._conflicts is None:
            self._conflicts = element_conflicts(self._program, self._certificate)
        resident = {*self.members[spec.name], *members}
        ordered = [e for e in self.order if e in resident]
        demands = {e: self.sized(spec, e)[0] for e in ordered}
        plan = StagePlanner(spec.target).plan(ordered, demands, self._conflicts)
        return plan if plan is not None else False

    def fits_together(
        self, spec: DeviceSpec, clusters: Sequence[Sequence[str]]
    ) -> list[ResourceVector] | None:
        """``spec``'s running total after each of ``clusters`` joins it
        in turn — what :meth:`feasible` then :meth:`commit` reach one
        cluster at a time — when the last total fits; None when it does
        not, when a member is not admitted, and on a stage-local device
        (whose question is a stage plan).

        One question stands for all of them: demands are non-negative
        and float addition is monotone, so a total that fits is never
        below an earlier one, and every earlier total fits too."""
        if spec.target.fungibility is FungibilityClass.STAGE_LOCAL:
            return None
        total = self._total[spec.name]
        running: list[ResourceVector] = []
        for members in clusters:
            for member in members:
                demand, admitted = self.sized(spec, member)
                if not admitted:
                    return None
                total = total + demand
            running.append(total)
        return running if total.fits_within(spec.target.capacity) else None

    def commit(
        self,
        spec: DeviceSpec,
        members: Sequence[str],
        total: ResourceVector | None = None,
    ) -> None:
        """Record ``members`` on ``spec`` (the caller found them
        :meth:`feasible` there, or :meth:`fits_together` gave ``total``,
        the device's running total with them)."""
        name = spec.name
        members = tuple(members)
        asked = self._asked.pop(name, None)
        if total is None:
            if asked is not None and asked[0] == members:
                total = asked[1]
            else:
                total = self._total[name]
                for member in members:
                    total = total + self.sized(spec, member)[0]
        self._total[name] = total
        if name in self._alone:
            self.demand[name] = total
        else:
            demand = self.demand[name]
            for member in members:
                demand = demand + self.sized(spec, member)[0]
            self.demand[name] = demand
        for member in members:
            self.placement[member] = name
        self.members[name].extend(members)


def fungibility_score(
    target: Target,
    resident_profiles: list[ElementProfile],
    probe: ElementProfile,
) -> float:
    """Fraction of probes of shape ``probe`` that fit the device's free
    capacity, accounting for architecture fragmentation.

    For POOLED/FULL classes this is simply free/needed capped at 1. For
    STAGE_LOCAL it discounts by the fraction of stages with room, and
    for TILE_TYPED by the matching tile type's availability.
    """
    from repro.errors import ResourceError

    used = ResourceVector()
    for profile in resident_profiles:
        used = used + target.demand(profile)
    try:
        free = target.capacity - used
    except ResourceError:
        return 0.0
    need = target.demand(probe)
    if need.is_zero():
        return 1.0

    base = 1.0 if need.fits_within(free) else 0.0
    if target.fungibility in (FungibilityClass.POOLED, FungibilityClass.FULL):
        return base
    if target.fungibility is FungibilityClass.TILE_TYPED:
        return base  # tile typing already reflected in distinct kinds
    # STAGE_LOCAL: even if aggregate capacity fits, the element must fit
    # inside a *single* stage's remaining budget. Estimate against the
    # average per-stage residue, assuming residents spread evenly.
    stages = target.params["stages"]
    per_stage = stage_capacity(target)
    per_stage_used = used * (1.0 / stages)
    try:
        per_stage_free = per_stage - per_stage_used
    except ResourceError:
        return 0.0
    return base if need.fits_within(per_stage_free) else 0.0

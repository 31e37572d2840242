"""Per-target overcommit analysis (§3.3).

Checks a Certificate's demand vectors against target budgets *before*
placement, so infeasible programs are rejected with a readable
diagnostic at admission time instead of failing deep inside
:mod:`repro.compiler.placement` after compilation work has been done.

Three checks per target set:

* ``RES-ELEMENT-UNPLACEABLE`` (ERROR) — some element fits on *no*
  supplied target even with the device empty (e.g. a ternary table
  bigger than every TCAM, or a function exceeding every switch's
  ``max_function_ops``). Placement can never succeed.
* ``RES-AGGREGATE-OVERCOMMIT`` (ERROR) — summing each element's
  *cheapest feasible* demand still exceeds the summed capacity of the
  targets that could host it, per resource kind. This is a lower bound
  on any placement's usage, so exceeding it proves infeasibility
  without running the bin-packer.
* ``RES-NEAR-CAPACITY`` (WARNING) — aggregate demand lands above 90 %
  of a kind's total capacity: placeable, but leaves no headroom for
  runtime growth deltas.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.report import Finding, Severity
from repro.lang.analyzer import Certificate, ElementProfile
from repro.targets.base import Target
from repro.targets.resources import ResourceVector

#: Aggregate utilization above which RES-NEAR-CAPACITY fires.
NEAR_CAPACITY_FRACTION = 0.9


def check_overcommit(
    certificate: Certificate, targets: Sequence[Target]
) -> list[Finding]:
    """Prove (or refute) that ``targets`` can jointly host the program.

    What a device admits and demands is a property of its model
    (:meth:`Target.same_model`), so each element is sized once per
    model, on the model's first device in ``targets``; the capacity
    sum and the unplaceable diagnostic still cover every device.
    """
    findings: list[Finding] = []
    if not targets:
        return findings

    total_capacity = ResourceVector()
    for target in targets:
        total_capacity = total_capacity + target.capacity
    models, model_of = _device_models(targets)

    min_demand = ResourceVector()
    for name, profile in sorted(certificate.profiles.items()):
        if profile.kind == "action":
            continue  # actions ride along with their tables
        feasible = [model.demand(profile) for model in models if model.admits(profile)]
        if not feasible:
            why = [_refusal(model, profile) for model in models]
            per_target = "; ".join(
                f"{t.name}({t.arch}): {why[index]}" for t, index in zip(targets, model_of)
            )
            findings.append(
                Finding(
                    code="RES-ELEMENT-UNPLACEABLE",
                    severity=Severity.ERROR,
                    message=(
                        f"{profile.kind} {name!r} fits on none of the "
                        f"{len(targets)} supplied target(s) even when empty "
                        f"[{per_target}]"
                    ),
                    pass_name="overcommit",
                    element=name,
                    fixit=_shrink_hint(profile.kind, name),
                )
            )
            continue
        # Cheapest feasible demand is a lower bound on what any placement
        # must spend on this element. Models keep their devices' order of
        # first appearance, so the first minimum is the same vector.
        cheapest = min(feasible, key=lambda d: d.utilization_of(total_capacity))
        min_demand = min_demand + cheapest

    deficit = min_demand.deficit_against(total_capacity)
    if deficit:
        detail = ", ".join(
            f"{kind}: need >= {min_demand[kind]:g}, have {total_capacity[kind]:g}"
            for kind in sorted(deficit)
        )
        findings.append(
            Finding(
                code="RES-AGGREGATE-OVERCOMMIT",
                severity=Severity.ERROR,
                message=(
                    f"program {certificate.program_name!r} overcommits the supplied "
                    f"target set even under the cheapest per-element assignment "
                    f"({detail}); no placement can succeed"
                ),
                pass_name="overcommit",
                fixit=(
                    "shrink the dominating tables/maps (delta.SetTableSize / "
                    "delta.SetMapEntries) or add devices to the slice"
                ),
            )
        )
    else:
        for kind in sorted(min_demand):
            cap = total_capacity[kind]
            if cap > 0 and min_demand[kind] / cap > NEAR_CAPACITY_FRACTION:
                findings.append(
                    Finding(
                        code="RES-NEAR-CAPACITY",
                        severity=Severity.WARNING,
                        message=(
                            f"aggregate {kind} demand ({min_demand[kind]:g}) uses "
                            f"{100 * min_demand[kind] / cap:.0f}% of total capacity "
                            f"({cap:g}); runtime growth deltas will likely fail "
                            "placement"
                        ),
                        pass_name="overcommit",
                        fixit="leave headroom: shrink declared sizes or add capacity",
                    )
                )

    return findings


def _device_models(targets: Sequence[Target]) -> tuple[list[Target], list[int]]:
    """The first device of each model in ``targets``, in order of first
    appearance, and the index of each device's model in that list."""
    models: list[Target] = []
    model_of: list[int] = []
    for target in targets:
        index = next((i for i, model in enumerate(models) if model.same_model(target)), None)
        if index is None:
            index = len(models)
            models.append(target)
        model_of.append(index)
    return models, model_of


def _refusal(target: Target, profile: ElementProfile) -> str:
    """Why ``target`` cannot host ``profile`` even when empty: the
    function-size ceiling it exceeds, then each resource kind it is
    short of."""
    reasons = []
    ceiling = target.max_function_ops
    if profile.kind == "function" and ceiling is not None and profile.max_ops > ceiling:
        reasons.append(f"ops {profile.max_ops} > max_function_ops {ceiling}")
    deficit = target.demand(profile).deficit_against(target.capacity)
    reasons.extend(f"{kind} short {short:g}" for kind, short in sorted(deficit.items()))
    return ", ".join(reasons)


def _shrink_hint(kind: str, name: str) -> str:
    if kind == "table":
        return f"shrink it (delta.SetTableSize({name!r}, <smaller>)) or target a bigger device"
    if kind == "map":
        return f"shrink it (delta.SetMapEntries({name!r}, <smaller>)) or target a bigger device"
    return "split the function or place it on a host/SmartNIC tier target"

"""Per-target overcommit analysis (§3.3).

Checks a Certificate's demand vectors against target budgets *before*
placement, so infeasible programs are rejected with a readable
diagnostic at admission time instead of failing deep inside
:mod:`repro.compiler.placement` after compilation work has been done.

Two checks per target set:

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
from repro.lang.analyzer import Certificate
from repro.targets.base import Target
from repro.targets.resources import ResourceVector

#: Aggregate utilization above which RES-NEAR-CAPACITY fires.
NEAR_CAPACITY_FRACTION = 0.9


def check_overcommit(
    certificate: Certificate, targets: Sequence[Target]
) -> list[Finding]:
    """Prove (or refute) that ``targets`` can jointly host the program."""
    findings: list[Finding] = []
    if not targets:
        return findings

    total_capacity = ResourceVector()
    for target in targets:
        total_capacity = total_capacity + target.capacity

    min_demand = ResourceVector()
    for name, profile in sorted(certificate.profiles.items()):
        if profile.kind == "action":
            continue  # actions ride along with their tables
        feasible: list[tuple[Target, ResourceVector]] = []
        for target in targets:
            if target.admits(profile):
                feasible.append((target, target.demand(profile)))
        if not feasible:
            per_target = "; ".join(
                f"{t.name}({t.arch}): "
                + (
                    ", ".join(
                        f"{kind} short {short:g}"
                        for kind, short in sorted(
                            t.demand(profile).deficit_against(t.capacity).items()
                        )
                    )
                    or "element kind unsupported"
                )
                for t in targets
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
        # must spend on this element.
        cheapest = min(
            (demand for _, demand in feasible),
            key=lambda d: d.utilization_of(total_capacity),
        )
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


def _shrink_hint(kind: str, name: str) -> str:
    if kind == "table":
        return f"shrink it (delta.SetTableSize({name!r}, <smaller>)) or target a bigger device"
    if kind == "map":
        return f"shrink it (delta.SetMapEntries({name!r}, <smaller>)) or target a bigger device"
    return "split the function or place it on a host/SmartNIC tier target"

"""Every (program, delta) pair the repository bundles.

The equivalence tests for the update path (placement's running totals,
carried per-element facts) sweep this one list: each bundled program
against each ``repro.apps`` delta that applies to it, E7's edit stream,
E14's cumulative patch chain and the ledger's update cycle on the E20
composed program (each edit against the program the edits before it
produced), and E14's one-glob firewall retirement.
"""

from __future__ import annotations

import functools

from benchmarks.test_e7_incremental import EDIT_STREAM
from repro import apps
from repro.analysis.corpus import bundled_programs
from repro.errors import FlexNetError
from repro.lang.delta import Delta, RemoveElements, apply_delta, parse_delta
from repro.lang.ir import Program
from repro.scale.workload import composed_program


def app_deltas() -> list[Delta]:
    """Every ``apps.*_delta`` at its defaults."""
    return [
        apps.count_min_delta(),
        apps.dctcp_delta(),
        apps.firewall_delta(),
        apps.hpcc_delta(),
        apps.int_probe_delta(),
        apps.load_balancer_delta(),
        apps.nat_delta(),
        apps.query_delta(apps.QuerySpec(name="heavy_hitters", key_field="ipv4.src")),
        apps.rate_limit_delta(),
        apps.remove_cc_delta(),
        apps.remove_probe_delta(),
        apps.scale_defense_delta(16384),
        apps.swap_cc_delta(),
        apps.syn_defense_delta(),
        apps.syn_monitor_delta(),
    ]


def _chain(
    label: str, deltas: list[Delta], program: Program | None = None
) -> list[tuple[str, Program, Delta]]:
    cases = []
    program = program or apps.base_infrastructure()
    for delta in deltas:
        cases.append((f"{label}:{delta.name}", program, delta))
        program, _ = apply_delta(program, delta)
    return cases


@functools.cache
def delta_cases() -> tuple[tuple[str, Program, Delta], ...]:
    """``(label, program, delta)`` for every pair where the delta
    applies to the program."""
    retire_fw = Delta(name="retire_fw", ops=(RemoveElements(pattern="fw_*"),))
    cases = []
    for program_label, program in bundled_programs():
        for delta in (*app_deltas(), retire_fw):
            try:
                apply_delta(program, delta)
            except FlexNetError:
                continue
            cases.append((f"{program_label}+{delta.name}", program, delta))
    cases += _chain("e7", [parse_delta(text) for text in EDIT_STREAM])
    cases += _chain(
        "e14",
        [
            apps.firewall_delta(),
            apps.count_min_delta(),
            apps.load_balancer_delta(),
            apps.nat_delta(),
            apps.dctcp_delta(),
            apps.int_probe_delta(),
            retire_fw,
        ],
    )
    cases += _chain(
        "e20",
        [
            apps.dctcp_delta(),
            apps.remove_cc_delta(),
            apps.remove_probe_delta(),
            apps.int_probe_delta(),
        ],
        composed_program(),
    )
    return tuple(cases)

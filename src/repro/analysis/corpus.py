"""The bundled-program corpus FlexCheck ships with.

``repro check --builtin`` (and CI) run FlexCheck across every program
the repository bundles: the base infrastructure plus the base with each
:mod:`repro.apps` delta applied — the same programs the examples and
benchmarks exercise. Keeping the enumeration here (rather than in the
CLI) lets tests assert the "zero errors on all bundled programs"
acceptance criterion directly.
"""

from __future__ import annotations

from repro import apps
from repro.lang.delta import Delta, apply_delta
from repro.lang.ir import Program


def bundled_deltas() -> list[tuple[str, Delta]]:
    """Every (label, delta) the repo bundles, each written against the
    base infrastructure program."""
    return [
        ("ddos:syn_monitor", apps.syn_monitor_delta()),
        ("ddos:syn_defense", apps.syn_defense_delta()),
        ("cc:dctcp", apps.dctcp_delta()),
        ("cc:hpcc", apps.hpcc_delta()),
        ("firewall", apps.firewall_delta()),
        ("loadbalancer", apps.load_balancer_delta()),
        ("nat", apps.nat_delta()),
        ("ratelimit", apps.rate_limit_delta()),
        ("sketch:count_min", apps.count_min_delta()),
        ("telemetry:int_probe", apps.int_probe_delta()),
        (
            "monitoring:query",
            apps.query_delta(apps.QuerySpec(name="heavy_hitters", key_field="ipv4.src")),
        ),
    ]


def bundled_programs() -> list[tuple[str, Program]]:
    """Every (label, validated program) the repo bundles."""
    base = apps.base_infrastructure()
    programs: list[tuple[str, Program]] = [("base", base)]
    for label, delta in bundled_deltas():
        patched, _ = apply_delta(base, delta)
        programs.append((label, patched))
    return programs

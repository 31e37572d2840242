"""FlexCloud differential property: for **every** bundled program used
as the installed infrastructure, coalesced admission (one batched
reconfiguration window per scheduling round) lands on an end state
byte-identical to naive serial per-delta admission of the same churn —
composed program source included (name, version, every element), device
map state included, and the traffic/telemetry digests of a seeded run
over the result included. Ticket decisions must match too: coalescing
may only change *when* a delta lands, never whether."""

import pytest

from repro.analysis.corpus import bundled_programs
from repro.apps.base import STANDARD_HEADERS
from repro.cloud.admission import TenantDelta
from repro.core.flexnet import FlexNet
from repro.lang import builder as b
from repro.lang.builder import ProgramBuilder
from repro.lang.composition import Permission, TenantSpec
from repro.lang.printer import print_program
from repro.observe.report import divergences
from repro.runtime.consistency import ConsistencyLevel
from repro.simulator.packet import reset_packet_ids

PROGRAMS = bundled_programs()


def tenant_extension(map_name):
    program = ProgramBuilder("ext", owner="tenant")
    for header, fields in STANDARD_HEADERS.items():
        program.header(header, **fields)
    program.map(map_name, keys=["ipv4.src"], value_type="u32", max_entries=64)
    program.function(
        "watch",
        [
            b.let("n", "u32", b.map_get(map_name, "ipv4.src")),
            b.map_put(map_name, "ipv4.src", b.binop("+", "n", 1)),
        ],
    )
    program.apply("watch")
    return program.build()


def churn_deltas():
    """A round's worth of mixed churn: four admits (one at a different
    consistency level, so the coalescer must split the run), one evict
    of a tenant admitted in the same round (the coalescer must defer
    it), all against distinct extensions."""

    def admit(name, vlan, consistency=ConsistencyLevel.PER_PACKET_PER_DEVICE):
        return TenantDelta(
            kind="admit",
            tenant=name,
            sla_class="gold",
            spec=TenantSpec(name=name, vlan_id=vlan, permission=Permission()),
            extension=tenant_extension("hits"),
            consistency=consistency,
        )

    return [
        admit("ta", 100),
        admit("tb", 101),
        admit("tc", 102, consistency=ConsistencyLevel.PER_PACKET_PATH),
        TenantDelta(kind="evict", tenant="tb", sla_class="gold"),
        admit("td", 103),
    ]


def run_churn(program, coalesce):
    reset_packet_ids()
    net = FlexNet.standard()
    net.install(program)
    engine = net.cloud
    engine.coalesce = coalesce
    tickets = [net.submit(delta) for delta in churn_deltas()]
    engine.drain_until_idle()
    # Let every reconfiguration window finish before measuring: the
    # property is about the *end state*, and mid-window traffic would
    # legitimately see different version schedules per arm.
    net.loop.run_until(net.loop.now + 5.0)
    for device in net.controller.devices.values():
        device.settle(net.loop.now)
    report = net.run_traffic(rate_pps=200, duration_s=0.3, extra_time_s=1.0)
    maps_state = {}
    for name, device in sorted(net.controller.devices.items()):
        instance = getattr(device, "active_instance", None)
        if instance is None:
            continue
        maps_state[name] = {
            state.name: tuple(sorted(state.items())) for state in instance.maps
        }
    return {
        "source": print_program(net.program),
        "version": net.program.version,
        "decisions": [(t.delta.tenant, t.state) for t in tickets],
        "metrics": report.metrics.to_dict(),
        "telemetry": report.telemetry.to_dict(),
        "maps": maps_state,
    }


@pytest.mark.parametrize(
    "label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS]
)
def test_coalesced_admission_matches_serial(label, program):
    serial = run_churn(program, coalesce=False)
    coalesced = run_churn(program, coalesce=True)
    assert divergences(serial, coalesced) == [], label
    # The churn actually happened: four tenants admitted, one evicted,
    # five version bumps either way.
    assert serial["version"] == program.version + 5
    assert [d for _, d in serial["decisions"]] == ["applied"] * 5

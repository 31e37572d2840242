"""Sustained runtime change (§1: the network 'shapeshifts in response to
real-time change ... if network requirements change in the next minute,
reconfigurations across devices will present the network as a new
infrastructure')."""


from repro.apps.base import base_infrastructure
from repro.core.flexnet import FlexNet
from repro.lang.delta import Delta, RemoveElements, parse_delta
from repro.targets import fpga


def query_delta_text(index: int) -> str:
    return f"""
    delta q{index} {{
      add map storm{index} {{ key: ipv4.src; value: u32; max_entries: 512; }}
      add func storm{index}_fn() {{
        let v: u32 = map_get(storm{index}, ipv4.src);
        map_put(storm{index}, ipv4.src, v + 1);
      }}
      insert storm{index}_fn after count_flow;
    }}
    """


class TestUpdateStorm:
    def test_one_update_per_second_sustained(self):
        """12 structural changes in 12 seconds — additions and removals
        interleaved — with continuous traffic and zero loss."""
        net = FlexNet.standard()
        net.install(base_infrastructure())

        def add(index):
            return lambda: net.update(parse_delta(query_delta_text(index)))

        def remove(index):
            return lambda: net.update(
                Delta(
                    name=f"rm{index}",
                    ops=(
                        RemoveElements(pattern=f"storm{index}_fn", kind="function"),
                        RemoveElements(pattern=f"storm{index}", kind="map"),
                    ),
                )
            )

        # adds at t=1..8, removals of the early ones at t=9..12
        for index in range(8):
            net.schedule(1.0 + index, add(index))
        for index in range(4):
            net.schedule(9.0 + index, remove(index))

        report = net.run_traffic(rate_pps=800, duration_s=14.0, extra_time_s=6.0)

        assert report.metrics.lost_by_infrastructure == 0
        assert net.program.version == 1 + 12
        # early queries trimmed, late ones still deployed
        assert not net.program.has_map("storm0")
        assert net.program.has_map("storm7")
        # many distinct program versions actually served packets
        versions = report.metrics.versions_on("sw1")
        assert len(versions) >= 10

    def test_serialized_windows_never_overlap(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        outcomes = []
        for index in range(4):
            outcomes.append(net.update(parse_delta(query_delta_text(index))))
        windows = [o.report.device_windows["sw1"] for o in outcomes]
        for (start_a, end_a), (start_b, end_b) in zip(windows, windows[1:]):
            assert start_b >= end_a - 1e-9
        net.loop.run()


class TestFpgaInSlice:
    def test_fpga_hosts_and_reconfigures(self):
        """An FPGA NIC on the path hosts the oversized function (partial
        reconfiguration keeps its updates hitless too)."""
        net = FlexNet()
        net.add_host("h1")
        # tiny switch: big things must land on the FPGA behind it
        net.add_switch("sw1", arch="drmt", sram_mb=0.4, tcam_mb=0.2,
                       processors=8, alus=16)
        net.controller.add_device("fpga1", fpga("fpga1"))
        net.add_host("h2")
        for a, b in [("h1", "sw1"), ("sw1", "fpga1"), ("fpga1", "h2")]:
            net.connect(a, b, 2e-6)
        net.build_datapath("h1", "h2")
        net.install(base_infrastructure(flow_entries=200_000))
        # the 200k-entry flow map exceeds the small switch: FPGA hosts it
        assert net.datapath.plan.placement["flow_counts"] == "fpga1"

        net.schedule(
            0.5,
            lambda: net.update(parse_delta(query_delta_text(99))),
        )
        report = net.run_traffic(rate_pps=500, duration_s=1.5, extra_time_s=2.0)
        assert report.metrics.lost_by_infrastructure == 0
        assert net.device("fpga1").stats.processed > 0


#: The E20 fabric's update cycle, 24 updates on the idle net; each line
#: is one update's plan: placement in commit order, the demand charged
#: per device, and the reconfiguration steps.
_PLAN_SCRIPT = """
import json
from functools import partial

from repro import apps
from repro.runtime.consistency import ConsistencyLevel
from repro.scale import e20_net

CYCLE = ("dctcp_delta", "remove_cc_delta", "remove_probe_delta", "int_probe_delta")
net = e20_net(pods=4)
net.engine(fastpath=True)
plans = []

def update(index):
    delta = getattr(apps, CYCLE[index % len(CYCLE)])()
    outcome = net.update(delta, consistency=ConsistencyLevel.PER_PACKET_PATH)
    plan = outcome.result.new_plan
    plans.append({
        "placement": [list(item) for item in plan.placement.items()],
        "device_demand": {name: repr(v) for name, v in plan.device_demand.items()},
        "steps": [repr(step) for step in outcome.result.reconfig.steps],
        "duration_s": outcome.report.duration_s,
    })

start = net.loop.now + 0.5
for index in range(24):
    net.schedule(start + index, partial(update, index))
net.run_traffic(packets=[], extra_time_s=25.0, collect_digests=False)
print(json.dumps(plans))
"""


def test_the_update_path_does_not_depend_on_the_hash_seed():
    """The plan each update adopts is the same in every process: the
    device search, the pinned pass and the carried facts iterate no
    salted set or dict order into a placement, a demand or a step."""
    from tests.test_determinism import under_two_hash_seeds

    plans, diffs = under_two_hash_seeds("-c", _PLAN_SCRIPT)
    assert len(plans) == 24
    assert any(plan["steps"] for plan in plans)
    assert diffs == []

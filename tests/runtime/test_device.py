"""Device runtime tests: version transitions, state sharing, reflash."""

import collections
import copy
import dataclasses

import pytest

from repro import FlexNet
from repro.analysis.corpus import bundled_programs
from repro.apps import base_infrastructure
from repro.apps.base import standard_builder
from repro.errors import ReconfigError
from repro.lang import builder as b
from repro.lang.delta import apply_delta, parse_delta
from repro.lang.maps import MapFullError
from repro.lang.types import BitsType
from repro.observe import Observer
from repro.runtime.device import DeviceRuntime, EngineConfig
from repro.simulator import fastpath
from repro.simulator.flowgen import TimedPacket
from repro.simulator.packet import Verdict, make_packet
from repro.simulator.pipeline_exec import ProgramInstance
from repro.targets import drmt_switch, rmt_switch
from tests.conftest import forwarding_program

PROGRAMS = bundled_programs()

ADD_GUARD = """
delta add_guard {
  add action g_drop() { mark_drop(); }
  add table guard { key: ipv4.src; actions: g_drop; size: 16; default: g_drop; }
  insert guard before acl;
}
"""


def make_device(base_program, target=None):
    device = DeviceRuntime("d", target or drmt_switch("d"))
    device.install(base_program)
    return device


class TestInstallAndProcess:
    def test_process_returns_positive_latency(self, base_program):
        device = make_device(base_program)
        latency = device.process(make_packet(1, 2), 0.0)
        assert latency > 0
        assert device.stats.processed == 1

    def test_version_stamped_on_packet(self, base_program):
        device = make_device(base_program)
        packet = make_packet(1, 2)
        device.process(packet, 0.0)
        assert packet.versions_seen["d"] == base_program.version

    def test_energy_accumulates(self, base_program):
        device = make_device(base_program)
        device.process(make_packet(1, 2), 0.0)
        assert device.stats.energy_nj > 0

    def test_program_drop_counted(self, base_program):
        device = make_device(base_program)
        packet = make_packet(1, 2, ttl=0)  # ttl_guard drops
        device.process(packet, 0.0)
        assert device.stats.dropped_by_program == 1


class TestHitlessUpdate:
    def new_version(self, base_program):
        new_program, _ = apply_delta(base_program, parse_delta(ADD_GUARD))
        return new_program

    def test_requires_hitless_target(self, base_program):
        device = DeviceRuntime("d", rmt_switch("d", runtime_capable=False))
        device.install(base_program)
        with pytest.raises(ReconfigError, match="not hitlessly"):
            device.begin_hitless_update(self.new_version(base_program), 0.0, 0.3)

    def test_requires_active_program(self, base_program):
        device = DeviceRuntime("d", drmt_switch("d"))
        with pytest.raises(ReconfigError, match="no active program"):
            device.begin_hitless_update(base_program, 0.0, 0.3)

    def test_no_overlapping_transitions(self, base_program):
        device = make_device(base_program)
        device.begin_hitless_update(self.new_version(base_program), 0.0, 0.3)
        with pytest.raises(ReconfigError, match="in flight"):
            device.begin_hitless_update(self.new_version(base_program), 0.1, 0.3)

    def test_sequential_transitions_allowed(self, base_program):
        device = make_device(base_program)
        v2 = self.new_version(base_program)
        device.begin_hitless_update(v2, 0.0, 0.3)
        v3 = v2.bump_version()
        device.begin_hitless_update(v3, 0.5, 0.3)  # prior window elapsed
        assert device.in_transition

    def test_old_before_window_new_after(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 1.0, 0.4)

        before = make_packet(1, 2)
        device.process(before, 0.5)
        # before the window even started? window starts at 1.0 per args,
        # but _choose_instance only compares against end; packets in
        # [start, end) draw. Use a packet clearly after the end:
        after = make_packet(1, 2)
        device.process(after, 2.0)
        assert after.versions_seen["d"] == new_program.version

    def test_window_mixes_versions_consistently(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 1.0)
        versions = set()
        for index in range(200):
            packet = make_packet(1, 2)
            device.process(packet, index / 200.0)
            versions.add(packet.versions_seen["d"])
        assert versions == {base_program.version, new_program.version}

    def test_epoch_stamp_honoured(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 1.0)
        packet = make_packet(1, 2)
        packet.meta["_epoch"] = base_program.version
        device.process(packet, 0.99)  # late in window, would draw new
        assert packet.versions_seen["d"] == base_program.version

    def test_map_state_shared_across_versions(self, base_program):
        device = make_device(base_program)
        device.process(make_packet(7, 8), 0.0)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.5, 0.3)
        packet = make_packet(7, 8)
        device.process(packet, 1.0)  # after window: new version
        instance = device.active_instance
        assert instance.program.version == new_program.version
        assert instance.maps.state("flow_counts").get((7, 8)) == 2

    def test_table_rules_shared_across_versions(self, base_program):
        from repro.lang.ir import ActionCall
        from repro.simulator.tables import Rule, exact

        device = make_device(base_program)
        device.active_instance.rules["l2"].insert(
            Rule(matches=(exact(1),), action=ActionCall("nop"))
        )
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 0.1)
        device.process(make_packet(1, 2), 1.0)
        assert len(device.active_instance.rules["l2"]) == 1

    def test_flow_affine_draws_by_flow(self, base_program):
        device = make_device(base_program)
        new_program = self.new_version(base_program)
        device.begin_hitless_update(new_program, 0.0, 1.0, flow_affine=True)
        seen = set()
        for _ in range(50):
            packet = make_packet(3, 4, src_port=999)  # same flow
            device.process(packet, 0.5)
            seen.add(packet.versions_seen["d"])
        assert len(seen) == 1  # whole flow cuts over together


ENGINES = pytest.mark.parametrize("fast", [False, True], ids=["interpreter", "flexpath"])


def redeclared(program, name, **changes):
    maps = tuple(
        dataclasses.replace(m, **changes) if m.name == name else m for m in program.maps
    )
    return dataclasses.replace(program, maps=maps).bump_version()


class TestMapRedeclaredAcrossVersions:
    """A map the new version re-declares (size, width, persistence)
    under the same key is shared while the window is open, so neither
    version's writes are lost, and takes its own state, with the shared
    entries, at the cut-over: from there it enforces what it declares."""

    @staticmethod
    def counted(net, update):
        """Count three flows twice, apply ``update``, step past its
        window, count them twice more; the active ``flow_counts``."""

        def flows():
            start = net.controller.loop.now
            return [TimedPacket(start + i * 1e-3, make_packet(1 + i % 3, 9)) for i in range(6)]

        net.install(base_infrastructure())
        net.run_traffic(packets=flows(), extra_time_s=0.1)
        old = net.device("sw1").active_instance.maps.state("flow_counts")
        outcome = update()
        net.run_traffic(packets=[], extra_time_s=1.0)
        net.run_traffic(packets=flows(), extra_time_s=2.0)
        instance = net.device("sw1").active_instance
        state = instance.maps.state("flow_counts")
        assert instance.program.map("flow_counts").max_entries == 1024
        assert state is not old and state._max_entries == 1024
        return outcome, dict(state.items())

    @ENGINES
    def test_a_live_resize_takes_effect_and_carries_the_entries(self, fast):
        net = FlexNet.standard()
        net.engine(fastpath=fast)
        outcome, counts = self.counted(
            net, lambda: net.update(parse_delta("delta shrink { resize map flow_counts 1024; }"))
        )
        assert outcome.forced_two_phase  # RACE-MAP-RESIZE
        assert counts == {(src, 9): 4 for src in (1, 2, 3)}

    @ENGINES
    def test_a_resize_that_rewrites_the_writer_carries_the_entries(self, fast):
        """No element that touches the map survives the delta, so race
        analysis flags nothing and no migration runs: the entries still
        reach the resized map."""
        net = FlexNet.standard()
        net.engine(fastpath=fast)
        delta = parse_delta(
            """delta recount {
              resize map flow_counts 1024;
              remove func count_flow;
              add func count_flow() {
                let c: u64 = map_get(flow_counts, ipv4.src, ipv4.dst);
                map_put(flow_counts, ipv4.src, ipv4.dst, (c + 2));
              }
              insert count_flow after l3;
            }"""
        )
        outcome, counts = self.counted(net, lambda: net.update(delta))
        assert not outcome.report.migrations
        assert counts == {(src, 9): 2 + 4 for src in (1, 2, 3)}

    @ENGINES
    def test_writes_inside_the_window_reach_the_new_state(self, fast, base_program):
        device = DeviceRuntime("d", drmt_switch("d"), engine=EngineConfig(fastpath=fast))
        device.install(base_program)
        device.process(make_packet(1, 9), 0.0)
        new = device.begin_hitless_update(
            redeclared(base_program, "flow_counts", max_entries=1024), 0.0, 1.0
        )
        versions = []
        for step in range(1, 100):
            packet = make_packet(1, 9)
            device.process(packet, step / 100)
            versions.append(packet.versions_seen["d"])
        assert set(versions) == {base_program.version, new.program.version}
        device.settle(1.0)
        state = device.active_instance.maps.state("flow_counts")
        assert state._max_entries == 1024 and state.get((1, 9)) == 100

    @ENGINES
    def test_a_shrunk_durable_map_fills_at_its_new_size(self, fast, base_program):
        device = DeviceRuntime("d", drmt_switch("d"), engine=EngineConfig(fastpath=fast))
        device.install(base_program)
        device.begin_hitless_update(
            redeclared(base_program, "flow_counts", max_entries=2), 0.0, 0.1
        )
        for src in (1, 2):
            device.process(make_packet(src, 9), 1.0)
        with pytest.raises(MapFullError, match="full \\(2 entries\\)"):
            device.process(make_packet(3, 9), 1.0)

    @ENGINES
    def test_a_narrowed_value_wraps_at_its_new_width(self, fast, base_program):
        device = DeviceRuntime("d", drmt_switch("d"), engine=EngineConfig(fastpath=fast))
        device.install(base_program)
        device.begin_hitless_update(
            redeclared(base_program, "flow_counts", value_type=BitsType(8)), 0.0, 0.1
        )
        for _ in range(300):
            device.process(make_packet(1, 9), 1.0)
        assert device.active_instance.maps.state("flow_counts").get((1, 9)) == 300 & 0xFF


class TestReflash:
    def test_reflash_causes_downtime(self, base_program):
        device = DeviceRuntime("d", rmt_switch("d", runtime_capable=False))
        device.install(base_program)
        until = device.begin_reflash(base_program.bump_version(), 10.0)
        assert until == pytest.approx(10.0 + 5.0 + 25.0 + 4.0)
        assert not device.available(11.0)
        assert device.available(until)

    def test_reflash_loses_state(self, base_program):
        device = DeviceRuntime("d", rmt_switch("d", runtime_capable=False))
        device.install(base_program)
        device.process(make_packet(5, 6), 0.0)
        assert device.active_instance.maps.state("flow_counts").get((5, 6)) == 1
        device.begin_reflash(base_program.bump_version(), 1.0)
        assert device.active_instance.maps.state("flow_counts").get((5, 6)) == 0

    def test_busy_until(self, base_program):
        device = make_device(base_program)
        assert device.busy_until(3.0) == 3.0
        device.begin_hitless_update(base_program.bump_version(), 3.0, 0.4)
        assert device.busy_until(3.0) == pytest.approx(3.4)


def lane_corpus(recirculating=True):
    """``seeded_corpus`` plus what it never generates: packets without
    the start header, packets already marked for drop and (unless a
    test counts lane hops) packets arriving with a recirculation
    pending."""
    packets = fastpath.seeded_corpus(120, seed=5)
    for index, packet in enumerate(fastpath.seeded_corpus(30, seed=6)):
        if index % 3 == 0:
            packet.fields = {
                key: value for key, value in packet.fields.items() if key[0] != "ethernet"
            }
        elif index % 3 == 1:
            packet.meta["drop_flag"] = 1
        elif recirculating:
            packet.meta["_recirculate"] = 1
        packets.append(packet)
    return packets


def arrival_time(device, index):
    """Bursts of 12 at half a service slot, then a gap that drains the
    queue: depth, queueing delay and overflow are all exercised."""
    slot = 0.5 / (device.target.performance.throughput_mpps * 1e6)
    return (index + 40 * (index // 12)) * slot


def lane_arms(install, live_switch=False):
    """The same device twice, interpreter then compiled, with a short
    queue so the corpus also tail-drops. ``live_switch`` builds the
    second on the interpreter too and turns its engine over once the
    program is installed."""
    arms = []
    for config in (EngineConfig(), EngineConfig(fastpath=True)):
        built_as = EngineConfig() if live_switch else config
        device = DeviceRuntime("d", drmt_switch("d"), queue_capacity_packets=4, engine=built_as)
        install(device)
        device.engine = config
        arms.append(device)
    return arms


def feed(device, packets):
    """Everything one hop can change, per packet."""
    out = []
    for index, packet in enumerate(copy.deepcopy(packets)):
        latency = device.process(packet, arrival_time(device, index))
        out.append(
            (packet.fields, packet.meta, packet.verdict, packet.digests,
             packet.versions_seen, latency)
        )
    return out


def assert_arms_agree(reference, lane, packets):
    for index, (left, right) in enumerate(zip(feed(reference, packets), feed(lane, packets))):
        assert left == right, index
    # ``energy_nj`` included, with ``==``: the same floats in the same order.
    assert dataclasses.asdict(reference.stats) == dataclasses.asdict(lane.stats)
    assert reference.stats.queue_drops > 0 and reference.stats.max_queue_depth > 0


def executor_calls(monkeypatch):
    """A Counter of calls into the executor, keyed ``(entry, instance)``."""
    calls = collections.Counter()

    def counting(entry, original, instance_arg):
        def wrapper(*args, **kwargs):
            calls[entry, args[instance_arg]] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        ProgramInstance, "process", counting("instance", ProgramInstance.process, 0)
    )
    return calls


def host_nothing(program):
    return lambda device: device.install(program, hosted_elements=set())


class TestPassThroughLane:
    """A device that hosts no element of the program runs the queue
    model and one of two precomputed results under the compiled engine.
    The interpreter engine never takes the lane, which makes it the
    reference every lane hop is checked against."""

    # The second arm reaches the compiled engine by a live switch
    # instead of at construction.
    @pytest.mark.parametrize("live_switch", [False, True], ids=["compiled", "live-switch"])
    @pytest.mark.parametrize("label,program", PROGRAMS, ids=[label for label, _ in PROGRAMS])
    def test_lane_matches_the_interpreter(self, label, program, live_switch):
        reference, lane = lane_arms(host_nothing(program), live_switch)
        assert lane.active_instance.lane is not None
        # A pending recirculation leaves the lane for the generated
        # function, which pops the flag as the interpreter does.
        assert_arms_agree(reference, lane, lane_corpus())
        assert lane.stats.dropped_by_program > 0  # the pre-marked packets

    @pytest.mark.parametrize("flag", ["_recirculate", "drop_flag"])
    @pytest.mark.parametrize("hosted", [None, set()], ids=["hosting", "pass-through"])
    def test_a_flag_the_packet_arrived_with(self, flag, hosted):
        """Regression (ROADMAP 2(e), first counterexample): a hand-built
        packet whose ``meta`` *arrives* carrying ``_recirculate`` or
        ``drop_flag``, on a map-free program (the one shape the flow
        memo served). The interpreter pops the one and drops on the
        other; a memo replay did neither."""
        program = forwarding_program()
        reference, device = lane_arms(lambda d: d.install(program, hosted_elements=hosted))
        for index in range(3):  # the same flow thrice: first sight, then remembered
            outcomes = []
            for arm in (reference, device):
                packet = make_packet(0x0A000001, 0x0A000002)
                packet.meta[flag] = 1
                latency = arm.process(packet, index * 1e-3)
                outcomes.append((packet.fields, packet.meta, packet.verdict, latency))
            assert outcomes[0] == outcomes[1]
            _, meta, verdict, _ = outcomes[1]
            assert "_recirculate" not in meta
            assert (verdict is Verdict.DROP) == (flag == "drop_flag")
        assert dataclasses.asdict(reference.stats) == dataclasses.asdict(device.stats)
        assert device.stats.dropped_by_program == (3 if flag == "drop_flag" else 0)

    def test_lane_hop_makes_no_call_into_the_executor(self, base_program, monkeypatch):
        _, lane = lane_arms(host_nothing(base_program))
        calls = executor_calls(monkeypatch)
        feed(lane, lane_corpus(recirculating=False))
        assert lane.stats.processed > 100
        assert not calls
        # A pending recirculation is the executor's to pop and re-run.
        bounced = make_packet(1, 2)
        bounced.meta["_recirculate"] = 1
        lane.process(bounced, 1.0)
        assert calls["instance", lane.active_instance] == 1
        assert "_recirculate" not in bounced.meta

    def test_interpreter_engine_never_takes_the_lane(self, base_program, monkeypatch):
        reference, _ = lane_arms(host_nothing(base_program))
        calls = executor_calls(monkeypatch)
        feed(reference, lane_corpus())
        assert calls["instance", reference.active_instance] == reference.stats.processed > 100

    def test_top_level_if_reaches_the_executor(self, monkeypatch):
        """A condition is evaluated and costed even on a device that
        hosts neither branch, so such a slice is not lane-eligible."""
        builder = standard_builder("guarded")
        builder.function("mark", [b.assign("meta.marked", 1)])
        builder.apply(builder.apply_if(b.binop("==", "ipv4.ttl", 0), ["mark"]))
        program = builder.build()
        reference, lane = lane_arms(host_nothing(program))
        assert lane.active_instance.lane is None
        calls = executor_calls(monkeypatch)
        assert_arms_agree(reference, lane, lane_corpus())
        assert calls["instance", lane.active_instance] == lane.stats.processed > 100
        assert lane.stats.total_ops > 3 * lane.stats.processed  # parse + the condition

    def test_sampled_packets_still_run_the_interpreter(self, base_program):
        reference, lane = lane_arms(host_nothing(base_program))
        for device in (reference, lane):
            device.observer = Observer(sample_every=1)
        assert_arms_agree(reference, lane, lane_corpus())
        spans = lane.observer.tracer.to_dict()
        assert spans == reference.observer.tracer.to_dict()
        assert lane.observer.tracer.total_spans == lane.stats.processed
        assert "parse" in lane.observer.tracer.render_tree()

    def test_open_window_between_two_pass_through_versions(self, base_program, monkeypatch):
        new_program, _ = apply_delta(base_program, parse_delta(ADD_GUARD))
        packets = lane_corpus(recirculating=False)

        def install(device):
            device.install(base_program, hosted_elements=set())
            window_s = 1.25 * arrival_time(device, len(packets))
            device.begin_hitless_update(new_program, 0.0, window_s, hosted_elements=set())

        reference, lane = lane_arms(install)
        calls = executor_calls(monkeypatch)
        assert_arms_agree(reference, lane, packets)
        assert lane.in_transition
        # Whichever of old/new the per-packet draw picked is the lane taken.
        assert set(lane.stats.per_version) == {base_program.version, new_program.version}
        assert not any(instance.fastpath_enabled for _, instance in calls)


class TestQueueModelOnTheLane:
    """The ingress queue in front of a pass-through lane: an idle queue
    stamps depth 0, back-to-back packets queue, and a burst past the
    capacity tail-drops with the queueing delay plus one service slot."""

    @pytest.fixture
    def device(self, base_program):
        device = DeviceRuntime("d", drmt_switch("d"), queue_capacity_packets=4)
        device.engine = EngineConfig(fastpath=True)
        device.install(base_program, hosted_elements=set())
        assert device.active_instance.priced_lane is not None
        return device

    def test_an_idle_queue_stamps_depth_zero(self, device):
        packet = make_packet(1, 2)
        device.process(packet, 1e-3)
        assert packet.meta["queue_depth"] == 0
        assert device.stats.max_queue_depth == 0
        device.stats.max_queue_depth = 3  # what an earlier burst left
        later = make_packet(1, 2)
        device.process(later, 2e-3)
        assert later.meta["queue_depth"] == 0
        assert device.stats.max_queue_depth == 3

    def test_back_to_back_packets_queue(self, device):
        first, second = make_packet(1, 2), make_packet(1, 2)
        device.process(first, 0.0)
        device.process(second, 0.0)
        assert (first.meta["queue_depth"], second.meta["queue_depth"]) == (0, 1)
        assert device.stats.max_queue_depth == 1

    def test_a_burst_past_the_capacity_tail_drops(self, device):
        service_s = device._service_s
        now = 0.0
        burst = [make_packet(1, 2) for _ in range(7)]
        latencies = [device.process(packet, now) for packet in burst]
        assert [packet.meta["queue_depth"] for packet in burst] == [0, 1, 2, 3, 4, 4, 4]
        assert [packet.verdict for packet in burst[4:]] == [Verdict.LOST] * 3
        assert device.stats.queue_drops == 3
        assert device.stats.processed == 4
        assert device.stats.max_queue_depth == 4
        start = now
        for _ in range(4):
            start = start + service_s
        assert latencies[4:] == [(start - now) + service_s] * 3


#: ``DeviceStats`` of every E20 pod-fabric device after 600 packets of
#: ``e20_workload(seed=7)`` under the compiled engine: ``(processed,
#: total_ops, energy_nj.hex(), per_version, max_queue_depth,
#: queue_drops, dropped_by_program)``, keyed by the workload's rate.
_PASS = {5: 600}
POD_FABRIC_STATS = {
    20_000.0: {
        "h1": (600, 1800, "0x1.c200000000000p+13", _PASS, 0, 0, 0),
        "h2": (600, 1800, "0x1.c200000000000p+13", _PASS, 0, 0, 0),
        **{
            f"n{pod}{side}": (600, 1800, "0x1.c200000000000p+12", _PASS, 0, 0, 0)
            for pod in range(4)
            for side in "ab"
        },
        **{f"s{pod}": (600, 54000, "0x1.a5e0000000000p+14", _PASS, 0, 0, 0) for pod in range(4)},
    },
}
POD_FABRIC_STATS[2e7] = {**POD_FABRIC_STATS[20_000.0]}
POD_FABRIC_STATS[2e7]["h1"] = (600, 1800, "0x1.c200000000000p+13", _PASS, 317, 0, 0)

_VERSION_COUNTS = {f"s{pod}@v5": 600 for pod in range(4)}
POD_FABRIC_REPORTS = {
    20_000.0: {
        "metrics": {
            "delivered": 600,
            "delivery_rate": 1.0,
            "dropped_by_program": 0,
            "latency": {
                "count": 600,
                "max_s": 0.001560602,
                "mean_s": 0.001560514,
                "min_s": 0.001560514,
                "p50_s": 0.001560514,
                "p99_s": 0.001560514,
            },
            "loss_rate": 0.0,
            "lost_by_infrastructure": 0,
            "sent": 600,
            "version_counts": _VERSION_COUNTS,
            "version_mixtures": 0,
        },
        "telemetry": {"total_digests": 2400, "total_events": 0},
    },
    2e7: {
        "metrics": {
            "delivered": 600,
            "delivery_rate": 1.0,
            "dropped_by_program": 0,
            "latency": {
                "count": 600,
                "max_s": 0.00159226,
                "mean_s": 0.001576545,
                "min_s": 0.001560514,
                "p50_s": 0.001576845,
                "p99_s": 0.001591935,
            },
            "loss_rate": 0.0,
            "lost_by_infrastructure": 0,
            "sent": 600,
            "version_counts": _VERSION_COUNTS,
            "version_mixtures": 0,
        },
        "telemetry": {"total_digests": 2400, "total_events": 0},
    },
}


@pytest.mark.parametrize("rate_pps", [20_000.0, 2e7], ids=["paced", "burst"])
def test_pod_fabric_accounting_is_pinned(rate_pps):
    """Golden per-device accounting on the E20 fabric: 10 of its 14
    devices take the pass-through lane, and at the burst rate the first
    host queues 317 deep. Every counter is pinned, and ``energy_nj`` to
    the bit, so a hop that adds its costs in another order fails here."""
    from repro.scale import e20_net, e20_workload

    net = e20_net()
    net.engine(fastpath=True)
    report = net.run_traffic(
        packets=e20_workload(600, rate_pps=rate_pps, seed=7), extra_time_s=0.01
    )
    stats = {}
    for name in sorted(net.controller.devices):
        device = net.device(name).stats
        stats[name] = (
            device.processed,
            device.total_ops,
            device.energy_nj.hex(),
            device.per_version,
            device.max_queue_depth,
            device.queue_drops,
            device.dropped_by_program,
        )
    assert stats == POD_FABRIC_STATS[rate_pps]
    assert report.to_dict() == POD_FABRIC_REPORTS[rate_pps]


#: The live-update cycle of the ``reconfig_live`` workload.
PROBE_CYCLE = ("int_probe_delta", "remove_probe_delta", "dctcp_delta", "remove_cc_delta")


def _live_slice(packets, rate_pps):
    """The standard slice under traffic, with ``PROBE_CYCLE`` applied
    live and evenly spread over it at ``PER_PACKET_PATH``; returns the
    net, the traffic, the outcomes list (filled as the run goes) and
    the thunk that runs the traffic."""
    from functools import partial

    from repro import apps
    from repro.runtime.consistency import ConsistencyLevel
    from repro.scale import e20_workload
    from repro.simulator.packet import reset_packet_ids

    level = ConsistencyLevel.PER_PACKET_PATH
    reset_packet_ids()
    net = FlexNet.standard()
    net.install(base_infrastructure())
    net.engine(fastpath=True)
    # A list: the test reads the processed packets after the run, and a
    # series builds a fresh packet on every read.
    traffic = list(e20_workload(packets, rate_pps=rate_pps, seed=7))
    span = traffic[-1].time
    outcomes = []

    def update(name):
        outcomes.append(net.update(getattr(apps, name)(), consistency=level))

    for index, name in enumerate(PROBE_CYCLE):
        net.schedule(span * (index + 1) / (len(PROBE_CYCLE) + 1), partial(update, name))

    def run():
        return net.run_traffic(packets=traffic, extra_time_s=0.5, consistency_level=level)

    return net, traffic, outcomes, run


def _stats(**changed):
    fields = dict(
        processed=800, dropped_by_program=0, total_ops=2400, per_version={1: 800},
        reconfigurations=0, drain_windows=0, queue_drops=0, max_queue_depth=0,
        crashes=0, restarts=0, stale_rejections=0,
    )
    return {**fields, **changed}


LIVE_SLICE_STATS = {
    "h1": _stats(energy_nj="0x1.2c00000000000p+14"),
    "h2": _stats(energy_nj="0x1.2c00000000000p+14"),
    "nic1": _stats(energy_nj="0x1.2c00000000000p+13"),
    "nic2": _stats(
        energy_nj="0x1.d454000000000p+17", total_ops=59946,
        per_version={1: 539, 4: 138, 5: 123}, reconfigurations=2,
    ),
    "sw1": _stats(
        energy_nj="0x1.5238000000000p+13", total_ops=21646,
        per_version={1: 248, 2: 108, 3: 183, 4: 138, 5: 123}, reconfigurations=4,
    ),
}
LIVE_SLICE_REPORT = {
    "consistency": {
        "holds": True, "level": "PER_PACKET_PATH", "packets_checked": 800, "violations": 0,
    },
    "metrics": {
        "delivered": 800,
        "delivery_rate": 1.0,
        "dropped_by_program": 0,
        "latency": {
            "count": 800,
            "max_s": 3.4959e-05,
            "mean_s": 3.2196e-05,
            "min_s": 3.1619e-05,
            "p50_s": 3.1619e-05,
            "p99_s": 3.4959e-05,
        },
        "loss_rate": 0.0,
        "lost_by_infrastructure": 0,
        "sent": 800,
        "version_counts": {
            "nic2@v4": 138, "sw1@v1": 248, "sw1@v2": 108, "sw1@v3": 183, "sw1@v4": 138,
            "sw1@v5": 123,
        },
        "version_mixtures": 0,
    },
    "telemetry": {"total_digests": 108, "total_events": 0},
}


def _transition(started_at, finished_at, windows, steps):
    return {
        "started_at": started_at, "finished_at": finished_at, "device_windows": windows,
        "steps_applied": steps, "migrations": [], "reflashed_devices": [],
        "commands_dropped": 0, "command_retries": 0, "stranded_commands": [],
        "deferred_starts": [], "migration_retries": 0, "failed_migrations": 0,
        "stale_rejected": 0, "undispatched": [],
    }


LIVE_SLICE_TRANSITIONS = [
    _transition(
        0.37058326204835274, 0.7205832620483528,
        {"sw1": (0.37058326204835274, 0.7205832620483528)}, 1,
    ),
    _transition(
        0.7411665240967055, 0.9411665240967055,
        {"sw1": (0.7411665240967055, 0.9411665240967055)}, 1,
    ),
    _transition(
        1.1117497861450583, 1.4627497861450582,
        {
            "nic2": (1.1117497861450583, 1.4627497861450582),
            "sw1": (1.1117497861450583, 1.4617497861450581),
        },
        3,
    ),
    _transition(
        1.482333048193411, 1.683333048193411,
        {
            "nic2": (1.482333048193411, 1.683333048193411),
            "sw1": (1.482333048193411, 1.682333048193411),
        },
        3,
    ),
]


def test_live_update_run_is_pinned():
    """Golden run of the paper's defining operation: four updates of the
    ``reconfig_live`` cycle land on the standard slice while 800 packets
    flow. Which packet meets which version depends on every event's
    ``(time, seq)`` key, so the traffic report, every device's counters
    (``energy_nj`` to the bit), the per-version counts, each update's
    transition and a digest of every packet's arrival are pinned."""
    import hashlib

    net, traffic, outcomes, run = _live_slice(800, 400.0)
    report = run()
    stats = {}
    for name in sorted(net.controller.devices):
        device = dataclasses.asdict(net.device(name).stats)
        device["energy_nj"] = device["energy_nj"].hex()
        stats[name] = device
    assert report.to_dict() == LIVE_SLICE_REPORT
    assert stats == LIVE_SLICE_STATS
    assert report.metrics.versions_on("sw1") == {1: 248, 2: 108, 3: 183, 4: 138, 5: 123}
    assert [dataclasses.asdict(outcome.report) for outcome in outcomes] == LIVE_SLICE_TRANSITIONS
    arrivals = repr(
        [
            (timed.packet.packet_id, timed.packet.delivered_at.hex(),
             sorted(timed.packet.versions_seen.items()))
            for timed in traffic
        ]
    )
    assert hashlib.sha256(arrivals.encode()).hexdigest() == (
        "0f3206c057c520066fc8d39968fb4b1534820dd0af85c1bca23e8729c2c73989"
    )


def test_the_heap_holds_only_what_is_in_the_air(monkeypatch):
    """A run's injections enter the loop one at a time: at every hop of
    a 2000-packet live run the heap holds no more than the packets in
    flight, the control events and one injection. A packet alone on the
    wire runs its whole path in its injection event: its flight never
    enters the heap."""
    from repro.simulator import engine
    from repro.simulator.metrics import RunMetrics

    counts = {"arrived": 0, "finished": 0, "excess": 0, "checks": 0}
    record_outcome = RunMetrics.record_outcome

    def counting(self, packet):
        counts["finished"] += 1
        record_outcome(self, packet)

    monkeypatch.setattr(RunMetrics, "record_outcome", counting)
    net, _, outcomes, run = _live_slice(2000, 1000.0)
    heap = net.loop._heap
    first = net.controller.network.path("datapath")[0]

    def observing(device):
        process = device.process

        def observed(packet, now):
            counts["arrived"] += device.name == first
            flights = sum(getattr(event, "__name__", "") == "flight" for _, _, event in heap)
            series = sum(type(event).__name__ == "_Series" for _, _, event in heap)
            control = len(heap) - flights - series
            in_flight = counts["arrived"] - counts["finished"]
            counts["excess"] = max(counts["excess"], len(heap) - (in_flight + control + 1))
            counts["checks"] += 1
            return process(packet, now)

        return observed

    for device in net.controller.devices.values():
        device.process = observing(device)
    report = run()
    assert report.metrics.delivered == counts["arrived"] == counts["finished"] == 2000
    assert counts["checks"] == 2000 * 5 and len(outcomes) == len(PROBE_CYCLE)
    assert counts["excess"] <= 0

    pushed, heappush = [], engine.heappush

    def recording(heap, entry):
        pushed.append(getattr(entry[2], "__name__", type(entry[2]).__name__))
        heappush(heap, entry)

    monkeypatch.setattr(engine, "heappush", recording)
    lone = TimedPacket(net.loop.now + 1e-3, make_packet(1, 2))
    report = net.run_traffic(packets=[lone], extra_time_s=0.5)
    assert report.metrics.delivered == 1 and counts["checks"] == 2000 * 5 + 5
    assert pushed == ["_Series"]

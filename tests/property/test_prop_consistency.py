"""Property test for ``ConsistencyChecker``: folding each packet as it is
delivered reports what judging the whole list of delivered packets after
the run reports, at every level and scope, examples (their cap of five
and their order) included.

The reference is the list-based ``report()`` the checker had before it
folded, kept here verbatim apart from reading its packets from an
argument."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.consistency import ConsistencyChecker, ConsistencyLevel, ConsistencyReport
from repro.simulator.packet import FiveTuple, make_packet

DEVICES = ("a", "b", "c")


def scoped_versions(scope, packet):
    return [
        version
        for device, version in packet.versions_seen.items()
        if scope is None or device in scope
    ]


def reference_report(level, scope, packets) -> ConsistencyReport:
    result = ConsistencyReport(level=level)
    if level is ConsistencyLevel.PER_FLOW:
        return reference_per_flow(scope, packets, result)
    for packet in packets:
        result.packets_checked += 1
        versions = scoped_versions(scope, packet)
        if not versions:
            continue
        if level is ConsistencyLevel.PER_PACKET_PER_DEVICE:
            continue
        if len(set(versions)) > 1:
            result.violations += 1
            if len(result.examples) < 5:
                result.examples.append(packet.packet_id)
    return result


def reference_per_flow(scope, packets, result) -> ConsistencyReport:
    flow_sequences = defaultdict(list)
    flow_example = {}
    for packet in packets:
        result.packets_checked += 1
        versions = scoped_versions(scope, packet)
        if not versions:
            continue
        flow = FiveTuple.of(packet)
        if len(set(versions)) > 1:
            result.violations += 1
            if len(result.examples) < 5:
                result.examples.append(packet.packet_id)
            continue
        flow_sequences[flow].append(versions[0])
        flow_example.setdefault(flow, packet.packet_id)
    for flow, sequence in flow_sequences.items():
        if sequence != sorted(sequence):
            result.violations += 1
            if len(result.examples) < 5:
                result.examples.append(flow_example[flow])
    return result


# Few flows and versions, so that flaps, mixes and the cap are common.
deliveries = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(DEVICES), st.integers(1, 3), max_size=3),
        st.integers(0, 3),
    ),
    max_size=40,
)
scopes = st.one_of(st.none(), st.frozensets(st.sampled_from(DEVICES)))


@settings(max_examples=300, deadline=None)
@given(delivered=deliveries, scope=scopes, level=st.sampled_from(list(ConsistencyLevel)))
def test_the_fold_reports_what_the_list_reports(delivered, scope, level):
    packets = []
    for versions, flow in delivered:
        packet = make_packet(1, 2, src_port=100 + flow)
        packet.versions_seen = dict(versions)
        packets.append(packet)
    checker = ConsistencyChecker(level, devices_in_update=scope)
    for index, packet in enumerate(packets):
        checker.observe(packet)
        # The fold answers at any point, as the list did over what it held.
        if index % 7 == 0:
            assert checker.report() == reference_report(level, scope, packets[: index + 1])
    assert checker.report() == reference_report(level, scope, packets)

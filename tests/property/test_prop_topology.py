"""The topology view's path search against networkx as an oracle.

``TopologyView`` finds its paths with its own bidirectional Dijkstra.
Of several equal-cost paths it must pick the one networkx's
``shortest_path(..., weight="latency_s")`` picks, since the controller's
datapath, its detours and its quarantine reroutes were chosen that way
before. Latencies come from three values so that ties are common, and
links and removals arrive in a random order, which is what the tie-break
depends on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.topology import TopologyView
from repro.errors import UnknownDeviceError

nx = pytest.importorskip("networkx")

LATENCIES = (1e-6, 2e-6, 3e-6)
NAMES = tuple(f"d{i}" for i in range(10))


@st.composite
def topologies(draw):
    """A view and the networkx graph built by the same operations."""
    view, graph = TopologyView(), nx.Graph()
    for name in draw(st.permutations(NAMES)):
        view.add_device(name, None)
        graph.add_node(name)
    node = st.sampled_from(NAMES)
    kind = st.sampled_from(("link", "link", "link", "remove", "add"))
    step = st.tuples(kind, node, node, st.sampled_from(LATENCIES))
    steps = st.lists(step, min_size=4, max_size=40)
    for op, name, other, latency in draw(steps):
        if op == "link" and name in graph and other in graph:
            view.add_link(name, other, latency)
            graph.add_edge(name, other, latency_s=latency)
        elif op == "remove" and name in graph:
            view.remove_device(name)
            graph.remove_node(name)
        elif op == "add" and name not in graph:
            view.add_device(name, None)
            graph.add_node(name)
    return view, graph


def _oracle(graph, source, destination):
    try:
        return nx.shortest_path(graph, source, destination, weight="latency_s")
    except nx.NetworkXNoPath:
        return None


def _ours(search, *args):
    try:
        return search(*args)
    except UnknownDeviceError:
        return None


def _pairs(graph):
    return [(s, t) for s in sorted(graph) for t in sorted(graph)]


@settings(max_examples=300, deadline=None)
@given(topologies())
def test_shortest_path_matches_networkx(built):
    view, graph = built
    for source, destination in _pairs(graph):
        assert _ours(view.shortest_path, source, destination) == _oracle(
            graph, source, destination
        )


@settings(max_examples=300, deadline=None)
@given(topologies(), st.sets(st.sampled_from(NAMES + ("ghost",))))
def test_path_avoiding_matches_networkx_restricted_view(built, avoid):
    # A name that is not a device (a removed one, "ghost") is ignored,
    # as networkx ignores it.
    view, graph = built
    around = nx.restricted_view(graph, avoid, set())
    for source, destination in _pairs(around):
        assert _ours(view.path_avoiding, source, destination, avoid) == _oracle(
            around, source, destination
        )


@settings(max_examples=300, deadline=None)
@given(topologies(), st.data())
def test_detour_path_matches_networkx_legs(built, data):
    view, graph = built
    if not graph:
        return
    nodes = st.sampled_from(sorted(graph))
    for _ in range(8):
        source, destination, via = (data.draw(nodes) for _ in range(3))
        first = _oracle(graph, source, via)
        second = _oracle(graph, via, destination)
        expected = None
        if first is not None and second is not None:
            if not (set(first) & set(second)) - {via}:
                expected = first + second[1:]
        assert _ours(view.detour_path, source, destination, via) == expected

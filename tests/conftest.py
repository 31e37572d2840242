"""Shared fixtures for the FlexNet test suite."""

from __future__ import annotations

import collections
import dataclasses
import sys

import pytest

from repro.analysis import dataflow
from repro.apps.base import base_infrastructure
from repro.compiler.placement import NetworkSlice
from repro.compiler.plan import DeviceSpec
from repro.core.flexnet import FlexNet
from repro.lang.analyzer import Analyzer, certify
from repro.lang.delta import Delta, RemoveElements, apply_delta
from repro.lang.ir import Program
from repro.targets import drmt_switch, host, rmt_switch, smartnic


@pytest.fixture
def base_program():
    """The standard infrastructure program (validated)."""
    return base_infrastructure()


@pytest.fixture
def base_certificate(base_program):
    return certify(base_program)


def forwarding_program() -> Program:
    """The base program minus ``flow_counts``: ACL, L2, L3 and the TTL
    guard with no map — a program that is all table lookups, two of
    them ternary or LPM, so a repeat flow is served by what the tables
    remember, and the device that hosts it has something to execute
    (``standard_builder(...).build()`` alone has no table, which makes
    every device pass-through)."""
    strip = Delta(
        name="strip_flow_counts",
        ops=(
            RemoveElements(pattern="count_flow", kind="function"),
            RemoveElements(pattern="flow_counts", kind="map"),
        ),
    )
    return apply_delta(base_infrastructure(), strip)[0]


def ir_nodes(node):
    """``node`` and every dataclass node under it, found by reflection
    over the declared fields — so a node kind added to ``ir.py`` is
    reached without being named here. The independent reference the
    coverage and footprint tests hold hand-dispatched walkers to."""
    yield node
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        for child in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(child):
                yield from ir_nodes(child)


def map_free_slice(program: Program) -> set[str]:
    """What a device next to the stateful one would host: every applied
    element that writes no map."""
    info = dataflow.analyze(program)
    return {name for name in info.applied if not info.element_access(name).map_writes}


def make_standard_slice(switch="drmt"):
    """host - NIC - switch - NIC - host DeviceSpec path."""
    factories = {
        "drmt": lambda: drmt_switch("sw1"),
        "rmt": lambda: rmt_switch("sw1", runtime_capable=True),
        "rmt_static": lambda: rmt_switch("sw1", runtime_capable=False),
    }
    return NetworkSlice(
        devices=[
            DeviceSpec("h1", host("h1"), ingress_link_ns=0.0),
            DeviceSpec("nic1", smartnic("nic1")),
            DeviceSpec("sw1", factories[switch]()),
            DeviceSpec("nic2", smartnic("nic2")),
            DeviceSpec("h2", host("h2")),
        ]
    )


@pytest.fixture
def walk_counts(monkeypatch):
    """A Counter of the whole-program walks made while the test runs:
    ``validate`` (``Program.validate``), ``certify``
    (``Analyzer.certify``) and ``analyze`` (``dataflow.analyze``, under
    every module that imported it by name)."""
    counts = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Program, "validate", counted("validate", Program.validate))
    monkeypatch.setattr(Analyzer, "certify", counted("certify", Analyzer.certify))
    original = dataflow.analyze
    analyze = counted("analyze", original)
    for module in list(sys.modules.values()):
        if getattr(module, "analyze", None) is original:
            monkeypatch.setattr(module, "analyze", analyze)
    return counts


def assert_live_facts_fresh(controller):
    """The controller's live admission record describes exactly the
    program its plan runs — checked after every verb that commits."""
    facts = controller._facts  # noqa: SLF001 - the invariant under test
    assert facts.program is controller.program is controller.plan.program
    assert facts.certificate is controller.plan.certificate
    assert facts.dataflow.elements == dataflow.analyze(controller.program).elements


@pytest.fixture
def standard_slice():
    return make_standard_slice()


def five_hop_net():
    """The ``flexnet`` fixture as a factory, for tests that build several."""
    net = FlexNet.standard()
    net.install(base_infrastructure())
    return net


@pytest.fixture
def flexnet(base_program):
    """A standard FlexNet with the base program installed."""
    net = FlexNet.standard()
    net.install(base_program)
    return net

"""The one execution-engine verb: ``net.engine(fastpath=)`` — with
``batch=`` a second spelling kept one round — sets an immutable
``EngineConfig`` that the controller holds and every current and future
device runs under."""

import dataclasses
import inspect
import json

import pytest

from repro.apps import base_infrastructure
from repro.core.flexnet import FlexNet
from repro.runtime.device import EngineConfig
from repro.simulator.fastpath import seeded_rules
from repro.simulator.packet import reset_packet_ids
from tests.conftest import forwarding_program


def make_net(program=None):
    net = FlexNet.standard()
    net.install(program or base_infrastructure())
    return net


class TestEngineConfig:
    def test_default_is_the_interpreter(self):
        config = EngineConfig()
        assert not config.fastpath
        assert config.summary() == "engine: interpreter"
        assert EngineConfig(fastpath=True).summary() == "engine: compiled"
        assert [f.name for f in dataclasses.fields(EngineConfig)] == ["fastpath"]

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            EngineConfig().fastpath = True

    def test_to_dict_shape(self):
        assert EngineConfig(fastpath=True).to_dict() == {"fastpath": True}
        assert EngineConfig().to_dict() == {"fastpath": False}


class TestEngineVerb:
    def test_takes_exactly_fastpath_and_batch(self):
        parameters = inspect.signature(FlexNet.engine).parameters
        assert list(parameters) == ["self", "fastpath", "batch"]
        assert all(
            parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
            for name in ("fastpath", "batch")
        )

    def test_bare_call_is_a_pure_read(self):
        net = make_net()
        config = net.engine()
        assert config == EngineConfig()
        assert net.engine() is config
        for device in net.controller.devices.values():
            assert not device.active_instance.fastpath_enabled

    def test_fastpath_and_batch_both_mean_compiled_plus_memo(self):
        """``batch=True`` is a second spelling of ``fastpath=True`` (the
        id dates from when both also switched the flow memo on)."""
        assert make_net().engine(fastpath=True) == EngineConfig(fastpath=True)
        assert make_net().engine(batch=True) == EngineConfig(fastpath=True)

    def test_compiled_only(self):
        net = make_net()
        assert net.engine(fastpath=True, batch=False) == EngineConfig(fastpath=True)
        for device in net.controller.devices.values():
            assert device.active_instance.fastpath_enabled

    def test_batch_off_leaves_fastpath_as_is(self):
        net = make_net()
        net.engine(batch=True)
        assert net.engine(batch=False) == EngineConfig(fastpath=True)
        assert make_net().engine(batch=False) == EngineConfig()

    def test_fastpath_off_drags_the_memo_down(self):
        net = make_net()
        net.engine(batch=True)
        assert net.engine(fastpath=False) == EngineConfig()
        for device in net.controller.devices.values():
            assert not device.active_instance.fastpath_enabled

    def test_config_reaches_every_device_and_survives_traffic(self):
        net = make_net()
        config = net.engine(batch=True)
        for device in net.controller.devices.values():
            assert device.engine is config
            assert device.active_instance.fastpath_enabled
        report = net.run_traffic(rate_pps=500, duration_s=0.2, extra_time_s=1.0)
        assert report.metrics.delivered > 0
        assert net.engine() is config

    def test_device_added_after_engine_inherits_the_config(self):
        """Regression: a device added after ``engine(...)`` used to run
        the interpreter silently (the partial-fleet state)."""
        net = FlexNet()
        net.add_host("h1")
        net.add_smartnic("nic1")
        net.engine(fastpath=True)
        net.add_switch("sw1")
        net.add_smartnic("nic2")
        net.add_host("h2")
        for a, b in [("h1", "nic1"), ("nic1", "sw1"), ("sw1", "nic2"), ("nic2", "h2")]:
            net.connect(a, b, 2e-6)
        net.build_datapath("h1", "h2")
        net.install(base_infrastructure())
        late = net.device("sw1")
        assert late.active_instance.fastpath_enabled
        assert late.engine == net.engine()


def remembered_keys(net):
    """Per device, per non-exact table: how many keys it has decided."""
    return {
        name: {
            table: len(rules._decided)  # noqa: SLF001
            for table, rules in device.active_instance.rules.items()
        }
        for name, device in sorted(net.controller.devices.items())
    }


def spelled_arm(**engine):
    """One seeded run of the forwarding program, its tables populated
    so repeat flows have rules to be remembered against."""
    reset_packet_ids()
    net = make_net(forwarding_program())
    for device in net.controller.devices.values():
        seeded_rules(device.active_program, device.active_instance, seed=5)
    if engine:
        net.engine(**engine)
    report = net.run_traffic(rate_pps=2000, duration_s=0.2, extra_time_s=1.0)
    # Device stats too (``energy_nj`` with ``==``): four of the five
    # devices host nothing, so the compiled arms count their hops in the
    # pass-through lane.
    stats = {
        name: dataclasses.asdict(device.stats)
        for name, device in sorted(net.controller.devices.items())
    }
    return json.dumps(report.to_dict(), sort_keys=True), stats, remembered_keys(net)


class TestEngineSpellingsAgree:
    def test_fastpath_and_batch_runs_are_identical(self):
        """``engine(fastpath=True)`` and ``engine(batch=True)`` are one
        state: identical reports, device stats and table decisions."""
        fast, batch = spelled_arm(fastpath=True), spelled_arm(batch=True)
        assert fast == batch == spelled_arm(fastpath=True, batch=False)
        assert sum(fast[2]["sw1"].values()) > 0  # sw1 hosts the tables

    def test_memo_matches_the_interpreter(self):
        """The interpreter's ``lookup`` and the generated function probe
        the same decisions: same report, same stats, same keys kept."""
        assert spelled_arm() == spelled_arm(fastpath=True)

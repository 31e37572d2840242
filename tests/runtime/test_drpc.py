"""dRPC fabric and registry tests."""

import pytest

from repro.errors import RpcError
from repro.lang import builder as b
from repro.lang.ir import MapDef
from repro.lang.maps import MapState
from repro.lang.types import BitsType
from repro.runtime.drpc import (
    CONTROL_RTT_S,
    DrpcFabric,
    RpcRegistry,
    ServiceSpec,
    make_migrate_service,
    make_state_read_service,
    make_state_write_service,
)


def make_state(entries=8):
    state = MapState(
        MapDef(
            name="m",
            key_fields=(b.field("ipv4.src"),),
            value_type=BitsType(64),
            max_entries=64,
        )
    )
    for i in range(entries):
        state.put((i,), i * 10)
    return state


@pytest.fixture
def fabric():
    registry = RpcRegistry(advertisement_interval_s=0.05)
    fabric = DrpcFabric(registry, link_latency_s=1e-6)
    fabric.set_device_speed("sw1", 1.2)
    return registry, fabric


class TestRegistry:
    def test_register_lookup(self, fabric):
        registry, _ = fabric
        registry.register(ServiceSpec("svc", "sw1", 8, lambda a: a), now=0.0)
        assert registry.lookup("svc", now=1.0).device == "sw1"

    def test_duplicate_registration_rejected(self, fabric):
        registry, _ = fabric
        registry.register(ServiceSpec("svc", "sw1", 8, lambda a: a))
        with pytest.raises(RpcError, match="already registered"):
            registry.register(ServiceSpec("svc", "sw2", 8, lambda a: a))

    def test_unknown_service(self, fabric):
        registry, _ = fabric
        with pytest.raises(RpcError, match="no such"):
            registry.lookup("ghost")

    def test_gossip_propagation_delay(self, fabric):
        registry, _ = fabric
        registry.register(ServiceSpec("svc", "sw1", 8, lambda a: a), now=1.0)
        # 3 hops away: visible at 1.0 + 3 * 0.05
        with pytest.raises(RpcError, match="not yet discovered"):
            registry.lookup("svc", now=1.1, hops_from_provider=3)
        assert registry.lookup("svc", now=1.2, hops_from_provider=3)


class TestFabric:
    def test_call_returns_result_and_latency(self, fabric):
        registry, drpc = fabric
        registry.register(ServiceSpec("double", "sw1", 8, lambda a: (a[0] * 2,)))
        result, latency = drpc.call("double", (21,), caller_device="nic1", now=1.0)
        assert result == (42,)
        assert latency > 0

    def test_drpc_far_faster_than_controller_path(self, fabric):
        """E10's headline: in-band utility invocation vs software."""
        registry, drpc = fabric
        registry.register(ServiceSpec("svc", "sw1", 8, lambda a: a))
        _, in_band = drpc.call("svc", (1,), caller_device="nic1", now=1.0)
        _, software = drpc.call_via_controller("svc", (1,), now=1.0)
        assert software > in_band * 100
        assert software >= 2 * CONTROL_RTT_S

    def test_handler_failure_wrapped(self, fabric):
        registry, drpc = fabric

        def boom(args):
            raise ValueError("nope")

        registry.register(ServiceSpec("svc", "sw1", 8, boom))
        with pytest.raises(RpcError, match="handler failed"):
            drpc.call("svc", (), caller_device="nic1", now=1.0)
        assert drpc.stats["svc"].failures == 1

    def test_stats_accumulate(self, fabric):
        registry, drpc = fabric
        registry.register(ServiceSpec("svc", "sw1", 8, lambda a: a))
        for _ in range(3):
            drpc.call("svc", (), caller_device="nic1", now=1.0)
        assert drpc.stats["svc"].calls == 3
        assert drpc.stats["svc"].total_latency_s > 0


class TestFailurePaths:
    def test_missing_service_counts_failure(self, fabric):
        _, drpc = fabric
        with pytest.raises(RpcError, match="no such"):
            drpc.call("ghost", (), caller_device="h1", now=1.0)
        assert drpc.stats["ghost"].failures == 1
        assert drpc.stats["ghost"].calls == 0

    def test_undiscovered_service_counts_failure(self, fabric):
        registry, drpc = fabric
        registry.register(ServiceSpec("svc", "sw1", 8, lambda a: a), now=1.0)
        with pytest.raises(RpcError, match="not yet discovered"):
            drpc.call("svc", (), caller_device="h1", now=1.01, hops=3)
        assert drpc.stats["svc"].failures == 1

    def test_failures_do_not_pollute_latency_stats(self, fabric):
        registry, drpc = fabric

        def boom(args):
            raise ValueError("nope")

        registry.register(ServiceSpec("svc", "sw1", 8, boom))
        for _ in range(2):
            with pytest.raises(RpcError):
                drpc.call("svc", (), caller_device="h1", now=1.0)
        assert drpc.stats["svc"].failures == 2
        assert drpc.stats["svc"].calls == 0
        assert drpc.stats["svc"].total_latency_s == 0.0


class TestStandardServices:
    def test_state_read(self, fabric):
        registry, drpc = fabric
        state = make_state()
        registry.register(make_state_read_service("sw1", state))
        result, _ = drpc.call("state_read", (3,), caller_device="h1", now=1.0)
        assert result == (30,)

    def test_state_write(self, fabric):
        registry, drpc = fabric
        state = make_state(0)
        registry.register(make_state_write_service("sw1", state))
        drpc.call("state_write", (5, 99), caller_device="h1", now=1.0)
        assert state.get((5,)) == 99

    def test_migrate_chunk_pagination(self, fabric):
        registry, drpc = fabric
        state = make_state(8)
        registry.register(make_migrate_service("sw1", state))
        first, _ = drpc.call("migrate_chunk", (0, 4), caller_device="h1", now=1.0)
        second, _ = drpc.call("migrate_chunk", (4, 4), caller_device="h1", now=1.0)
        assert len(first) == 8  # 4 entries x (key + value)
        assert len(second) == 8
        assert set(first) != set(second) or first != second

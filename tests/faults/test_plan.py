"""FaultPlan / FaultInjector determinism and scoping."""

from repro.faults import (
    ChannelFault,
    DeviceCrash,
    FaultInjector,
    FaultPlan,
    MigrationFault,
)


def full_plan(seed: int = 5) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        crashes=(DeviceCrash(device="sw1", at_s=1.0, restart_after_s=0.5),),
        channel=ChannelFault(
            drop_probability=0.3, delay_probability=0.3, delay_s=0.01,
            device_pattern="sw*",
        ),
        migration=(
            MigrationFault(
                map_pattern="fw_*", stall_probability=0.5, stall_s=0.1,
                fail_probability=0.2,
            ),
        ),
    )


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a, b = FaultInjector(full_plan()), FaultInjector(full_plan())
        draws_a = [a.command_dropped("sw1") for _ in range(50)]
        draws_b = [b.command_dropped("sw1") for _ in range(50)]
        assert draws_a == draws_b
        assert [a.channel_outcome("sw1") for _ in range(50)] == [
            b.channel_outcome("sw1") for _ in range(50)
        ]

    def test_different_seeds_diverge(self):
        a = FaultInjector(full_plan(seed=5))
        b = FaultInjector(full_plan(seed=6))
        draws_a = [a.channel_outcome("sw1") for _ in range(100)]
        draws_b = [b.channel_outcome("sw1") for _ in range(100)]
        assert draws_a != draws_b

    def test_categories_are_independent_streams(self):
        """Draws in one category must not shift another category's
        sequence — recovery and baseline runs stay comparable even
        though they make different numbers of channel calls."""
        a, b = FaultInjector(full_plan()), FaultInjector(full_plan())
        for _ in range(25):  # extra channel traffic on a only
            a.channel_outcome("sw1")
        draws_a = [a.migration_fails("fw_conns") for _ in range(20)]
        draws_b = [b.migration_fails("fw_conns") for _ in range(20)]
        assert draws_a == draws_b


class TestScoping:
    def test_channel_pattern(self):
        injector = FaultInjector(full_plan())
        # nic1 does not match "sw*": never impaired
        assert all(
            injector.channel_outcome("nic1") == (False, 0.0) for _ in range(50)
        )

    def test_migration_pattern(self):
        injector = FaultInjector(full_plan())
        assert not any(injector.migration_fails("lb_pool") for _ in range(50))
        assert injector.migration_stall_s("lb_pool") == 0.0

    def test_empty_plan_is_inert(self):
        injector = FaultInjector(FaultPlan(seed=9))
        assert not injector.command_dropped("sw1")
        assert injector.channel_outcome("sw1") == (False, 0.0)
        assert not injector.migration_fails("m")
        assert injector.migration_stall_s("m") == 0.0


class TestAccounting:
    def test_stats_tally(self):
        injector = FaultInjector(full_plan())
        for _ in range(200):
            injector.channel_outcome("sw1")
            injector.migration_fails("fw_conns")
            injector.migration_stall_s("fw_conns")
        stats = injector.stats.to_dict()
        assert stats["writes_dropped"] > 0
        assert stats["migration_failures"] > 0
        assert stats["migration_stalls"] > 0

    def test_describe_mentions_every_fault(self):
        text = "\n".join(full_plan().describe())
        assert "seed 5" in text
        assert "crash sw1" in text
        assert "drop p=0.3" in text
        assert "fw_*" in text

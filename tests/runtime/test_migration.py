"""State migration tests: the control-plane vs data-plane contrast (§3.4)."""

import pytest

from repro.errors import MigrationError
from repro.lang import builder as b
from repro.lang.ir import MapDef
from repro.lang.maps import MapState
from repro.lang.types import BitsType
from repro.runtime.migration import (
    control_plane_migration,
    data_plane_migration,
    minimum_copy_rate_for_convergence,
    rounds_to_converge,
)
from repro.targets.base import StateEncoding


def make_state(entries=100, capacity=100_000):
    state = MapState(
        MapDef(
            name="sketch",
            key_fields=(b.field("ipv4.src"),),
            value_type=BitsType(64),
            max_entries=capacity,
        )
    )
    for i in range(entries):
        state.put((i,), i)
    return state


class TestControlPlane:
    def test_converges_at_low_update_rate(self):
        report = control_plane_migration(
            make_state(1000), make_state(0), update_rate_per_s=100.0,
            copy_rate_entries_per_s=10_000.0,
        )
        assert report.converged
        assert report.updates_lost == 0
        assert report.rounds >= 1

    def test_fails_at_high_update_rate(self):
        """Per-packet mutation outpaces the copy loop — the paper's
        'copying state via control plane software is impossible'."""
        report = control_plane_migration(
            make_state(1000), make_state(0), update_rate_per_s=1_000_000.0,
            copy_rate_entries_per_s=10_000.0,
        )
        assert not report.converged
        assert report.updates_lost > 0
        assert report.rounds == 12  # gave up at max_rounds

    def test_duration_grows_with_update_rate(self):
        slow = control_plane_migration(
            make_state(1000), make_state(0), update_rate_per_s=10.0
        )
        fast = control_plane_migration(
            make_state(1000), make_state(0), update_rate_per_s=7_000.0
        )
        assert fast.duration_s > slow.duration_s

    def test_entries_copied(self):
        destination = make_state(0)
        control_plane_migration(make_state(50), destination, update_rate_per_s=1.0)
        assert len(destination) == 50


class TestDataPlane:
    def test_always_converges_in_one_round(self):
        report = data_plane_migration(make_state(10_000), make_state(0))
        assert report.converged
        assert report.rounds == 1
        assert report.updates_lost == 0

    def test_duration_is_line_rate(self):
        report = data_plane_migration(
            make_state(5000), make_state(0), line_rate_entries_per_s=1_000_000.0
        )
        assert report.duration_s == pytest.approx(0.005)

    def test_entries_arrive(self):
        destination = make_state(0)
        data_plane_migration(make_state(64), destination)
        assert len(destination) == 64
        assert destination.get((63,)) == 63

    def test_a_shrunk_durable_destination_keeps_what_fits(self):
        """A resize below what the source holds: the entries past the
        new size are lost and counted, and the migration completes."""
        destination = make_state(0, capacity=40)
        report = data_plane_migration(make_state(64), destination)
        assert len(destination) == 40
        assert destination.get((39,)) == 39 and (40,) not in destination
        assert report.conversion_loss == 24

    def test_cross_encoding_conversion_counted(self):
        report = data_plane_migration(
            make_state(3000),
            make_state(0),
            source_encoding=StateEncoding.STATEFUL_TABLE,
            destination_encoding=StateEncoding.REGISTER,
            register_slots=4096,
        )
        assert report.conversion_loss > 0  # hash collisions into 4096 slots

    def test_cross_encoding_overflow_rejected(self):
        with pytest.raises(MigrationError):
            data_plane_migration(
                make_state(5000),
                make_state(0),
                source_encoding=StateEncoding.STATEFUL_TABLE,
                destination_encoding=StateEncoding.REGISTER,
                register_slots=4096,
            )

    def test_invalid_line_rate_rejected(self):
        with pytest.raises(MigrationError):
            data_plane_migration(make_state(1), make_state(0), line_rate_entries_per_s=0)

    def test_beats_control_plane_under_per_packet_updates(self):
        """The headline E9 shape in miniature."""
        update_rate = 500_000.0
        control = control_plane_migration(
            make_state(10_000), make_state(0), update_rate_per_s=update_rate,
            copy_rate_entries_per_s=10_000.0,
        )
        data = data_plane_migration(make_state(10_000), make_state(0))
        assert not control.converged
        assert data.converged
        assert data.duration_s < control.duration_s


class TestClosedForms:
    def test_minimum_copy_rate(self):
        assert minimum_copy_rate_for_convergence(1000.0) == pytest.approx(1250.0)

    def test_rounds_none_when_divergent(self):
        assert rounds_to_converge(1000, 20_000.0, 10_000.0) is None

    def test_rounds_positive_when_convergent(self):
        rounds = rounds_to_converge(100_000, 1_000.0, 50_000.0)
        assert rounds is not None and rounds >= 1

    def test_rounds_match_simulation_roughly(self):
        estimate = rounds_to_converge(1000, 100.0, 10_000.0)
        report = control_plane_migration(
            make_state(1000), make_state(0), update_rate_per_s=100.0,
            copy_rate_entries_per_s=10_000.0,
        )
        assert abs(report.rounds - estimate) <= 2

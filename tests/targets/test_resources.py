"""ResourceVector arithmetic tests."""

import pytest

from repro.errors import ResourceError
from repro.targets.resources import ZERO, ResourceVector, total


class TestConstruction:
    def test_kwargs_and_mapping_merge(self):
        vector = ResourceVector({"sram_kb": 10}, sram_kb=5, alus=2)
        assert vector["sram_kb"] == 15
        assert vector["alus"] == 2

    def test_zero_quantities_dropped(self):
        vector = ResourceVector(sram_kb=0)
        assert len(vector) == 0
        assert vector.is_zero()

    def test_negative_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector(sram_kb=-1)

    def test_missing_kind_reads_zero(self):
        assert ResourceVector(sram_kb=1)["tcam_kb"] == 0


class TestArithmetic:
    def test_addition(self):
        result = ResourceVector(sram_kb=1, alus=1) + ResourceVector(sram_kb=2)
        assert result == ResourceVector(sram_kb=3, alus=1)

    def test_subtraction(self):
        result = ResourceVector(sram_kb=3) - ResourceVector(sram_kb=1)
        assert result == ResourceVector(sram_kb=2)

    def test_overcommit_subtraction_raises(self):
        with pytest.raises(ResourceError, match="overcommitted"):
            ResourceVector(sram_kb=1) - ResourceVector(sram_kb=2)

    def test_scalar_multiplication(self):
        assert 2 * ResourceVector(alus=3) == ResourceVector(alus=6)

    def test_negative_scale_rejected(self):
        with pytest.raises(ResourceError):
            ResourceVector(alus=1) * -1

    def test_total(self):
        vectors = [ResourceVector(sram_kb=1), ResourceVector(sram_kb=2, alus=1)]
        assert total(vectors) == ResourceVector(sram_kb=3, alus=1)
        assert total([]) == ZERO


class TestComparisons:
    def test_fits_within(self):
        assert ResourceVector(sram_kb=1).fits_within(ResourceVector(sram_kb=2))
        assert not ResourceVector(sram_kb=3).fits_within(ResourceVector(sram_kb=2))

    def test_fits_within_missing_kind(self):
        assert not ResourceVector(tcam_kb=1).fits_within(ResourceVector(sram_kb=5))

    def test_deficit(self):
        demand = ResourceVector(sram_kb=5, alus=1)
        capacity = ResourceVector(sram_kb=2, alus=4)
        assert demand.deficit_against(capacity) == {"sram_kb": 3}

    def test_utilization(self):
        demand = ResourceVector(sram_kb=5, alus=1)
        capacity = ResourceVector(sram_kb=10, alus=2)
        assert demand.utilization_of(capacity) == pytest.approx(0.5)

    def test_utilization_of_absent_kind_is_infinite(self):
        assert ResourceVector(tcam_kb=1).utilization_of(ResourceVector(sram_kb=1)) == float("inf")

    def test_equality_ignores_zero_entries(self):
        assert ResourceVector(sram_kb=1) == ResourceVector(sram_kb=1, alus=0)

    def test_hashable(self):
        assert hash(ResourceVector(sram_kb=1)) == hash(ResourceVector(sram_kb=1.0))

    def test_hash_is_process_stable(self):
        """Pinned values: the digest must not depend on PYTHONHASHSEED
        (builtin hash() of the kind strings is salted per process, which
        would make placement digests diverge across runs — the one real
        bug the static source audit caught before tests/test_determinism.py
        replaced it)."""
        assert hash(ResourceVector(sram_kb=1)) == 7848347961845804144
        assert hash(ResourceVector(sram_kb=1.5, stages=2)) == 1324567763127070160
        assert hash(ResourceVector()) == hash(ResourceVector(alus=0))

    def test_projection(self):
        vector = ResourceVector(sram_kb=1, tcam_kb=2)
        assert vector.scaled_to_kinds(frozenset({"sram_kb"})) == ResourceVector(sram_kb=1)

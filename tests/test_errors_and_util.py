"""Error hierarchy and shared-utility tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import errors
from repro.util import _avalanche, stable_digest, stable_hash


def sixteen_byte_loop(parts):
    """``stable_hash`` as it is defined: FNV-1a over every byte of each
    part's 16-byte little-endian encoding, then the finalizer."""
    value = 0xCBF29CE484222325
    for part in parts:
        for byte in part.to_bytes(16, "little", signed=False):
            value ^= byte
            value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return _avalanche(value)


class TestErrorHierarchy:
    def test_all_errors_derive_from_flexnet_error(self):
        error_types = [
            value
            for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, Exception)
        ]
        for error_type in error_types:
            assert issubclass(error_type, errors.FlexNetError)

    def test_placement_is_compilation_error(self):
        assert issubclass(errors.PlacementError, errors.CompilationError)

    def test_access_control_is_isolation_error(self):
        assert issubclass(errors.AccessControlError, errors.IsolationError)

    def test_parse_error_location_formatting(self):
        error = errors.ParseError("bad token", line=3, column=7)
        assert "line 3" in str(error) and "col 7" in str(error)
        assert error.line == 3 and error.column == 7

    def test_parse_error_without_location(self):
        error = errors.ParseError("bad token")
        assert str(error) == "bad token"

    def test_catching_base_class_at_boundaries(self):
        with pytest.raises(errors.FlexNetError):
            raise errors.ReconfigError("x")


class TestStableHash:
    def test_64_bit_range(self):
        for key in [(0,), (1, 2, 3), (2**64 - 1,), (2**127,)]:
            value = stable_hash(key)
            assert 0 <= value < 2**64

    def test_empty_tuple(self):
        assert stable_hash(()) == stable_hash(())

    def test_distinct_inputs_distinct_outputs(self):
        values = {stable_hash((i,)) for i in range(1000)}
        assert len(values) == 1000  # no collisions at this scale

    def test_arity_sensitivity(self):
        assert stable_hash((1,)) != stable_hash((1, 0))

    def test_pinned_values_unchanged_by_refactor(self):
        """stable_hash seeded PR 5's consensus constants; the shared
        FNV/avalanche refactor must keep it byte-identical forever."""
        assert stable_hash(()) == 17280346270528514342
        assert stable_hash((1, 2, 3)) == 6591469933116945010


    @pytest.mark.parametrize(
        "part",
        [
            0,
            1,
            2**32 - 1,
            1 << 120,
            2**128 - 1,
            # interior zero bytes: only the *trailing* run may be folded
            0x0100,
            0xFF00000000FF,
            0x01000000_00000000_00000000_00000001,
            (1 << 64) + (1 << 8),
        ],
    )
    def test_matches_the_sixteen_byte_loop_at_the_edges(self, part):
        assert stable_hash((part,)) == sixteen_byte_loop((part,))
        assert stable_hash((7, part, part)) == sixteen_byte_loop((7, part, part))

    @given(st.lists(st.integers(min_value=0, max_value=2**128 - 1), max_size=5))
    def test_matches_the_sixteen_byte_loop(self, parts):
        assert stable_hash(tuple(parts)) == sixteen_byte_loop(parts)

    @pytest.mark.parametrize("part", [-1, 2**128, -(2**130), 2**200])
    def test_out_of_range_parts_overflow(self, part):
        with pytest.raises(OverflowError):
            sixteen_byte_loop((part,))
        with pytest.raises(OverflowError):
            stable_hash((1, part))

    def test_bools_hash_as_their_ints(self):
        assert stable_hash((True, False)) == stable_hash((1, 0))


class TestStableDigest:
    def test_pinned_values(self):
        assert stable_digest(1) == 15695820435484873492
        assert stable_digest("flexnet") == 14486085476925158928
        assert stable_digest(("a", 1, 2.5, None, True)) == 10179520702734513025

    def test_type_tags_prevent_cross_type_collisions(self):
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest(1) != stable_digest(True)
        assert stable_digest("1") != stable_digest(1)
        assert stable_digest(b"x") != stable_digest("x")
        assert stable_digest(None) != stable_digest(0)

    def test_length_prefix_prevents_concatenation_collisions(self):
        assert stable_digest(("ab", "c")) != stable_digest(("a", "bc"))
        assert stable_digest((1,), (2,)) != stable_digest((1, 2))

    def test_nested_structures_and_negatives(self):
        assert stable_digest([1, [2, 3]]) == stable_digest((1, (2, 3)))
        assert stable_digest(-1) != stable_digest(1)
        assert 0 <= stable_digest(-(2**70)) < 2**64

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot encode"):
            stable_digest(object())

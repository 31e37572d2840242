"""State encoding selection and conversion tests (E13 foundations)."""

import pytest

from repro.compiler.state_encoding import (
    ASSOCIATIVE,
    convert,
    decode,
    encode,
    select_encoding,
)
from repro.errors import MigrationError
from repro.lang import builder as b
from repro.lang.ir import MapDef
from repro.lang.maps import MapSnapshot
from repro.lang.types import BitsType
from repro.targets import drmt_switch, host, rmt_switch, smartnic, tiled_switch
from repro.targets.base import StateEncoding


def map_def():
    return MapDef(
        name="m",
        key_fields=(b.field("ipv4.src"),),
        value_type=BitsType(64),
        max_entries=1024,
    )


def snapshot(count=10):
    return MapSnapshot(
        map_name="m",
        entries=tuple(((i,), i * 100) for i in range(1, count + 1)),
        version=1,
    )


class TestSelection:
    def test_rmt_uses_registers(self):
        assert select_encoding(map_def(), rmt_switch("d")) is StateEncoding.REGISTER

    def test_drmt_uses_stateful_tables(self):
        assert select_encoding(map_def(), drmt_switch("d")) is StateEncoding.STATEFUL_TABLE

    def test_host_uses_kernel_maps(self):
        assert select_encoding(map_def(), host("d")) is StateEncoding.KERNEL_MAP

    def test_nic_uses_soc_memory(self):
        assert select_encoding(map_def(), smartnic("d")) is StateEncoding.SOC_MEMORY

    def test_tiles_use_stateful_tables(self):
        assert select_encoding(map_def(), tiled_switch("d")) is StateEncoding.STATEFUL_TABLE


class TestEncodeDecode:
    @pytest.mark.parametrize("encoding", sorted(ASSOCIATIVE, key=lambda e: e.value))
    def test_associative_roundtrip_lossless(self, encoding):
        original = snapshot(50)
        encoded = encode(original, encoding)
        decoded = decode(encoded, version=1)
        assert dict(decoded.entries) == dict(original.entries)

    def test_register_encoding_hashes_keys(self):
        encoded = encode(snapshot(10), StateEncoding.REGISTER, register_slots=4096)
        assert encoded.register_slots == 4096
        assert len(encoded) == 10  # no collisions at this density
        # keys become indexes < slots
        assert all(key[0] < 4096 for key, _ in encoded.entries)

    def test_register_encoding_collides_when_dense(self):
        encoded = encode(snapshot(500), StateEncoding.REGISTER, register_slots=16)
        assert encoded.collisions > 0
        assert len(encoded) <= 16


class TestConversion:
    def test_associative_to_associative_lossless(self):
        arrived, report = convert(
            snapshot(20), StateEncoding.STATEFUL_TABLE, StateEncoding.KERNEL_MAP
        )
        assert report.lossless
        assert report.entries_out == 20
        assert dict(arrived.entries) == dict(snapshot(20).entries)

    def test_associative_to_register_not_lossless_flagged(self):
        _, report = convert(
            snapshot(20), StateEncoding.STATEFUL_TABLE, StateEncoding.REGISTER,
            register_slots=4096,
        )
        assert not report.lossless

    def test_register_overflow_raises(self):
        with pytest.raises(MigrationError, match="register slots"):
            convert(
                snapshot(100), StateEncoding.STATEFUL_TABLE, StateEncoding.REGISTER,
                register_slots=16,
            )

    def test_register_source_carries_index_keys(self):
        arrived, report = convert(
            snapshot(10), StateEncoding.REGISTER, StateEncoding.STATEFUL_TABLE,
            register_slots=1024,
        )
        assert report.entries_out == 10
        # keys are now indexes, not original sources
        assert set(dict(arrived.entries).values()) == {i * 100 for i in range(1, 11)}

"""Property-based tests for state encoding conversions and hashing."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.compiler.state_encoding import ASSOCIATIVE, convert, decode, encode
from repro.lang.maps import MapSnapshot
from repro.simulator import fastpath
from repro.targets.base import StateEncoding
from repro.util import stable_hash

entries = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=2**32 - 1)),
    st.integers(min_value=0, max_value=2**63),
    max_size=40,
)
associative = st.sampled_from(sorted(ASSOCIATIVE, key=lambda e: e.value))


def snapshot_of(contents):
    return MapSnapshot(map_name="m", entries=tuple(contents.items()), version=1)


@given(entries, associative)
def test_associative_encode_decode_identity(contents, encoding):
    snapshot = snapshot_of(contents)
    assert decode(encode(snapshot, encoding)).as_dict() == contents


@given(entries, associative, associative)
def test_associative_conversion_lossless(contents, source, destination):
    arrived, report = convert(snapshot_of(contents), source, destination)
    assert report.lossless
    assert arrived.as_dict() == contents


@given(entries)
def test_register_encoding_bounded_by_slots(contents):
    encoded = encode(snapshot_of(contents), StateEncoding.REGISTER, register_slots=16)
    assert len(encoded) <= 16
    assert len(encoded) + encoded.collisions == len(contents)


@given(st.tuples(st.integers(min_value=0, max_value=2**64)))
def test_stable_hash_deterministic(key):
    assert stable_hash(key) == stable_hash(key)


@given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=2, max_size=6))
def test_stable_hash_order_sensitive(parts):
    forward = stable_hash(tuple(parts))
    backward = stable_hash(tuple(reversed(parts)))
    if parts != list(reversed(parts)):
        assert forward != backward


@given(st.sets(st.integers(min_value=0, max_value=2**32), min_size=50, max_size=200))
def test_stable_hash_low_bits_spread(values):
    """The data plane computes hash % small_n; low bits must carry
    entropy (the FNV-without-finalizer bug this guards against)."""
    buckets = {stable_hash((v,)) % 4 for v in values}
    assert len(buckets) >= 3


#: The hash the generated functions call: ``stable_hash`` behind a memo.
H = fastpath._NAMESPACE["H"]  # noqa: SLF001
parts = st.one_of(st.booleans(), st.integers(min_value=0, max_value=2**128 - 1))


@given(st.lists(parts, max_size=5))
@example([0])
@example([2**128 - 1, 0])
@example([True, False, 1])
def test_the_hash_memo_is_stable_hash(values):
    key = tuple(values)
    assert H(key) == stable_hash(key)
    hits = H.cache_info().hits
    assert H(key) == stable_hash(key)  # now answered from the memo
    assert H.cache_info().hits == hits + 1


@given(
    st.lists(parts, max_size=3),
    st.one_of(
        st.integers(max_value=-1),
        st.integers(min_value=2**128, max_value=2**136 - 1),  # a 17-byte part
    ),
    st.integers(min_value=0, max_value=3),
)
def test_the_hash_memo_refuses_what_stable_hash_refuses(values, bad, at):
    """Nothing is remembered for an input that raises, so it raises on
    every call: first sight, again, and next to a tuple the memo holds."""
    H(tuple(values))
    key = (*values[:at], bad, *values[at:])
    for _ in range(2):
        with pytest.raises(OverflowError):
            H(key)
    with pytest.raises(OverflowError):
        stable_hash(key)

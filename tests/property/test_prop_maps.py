"""Property-based tests for map state: snapshots, merges, truncation,
and FlexPath's inlined map ops against ``MapState``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.base import standard_builder
from repro.lang import builder as b
from repro.lang.ir import MapDef, Persistence
from repro.lang.maps import MapFullError, MapState
from repro.lang.types import BitsType
from repro.simulator.packet import make_packet
from repro.simulator.pipeline_exec import ProgramInstance

keys = st.tuples(st.integers(min_value=0, max_value=2**32 - 1))
values = st.integers(min_value=0, max_value=2**64 - 1)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(0)),
    ),
    max_size=60,
)


def make_state(width=64, entries=10_000, persistence=Persistence.DURABLE):
    return MapState(
        MapDef(
            name="m",
            key_fields=(b.field("h.k"),),
            value_type=BitsType(width),
            max_entries=entries,
            persistence=persistence,
        )
    )


@given(operations)
def test_matches_python_dict_semantics(ops):
    state = make_state()
    reference = {}
    for op, key, value in ops:
        if op == "put":
            state.put(key, value)
            reference[key] = value
        else:
            state.delete(key)
            reference.pop(key, None)
    assert dict(state.items()) == reference
    for key in reference:
        assert state.get(key) == reference[key]


@given(operations)
def test_snapshot_restore_identity(ops):
    state = make_state()
    for op, key, value in ops:
        if op == "put":
            state.put(key, value)
        else:
            state.delete(key)
    clone = make_state()
    clone.restore(state.snapshot())
    assert dict(clone.items()) == dict(state.items())


@given(st.integers(min_value=1, max_value=63), values)
def test_values_truncated_to_declared_width(width, value):
    state = make_state(width=width)
    state.put((1,), value)
    assert state.get((1,)) == value & ((1 << width) - 1)


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=30))
def test_ephemeral_never_exceeds_capacity(entries):
    state = make_state(entries=8, persistence=Persistence.EPHEMERAL)
    for key, value in entries:
        state.put(key, value)
        assert len(state) <= 8


@given(st.lists(st.tuples(keys, st.integers(min_value=0, max_value=1000)), max_size=30),
       st.lists(st.tuples(keys, st.integers(min_value=0, max_value=1000)), max_size=30))
def test_merge_sum_is_additive(first_entries, second_entries):
    first = make_state()
    second = make_state()
    expected = {}
    for key, value in first_entries:
        first.put(key, value)
    for key, value in dict(first_entries).items():
        expected[key] = value
    for key, value in second_entries:
        second.put(key, value)
    for key, value in dict(second_entries).items():
        expected[key] = expected.get(key, 0) + value
    first.merge(second.snapshot(), combine="sum")
    assert dict(first.items()) == {k: v for k, v in expected.items()}


def tiny_map_program(persistence: str):
    """One packet, one op on a 3-entry u8 map keyed by ``ipv4.src``:
    ``meta.op`` 0 stores ``meta.val``, 1 adds it to what the key holds
    (the ``put(k, get(k) + v)`` FlexPath builds the key for once), 2
    deletes, and anything else reads into ``meta.out``."""
    builder = standard_builder(f"tiny_{persistence}")
    builder.map("m", keys=["ipv4.src"], value_type="u8", max_entries=3, persistence=persistence)

    def op(code, then, otherwise):
        return [b.if_(b.binop("==", "meta.op", code), then, otherwise)]

    add = b.binop("+", b.map_get("m", "ipv4.src"), "meta.val")
    builder.function(
        "ops",
        op(0, [b.map_put("m", "ipv4.src", "meta.val")],
           op(1, [b.map_put("m", "ipv4.src", add)],
              op(2, [b.map_delete("m", "ipv4.src")],
                 [b.assign("meta.out", b.map_get("m", "ipv4.src"))]))),
    )
    builder.apply("ops")
    return builder.build()


TINY = {name: tiny_map_program(name) for name in ("durable", "ephemeral")}
map_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=300),
    ),
    max_size=40,
)


def run_ops(program, fast: bool, ops):
    instance = ProgramInstance(program, fastpath=fast)
    seen = []
    for code, key, value in ops:
        packet = make_packet(key, 9)
        packet.meta.update(op=code, val=value)
        try:
            result = instance.process(packet, 0.0)
        except MapFullError as error:
            seen.append(str(error))
        else:
            seen.append((result.ops, packet.meta.get("out")))
    return seen, instance.maps.state("m")


@pytest.mark.parametrize("persistence", sorted(TINY))
@given(ops=map_ops)
def test_inline_map_ops_match_map_state(persistence, ops):
    """Per packet the same outcome (a durable map's ``MapFullError`` on
    the same packet, the same read), and afterwards the same entries in
    the same LRU order — so an ephemeral map evicted the same victims —
    and the same mutation count."""
    reference, ref_state = run_ops(TINY[persistence], False, ops)
    inline, state = run_ops(TINY[persistence], True, ops)
    assert inline == reference
    assert state.snapshot().entries == ref_state.snapshot().entries
    assert state.mutation_count == ref_state.mutation_count

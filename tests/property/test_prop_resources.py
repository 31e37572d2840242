"""Property-based tests for ResourceVector algebra."""

import operator

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import ResourceError
from repro.targets.resources import ZERO, ResourceVector

kinds = st.sampled_from(["sram_kb", "tcam_kb", "alus", "processors", "luts"])
amounts = st.dictionaries(kinds, st.floats(min_value=0, max_value=1e6), max_size=5)
vectors = amounts.map(ResourceVector)


@given(vectors, vectors)
def test_addition_commutative(a, b):
    assert a + b == b + a


@given(vectors, vectors, vectors)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(vectors)
def test_zero_identity(a):
    assert a + ZERO == a


@given(vectors, vectors)
def test_add_then_subtract_roundtrip(a, b):
    assert (a + b) - b == a


@given(vectors, vectors)
def test_sum_dominates_parts(a, b):
    total = a + b
    assert a.fits_within(total)
    assert b.fits_within(total)


@given(vectors)
def test_fits_within_reflexive(a):
    assert a.fits_within(a)


@given(vectors, vectors)
def test_deficit_empty_iff_fits(a, b):
    fits = a.fits_within(b)
    deficit = a.deficit_against(b)
    assert fits == (not deficit)


@given(vectors, st.floats(min_value=0, max_value=100))
def test_scaling_distributes(a, factor):
    doubled = a * factor
    for kind in a:
        assert abs(doubled[kind] - a[kind] * factor) < 1e-6 * max(1.0, a[kind] * factor)


@given(vectors)
def test_utilization_of_self_at_most_one(a):
    if not a.is_zero():
        assert a.utilization_of(a) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# The arithmetic against its earlier formulas. Each oracle walks the union
# of both kind sets and builds its result through the public constructor;
# the vector adds in one pass over two dicts and skips re-validation. The
# floats must agree with ``==``, and the kinds come out in a fixed order.
# ---------------------------------------------------------------------------

few_kinds = st.sampled_from(["sram_kb", "tcam_kb", "alus"])
quantities = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=0, max_value=1e-8),
    st.floats(min_value=0, max_value=1e6),
)
sparse = st.dictionaries(few_kinds, quantities, max_size=3).map(ResourceVector)


def oracle_add(a, b):
    return ResourceVector({k: a[k] + b[k] for k in set(a) | set(b)})


def oracle_sub(a, b):
    result = {}
    for k in set(a) | set(b):
        remaining = a[k] - b[k]
        if remaining < -1e-9:
            raise ResourceError(f"resource {k!r} overcommitted")
        result[k] = max(remaining, 0.0)
    return ResourceVector(result)


def oracle_fits(a, capacity):
    return all(q <= capacity[k] + 1e-9 for k, q in a.items())


def oracle_deficit(a, capacity):
    return {k: q - capacity[k] for k, q in a.items() if q > capacity[k] + 1e-9}


def oracle_utilization(a, capacity):
    fractions = []
    for k, q in a.items():
        if capacity[k] <= 0:
            return float("inf")
        fractions.append(q / capacity[k])
    return max(fractions, default=0.0)


def outcome(operation, *args):
    try:
        return operation(*args)
    except ResourceError:
        return ResourceError


@given(sparse, sparse)
def test_sum_matches_the_union_formula(a, b):
    result, expected = a + b, oracle_add(a, b)
    assert dict(result) == dict(expected)
    assert hash(result) == hash(expected)
    assert list(result) == [*a, *(k for k in b if k not in a)]


@given(sparse, sparse, st.floats(min_value=0, max_value=1.0000001))
def test_difference_matches_the_union_formula(a, b, share):
    part = ResourceVector({k: q * share for k, q in a.items()})
    for left, right in ((a, b), (a, part), (a + b, b)):
        result, expected = outcome(operator.sub, left, right), outcome(oracle_sub, left, right)
        if expected is ResourceError:
            assert result is ResourceError
            continue
        assert dict(result) == dict(expected)
        assert hash(result) == hash(expected)
        assert list(result) == [k for k in left if k in result]


@given(sparse, sparse)
def test_comparisons_match_their_formulas(a, capacity):
    assert a.fits_within(capacity) == oracle_fits(a, capacity)
    assert a.deficit_against(capacity) == oracle_deficit(a, capacity)
    assert a.utilization_of(capacity) == oracle_utilization(a, capacity)


@given(sparse, few_kinds)
def test_a_kind_missing_from_the_capacity(a, kind):
    assume(kind in a)
    capacity = ResourceVector({k: q for k, q in a.items() if k != kind})
    assert a.fits_within(capacity) == oracle_fits(a, capacity)
    assert a.deficit_against(capacity) == oracle_deficit(a, capacity)
    assert a.utilization_of(capacity) == float("inf")


@given(st.dictionaries(few_kinds, quantities, max_size=3))
def test_constructor_drops_zeros(amounts):
    vector = ResourceVector(amounts)
    assert dict(vector) == {k: float(q) for k, q in amounts.items() if q}


@given(st.dictionaries(few_kinds, quantities, min_size=1, max_size=3), few_kinds,
       st.floats(min_value=1e-12, max_value=1e6))
def test_constructor_rejects_negatives(amounts, kind, magnitude):
    with pytest.raises(ResourceError, match="negative"):
        ResourceVector({**amounts, kind: -magnitude})

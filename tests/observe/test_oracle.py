"""The equivalence oracle: ``divergences`` walks two observations in
one fixed order and names where they differ, at least as strictly as
comparing their canonical JSON."""

import json

import pytest

from repro.apps import base_infrastructure
from repro.lang.ir import ActionCall
from repro.observe.report import Divergence, divergences
from repro.simulator import fastpath
from repro.simulator.packet import make_packet
from repro.simulator.tables import Rule, ternary


def observation(**overrides):
    base = {
        "packets": [{"verdict": "forward", "ops": 12} for _ in range(5)],
        "maps": {"flows": {(1, 2): 3}},
        "tables": {"acl": {"hit_counts": [1, 0], "miss_count": 4}},
    }
    base.update(overrides)
    return base


def test_equal_values_have_no_divergence():
    assert divergences(observation(), observation()) == []


def test_walk_order_puts_the_earliest_difference_first():
    actual = observation(maps={"flows": {(1, 2): 4}})
    actual["packets"][3]["ops"] = 13
    found = divergences(observation(), actual)
    assert [d.path for d in found] == ["packets[3].ops", "maps.flows[(1, 2)]"]
    assert str(found[0]) == "packets[3].ops: expected 12, got 13"


@pytest.mark.parametrize(
    "expected,actual,path",
    [
        ({"a": 1, "b": 2}, {"a": 1}, "b"),
        ({"a": 1}, {"a": 1, "b": 2}, "b"),
    ],
    ids=["missing-in-actual", "missing-in-expected"],
)
def test_a_key_missing_on_either_side(expected, actual, path):
    (found,) = divergences(expected, actual)
    assert found.path == path
    assert "(missing)" in str(found)


def test_a_length_mismatch_diverges_at_the_sequence():
    found = divergences({"xs": [1, 2, 3]}, {"xs": [1, 2]})
    assert [str(d) for d in found] == ["xs: expected 3 items, got 2 items"]


@pytest.mark.parametrize(
    "expected,actual",
    [(1, 1.0), (True, 1), (0.0, -0.0)],
    ids=["int-float", "bool-int", "signed-zero"],
)
def test_leaves_are_at_least_as_strict_as_canonical_json(expected, actual):
    assert json.dumps(expected) != json.dumps(actual)
    assert divergences({"x": expected}, {"x": actual}) == [Divergence("x", expected, actual)]


def test_a_tuple_and_a_list_diverge_though_their_json_is_one():
    # A packet's digests are tuples: a list in their place is a fault
    # that ``==`` sees and canonical JSON does not.
    assert divergences({"x": (1, 2)}, {"x": [1, 2]}) == [Divergence("x", (1, 2), [1, 2])]


@pytest.mark.parametrize(
    "expected,actual,paths",
    [
        ({1: 0}, {True: 0}, ["[1]", "[True]"]),
        ({1: 0}, {1.0: 0}, ["[1]", "[1.0]"]),
        ({0.0: 0}, {-0.0: 0}, ["[0.0]", "[-0.0]"]),
    ],
    ids=["int-bool", "int-float", "signed-zero"],
)
def test_dict_keys_are_at_least_as_strict_as_canonical_json(expected, actual, paths):
    assert json.dumps(expected) != json.dumps(actual)
    found = divergences(expected, actual)
    assert [d.path for d in found] == paths
    assert [str(d) for d in found] == [
        f"{paths[0]}: expected 0, got (missing)",
        f"{paths[1]}: expected (missing), got 0",
    ]


def test_nan_equals_itself_as_in_canonical_json():
    assert divergences([float("nan")], [float("nan")]) == []


def test_the_walk_stops_at_twenty():
    found = divergences(list(range(50)), list(range(1, 51)))
    assert [d.path for d in found] == [f"[{index}]" for index in range(20)]


def test_differential_check_names_the_first_divergent_packet():
    program = base_infrastructure()
    packets = [make_packet(0x0A000001, 0x0A000002) for _ in range(60)]

    def mutate(reference, fast, index):
        if index == 40:  # the fast arm alone starts dropping everything
            fast.rules["acl"].insert(
                Rule(
                    matches=(ternary(0, 0), ternary(0, 0)),
                    action=ActionCall("drop"),
                    priority=1 << 16,
                )
            )

    found = fastpath.differential_check(program, packets, mutate=mutate)
    assert found
    assert found[0].path.startswith("packets[40].")
    assert all(d.path.startswith(("packets[4", "packets[5")) for d in found)

"""Soundness of the FlexVet parallelism classifier.

FlexVet's verdicts are static promises about runtime behaviour, so for
every bundled program the dynamics must be contained in the statics:

* every map the interpreter actually mutates is in the classifier's
  stateful (``per_flow`` ∪ ``cross_flow``) set;
* for a ``per_flow`` map, every runtime access key is built from the
  claimed partition fields of the packet being processed (the property
  a FlexScale shard relies on to own a slice of the field space);
* every shardable affinity group is reorder-safe across its partition
  key: regrouping a run's packets by the group's ``partition_fields``
  values leaves the group's maps as the arrival order leaves them and,
  when every other group's key contains this group's, changes no
  per-packet outcome and no end state.
"""

from __future__ import annotations

import copy

import pytest

from repro.analysis.corpus import bundled_programs
from repro.analysis.vet import StateClass, vet
from repro.apps.base import standard_builder
from repro.lang import builder as b
from repro.observe.report import divergences
from repro.simulator import fastpath
from repro.simulator.pipeline_exec import ProgramInstance

PROGRAMS = bundled_programs()
PROGRAM_IDS = [label for label, _ in PROGRAMS]


class _Recorder:
    """Wraps one MapState, logging every runtime access key."""

    def __init__(self, state, log):
        self._state = state
        self._log = log

    def get(self, key, default=0):
        self._log.append((self._state.name, "read", tuple(key)))
        return self._state.get(key, default)

    def put(self, key, value):
        self._log.append((self._state.name, "write", tuple(key)))
        return self._state.put(key, value)

    def delete(self, key):
        self._log.append((self._state.name, "write", tuple(key)))
        return self._state.delete(key)

    def __getattr__(self, name):
        return getattr(self._state, name)

    def __contains__(self, key):
        return key in self._state

    def __len__(self):
        return len(self._state)


def recorded_run(program, packets, seed=13):
    """Execute ``packets`` through the interpreter with every map access
    recorded; returns [(packet, [(map, kind, key), ...]), ...]."""
    instance = ProgramInstance(program)
    fastpath.seeded_rules(program, instance, seed=seed)
    log: list = []
    states = instance.maps._states  # noqa: SLF001 - test instrumentation
    for name in list(states):
        states[name] = _Recorder(states[name], log)
    observed = []
    for index, packet in enumerate(packets):
        log.clear()
        initial_fields = dict(packet.fields)
        instance.process(packet, now=index * 1e-4)
        observed.append((initial_fields, list(log)))
    return observed


def field_key(dotted: str) -> tuple[str, str]:
    header, _, field = dotted.partition(".")
    return (header, field)


@pytest.mark.parametrize("label,program", PROGRAMS, ids=PROGRAM_IDS)
def test_runtime_writes_contained_in_static_stateful(label, program):
    report = vet(program)
    stateful = set(report.stateful_maps)
    observed = recorded_run(program, fastpath.seeded_corpus(200, seed=5))
    written = {
        name
        for _, accesses in observed
        for name, kind, _ in accesses
        if kind == "write"
    }
    assert written <= stateful, (
        f"{label}: runtime wrote {sorted(written - stateful)} "
        f"outside the static stateful set {sorted(stateful)}"
    )


@pytest.mark.parametrize("label,program", PROGRAMS, ids=PROGRAM_IDS)
def test_per_flow_keys_are_the_claimed_partition_fields(label, program):
    report = vet(program)
    arity = {m.name: len(m.key_fields) for m in program.maps}
    # Check maps whose whole key signature is packet fields — for those
    # partition_fields aligns positionally with the runtime key.
    checkable = {
        v.name: [field_key(f) for f in v.partition_fields]
        for v in report.maps
        if v.state_class is StateClass.PER_FLOW
        and len(v.partition_fields) == arity[v.name]
    }
    observed = recorded_run(program, fastpath.seeded_corpus(200, seed=9))
    checked = 0
    for initial_fields, accesses in observed:
        for name, _, key in accesses:
            fields = checkable.get(name)
            if fields is None or len(fields) != len(key):
                continue
            for part, field in zip(key, fields):
                # An invisible header reads as 0 in the interpreter, so
                # the key part is either the ingress field value or 0.
                assert part in (initial_fields.get(field, 0), 0), (
                    f"{label}: map {name!r} keyed by {part!r} at position "
                    f"{field}, packet carried {initial_fields.get(field)!r}"
                )
                checked += 1
    if checkable:
        assert checked, f"{label}: no per-flow accesses exercised"


def reorder_divergences(program, key_fields, maps=None):
    """Run the interpreter over a tiled flow mix in arrival order and
    again stably regrouped by the packets' ``key_fields`` values (each
    packet keeping its own arrival time); returns where the regrouped
    run's observation, packets by index, diverges from the arrival
    run's — only in the end state of ``maps`` when they are given."""
    # A few flows interleaved, so every flow-keyed map entry is touched
    # repeatedly and regrouping moves almost every packet.
    flows = fastpath.seeded_corpus(8, seed=21)
    packets = [flows[i % len(flows)] for i in range(160)]
    regrouped = sorted(
        range(len(packets)),
        key=lambda i: tuple(packets[i].fields.get(f, 0) for f in key_fields),
    )  # stable: arrival order survives inside a flow group
    assert regrouped != list(range(len(packets)))

    def observed(order):
        instance = ProgramInstance(program)
        fastpath.seeded_rules(program, instance, seed=17)
        outcomes = {}
        for index in order:
            packet = copy.deepcopy(packets[index])
            outcomes[index] = (packet, instance.process(packet, index * 1e-4))
        seen = fastpath.observation(instance, [outcomes[i] for i in range(len(packets))])
        return seen if maps is None else {name: seen["maps"][name] for name in maps}

    return divergences(observed(range(len(packets))), observed(regrouped))


def whole_observation_holds(group, groups) -> bool:
    """Whether regrouping by ``group``'s key keeps every other group's
    order: it does when each other group's partition fields contain
    this group's, since a stable sort by a coarser key keeps arrival
    order within every finer one (a pinned group has none)."""
    own = set(group.partition_fields)
    return all(
        own <= set(other.partition_fields) for other in groups if other is not group
    )


@pytest.mark.parametrize("label,program", PROGRAMS, ids=PROGRAM_IDS)
def test_batch_safe_programs_pass_differential_check(label, program):
    """The differential is arrival order against the order one shard of
    a shardable affinity group sees (packets grouped by the group's
    partition fields), both on the interpreter: the split the planner
    and admission rely on is safe. Where the regrouping keeps every
    other group's order too, every packet's outcome and all end state
    are compared; otherwise only this group's own maps."""
    groups = vet(program).groups
    shardable = [group for group in groups if group.shardable]
    if not shardable:
        pytest.skip(f"{label} has no shardable affinity group")
    for group in shardable:
        assert group.partition_fields, f"{label}: nothing to regroup by"
        found = reorder_divergences(
            program,
            [field_key(f) for f in group.partition_fields],
            maps=None if whole_observation_holds(group, groups) else group.maps,
        )
        assert not found, "\n".join(str(d) for d in found[:5])


def test_reordering_a_cross_flow_program_is_caught():
    """The control: a program FlexVet refuses (every packet stamps a
    shared arrival counter into its metadata) fails the same property."""
    builder = standard_builder("arrival_order")
    builder.map("arrivals", keys=["ipv4.proto"], value_type="u64", max_entries=4)
    bucket = b.hash_of("ipv4.src", modulus=1)
    builder.function(
        "stamp",
        [
            b.let("n", "u64", b.map_get("arrivals", bucket)),
            b.map_put("arrivals", bucket, b.binop("+", "n", 1)),
            b.assign("meta.arrival", "n"),
        ],
    )
    builder.apply("stamp")
    program = builder.build()
    assert not any(group.shardable for group in vet(program).groups)
    found = reorder_divergences(program, [("ipv4", "src")])
    assert found
    assert {d.path.partition(".")[2] for d in found} == {"meta.arrival"}


def test_classifier_is_deterministic():
    """Same program → identical report (a meta-check: the classifier
    itself must not exhibit the nondeterminism it polices)."""
    for label, program in PROGRAMS:
        assert vet(program).to_dict() == vet(program).to_dict(), label

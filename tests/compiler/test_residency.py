"""``Residency`` carries each total once: a commit takes the total its
feasibility question reached, and a target derives each demand once per
element profile."""

import collections

from perf.workloads import COMPOSED_CYCLE
from repro import apps
from repro.compiler.fungibility import Residency, device_feasible
from repro.compiler.plan import DeviceSpec
from repro.scale import e20_net
from repro.targets import drmt_switch, host, smartnic
from repro.targets.base import Target
from repro.targets.resources import ResourceVector, total


def make_devices(used=None):
    return [
        DeviceSpec("h1", host("h1"), used=used or ResourceVector()),
        DeviceSpec("nic1", smartnic("nic1")),
        DeviceSpec("sw1", drmt_switch("sw1", sram_mb=4.0)),
    ]


def place_each(residency, devices, ask):
    """Commit every element alone to the first device that takes it,
    asking ``feasible`` first only when ``ask``. A separate residency
    picks the device, so every run commits the same members in the same
    order."""
    chooser = Residency(residency._program, residency._certificate, devices)  # noqa: SLF001
    for element in residency.order:
        spec = next(s for s in devices if chooser.feasible(s, [element]) is not False)
        chooser.commit(spec, [element])
        if ask:
            assert residency.feasible(spec, [element]) is not False
        residency.commit(spec, [element])


def bits(vector):
    return list(vector.items())


class TestCommitTakesTheQuestionsTotal:
    def test_asked_and_unasked_commits_agree_bit_for_bit(self, base_program, base_certificate):
        devices = make_devices()
        asked = Residency(base_program, base_certificate, devices)
        place_each(asked, devices, ask=True)
        unasked = Residency(base_program, base_certificate, devices)
        place_each(unasked, devices, ask=False)
        assert asked.placement == unasked.placement
        for spec in devices:
            assert bits(asked.demand[spec.name]) == bits(unasked.demand[spec.name])
            assert bits(asked._total[spec.name]) == bits(unasked._total[spec.name])  # noqa: SLF001

    def test_a_stale_question_is_not_taken(self, base_program, base_certificate):
        devices = make_devices()
        spec = devices[0]
        first, second = "count_flow", "flow_counts"
        residency = Residency(base_program, base_certificate, devices)
        assert residency.feasible(spec, [first]) is not False
        residency.commit(spec, [second])  # a different cluster: recomputed
        residency.commit(spec, [first])
        expected = ResourceVector()
        for element in (second, first):
            expected = expected + residency.sized(spec, element)[0]
        assert bits(residency.demand[spec.name]) == bits(expected)

    def test_a_shared_device_sums_its_own_demand_apart(self, base_program, base_certificate):
        """Another datapath leaves room for the first three elements: each
        question answers what the whole-set reference answers, and the
        charged demand is summed apart from the running total."""
        target = host("h1")
        order = Residency(base_program, base_certificate, []).order
        room = total([target.demand(base_certificate.profile(e)) for e in order[:3]])
        used = target.capacity - room
        devices = make_devices(used=used)
        spec = devices[0]
        residency = Residency(base_program, base_certificate, devices)
        committed = []
        for element in order:
            reference = device_feasible(
                spec.target, [*committed, element], base_certificate, base_program,
                already_used=used,
            )
            answer = residency.feasible(spec, [element])
            assert (answer is not False) == (reference is not False)
            if answer is not False:
                residency.commit(spec, [element])
                committed.append(element)
        assert 3 <= len(committed) < len(order)

        charged, running = ResourceVector(), used
        for element in committed:
            demand = spec.target.demand(base_certificate.profile(element))
            charged = charged + demand
            running = running + demand
        assert bits(residency.demand[spec.name]) == bits(charged)
        assert bits(residency._total[spec.name]) == bits(running)  # noqa: SLF001


class TestADemandIsDerivedOncePerTargetAndProfile:
    def test_two_updates_on_the_fabric(self, monkeypatch):
        """The derivation (``Target._size``) runs once per (target,
        profile) over install and both updates; ``Target.demand`` is
        the memoizing entry point and is asked every attempt."""
        calls = {"_size": collections.Counter(), "demand": collections.Counter()}

        def count(name):
            original = getattr(Target, name)

            def counting(target, profile):
                calls[name][(id(target), profile)] += 1
                return original(target, profile)

            monkeypatch.setattr(Target, name, counting)

        count("_size")
        count("demand")
        net = e20_net(pods=4)
        deltas = [getattr(apps, name)() for name in COMPOSED_CYCLE]
        per_update = []
        for delta in deltas[:2]:
            before = {name: sum(counter.values()) for name, counter in calls.items()}
            net.update(delta)
            per_update.append(
                {name: sum(counter.values()) - before[name] for name, counter in calls.items()}
            )

        assert max(calls["_size"].values()) == 1
        # The first update adds elements, whose profiles are derived once
        # per device; the second only removes, so every element it
        # re-places is a lookup on the same targets.
        assert per_update[0]["_size"] > 0
        assert per_update[1]["_size"] == 0
        assert per_update[1]["demand"] > 0

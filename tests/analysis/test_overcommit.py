"""The overcommit pass sizes device models, not devices: each element is
asked of one device per model, and the findings are the ones a
per-device loop reaches, field for field."""

import collections
import dataclasses
import pickle

import pytest

from repro import analysis
from repro.analysis.overcommit import NEAR_CAPACITY_FRACTION, check_overcommit
from repro.analysis.report import Severity
from repro.apps.base import base_infrastructure, standard_builder
from repro.apps.cc import dctcp_delta
from repro.lang import analyzer
from repro.lang import builder as b
from repro.lang.analyzer import certify
from repro.lang.delta import apply_delta
from repro.scale.workload import composed_program, pod_fabric
from repro.targets import (
    ResourceVector,
    Target,
    drmt_switch,
    host,
    rmt_switch,
    smartnic,
    tiled_switch,
)


class DoubledTables(Target):
    """A custom architecture: a drmt switch whose tables cost twice as
    much. Equal to a drmt switch in every field, and still not a copy
    of one."""

    def _table_demand(self, profile):
        return super()._table_demand(profile) * 2


def doubled(target: Target, name: str) -> DoubledTables:
    init = {f.name: getattr(target, f.name) for f in dataclasses.fields(target) if f.init}
    return DoubledTables(**{**init, "name": name})


def per_device_overcommit(certificate, targets) -> list[tuple]:
    """The pass as one loop over every device: each device is asked
    about each element, and the cheapest feasible demand is the first
    minimum over devices in slice order."""
    findings = []
    total_capacity = ResourceVector()
    for target in targets:
        total_capacity = total_capacity + target.capacity
    min_demand = ResourceVector()
    for name, profile in sorted(certificate.profiles.items()):
        if profile.kind == "action":
            continue
        feasible = [t.demand(profile) for t in targets if t.admits(profile)]
        if feasible:
            min_demand = min_demand + min(
                feasible, key=lambda d: d.utilization_of(total_capacity)
            )
            continue
        reasons = []
        for t in targets:
            why = []
            if (
                profile.kind == "function"
                and t.max_function_ops is not None
                and profile.max_ops > t.max_function_ops
            ):
                why.append(f"ops {profile.max_ops} > max_function_ops {t.max_function_ops}")
            deficit = t.demand(profile).deficit_against(t.capacity)
            why += [f"{kind} short {short:g}" for kind, short in sorted(deficit.items())]
            reasons.append(f"{t.name}({t.arch}): {', '.join(why)}")
        message = (
            f"{profile.kind} {name!r} fits on none of the {len(targets)} supplied "
            f"target(s) even when empty [{'; '.join(reasons)}]"
        )
        findings.append(("RES-ELEMENT-UNPLACEABLE", Severity.ERROR, message, name))
    deficit = min_demand.deficit_against(total_capacity)
    if deficit:
        detail = ", ".join(
            f"{kind}: need >= {min_demand[kind]:g}, have {total_capacity[kind]:g}"
            for kind in sorted(deficit)
        )
        findings.append(("RES-AGGREGATE-OVERCOMMIT", Severity.ERROR, detail, None))
    else:
        for kind in sorted(min_demand):
            cap = total_capacity[kind]
            if cap > 0 and min_demand[kind] / cap > NEAR_CAPACITY_FRACTION:
                findings.append(
                    ("RES-NEAR-CAPACITY", Severity.WARNING, f"({min_demand[kind]:g})", None)
                )
    return findings


def agrees(findings, reference) -> None:
    """``findings`` are ``reference``'s: code, severity and element
    field for field, and the message of each (whole for an unplaceable
    element, the figures otherwise)."""
    assert [(f.code, f.severity, f.element) for f in findings] == [
        (code, severity, element) for code, severity, _, element in reference
    ]
    for finding, (code, _, text, _) in zip(findings, reference):
        if code == "RES-ELEMENT-UNPLACEABLE":
            assert finding.message == text
        else:
            assert text in finding.message


def table_hog(tables: int, entries: int):
    """``tables`` ternary tables of ``entries`` 32-bit keys each
    (``entries`` / 128 kB of TCAM apiece on a switch)."""
    program = standard_builder("hog")
    program.action("drop", [b.call("mark_drop")])
    for index in range(tables):
        program.table(
            f"t{index}",
            keys=[("ipv4.src", "ternary")],
            actions=["drop"],
            size=entries,
            default="drop",
        )
        program.apply(f"t{index}")
    return certify(program.build())


def with_cc_window():
    program, _ = apply_delta(base_infrastructure(), dctcp_delta())
    return certify(program)


def variants():
    """A slice in which one model goes by several names and the same
    arch comes as several models."""
    base = drmt_switch("sw1")
    return [
        base,
        drmt_switch("sw2"),
        drmt_switch("big", tcam_mb=4.0),  # capacity
        dataclasses.replace(drmt_switch("p"), params={"processors": 16}),
        dataclasses.replace(drmt_switch("long"), max_function_ops=512),
        doubled(base, "custom"),
        drmt_switch("sw3"),
        doubled(base, "custom2"),
        tiled_switch("t1"),
        dataclasses.replace(tiled_switch("t2"), params={"tile_kb": 512.0}),  # sizes tables
        tiled_switch("t3"),
    ]


class TestADeviceModel:
    def test_copies_of_one_model_differ_only_in_name(self):
        sw1, sw2, big, params, ceiling, custom, sw3, custom2, t1, t2, t3 = variants()
        assert sw1.same_model(sw2) and sw2.same_model(sw3) and sw1.same_model(sw1)
        assert custom.same_model(custom2) and t1.same_model(t3)
        assert not t1.same_model(t2)
        for other in (big, params, ceiling, custom, t1, host("h1"), smartnic("n1")):
            assert not sw1.same_model(other) and not other.same_model(sw1)

    def test_capacity_is_compared_to_the_bit(self):
        """ResourceVector equality forgives 1e-9; a model does not, so
        two devices of one model admit at exactly the same edge."""
        sw1, nudged = drmt_switch("sw1"), drmt_switch("sw2", alus=64 + 1e-10)
        assert sw1.capacity == nudged.capacity
        assert not sw1.same_model(nudged)


SLICES = {
    "variants": variants,
    "fabric": lambda: [spec.target for spec in pod_fabric(4).controller.slice().devices],
    "switches": lambda: [drmt_switch("a"), tiled_switch("b"), drmt_switch("c"), tiled_switch("d")],
    "pair": lambda: [drmt_switch("a"), drmt_switch("b")],
    "mixed-pair": lambda: [drmt_switch("a"), doubled(drmt_switch("x"), "b")],
    "rmt": lambda: [rmt_switch("r1", runtime_capable=True), rmt_switch("r2", runtime_capable=True)],
}

PROGRAMS = {
    "base": lambda: certify(base_infrastructure()),
    "composed": lambda: certify(composed_program()),
    "cc": with_cc_window,
    "huge-table": lambda: table_hog(1, 4_000_000),
    "overcommit": lambda: table_hog(3, 192_000),  # 1500 kB each
    "near-capacity": lambda: table_hog(3, 166_400),  # 1300 kB each
}


class TestTheModelPassIsThePerDeviceLoop:
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    @pytest.mark.parametrize("targets", sorted(SLICES))
    def test_same_findings(self, targets, program):
        certificate = PROGRAMS[program]()
        agrees(
            check_overcommit(certificate, SLICES[targets]()),
            per_device_overcommit(certificate, SLICES[targets]()),
        )

    def test_the_slices_reach_every_finding(self):
        reached = collections.Counter()
        for make_slice in SLICES.values():
            for make_program in PROGRAMS.values():
                findings = check_overcommit(make_program(), make_slice())
                reached.update(f.code for f in findings)
        assert set(reached) == {
            "RES-ELEMENT-UNPLACEABLE",
            "RES-AGGREGATE-OVERCOMMIT",
            "RES-NEAR-CAPACITY",
        }

    def test_a_custom_model_is_sized_on_its_own(self):
        """A table the doubled model cannot hold: the diagnostic names
        its shortfall, not the plain switch's."""
        certificate = table_hog(1, 200_000)  # 1562.5 kB: fits 2048, not doubled
        findings = check_overcommit(certificate, [doubled(drmt_switch("x"), "c")])
        assert [f.code for f in findings] == ["RES-ELEMENT-UNPLACEABLE"]
        assert "c(drmt): tcam_kb short 1077" in findings[0].message
        assert check_overcommit(certificate, [drmt_switch("c")]) == []


class TestOneSizingPerModel:
    def test_the_fabric_is_sized_once_per_model(self, monkeypatch):
        """The pod fabric has 14 devices of 3 models (host, SmartNIC,
        drmt switch); the composed program has 16 elements that are not
        actions. Admission derives 3 x 16 demands, not 14 x 16."""
        net = pod_fabric(4)
        sized = collections.Counter()
        original = Target._size

        def spy(target, profile):
            sized[target.name] += 1
            return original(target, profile)

        monkeypatch.setattr(Target, "_size", spy)
        program = composed_program()
        elements = sum(
            profile.kind != "action" for profile in certify(program).profiles.values()
        )
        report = analysis.check(program, target=net.controller.slice())
        assert "overcommit" in report.passes_run
        assert len(net.controller.slice().devices) == 14 and elements == 16
        assert sized == {"h1": 16, "n0a": 16, "s0": 16}


class TestAProfileHashesOnce:
    """Every ``Target.admits`` / ``demand`` memo lookup hashes the
    profile. The hash is the field tuple's, walked once per profile."""

    def test_the_hash_and_equality_are_the_field_tuple_s(self):
        for profile in certify(composed_program()).profiles.values():
            fields = tuple(getattr(profile, f.name) for f in dataclasses.fields(profile))
            assert hash(profile) == hash(fields)
            twin = dataclasses.replace(profile)
            assert twin == profile and hash(twin) == hash(profile)
            assert dataclasses.replace(profile, max_ops=profile.max_ops + 1) != profile
            # A pickle carries the fields, not the hash this process took.
            copied = pickle.loads(pickle.dumps(profile))
            assert "_hash" not in vars(copied)
            assert copied == profile and hash(copied) == hash(profile)

    def test_warm_passes_walk_each_profile_once(self, monkeypatch):
        certificate = certify(composed_program())
        targets = [spec.target for spec in pod_fabric(4).controller.slice().devices]
        walked = collections.Counter()
        original = analyzer._profile_fields

        def spy(profile):
            walked[profile.name] += 1
            return original(profile)

        monkeypatch.setattr(analyzer, "_profile_fields", spy)
        for _ in range(200):
            check_overcommit(certificate, targets)
        placed = [name for name, p in certificate.profiles.items() if p.kind != "action"]
        assert len(placed) == 16
        assert walked == {name: 1 for name in placed}


class TestAnUnplaceableFunctionNamesTheCeiling:
    """A function over a target's ``max_function_ops`` is refused for
    that, whatever its resource demand; the reason names the ceiling
    next to any shortfall."""

    @pytest.mark.parametrize(
        "target, reason",
        [
            (drmt_switch("check_target"), "ops 417 > max_function_ops 256"),
            (tiled_switch("check_target"), "ops 417 > max_function_ops 96"),
            (
                rmt_switch("check_target", runtime_capable=True),
                "ops 417 > max_function_ops 48, alus short 4.125",
            ),
        ],
        ids=["drmt", "tiles", "rmt"],
    )
    def test_cc_window(self, target, reason):
        findings = check_overcommit(with_cc_window(), [target])
        [finding] = [f for f in findings if f.element == "cc_window"]
        assert finding.code == "RES-ELEMENT-UNPLACEABLE"
        assert finding.message.endswith(f"[check_target({target.arch}): {reason}]")
        assert "unsupported" not in finding.message

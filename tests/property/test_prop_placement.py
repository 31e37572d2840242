"""Property-based tests for placement invariants over random programs."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import standard_builder
from repro.compiler import fungibility
from repro.compiler.fungibility import ordered_elements
from repro.compiler.placement import NetworkSlice, Objective, ObjectiveKind, PlacementEngine
from repro.compiler.state_encoding import select_encoding
from repro.core.flexnet import FlexNet
from repro.errors import PlacementError
from repro.lang import builder as b
from repro.lang.analyzer import certify
from repro.lang.delta import apply_delta
from repro.compiler.plan import DeviceSpec
from repro.scale import pod_fabric
from repro.targets import drmt_switch, fpga, host, rmt_switch, smartnic, tiled_switch
from repro.targets.base import FungibilityClass
from repro.targets.resources import ResourceVector

from tests.conftest import make_standard_slice
from tests.corpus import delta_cases


@st.composite
def random_programs(draw):
    """Random small programs: a few tables, maps, and functions wired
    through an apply block, built over the standard headers."""
    program = standard_builder("rand")
    program.action("nop", [b.call("no_op")])
    program.action("fwd", [b.call("set_port", "p")], params=[("p", "u16")])

    table_count = draw(st.integers(min_value=0, max_value=4))
    map_count = draw(st.integers(min_value=0, max_value=3))
    function_count = draw(st.integers(min_value=0, max_value=3))
    apply_order = []

    key_fields = ["ipv4.src", "ipv4.dst", "ethernet.dst", "tcp.dport"]
    for index in range(table_count):
        kind = draw(st.sampled_from(["exact", "ternary", "lpm"]))
        size = draw(st.integers(min_value=1, max_value=20_000))
        program.table(
            f"t{index}",
            keys=[(draw(st.sampled_from(key_fields)), kind)],
            actions=["nop", "fwd"],
            size=size,
            default="nop",
        )
        apply_order.append(f"t{index}")

    map_names = []
    for index in range(map_count):
        entries = draw(st.integers(min_value=1, max_value=50_000))
        program.map(f"m{index}", keys=[draw(st.sampled_from(key_fields))],
                    value_type="u64", max_entries=entries)
        map_names.append(f"m{index}")

    for index in range(function_count):
        body = []
        reps = draw(st.integers(min_value=1, max_value=60))
        if map_names and draw(st.booleans()):
            target_map = draw(st.sampled_from(map_names))
            body.append(b.let("v", "u64", b.map_get(target_map, "ipv4.src")))
            body.append(b.map_put(target_map, "ipv4.src", b.binop("+", "v", 1)))
        body.append(b.repeat(reps, [b.assign("meta.x", b.binop("+", "meta.x", 1))]))
        program.function(f"f{index}", body)
        apply_order.append(f"f{index}")

    program.apply(*apply_order)
    return program.build()


@settings(max_examples=40, deadline=None)
@given(random_programs())
def test_placement_invariants(program):
    certificate = certify(program)
    slice_ = make_standard_slice()
    try:
        plan = PlacementEngine().compile(program, certificate, slice_)
    except PlacementError:
        return  # infeasible programs may be rejected; nothing to check

    # 1. Everything placeable is placed exactly once.
    assert set(plan.placement) == set(program.element_names)

    # 2. Co-location: every map lives with each of its accessors.
    for name, profile in certificate.profiles.items():
        if profile.kind not in ("table", "function"):
            continue
        for map_name in (*profile.map_reads, *profile.map_writes):
            if map_name in plan.placement:
                assert plan.placement[map_name] == plan.placement[name]

    # 3. Capacity: per-device demand fits the device.
    for spec in slice_.devices:
        demand = ResourceVector()
        for element, device in plan.placement.items():
            if device == spec.name:
                demand = demand + spec.target.demand(certificate.profile(element))
        assert demand.fits_within(spec.target.capacity)

    # 4. Admission: every element is on a device that admits it.
    for element, device in plan.placement.items():
        target = slice_.device(device).target
        assert target.admits(certificate.profile(element))

    # 5. Path monotonicity over apply order (maps travel with accessors,
    #    so only tables/functions are order-constrained).
    order = [
        e for e in ordered_elements(program)
        if certificate.profiles[e].kind in ("table", "function")
    ]
    positions = {spec.name: i for i, spec in enumerate(slice_.devices)}
    device_positions = [positions[plan.placement[e]] for e in order]
    assert device_positions == sorted(device_positions)


@settings(max_examples=25, deadline=None)
@given(random_programs())
def test_estimates_consistent(program):
    certificate = certify(program)
    try:
        plan = PlacementEngine().compile(program, certificate, make_standard_slice())
    except PlacementError:
        return
    assert plan.estimated_latency_ns > 0
    assert plan.estimated_energy_nj >= 0
    # total ops on devices == sum of profile ops
    total_profile_ops = sum(
        certificate.profile(e).max_ops for e in plan.placement
    )
    assert total_profile_ops >= 0


# ---------------------------------------------------------------------------
# PlacementEngine.compile against a whole-set reference
# ---------------------------------------------------------------------------
#
# The engine keeps one running total per device and derives each
# (device, element) demand once. The reference below is the attempt
# spelled out on top of the whole-set oracle ``fungibility.
# device_feasible``: every feasibility question re-derives every
# resident's demand and re-sums from ``spec.used``. Both must agree on
# every output, the per-device sums bit for bit. (Clustering is shared:
# ``PlacementEngine._clusters`` is not what the running total changed.)

_TIER_RANK = {"switch": 0, "nic": 1, "host": 2}


def _feasible(spec, names, certificate, program):
    result = fungibility.device_feasible(
        spec.target, names, certificate, program, already_used=spec.used
    )
    return result is not False and result is not None


def _rank_key(objective, devices, committed, ops):
    """What the objective minimises over the feasible device indices
    (``min`` breaks ties to path order); ``committed`` lists what each
    device already hosts from this attempt."""
    if objective.kind is ObjectiveKind.BALANCED:
        return lambda i: (_TIER_RANK.get(devices[i].target.tier, 3), i)
    if objective.kind is ObjectiveKind.LATENCY:
        return lambda i: ops * devices[i].target.performance.per_op_ns

    def energy(i):
        spec = devices[i]
        idle = not committed[spec.name] and spec.used.is_zero()
        return ops * spec.target.performance.per_op_nj + (
            spec.target.performance.idle_power_w * objective.activation_weight if idle else 0.0
        )

    return energy


def _reference_attempt(objective, program, certificate, slice_, pinned):
    devices = slice_.devices
    clusters = PlacementEngine(objective)._clusters(ordered_elements(program), certificate)
    committed = {d.name: [] for d in devices}
    demand = {d.name: ResourceVector() for d in devices}
    placement = {}
    index_by_name = {d.name: i for i, d in enumerate(devices)}

    def ops(cluster):
        return sum(certificate.profile(m).max_ops for m in cluster.members)

    def commit(cluster, index):
        spec = devices[index]
        for member in cluster.members:
            placement[member] = spec.name
            committed[spec.name].append(member)
            demand[spec.name] = demand[spec.name] + spec.target.demand(
                certificate.profile(member)
            )

    placed = set()
    for position, cluster in enumerate(clusters):
        wanted = {pinned[m] for m in cluster.members if m in pinned}
        if len(wanted) != 1:
            continue
        index = index_by_name.get(wanted.pop())
        if index is None:
            continue
        spec = devices[index]
        if _feasible(spec, committed[spec.name] + cluster.members, certificate, program):
            commit(cluster, index)
            placed.add(position)

    floor = 0
    for position, cluster in enumerate(clusters):
        if position in placed:
            continue
        feasible = [
            index
            for index in range(floor, len(devices))
            if _feasible(
                devices[index],
                committed[devices[index].name] + cluster.members,
                certificate,
                program,
            )
        ]
        if not feasible:
            lines = [f"cannot place cluster {cluster.members}"]
            for spec in devices:
                need = ResourceVector()
                admitted = True
                for member in cluster.members:
                    profile = certificate.profile(member)
                    admitted = admitted and spec.target.admits(profile)
                    need = need + spec.target.demand(profile)
                deficit = need.deficit_against(spec.free)
                reason = (
                    "not admitted"
                    if not admitted
                    else f"deficit {deficit}"
                    if deficit
                    else "ok alone; conflicts with residents or path order"
                )
                lines.append(f"  {spec.name} ({spec.target.arch}): {reason}")
            raise PlacementError("\n".join(lines))
        floor = min(feasible, key=_rank_key(objective, devices, committed, ops(cluster)))
        commit(cluster, floor)

    stage_plans = {}
    for spec in devices:
        if spec.target.fungibility is FungibilityClass.STAGE_LOCAL and committed[spec.name]:
            stage_plans[spec.name] = fungibility.device_feasible(
                spec.target, committed[spec.name], certificate, program, already_used=spec.used
            )
    encodings = {
        m.name: select_encoding(m, devices[index_by_name[placement[m.name]]].target)
        for m in program.maps
    }
    ops_on = {d.name: 0 for d in devices}
    for element, device in placement.items():
        ops_on[device] += certificate.profile(element).max_ops
    latency = energy = idle = 0.0
    for spec in devices:
        performance = spec.target.performance
        latency += spec.ingress_link_ns + performance.base_latency_ns
        latency += ops_on[spec.name] * performance.per_op_ns
        energy += ops_on[spec.name] * performance.per_op_nj
        if ops_on[spec.name]:
            idle += performance.idle_power_w
    return {
        "placement": list(placement.items()),
        "stage_plans": stage_plans,
        "encodings": encodings,
        "notes": [],
        "iterations": 1,
        "estimates": (latency, energy, idle),
        "device_demand": {name: dict(vector.items()) for name, vector in demand.items()},
    }


def _observed(plan):
    return {
        "placement": list(plan.placement.items()),  # in commit order
        "stage_plans": plan.stage_plans,
        "encodings": plan.encodings,
        "notes": plan.notes,
        "iterations": plan.iterations,
        "estimates": (
            plan.estimated_latency_ns,
            plan.estimated_energy_nj,
            plan.estimated_idle_power_w,
        ),
        # the raw floats: ResourceVector.__eq__ forgives 1e-9
        "device_demand": {
            name: dict(vector.items()) for name, vector in plan.device_demand.items()
        },
    }


def _outcome(compile_):
    try:
        return compile_()
    except PlacementError as exc:
        return str(exc)


def _slices():
    fabric = pod_fabric(4).controller.slice()
    # a slice other datapaths already occupy: the running total starts
    # at ``spec.used``, the charged ``device_demand`` at zero
    shared = FlexNet.standard("drmt").controller.slice()
    for spec in shared.devices:
        spec.used = spec.target.capacity * 0.37
    # stage-local pipelines too small for the larger programs: stage
    # plans on every success, and placement failures to compare texts on
    tight = NetworkSlice(
        devices=[
            DeviceSpec("sw1", rmt_switch("sw1", stages=4, stage_sram_kb=160.0)),
            DeviceSpec("sw2", rmt_switch("sw2", stages=3)),
            DeviceSpec("nic", smartnic("nic")),
        ]
    )
    return {
        "drmt": FlexNet.standard("drmt").controller.slice(),
        "rmt": FlexNet.standard("rmt").controller.slice(),
        "rmt_static": FlexNet.standard("rmt_static").controller.slice(),
        "tiles": FlexNet.standard("tiles").controller.slice(),
        "fabric": fabric,
        "drmt-shared": shared,
        "tight": tight,
    }


def _pin_variants(old_plan, changes, slice_):
    """``(pinned, slice)`` per variant: no pins; the survivors as
    ``IncrementalCompiler.recompile`` builds them; the same with the
    busiest device since filled by another datapath, so its pins no
    longer fit; the same with one pin per cluster sent to a device the
    slice does not have (a singleton cluster names a ghost, a larger
    one disagrees with itself)."""
    yield "none", None, slice_
    if old_plan is None:
        return
    survivors = {
        element: device
        for element, device in old_plan.placement.items()
        if element not in changes.removed and element not in changes.added
    }
    yield "survivors", survivors, slice_
    hosts = list(old_plan.placement.values())
    busiest = max(sorted(set(hosts)), key=hosts.count)
    crowded = NetworkSlice(
        devices=[
            replace(spec, used=spec.target.capacity) if spec.name == busiest else spec
            for spec in slice_.devices
        ]
    )
    yield "no-longer-fits", survivors, crowded
    ghosted = dict(survivors)
    for cluster in PlacementEngine()._clusters(
        ordered_elements(old_plan.program), old_plan.certificate
    ):
        if cluster.members[0] in ghosted:
            ghosted[cluster.members[0]] = "ghost"
    yield "not-in-slice", ghosted, slice_


@pytest.mark.parametrize(
    "slice_name", ["drmt", "rmt", "rmt_static", "tiles", "fabric", "drmt-shared", "tight"]
)
@pytest.mark.parametrize("kind", list(ObjectiveKind))
def test_compile_matches_the_whole_set_reference(slice_name, kind):
    objective = Objective(kind=kind)
    engine = PlacementEngine(objective)
    slice_ = _slices()[slice_name]
    compared = failures = staged = 0
    for label, program, delta in delta_cases():
        new_program, changes = apply_delta(program, delta)
        certificate = certify(new_program)
        try:
            old_plan = engine.compile(program, certify(program), slice_)
        except PlacementError:
            old_plan = None
        for variant, pinned, variant_slice in _pin_variants(old_plan, changes, slice_):
            expected = _outcome(
                lambda: _reference_attempt(
                    objective, new_program, certificate, variant_slice, pinned or {}
                )
            )
            observed = _outcome(
                lambda: _observed(
                    engine.compile(new_program, certificate, variant_slice, pinned=pinned)
                )
            )
            assert observed == expected, (label, variant)
            compared += 1
            if isinstance(expected, str):
                failures += 1
            else:
                staged += bool(expected["stage_plans"])
    assert compared > 3 * len(delta_cases())
    if slice_name == "tight":
        assert failures and staged  # error texts and stage plans were compared


# ---------------------------------------------------------------------------
# The device search and the pinned pass on generated slices
# ---------------------------------------------------------------------------
#
# ``_choose_device`` asks candidates in the objective's order and stops
# at the first that fits, and a device that takes all of its pinned
# clusters is asked once. On slices that mix tiers, fungibility classes
# and what other datapaths already use, both must agree with asking
# every device and taking the ``min``, and with asking per cluster
# (``_reference_attempt``), including the error text when a cluster
# fits nowhere and a pin that no longer fits being dropped.

_DELTA_CASES = delta_cases()


@st.composite
def _device_specs(draw, name):
    kind = draw(st.sampled_from(["rmt", "tiles", "drmt", "nic", "fpga", "host"]))
    if kind == "rmt":  # stage-local, and admits no large function
        target = rmt_switch(
            name,
            stages=draw(st.integers(min_value=2, max_value=8)),
            stage_sram_kb=draw(st.sampled_from([80.0, 160.0, 640.0])),
        )
    elif kind == "tiles":  # tile-typed
        target = tiled_switch(
            name,
            hash_tiles=draw(st.sampled_from([4, 96])),
            tcam_tiles=draw(st.sampled_from([1, 24])),
        )
    elif kind == "drmt":
        target = drmt_switch(name, sram_mb=draw(st.sampled_from([0.5, 24.0])))
    else:
        target = {"nic": smartnic, "fpga": fpga, "host": host}[kind](name)
    share = draw(st.sampled_from([0.0, 0.0, 0.3, 0.7, 0.97]))
    return DeviceSpec(name, target, used=target.capacity * share)


@st.composite
def generated_slices(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    return NetworkSlice(devices=[draw(_device_specs(f"d{i}")) for i in range(count)])


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_DELTA_CASES) - 1),
    slice_=generated_slices(),
    kind=st.sampled_from(list(ObjectiveKind)),
    floors=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
)
def test_the_first_device_that_fits_is_the_best_of_all_that_fit(case, slice_, kind, floors):
    _, program, _ = _DELTA_CASES[case]
    certificate = certify(program)
    objective = Objective(kind=kind)
    engine = PlacementEngine(objective)
    devices = slice_.devices
    residency = fungibility.Residency(program, certificate, devices)
    for position, cluster in enumerate(engine._clusters(residency.order, certificate)):
        floor = floors[position % len(floors)] % len(devices)
        ops = sum(certificate.profile(m).max_ops for m in cluster.members)
        feasible = [
            index
            for index in range(floor, len(devices))
            if residency.feasible(devices[index], cluster.members) is not False
        ]
        expected = (
            min(feasible, key=_rank_key(objective, devices, residency.members, ops))
            if feasible
            else None
        )
        assert engine._choose_device(cluster, certificate, devices, residency, floor) == expected
        if expected is not None:
            residency.commit(devices[expected], cluster.members)


@settings(max_examples=80, deadline=None)
@given(
    case=st.integers(min_value=0, max_value=len(_DELTA_CASES) - 1),
    slice_=generated_slices(),
    other=generated_slices(),
    kind=st.sampled_from(list(ObjectiveKind)),
)
def test_compile_on_generated_slices_matches_the_per_question_reference(
    case, slice_, other, kind
):
    """``other`` is different hardware under the same device names:
    the survivors' pins there may fit in part, fail a stage plan, or
    name a device that is not admitted or not there."""
    label, program, delta = _DELTA_CASES[case]
    new_program, changes = apply_delta(program, delta)
    certificate = certify(new_program)
    objective = Objective(kind=kind)
    engine = PlacementEngine(objective)
    try:
        old_plan = engine.compile(program, certify(program), slice_)
    except PlacementError:
        old_plan = None
    variants = list(_pin_variants(old_plan, changes, slice_))
    if old_plan is not None:
        survivors = next(pins for name, pins, _ in variants if name == "survivors")
        variants.append(("other-hardware", survivors, other))
    for variant, pinned, variant_slice in variants:
        expected = _outcome(
            lambda: _reference_attempt(
                objective, new_program, certificate, variant_slice, pinned or {}
            )
        )
        observed = _outcome(
            lambda: _observed(
                engine.compile(new_program, certificate, variant_slice, pinned=pinned)
            )
        )
        assert observed == expected, (label, variant)

"""E7 — Incremental recompilation: maximally adjacent reconfigurations (§3.3).

Claim: compiling runtime changes "must be done in a least-intrusive
manner", minimizing "resource reallocation and shuffling" by finding
"maximally adjacent reconfigurations". Expected shape: over a stream of
small program edits, the incremental compiler moves (nearly) zero
untouched elements, while a full from-scratch recompile reshuffles
placements freely — more moved elements, more state migrations, longer
transitions. E7b also prints how many ``Target.demand`` derivations each
strategy's placement made (at most one per device and element per
compile, pinned or not).
"""


from benchmarks.harness import call_stats, fmt, print_table

from repro.apps.base import base_infrastructure
from repro.compiler.incremental import IncrementalCompiler, full_recompile_plan
from repro.compiler.placement import PlacementEngine
from repro.lang.analyzer import certify
from repro.lang.delta import apply_delta, parse_delta
from repro.targets.base import Target


EDIT_STREAM = [
    # e1: a big monitoring map+function that nearly fills the first switch.
    """
    delta e1 {
      add map m1 { key: ipv4.src; value: u32; max_entries: 200000; }
      add func f1() { let v: u32 = map_get(m1, ipv4.src); map_put(m1, ipv4.src, v + 1); }
      insert f1 after count_flow;
    }
    """,
    "delta e2 { resize table acl 4096; }",
    # e3: a large QoS table that no longer fits the first switch and
    # spills to the second one.
    """
    delta e3 {
      add action mark2() { set_queue(2); }
      add table qos { key: ipv4.dst; actions: mark2, nop; size: 100000; default: nop; }
      insert qos before l3;
    }
    """,
    # e4: the monitor retires, freeing the first switch again — a full
    # recompile now *pulls the QoS table back* (a gratuitous move), the
    # incremental compiler leaves it be.
    "delta e4 { remove func f1; remove map m1; }",
    "delta e5 { resize map flow_counts 131072; }",
]


def run_experiment():
    # A multi-switch slice so a from-scratch packer has real freedom.
    def fresh_slice():
        from repro.compiler.plan import DeviceSpec
        from repro.compiler.placement import NetworkSlice
        from repro.targets import drmt_switch, host, smartnic

        return NetworkSlice(
            devices=[
                DeviceSpec("h1", host("h1"), ingress_link_ns=0.0),
                DeviceSpec("nic1", smartnic("nic1")),
                DeviceSpec("sw1", drmt_switch("sw1", sram_mb=4.0)),
                DeviceSpec("sw2", drmt_switch("sw2"), ingress_link_ns=2000.0),
                DeviceSpec("nic2", smartnic("nic2")),
                DeviceSpec("h2", host("h2")),
            ]
        )

    engine = PlacementEngine()
    program = base_infrastructure()
    plan = engine.compile(program, certify(program), fresh_slice())

    incremental_compiler = IncrementalCompiler(engine)
    totals = {
        "incremental": {"moved": 0, "migrations": 0, "makespan": 0.0, "demand_calls": 0},
        "full": {"moved": 0, "migrations": 0, "makespan": 0.0, "demand_calls": 0},
    }
    per_edit = []

    for index, text in enumerate(EDIT_STREAM):
        delta = parse_delta(text)
        new_program, changes = apply_delta(program, delta)

        with call_stats(Target, "demand") as demand:
            incremental = incremental_compiler.recompile(
                plan, new_program, fresh_slice(), changes
            )
        totals["incremental"]["demand_calls"] += demand["calls"]
        with call_stats(Target, "demand") as demand:
            full = full_recompile_plan(plan, new_program, fresh_slice(), engine)
        totals["full"]["demand_calls"] += demand["calls"]

        for label, result in (("incremental", incremental), ("full", full)):
            totals[label]["moved"] += result.reconfig.moved_elements
            totals[label]["migrations"] += sum(
                1 for s in result.reconfig.steps if s.carries_state
            )
            totals[label]["makespan"] += result.reconfig.makespan_s()
        per_edit.append(
            [
                delta.name,
                incremental.reconfig.moved_elements,
                full.reconfig.moved_elements,
            ]
        )

        program = new_program
        plan = incremental.new_plan

    return {"totals": totals, "per_edit": per_edit}


def test_e7_incremental(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    totals = results["totals"]
    print_table(
        "E7: elements moved per edit — incremental vs full recompilation",
        ["edit", "incremental moves", "full-recompile moves"],
        results["per_edit"]
        + [[
            "TOTAL",
            totals["incremental"]["moved"],
            totals["full"]["moved"],
        ]],
    )
    print_table(
        "E7b: cumulative transition cost over the edit stream",
        ["strategy", "moved elements", "state migrations", "makespan (s)",
         "Target.demand calls"],
        [
            ["incremental (maximally adjacent)",
             totals["incremental"]["moved"],
             totals["incremental"]["migrations"],
             fmt(totals["incremental"]["makespan"]),
             totals["incremental"]["demand_calls"]],
            ["full recompilation",
             totals["full"]["moved"],
             totals["full"]["migrations"],
             fmt(totals["full"]["makespan"]),
             totals["full"]["demand_calls"]],
        ],
    )
    assert totals["incremental"]["moved"] == 0  # nothing untouched ever moves
    # The from-scratch packer reshuffles at least once over the stream.
    assert totals["full"]["moved"] > 0
    assert totals["incremental"]["makespan"] <= totals["full"]["makespan"] + 1e-9

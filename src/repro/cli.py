"""Command-line interface for the FlexNet toolchain.

Usage (also ``python -m repro.cli``)::

    flexnet certify  program.fbpf [--json]        # admission certification
    flexnet check    program.fbpf [--patch patch.delta] [--arch drmt] [--json]
    flexnet check    --builtin                    # FlexCheck all bundled programs
    flexnet vet      program.fbpf [--json]        # FlexVet parallelism classes
    flexnet vet      --builtin                    # FlexVet all bundled programs
    flexnet vet      --self [--update-baseline]   # determinism self-audit
    flexnet compile  program.fbpf [--arch drmt] [--objective latency|energy] [--json]
    flexnet delta    program.fbpf patch.delta [--json]  # apply a patch, show changes
    flexnet simulate program.fbpf [--rate 1000] [--duration 1.0]
                                  [--patch patch.delta --at 0.5] [--json]
    flexnet bench    [program.fbpf] [--fastpath] [--packets 2000] [--json]
    flexnet chaos    [program.fbpf] [--patch patch.delta] [--trace]
                     [--crash sw1@5.2] [--drop 0.01] [--no-recovery] [--json]
    flexnet chaos    --controller [--partition] [--nodes 3] [--no-fencing]
    flexnet chaos    --scale [--shards 4] [--worker-crash 0@4] [--handoff-drop 0.2]
    flexnet ha       status [--nodes 3] [--failover] [--json]
    flexnet scale    [--shards 2] [--backend process|inline] [--pods 4]
                     [--packets 2000] [--rate 20000] [--differential] [--json]
    flexnet cloud    [--scenario flash-crowd] [--tenants 2000] [--seed 2026]
                     [--racks 4] [--shards 1] [--drop 0.0] [--no-coalesce] [--json]
    flexnet trace    program.fbpf [--patch patch.delta --at 0.5]
                     [--sample-every 64] [--events] [--sink spans.jsonl] [--json]
    flexnet metrics  program.fbpf [--patch patch.delta --at 0.5] [--json]
    flexnet profile  program.fbpf [--patch patch.delta --at 0.5] [--json]

Programs are FlexBPF source files; patches use the delta DSL (§3.2).
Everything runs against the standard host-NIC-switch-NIC-host slice.
``chaos`` runs a seeded FlexFault scenario (defaults: bundled base
infrastructure + firewall delta) and reports consistency, convergence,
and the write-ahead journal; with ``--controller`` the faults hit the
replicated control plane instead (FlexHA: Raft leader crash, or a
leader partition with ``--partition``); with ``--scale`` they hit the
sharded process backend instead (FlexMend: seeded worker crashes and
handoff drops/dups absorbed by checkpointed restart, differentially
byte-compared against a fault-free run). ``ha status`` stands up the
replicated controller, drives one committed update (optionally through
a ``--failover``), and prints the FlexHA status. ``trace``/``metrics``/``profile`` run the
same scenario as ``simulate`` with FlexScope enabled and render the
span tree, the Prometheus-text metric export, or the per-phase profile
table. ``scale`` partitions the E20 pod fabric across worker processes
(FlexScale) and, with ``--differential``, byte-compares the sharded
traffic report against the single-process engine. ``cloud`` runs a
seeded FlexCloud tenant-churn scenario (flash crowd, diurnal cycle,
DDoS defense, canary rollout) through the batched admission engine and
exits nonzero on any isolation violation.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.flexnet import FlexNet
from repro.errors import FlexNetError
from repro.lang.analyzer import certify
from repro.lang.delta import apply_delta, parse_delta
from repro.lang.parser import parse_program


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def cmd_certify(args: argparse.Namespace) -> int:
    import json as json_module

    program = parse_program(_read(args.program))
    certificate = certify(program)
    if args.json:
        print(json_module.dumps({
            "program": program.name,
            "version": program.version,
            "certified": True,
            "max_packet_ops": certificate.max_packet_ops,
            "total_map_entries": certificate.total_map_entries,
            "is_stateful": certificate.is_stateful,
            "recirculates": certificate.recirculates,
            "elements": {
                name: {
                    "kind": profile.kind,
                    "max_ops": profile.max_ops,
                    "table_entries": profile.table_entries,
                }
                for name, profile in sorted(certificate.profiles.items())
            },
        }, indent=2))
        return 0
    print(f"program {program.name!r} (version {program.version}): CERTIFIED")
    print(f"  worst-case packet cost : {certificate.max_packet_ops} ops")
    print(f"  declared map entries   : {certificate.total_map_entries}")
    print(f"  stateful               : {certificate.is_stateful}")
    print(f"  recirculates           : {certificate.recirculates}")
    print(f"  elements ({len(certificate.profiles)}):")
    for name in sorted(certificate.profiles):
        profile = certificate.profiles[name]
        print(
            f"    {name:24s} {profile.kind:8s} ops={profile.max_ops:<5d} "
            f"entries={profile.table_entries}"
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run FlexCheck: data-flow lints, reconfiguration races (--patch),
    and per-target overcommit. Exit 0 when no ERROR finding, 1 otherwise."""
    import json as json_module

    from repro import analysis
    from repro.targets import drmt_switch, rmt_switch, tiled_switch

    target_factories = {
        "drmt": drmt_switch,
        "rmt": lambda name: rmt_switch(name, runtime_capable=True),
        "tiles": tiled_switch,
    }

    if args.builtin:
        from repro.analysis.corpus import bundled_programs

        subjects = bundled_programs()
        deltas = {}
    else:
        if not args.program:
            print("error: provide a program file or --builtin", file=sys.stderr)
            return 2
        program = parse_program(_read(args.program))
        subjects = [(program.name, program)]
        deltas = (
            {program.name: parse_delta(_read(args.patch))} if args.patch else {}
        )

    target = target_factories[args.arch]("check_target") if args.arch else None

    reports = []
    worst = 0
    for label, program in subjects:
        report = analysis.check(program, delta=deltas.get(label), target=target)
        reports.append((label, report))
        if not report.ok:
            worst = 1
    if args.json:
        payload = [dict(label=label, **report.to_dict()) for label, report in reports]
        print(json_module.dumps(payload if len(payload) > 1 else payload[0], indent=2))
    else:
        for label, report in reports:
            prefix = f"[{label}] " if len(reports) > 1 else ""
            print(prefix + report.render())
    return worst


def cmd_vet(args: argparse.Namespace) -> int:
    """Run FlexVet. With a program (or --builtin), print the parallelism
    classification; with --self, audit the source tree for
    nondeterminism and exit 1 on findings missing from the baseline."""
    import json as json_module
    from pathlib import Path

    from repro.observe.report import emit

    if args.self_audit:
        from repro.analysis.selfcheck import (
            default_baseline_path,
            run_selfcheck,
            write_baseline,
        )

        baseline = Path(args.baseline) if args.baseline else default_baseline_path()
        report = run_selfcheck(baseline_path=baseline)
        if args.update_baseline:
            write_baseline(baseline, list(report.findings))
            print(
                f"baseline updated: {len(report.findings)} finding(s) "
                f"pinned to {baseline}"
            )
            return 0
        emit(report, as_json=args.json)
        return 0 if report.clean else 1

    from repro import analysis

    if args.builtin:
        from repro.analysis.corpus import bundled_programs

        subjects = bundled_programs()
    else:
        if not args.program:
            print(
                "error: provide a program file, --builtin, or --self",
                file=sys.stderr,
            )
            return 2
        program = parse_program(_read(args.program))
        subjects = [(program.name, program)]

    reports = [(label, analysis.vet(program)) for label, program in subjects]
    if args.json:
        payload = [dict(label=label, **report.to_dict()) for label, report in reports]
        print(json_module.dumps(payload if len(payload) > 1 else payload[0], indent=2))
    else:
        for label, report in reports:
            prefix = f"[{label}] " if len(reports) > 1 else ""
            print(prefix + report.summary())
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.core.slo import Slo

    program = parse_program(_read(args.program))
    net = FlexNet.standard(switch_arch=args.arch)
    if args.objective == "energy":
        net.build_datapath("h1", "h2", slo=Slo(prefer_energy=True))
    elif args.objective == "latency":
        net.build_datapath("h1", "h2", slo=Slo(max_latency_ns=1e9))
    plan = net.install(program)
    if args.json:
        import json as json_module

        print(json_module.dumps(plan.to_dict(), indent=2))
        return 0
    print(f"compiled {program.name!r} onto h1-nic1-sw1({args.arch})-nic2-h2:")
    for element, device in sorted(plan.placement.items()):
        encoding = plan.encodings.get(element)
        suffix = f"  [{encoding.value}]" if encoding else ""
        print(f"  {element:24s} -> {device}{suffix}")
    print(f"estimated latency : {plan.estimated_latency_ns / 1000:.1f} us/packet")
    print(f"estimated energy  : {plan.estimated_energy_nj:.1f} nJ/packet dynamic, "
          f"{plan.estimated_idle_power_w:.0f} W idle")
    if plan.stage_plans:
        for device, stage_plan in plan.stage_plans.items():
            print(f"stage plan ({device}): {stage_plan.assignments}")
    return 0


def cmd_delta(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))
    delta = parse_delta(_read(args.patch))
    new_program, changes = apply_delta(program, delta)
    if args.json:
        import json as json_module

        certificate = certify(new_program)
        print(json_module.dumps({
            "delta": delta.name,
            "old_version": program.version,
            "new_version": new_program.version,
            "added": sorted(changes.added),
            "removed": sorted(changes.removed),
            "modified": sorted(changes.modified),
            "apply_changed": changes.apply_changed,
            "max_packet_ops": certificate.max_packet_ops,
        }, indent=2))
        return 0
    print(f"delta {delta.name!r} applied: version {program.version} -> {new_program.version}")
    for label, names in (
        ("added", changes.added),
        ("removed", changes.removed),
        ("modified", changes.modified),
    ):
        if names:
            print(f"  {label:8s}: {', '.join(sorted(names))}")
    if changes.apply_changed:
        print("  apply/parser control flow changed")
    certificate = certify(new_program)
    print(f"  new worst-case packet cost: {certificate.max_packet_ops} ops")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Parse, optionally patch, and emit normalized FlexBPF source."""
    from repro.lang.printer import print_program

    program = parse_program(_read(args.program))
    if args.patch:
        delta = parse_delta(_read(args.patch))
        program, _ = apply_delta(program, delta)
    if args.json:
        import json as json_module

        print(json_module.dumps({
            "program": program.name,
            "version": program.version,
            "source": print_program(program),
        }, indent=2))
        return 0
    sys.stdout.write(print_program(program))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))
    net = FlexNet.standard(switch_arch=args.arch)
    net.install(program)
    if args.patch:
        delta = parse_delta(_read(args.patch))
        net.schedule(args.at, lambda: net.update(delta))
        print(f"scheduled delta {delta.name!r} at t={args.at}s")
    report = net.run_traffic(rate_pps=args.rate, duration_s=args.duration,
                             extra_time_s=2.0)
    if args.json:
        from repro.observe.report import emit

        emit(report, as_json=True)
        return 0
    metrics = report.metrics
    print(f"sent      : {metrics.sent}")
    print(f"delivered : {metrics.delivered}")
    print(f"dropped   : {metrics.dropped_by_program} (by program)")
    print(f"lost      : {metrics.lost_by_infrastructure} (infrastructure)")
    if metrics.latency.count:
        print(f"latency   : mean {metrics.latency.mean * 1e6:.1f} us, "
              f"p99 {metrics.latency.percentile(0.99) * 1e6:.1f} us")
    for device in ("sw1",):
        versions = metrics.versions_on(device)
        if versions:
            print(f"versions on {device}: {versions}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark the data-plane executor on one program: interpreted
    packets/second, and with ``--fastpath`` the compiled rate with a
    differential check that its outcomes are byte-identical to the
    interpreter's. Exits 1 if the check finds any divergence."""
    import copy
    import json as json_module
    import time

    from repro.simulator import fastpath
    from repro.simulator.pipeline_exec import ProgramInstance

    if args.program:
        program = parse_program(_read(args.program))
    else:
        from repro.apps import base_infrastructure, firewall_delta

        program, _ = apply_delta(base_infrastructure(), firewall_delta())

    packets = fastpath.seeded_corpus(args.packets, seed=args.seed)

    def setup(instance: ProgramInstance) -> None:
        fastpath.seeded_rules(program, instance, seed=args.seed)

    def measure(instance: ProgramInstance) -> float:
        setup(instance)
        work = [copy.deepcopy(p) for p in packets]
        instance.process(copy.deepcopy(packets[0]), 0.0)  # warm up
        start = time.perf_counter()
        for i, packet in enumerate(work):
            instance.process(packet, i * 1e-4)
        # Clamp: a tiny corpus on a fast machine can make the delta 0
        # at timer resolution, and pps must stay finite.
        return len(work) / max(time.perf_counter() - start, 1e-9)

    interp_pps = measure(ProgramInstance(program))
    results = {"program": program.name, "packets": len(packets),
               "interpreted_pps": interp_pps}
    divergences = []
    if args.fastpath:
        report = fastpath.differential_check(program, packets, setup=setup)
        divergences = list(report.divergences)
        compiled_pps = measure(ProgramInstance(program, fastpath=True))
        results["compiled_pps"] = compiled_pps
        results["speedup"] = compiled_pps / interp_pps
        results["divergences"] = len(divergences)

    if args.json:
        print(json_module.dumps(results, indent=2))
    else:
        print(f"program     : {program.name!r} ({len(packets)} packets)")
        print(f"interpreted : {interp_pps:,.0f} pps")
        if args.fastpath:
            print(f"compiled    : {compiled_pps:,.0f} pps "
                  f"({results['speedup']:.2f}x)")
            print(f"divergences : {len(divergences)}")
            for divergence in divergences:
                print(f"  {divergence}")
    return 1 if divergences else 0


def _cmd_chaos_scale(args: argparse.Namespace) -> int:
    """FlexMend: chaos-armed sharded run differentially compared against
    a fault-free sharded run and the single-process reference; exit 0
    iff all three ``traffic`` sections are byte-identical."""
    import json as json_module

    from repro.apps import base_infrastructure
    from repro.faults.plan import FaultPlan, HandoffDrop, HandoffDup, WorkerCrash
    from repro.scale import pod_fabric, e20_workload, run_scale_chaos

    crash_specs = (
        args.worker_crash if args.worker_crash is not None else ["0@4", "1@6"]
    )
    worker_crashes = []
    for spec in crash_specs:
        if spec == "none":
            continue
        shard, _, window = spec.partition("@")
        try:
            worker_crashes.append(
                WorkerCrash(shard=int(shard), window=int(window))
            )
        except ValueError:
            print(
                f"error: --worker-crash expects SHARD@WINDOW, got {spec!r}",
                file=sys.stderr,
            )
            return 2
    handoff_drops = tuple(
        HandoffDrop(shard=shard, probability=args.handoff_drop)
        for shard in range(args.shards)
    ) if args.handoff_drop else ()
    handoff_dups = tuple(
        HandoffDup(shard=shard, probability=args.handoff_dup)
        for shard in range(args.shards)
    ) if args.handoff_dup else ()
    plan = FaultPlan(
        seed=args.seed,
        worker_crashes=tuple(worker_crashes),
        handoff_drops=handoff_drops,
        handoff_dups=handoff_dups,
    )

    def make_net():
        net = pod_fabric(args.pods)
        net.install(base_infrastructure())
        return net

    rate = args.rate if args.rate is not None else 20_000.0

    def make_workload():
        return e20_workload(args.packets, rate_pps=rate, seed=args.seed)

    report = run_scale_chaos(
        make_net,
        make_workload,
        args.shards,
        plan,
        seed=args.plan_seed,
        drain_s=args.drain,
        checkpoint_every=args.checkpoint_every,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 1 if report.divergences else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded FlexFault chaos scenario; exit 0 iff the network
    converged with zero consistency violations."""
    import json as json_module

    from repro.faults import ChannelFault, DeviceCrash, FaultPlan, run_chaos

    if getattr(args, "scale", False):
        return _cmd_chaos_scale(args)
    if args.rate is None:
        args.rate = 1000.0

    if args.program:
        program = parse_program(_read(args.program))
    else:
        from repro.apps import base_infrastructure

        program = base_infrastructure()
    if args.patch:
        delta = parse_delta(_read(args.patch))
    else:
        from repro.apps import firewall_delta

        delta = firewall_delta()

    if args.controller:
        from repro.faults import (
            ControllerCrash,
            FaultPlan,
            LeaderPartition,
            run_controller_chaos,
        )

        fault_at = args.fault_at if args.fault_at is not None else args.at + 0.02
        if args.partition:
            plan = FaultPlan(
                seed=args.seed,
                partitions=(
                    LeaderPartition(at_s=fault_at, heal_after_s=args.heal_after),
                ),
            )
        else:
            plan = FaultPlan(
                seed=args.seed,
                controller_crashes=(
                    ControllerCrash(
                        node="leader",
                        at_s=fault_at,
                        restart_after_s=args.restart_after,
                    ),
                ),
            )
        report = run_controller_chaos(
            program,
            delta,
            plan,
            node_count=args.nodes,
            fencing=not args.no_fencing,
            rate_pps=args.rate,
            duration_s=args.duration,
            update_at_s=args.at,
            observe=args.trace,
            observe_sample_every=args.sample_every,
        )
        ok = (
            report.converged
            and report.violations == 0
            and report.stale_writes_applied == 0
        )
        if args.json:
            print(json_module.dumps(report.to_dict(), indent=2))
            return 0 if ok else 1
        print("fault plan:")
        for line in report.fault_plan:
            print(f"  {line}")
        print(report.summary())
        if report.events:
            print("events:")
            for event in report.events:
                detail = f" ({event['detail']})" if event["detail"] else ""
                print(f"  t={event['time']:<8g} {event['kind']:10s} "
                      f"{event['device']}{detail}")
        if args.trace and report.spans:
            from repro.observe.trace import render_span_tree

            print("trace:")
            print(render_span_tree(report.spans))
        return 0 if ok else 1

    crash_specs = args.crash if args.crash is not None else ["sw1@5.2"]
    crashes = []
    for spec in crash_specs:
        if spec == "none":
            continue
        device, _, at_s = spec.partition("@")
        if not device or not at_s:
            print(f"error: --crash expects DEVICE@TIME, got {spec!r}", file=sys.stderr)
            return 2
        crashes.append(
            DeviceCrash(device=device, at_s=float(at_s), restart_after_s=args.restart_after)
        )
    channel = None
    if args.drop or args.delay_probability:
        channel = ChannelFault(
            drop_probability=args.drop,
            delay_probability=args.delay_probability,
            delay_s=args.delay,
        )
    plan = FaultPlan(seed=args.seed, crashes=tuple(crashes), channel=channel)

    setup = None
    if args.spread:
        from repro.apps.nat import nat_delta

        def setup(net) -> None:
            net.controller.deploy_app("flexnet://infra/nat", nat_delta(size=512))
            net.controller.migrate_app("flexnet://infra/nat", "nic1")

    report = run_chaos(
        program,
        delta,
        plan,
        recovery=not args.no_recovery,
        resume=not args.rollback,
        monitor=args.monitor,
        rate_pps=args.rate,
        duration_s=args.duration,
        update_at_s=args.at,
        setup=setup,
        observe=args.trace,
        observe_sample_every=args.sample_every,
    )
    ok = report.converged and report.violations == 0
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
        return 0 if ok else 1

    print("fault plan:")
    for line in report.fault_plan:
        print(f"  {line}")
    print(report.summary())
    print(f"  control: {report.transition['commands_dropped']} command(s) dropped, "
          f"{report.transition['command_retries']} retried")
    if report.journal:
        print("journal:")
        for entry in report.journal:
            print(f"  txn {entry['txn']}: {entry['device']} "
                  f"v{entry['old_version']}->v{entry['new_version']} "
                  f"[{entry['state']}{', ' + entry['resolution'] if entry['resolution'] else ''}]")
    if report.events:
        print("events:")
        for event in report.events:
            detail = f" ({event['detail']})" if event["detail"] else ""
            print(f"  t={event['time']:<8g} {event['kind']:10s} {event['device']}{detail}")
    if args.trace and report.spans:
        from repro.observe.trace import render_span_tree

        print("trace:")
        print(render_span_tree(report.spans))
    return 0 if ok else 1


def cmd_ha(args: argparse.Namespace) -> int:
    """Stand up the replicated controller, drive one committed update
    (optionally through a leader fail-over), and print FlexHA status;
    exit 0 iff a leader is live and every update executed cleanly."""
    import json as json_module

    from repro.apps import base_infrastructure, firewall_delta
    from repro.control.ha import FlexHA
    from repro.limits import HEARTBEAT_INTERVAL_S
    from repro.runtime.consistency import ConsistencyLevel
    from repro.simulator.packet import reset_packet_ids

    reset_packet_ids()
    net = FlexNet.standard("drmt")
    net.install(base_infrastructure())
    controller = net.controller
    ha = FlexHA(controller, node_count=args.nodes, seed=args.seed)
    loop = controller.loop

    def submit() -> None:
        delta = firewall_delta()
        if ha.submit_update(delta, consistency=ConsistencyLevel.PER_PACKET_PATH) is None:
            loop.schedule(HEARTBEAT_INTERVAL_S, submit)

    loop.schedule_at(2.0, submit)
    if args.failover:

        def kill_leader() -> None:
            leader = ha.leader_id
            if leader is None:
                return
            ha.cluster.bus.crash(leader)
            loop.schedule(2.0, lambda: ha.cluster.bus.recover(leader))

        loop.schedule_at(2.02, kill_leader)
    loop.run_until(8.0)
    for device in controller.devices.values():
        device.settle(loop.now)

    ok = (
        ha.leader_id is not None
        and ha.executed_updates >= 1
        and not ha.update_errors
    )
    if args.json:
        print(json_module.dumps(ha.status(), indent=2))
    else:
        print(ha.summary())
    return 0 if ok else 1


def cmd_scale(args: argparse.Namespace) -> int:
    """Run the E20 pod-fabric workload sharded across worker processes
    (FlexScale). With ``--differential`` also run the single-process
    reference on an identical fresh net/workload and byte-compare the
    traffic reports; exit 1 on any divergence."""
    import json as json_module

    from repro.scale import e20_net, e20_workload, reference_run, run_sharded
    from repro.simulator.packet import reset_packet_ids

    def fresh_arm():
        # Same seeds + a packet-id reset give both arms byte-identical
        # inputs; each arm gets its own net because runs mutate state.
        reset_packet_ids()
        net = e20_net(pods=args.pods)
        workload = e20_workload(args.packets, rate_pps=args.rate, seed=args.seed)
        return net, workload

    net, workload = fresh_arm()
    report = run_sharded(
        net,
        workload,
        args.shards,
        backend=args.backend,
        seed=args.plan_seed,
        drain_s=args.drain,
    )
    divergences = None
    if args.differential:
        ref_net, ref_workload = fresh_arm()
        reference = reference_run(ref_net, ref_workload, drain_s=args.drain)
        identical = json_module.dumps(
            reference.to_dict(), sort_keys=True
        ) == json_module.dumps(report.traffic_dict(), sort_keys=True)
        divergences = 0 if identical else 1

    if args.json:
        payload = report.to_dict()
        if divergences is not None:
            payload["differential"] = {"divergences": divergences}
        print(json_module.dumps(payload, indent=2))
    else:
        print(report.summary())
        if divergences is not None:
            verdict = "byte-identical" if divergences == 0 else "DIVERGED"
            print(f"  differential vs single-process: {verdict}")
    return 1 if divergences else 0


def cmd_cloud(args: argparse.Namespace) -> int:
    """Run a FlexCloud tenant-churn scenario over the rack fabric and
    report admission/coalescing/isolation. Exit 0 when the scenario
    converged with zero isolation violations and zero terminal
    failures, 1 otherwise."""
    import json as json_module

    from repro.cloud import SCENARIOS, run_scenario

    generator = SCENARIOS[args.scenario]
    kwargs = {"seed": args.seed}
    if args.tenants is not None:
        kwargs["tenants"] = args.tenants
    events = generator(**kwargs)

    chaos = None
    if args.drop:
        from repro.faults.plan import ChannelFault, FaultPlan

        chaos = FaultPlan(
            seed=args.seed, channel=ChannelFault(drop_probability=args.drop)
        )
    report = run_scenario(
        events,
        scenario=args.scenario,
        seed=args.seed,
        racks=args.racks,
        coalesce=not args.no_coalesce,
        shards=args.shards,
        probes=args.probes,
        chaos=chaos,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 1 if (report.violations or report.failed) else 0


def _observed_run(args: argparse.Namespace, sink=None) -> FlexNet:
    """Run the ``simulate`` scenario with FlexScope enabled; shared by
    the ``trace``/``metrics``/``profile`` verbs."""
    program = parse_program(_read(args.program))
    net = FlexNet.standard(switch_arch=args.arch)
    net.observe.enable(sample_every=args.sample_every, sink=sink)
    net.install(program)
    if args.patch:
        delta = parse_delta(_read(args.patch))
        net.schedule(args.at, lambda: net.update(delta))
    net.run_traffic(rate_pps=args.rate, duration_s=args.duration, extra_time_s=2.0)
    return net


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the scenario with tracing on and render the span tree
    (``--events`` adds the global event feed: faults, journal commits,
    telemetry events)."""
    import json as json_module

    sink = open(args.sink, "w", encoding="utf-8") if args.sink else None
    try:
        net = _observed_run(args, sink=sink)
    finally:
        if sink is not None:
            sink.close()
    tracer = net.observe.tracer
    if args.json:
        print(json_module.dumps(tracer.to_dict(), indent=2))
        return 0
    print(f"{tracer.total_spans} span(s), {tracer.total_events} event(s) "
          f"(sampling 1/{net.observe.sample_every})")
    tree = tracer.render_tree()
    if tree:
        print(tree)
    if args.events:
        print("events:")
        for event in tracer.events:
            attrs = " ".join(f"{k}={event.attrs[k]}" for k in sorted(event.attrs))
            print(f"  t={event.time:<10.6f} {event.name}"
                  + (f" {attrs}" if attrs else ""))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the scenario with FlexScope on and export the metric registry
    (Prometheus text format, or JSON with ``--json``)."""
    net = _observed_run(args)
    registry = net.observe.metrics
    if args.json:
        print(registry.to_json())
    else:
        sys.stdout.write(registry.to_prometheus())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run the scenario with FlexScope on and print the per-phase
    profile (compile, placement, binpack, install, transition)."""
    import json as json_module

    net = _observed_run(args)
    profiler = net.observe.profiler
    if args.json:
        print(json_module.dumps(profiler.to_dict(include_wall=False), indent=2))
    else:
        print(profiler.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexnet", description="FlexNet runtime programmable network toolchain"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared by every verb: one definition, one help string, uniform
    # machine-readable output across the whole toolchain.
    json_parent = argparse.ArgumentParser(add_help=False)
    json_parent.add_argument("--json", action="store_true",
                             help="emit machine-readable JSON")

    certify_parser = subparsers.add_parser("certify", help="certify a FlexBPF program", parents=[json_parent])
    certify_parser.add_argument("program")
    certify_parser.set_defaults(func=cmd_certify)

    check_parser = subparsers.add_parser(
        "check", help="run FlexCheck static analysis (lints, races, overcommit)",
        parents=[json_parent],
    )
    check_parser.add_argument("program", nargs="?", default=None)
    check_parser.add_argument("--patch", default=None,
                              help="delta file to race-check against the program")
    check_parser.add_argument("--arch", default=None,
                              choices=["drmt", "rmt", "tiles"],
                              help="also run the overcommit pass against this target")
    check_parser.add_argument("--builtin", action="store_true",
                              help="check every bundled app/example program")
    check_parser.set_defaults(func=cmd_check)

    vet_parser = subparsers.add_parser(
        "vet",
        help="run FlexVet: parallelism classification, or --self determinism audit",
        parents=[json_parent],
    )
    vet_parser.add_argument("program", nargs="?", default=None)
    vet_parser.add_argument("--builtin", action="store_true",
                            help="vet every bundled app/example program")
    vet_parser.add_argument("--self", dest="self_audit", action="store_true",
                            help="audit the repro source tree for nondeterminism")
    vet_parser.add_argument("--baseline", default=None,
                            help="baseline file for --self (default: the committed one)")
    vet_parser.add_argument("--update-baseline", action="store_true",
                            help="with --self: pin current findings as the new baseline")
    vet_parser.set_defaults(func=cmd_vet)

    compile_parser = subparsers.add_parser("compile", help="compile onto the standard slice", parents=[json_parent])
    compile_parser.add_argument("program")
    compile_parser.add_argument("--arch", default="drmt",
                                choices=["drmt", "rmt", "rmt_static", "tiles"])
    compile_parser.add_argument("--objective", default="balanced",
                                choices=["balanced", "latency", "energy"])
    compile_parser.set_defaults(func=cmd_compile)

    delta_parser = subparsers.add_parser("delta", help="apply a runtime patch", parents=[json_parent])
    delta_parser.add_argument("program")
    delta_parser.add_argument("patch")
    delta_parser.set_defaults(func=cmd_delta)

    export_parser = subparsers.add_parser(
        "export", help="emit normalized (optionally patched) FlexBPF source",
        parents=[json_parent],
    )
    export_parser.add_argument("program")
    export_parser.add_argument("--patch", default=None)
    export_parser.set_defaults(func=cmd_export)

    simulate_parser = subparsers.add_parser("simulate", help="run traffic through the program", parents=[json_parent])
    simulate_parser.add_argument("program")
    simulate_parser.add_argument("--arch", default="drmt",
                                 choices=["drmt", "rmt", "rmt_static", "tiles"])
    simulate_parser.add_argument("--rate", type=float, default=1000.0)
    simulate_parser.add_argument("--duration", type=float, default=1.0)
    simulate_parser.add_argument("--patch", default=None,
                                 help="delta file to apply mid-run")
    simulate_parser.add_argument("--at", type=float, default=0.5,
                                 help="virtual time to apply the patch")
    simulate_parser.set_defaults(func=cmd_simulate)

    bench_parser = subparsers.add_parser(
        "bench", help="benchmark the data-plane executor (FlexPath)",
        parents=[json_parent],
    )
    bench_parser.add_argument("program", nargs="?", default=None,
                              help="FlexBPF program (default: base + firewall delta)")
    bench_parser.add_argument("--fastpath", action="store_true",
                              help="also run FlexPath compiled and diff the outcomes")
    bench_parser.add_argument("--packets", type=int, default=2000)
    bench_parser.add_argument("--seed", type=int, default=2024)
    bench_parser.set_defaults(func=cmd_bench)

    chaos_parser = subparsers.add_parser(
        "chaos", help="run a seeded fault-injection scenario (FlexFault)",
        parents=[json_parent],
    )
    chaos_parser.add_argument("program", nargs="?", default=None,
                              help="FlexBPF program (default: bundled base infrastructure)")
    chaos_parser.add_argument("--patch", default=None,
                              help="delta applied mid-run (default: bundled firewall)")
    chaos_parser.add_argument("--seed", type=int, default=11,
                              help="fault plan seed (reports are reproducible per seed)")
    chaos_parser.add_argument("--crash", action="append", default=None,
                              metavar="DEVICE@TIME",
                              help="crash DEVICE at virtual TIME (repeatable; "
                                   "default sw1@5.2, 'none' to disable)")
    chaos_parser.add_argument("--restart-after", type=float, default=1.0,
                              help="seconds until a crashed device restarts")
    chaos_parser.add_argument("--drop", type=float, default=0.01,
                              help="control-channel drop probability")
    chaos_parser.add_argument("--delay-probability", type=float, default=0.0,
                              help="control-channel delay probability")
    chaos_parser.add_argument("--delay", type=float, default=0.005,
                              help="control-channel delay seconds (with --delay-probability)")
    chaos_parser.add_argument("--rate", type=float, default=None,
                              help="traffic rate in pps (default 1000; "
                                   "20000 with --scale)")
    chaos_parser.add_argument("--duration", type=float, default=10.0)
    chaos_parser.add_argument("--at", type=float, default=5.0,
                              help="virtual time to apply the patch")
    chaos_parser.add_argument("--no-recovery", action="store_true",
                              help="baseline: no retries, no journal resolution")
    chaos_parser.add_argument("--rollback", action="store_true",
                              help="resolve interrupted transitions by rollback, not resume")
    chaos_parser.add_argument("--monitor", action="store_true",
                              help="arm the health monitor (quarantine + detour)")
    chaos_parser.add_argument("--spread", action="store_true",
                              help="host elements on nic1 too (migrated NAT app), so "
                                   "path-level inconsistency is observable")
    chaos_parser.add_argument("--trace", action="store_true",
                              help="enable FlexScope and render the span tree "
                                   "(windows, migrations, faults)")
    chaos_parser.add_argument("--sample-every", type=int, default=64,
                              help="with --trace, sample one packet in N")
    chaos_parser.add_argument("--controller", action="store_true",
                              help="fault the replicated control plane instead "
                                   "(FlexHA: leader crash, or --partition)")
    chaos_parser.add_argument("--partition", action="store_true",
                              help="with --controller: partition the leader away "
                                   "instead of crashing it")
    chaos_parser.add_argument("--nodes", type=int, default=3,
                              help="with --controller: Raft replica count")
    chaos_parser.add_argument("--no-fencing", action="store_true",
                              help="with --controller: disable fencing epochs "
                                   "(the unfenced baseline)")
    chaos_parser.add_argument("--fault-at", type=float, default=None,
                              help="with --controller: when the leader fault "
                                   "fires (default: update time + 0.02s)")
    chaos_parser.add_argument("--heal-after", type=float, default=3.0,
                              help="with --controller --partition: partition "
                                   "duration in seconds")
    chaos_parser.add_argument("--scale", action="store_true",
                              help="fault the sharded process backend instead "
                                   "(FlexMend: worker crashes + handoff "
                                   "drops/dups, differential vs fault-free)")
    chaos_parser.add_argument("--shards", type=int, default=4,
                              help="with --scale: worker shard count")
    chaos_parser.add_argument("--pods", type=int, default=4,
                              help="with --scale: pods in the E20 fabric")
    chaos_parser.add_argument("--packets", type=int, default=600,
                              help="with --scale: workload packet count")
    chaos_parser.add_argument("--worker-crash", action="append", default=None,
                              metavar="SHARD@WINDOW",
                              help="with --scale: kill SHARD's worker at "
                                   "protocol WINDOW (repeatable; default "
                                   "0@4 and 1@6, 'none' to disable)")
    chaos_parser.add_argument("--handoff-drop", type=float, default=0.0,
                              help="with --scale: per-batch handoff drop "
                                   "probability on every shard")
    chaos_parser.add_argument("--handoff-dup", type=float, default=0.0,
                              help="with --scale: per-batch handoff "
                                   "duplication probability on every shard")
    chaos_parser.add_argument("--plan-seed", type=int, default=11,
                              help="with --scale: shard-plan seed")
    chaos_parser.add_argument("--drain", type=float, default=0.05,
                              help="with --scale: quiet horizon after the "
                                   "last injection (s)")
    chaos_parser.add_argument("--checkpoint-every", type=int, default=None,
                              help="with --scale: checkpoint cadence in "
                                   "protocol rounds (default: limits policy)")
    chaos_parser.set_defaults(func=cmd_chaos)

    ha_parser = subparsers.add_parser(
        "ha", help="controller high-availability status (FlexHA)",
        parents=[json_parent],
    )
    ha_parser.add_argument("action", choices=["status"],
                           help="'status': run a replicated-controller scenario "
                                "and print the FlexHA state")
    ha_parser.add_argument("--nodes", type=int, default=3,
                           help="Raft replica count")
    ha_parser.add_argument("--seed", type=int, default=11)
    ha_parser.add_argument("--failover", action="store_true",
                           help="crash the leader mid-update to demonstrate "
                                "fail-over")
    ha_parser.set_defaults(func=cmd_ha)

    scale_parser = subparsers.add_parser(
        "scale", help="run the sharded multi-process simulation (FlexScale)",
        parents=[json_parent],
    )
    scale_parser.add_argument("--shards", type=int, default=2,
                              help="worker shard count")
    scale_parser.add_argument("--backend", default="process",
                              choices=["process", "inline"],
                              help="'process': forked OS workers; "
                                   "'inline': same protocol, one process")
    scale_parser.add_argument("--pods", type=int, default=4,
                              help="pods in the E20 fabric")
    scale_parser.add_argument("--packets", type=int, default=2000)
    scale_parser.add_argument("--rate", type=float, default=20000.0,
                              help="workload Poisson rate (pps)")
    scale_parser.add_argument("--seed", type=int, default=2024,
                              help="workload seed")
    scale_parser.add_argument("--plan-seed", type=int, default=11,
                              help="shard-plan seed")
    scale_parser.add_argument("--drain", type=float, default=0.5,
                              help="quiet horizon after the last injection (s)")
    scale_parser.add_argument("--differential", action="store_true",
                              help="byte-compare against the single-process "
                                   "engine (exit 1 on divergence)")
    scale_parser.set_defaults(func=cmd_scale)

    cloud_parser = subparsers.add_parser(
        "cloud",
        help="run a FlexCloud tenant-churn scenario (batched admission)",
        parents=[json_parent],
    )
    cloud_parser.add_argument("--scenario", default="flash-crowd",
                              choices=["flash-crowd", "diurnal",
                                       "ddos-defense", "canary-rollout"],
                              help="seeded churn shape to generate")
    cloud_parser.add_argument("--tenants", type=int, default=2000,
                              help="tenant population size")
    cloud_parser.add_argument("--seed", type=int, default=2026,
                              help="scenario seed (reports are byte-identical per seed)")
    cloud_parser.add_argument("--racks", type=int, default=4,
                              help="racks in the pod fabric")
    cloud_parser.add_argument("--shards", type=int, default=1,
                              help="cell-partition the per-round device sweep "
                                   "(the report must not change)")
    cloud_parser.add_argument("--probes", type=int, default=32,
                              help="datapath gate probes per home device after "
                                   "convergence")
    cloud_parser.add_argument("--drop", type=float, default=0.0,
                              help="chaos: control-channel drop probability")
    cloud_parser.add_argument("--no-coalesce", action="store_true",
                              help="naive baseline: one reconfiguration window "
                                   "per delta")
    cloud_parser.set_defaults(func=cmd_cloud)

    def scenario_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("program")
        sub.add_argument("--arch", default="drmt",
                         choices=["drmt", "rmt", "rmt_static", "tiles"])
        sub.add_argument("--rate", type=float, default=1000.0)
        sub.add_argument("--duration", type=float, default=1.0)
        sub.add_argument("--patch", default=None, help="delta file to apply mid-run")
        sub.add_argument("--at", type=float, default=0.5,
                         help="virtual time to apply the patch")
        sub.add_argument("--sample-every", type=int, default=64,
                         help="sample one packet in N into the tracer")

    trace_parser = subparsers.add_parser(
        "trace", help="run with FlexScope tracing and render the span tree",
        parents=[json_parent],
    )
    scenario_args(trace_parser)
    trace_parser.add_argument("--events", action="store_true",
                              help="also print the global event feed")
    trace_parser.add_argument("--sink", default=None, metavar="FILE",
                              help="mirror closed spans to FILE as JSONL")
    trace_parser.set_defaults(func=cmd_trace)

    metrics_parser = subparsers.add_parser(
        "metrics", help="run with FlexScope and export the metric registry",
        parents=[json_parent],
    )
    scenario_args(metrics_parser)
    metrics_parser.set_defaults(func=cmd_metrics)

    profile_parser = subparsers.add_parser(
        "profile", help="run with FlexScope and print the per-phase profile",
        parents=[json_parent],
    )
    scenario_args(profile_parser)
    profile_parser.set_defaults(func=cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlexNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

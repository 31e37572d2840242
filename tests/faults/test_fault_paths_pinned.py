"""Golden runs of every fault path a control action can take.

``test_live_update_run_is_pinned`` covers the clean live update; these
cover what happens when the start command is lost and retried, lost for
good, deferred to a device restart, fenced by a newer epoch, suppressed
by the dispatch gate, or turned into a drain + reflash, what an
in-band state move does when a migration fails, and how a restart
resolves an interrupted window (resume, rollback, or under the health
monitor). Each chaos run is pinned by a sha256 of its
canonical ``ChaosReport.to_dict()`` (FlexScope spans included), and each
named outcome is asserted beside it so a changed digest says which path
moved.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import pickle

import pytest

from repro.apps import base_infrastructure, firewall_delta
from repro.cli import main
from repro.core.flexnet import FlexNet
from repro.faults import FaultInjector, FaultPlan, MigrationFault
from repro.lang.delta import apply_delta, parse_delta
from repro.runtime.reconfig import ReconfigOrchestrator
from repro.simulator.packet import reset_packet_ids

from tests.control.test_controller import TWO_MAP_DELTA
from tests.runtime.test_reflash_orchestration import mixed_net

BASE = ("--drop", "0.6", "--crash", "sw1@1.6", "--at", "1.5", "--rate", "200",
        "--duration", "4", "--trace", "--json")


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def chaos(*args: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["chaos", *BASE, *args])
    return json.loads(out.getvalue())


def span_events(report: dict) -> list[str]:
    return sorted(
        event["name"]
        for span in report["spans"]
        for event in span.get("events", ())
        if event["name"] not in ("parse", "table", "function")
    )


def resolution(report: dict) -> dict:
    return {
        "journal": [(e["device"], e["state"], e["resolution"]) for e in report["journal"]],
        "resumed": report["resumed"],
        "rolled_back": report["rolled_back"],
    }


# (extra flags, transition outcome, lifecycle events on the spans,
#  journal resolution, sha256)
CHAOS_RUNS = [
    pytest.param(
        ("--seed", "1"),
        {"commands_dropped": 2, "command_retries": 2, "stranded_commands": [],
         "deferred_starts": []},
        ["command_dropped", "command_dropped", "command_retry", "command_retry",
         "window_open"],
        {},
        "87e9f02771ef2223ed18cff94f444d9456d396fb9bd1db24183b7dce5dbd8c07",
        id="dropped-retried-resumed",
    ),
    pytest.param(
        ("--seed", "2"),
        {"commands_dropped": 5, "command_retries": 4, "stranded_commands": ["sw1"],
         "deferred_starts": []},
        ["command_dropped"] * 5 + ["command_retry"] * 4 + ["stranded"],
        {},
        "162632368445f5761083a97bcd134e3e07dc1f8a678ff467e86759772795e9c2",
        id="retries-exhausted",
    ),
    pytest.param(
        ("--seed", "3", "--crash", "sw1@1.4", "--restart-after", "0.5"),
        {"commands_dropped": 1, "command_retries": 1, "stranded_commands": [],
         "deferred_starts": ["sw1"]},
        ["command_dropped", "command_retry", "commit", "deferred_start", "window_open"],
        {},
        "9f7e367c6ec98f521e7098f68b475251396dd971c444d311bcb4f7971e5ff50e",
        id="deferred-to-restart",
    ),
    pytest.param(
        ("--seed", "1", "--no-recovery"),
        {"commands_dropped": 1, "command_retries": 0, "stranded_commands": ["sw1"],
         "deferred_starts": []},
        ["command_dropped", "stranded"],
        {},
        "4fce2ab8c1d82705c37c1d2c83a7fe0ff2d1dbaefebdea3cddf6f3d0f3271e28",
        id="no-recovery",
    ),
    pytest.param(
        ("--seed", "1", "--spread"),
        {"commands_dropped": 2, "command_retries": 2, "stranded_commands": [],
         "deferred_starts": []},
        ["command_dropped", "command_dropped", "command_retry", "command_retry",
         "commit"] + ["window_open"] * 5,
        {},
        "d5d7cac5e3de1abcdd3da5461c830f64e38274194d4e9d12ac1402fee7389b69",
        id="spread",
    ),
    pytest.param(
        ("--seed", "1", "--controller"),
        {},
        ["command_dropped", "command_dropped", "command_retry", "command_retry",
         "dispatch_suppressed"],
        {},
        "09a00d5c81a4ffdc9e1847302a9209781b1dda10559349607efd7406584cbea5",
        id="controller-undispatched",
    ),
    pytest.param(
        ("--seed", "2", "--controller", "--partition"),
        {},
        ["command_dropped"] * 5 + ["command_retry"] * 4 + ["stranded"],
        {},
        "3b575fc22062e0a5afacb316e88fbdc05e07f1a2b08e2dfbcbef9b1e45a26986",
        id="controller-partition",
    ),
    pytest.param(
        ("--seed", "1", "--rollback"),
        {"commands_dropped": 2, "command_retries": 2, "stranded_commands": [],
         "deferred_starts": []},
        ["command_dropped", "command_dropped", "command_retry", "command_retry",
         "window_open"],
        {"journal": [("sw1", "rolled_back", "rollback")], "resumed": 0, "rolled_back": 1},
        "3247fb9a5ae8a3894a20310cee9a5412e5f40107b6407127bb84347a6e0f87f2",
        id="rolled-back",
    ),
    pytest.param(
        ("--seed", "1", "--monitor"),
        {"commands_dropped": 2, "command_retries": 2, "stranded_commands": [],
         "deferred_starts": []},
        ["command_dropped", "command_dropped", "command_retry", "command_retry",
         "window_open"],
        {"journal": [("sw1", "committed", "resume")], "resumed": 1, "rolled_back": 0},
        "b7666d6f234da439b400e1f4b55531681987d458bdc9587cf67c2415c49c0544",
        id="health-monitor",
    ),
]


@pytest.mark.parametrize("args, transition, events, resolved, sha", CHAOS_RUNS)
def test_a_chaos_fault_path_is_pinned(args, transition, events, resolved, sha):
    report = chaos(*args)
    assert {key: report["transition"][key] for key in transition} == transition
    assert span_events(report) == events
    assert {key: resolution(report)[key] for key in resolved} == resolved
    assert digest(report) == sha


@pytest.mark.parametrize(
    "args, kinds",
    [
        (("--seed", "1"), {"commit", "crash", "dispatch", "open", "restart"}),
        (("--seed", "3", "--crash", "sw1@1.4", "--restart-after", "0.5"),
         {"commit", "crash", "dispatch", "open", "restart"}),
        # every start carries FlexHA's gate, and every one is suppressed
        (("--seed", "1", "--controller"), {"crash", "dispatch", "restart"}),
    ],
    ids=["dropped-retried-resumed", "deferred-to-restart", "controller-undispatched"],
)
def test_every_applied_action_pickles(args, kinds, monkeypatch):
    """An action is a value: each one a chaos run applies survives a
    pickle round trip and compares equal."""
    applied = []
    apply_control = ReconfigOrchestrator.apply_control

    def capture(orchestrator, action):
        applied.append(action)
        apply_control(orchestrator, action)

    monkeypatch.setattr(ReconfigOrchestrator, "apply_control", capture)
    chaos(*args)
    assert {action.kind for action in applied} == kinds
    for action in applied:
        assert pickle.loads(pickle.dumps(action)) == action


def state_move_run(seed: int) -> dict:
    """Two stateful elements leave nic2 for sw1 under a migration-failure
    fault with recovery on: failed migrations are retried, and one map
    exhausts its attempts."""
    reset_packet_ids()
    net = FlexNet.standard()
    net.observe.enable(sample_every=1)
    net.install(base_infrastructure())
    controller = net.controller
    uri = "flexnet://infrastructure/pairs"
    controller.deploy_app(uri, parse_delta(TWO_MAP_DELTA))
    controller.loop.run_until(controller.loop.now + 2.0)
    controller.migrate_app(uri, "nic2")
    controller.loop.run_until(controller.loop.now + 2.0)
    nic2 = controller.devices["nic2"]
    nic2.settle(controller.loop.now)
    nic2.active_instance.maps.state("by_src").put((10,), 7)
    plan = FaultPlan(seed=seed, migration=(MigrationFault(fail_probability=0.8),))
    controller.attach_faults(FaultInjector(plan), recovery=True)
    outcome = controller.migrate_app(uri, "sw1")
    controller.loop.run_until(outcome.report.finished_at + 1.0)
    report = outcome.report
    return {
        "outcome": outcome.to_dict(),
        "migrations": [dataclasses.asdict(m) for m in report.migrations],
        "retries": [report.migration_retries, report.failed_migrations],
        "trace": net.observe.tracer.to_dict(),
    }


def test_a_state_move_is_pinned():
    run = state_move_run(seed=7)
    assert sorted(m["map_name"] for m in run["migrations"]) == ["by_dst", "by_src", "by_src"]
    assert run["retries"] == [10, 1]
    assert digest(run) == "94fa2e4e42d11f798f15f8d96d325bf4e9bcdce51adec324e1006d0047ee93b0"


def fenced_net():
    reset_packet_ids()
    net = FlexNet.standard()
    net.observe.enable(sample_every=1)
    net.install(base_infrastructure())
    return net


def run_fenced(net, **fencing) -> dict:
    controller = net.controller
    new_program, changes = apply_delta(controller.program, firewall_delta())
    outcome = controller.transition_to(new_program, changes, **fencing)
    controller.loop.run_until(outcome.report.finished_at + 1.0)
    return {"outcome": outcome.to_dict(), "trace": net.observe.tracer.to_dict()}


def test_a_stale_epoch_start_is_pinned():
    """Every start carries an epoch below the devices' watermark: no
    window opens and each device counts one stale rejection."""
    net = fenced_net()
    for device in net.controller.devices.values():
        device.admit_epoch(5)
    run = run_fenced(net, epoch=3)
    transition = run["outcome"]["transition"]
    assert transition["stale_rejected"] == len(transition["device_windows"])
    assert all(d.active_program.version == 1 for d in net.controller.devices.values())
    assert digest(run) == "1f16f3214e7a7146ca08b62402f45d7ccbebcfbb3548c624fb28ff149b56f537"


def test_an_undispatched_start_is_pinned():
    """The proposing leader is gone when the starts fire (no FlexHA is
    attached, so node n1 leads in no term): every one is suppressed and
    the fleet stays on the old version."""
    net = fenced_net()
    run = run_fenced(net, epoch=1, dispatch_gate=("n1", 1))
    transition = run["outcome"]["transition"]
    assert transition["undispatched"] == sorted(transition["device_windows"])
    assert digest(run) == "6751c0859f52d512126bac3c55834632cf47aa590876c351f7532b51491f787d"


def reflash_outcome(watermark: int | None = None, **fencing) -> dict:
    reset_packet_ids()
    net = mixed_net()
    controller = net.controller
    if watermark is not None:
        for device in controller.devices.values():
            device.admit_epoch(watermark)
    new_program, changes = apply_delta(controller.program, firewall_delta())
    outcome = controller.transition_to(new_program, changes, **fencing)
    controller.loop.run_until(outcome.report.finished_at + 1.0)
    return outcome.to_dict()


def test_a_reflash_update_is_pinned():
    outcome = reflash_outcome()
    assert outcome["transition"]["reflashed"] == ["sw1"]
    assert digest(outcome) == "0269c05462f13d2572c637c4b1a4e598aef3eaeb9054f8c177a4f1f47a39c1da"


def test_a_fenced_or_undispatched_reflash_is_pinned():
    stale = reflash_outcome(watermark=5, epoch=3)
    undispatched = reflash_outcome(epoch=1, dispatch_gate=("n1", 1))
    assert stale["transition"]["stale_rejected"] == len(stale["transition"]["device_windows"])
    assert undispatched["transition"]["undispatched"] == sorted(
        undispatched["transition"]["device_windows"]
    )
    assert digest([stale, undispatched]) == "26e38c128f6ca44883423bc38c0c75748728c2d97e49328d16ba5da84bcde318"

"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Outside tier-1's ``testpaths``. Runs every workload once in ``--quick``
mode (1/10 sizes, 2 repeats, traced) and checks the properties later
issues rely on; host-time values are not asserted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perf import run  # first: puts the repo root and src/ on sys.path
from perf import layers, measure
from perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def quick(name: str, seed: int = 7, trace: bool = True) -> dict:
    return measure.run_workload(WORKLOADS[name], seed, seconds=0, trace=trace, quick=True)


@pytest.fixture(scope="module")
def sections() -> dict[str, dict]:
    return {name: quick(name) for name in WORKLOADS}


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert doc["paths"] == ["perf"]
    assert doc["command"] == ["python3", "perf/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    } == measure.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == layers.PER_LAYER
    assert "setup_s" in measure.END_TO_END


def test_every_named_metric_is_present_with_its_unit(sections):
    for name, section in sections.items():
        assert section["correct"] and section["failed"] == 0, (name, section["problems"])
        assert section["per_layer"]["fail_ratio"]["value"] == 0
        assert list(section["end_to_end"]) == list(measure.END_TO_END)
        for metric, entry in section["end_to_end"].items():
            assert entry["unit"] == measure.END_TO_END[metric][0]
            assert entry["value"] > 0, (name, metric)
        assert list(section["per_layer"]) == list(layers.PER_LAYER)
        for metric, entry in section["per_layer"].items():
            assert entry["unit"] == layers.PER_LAYER[metric][0]
        for metric in ("trace.overhead_ratio", "trace.residual_ratio", "calib.tick_ms"):
            assert section["per_layer"][metric]["value"] > 0, (name, metric)
        assert section["absent_probes"] == []
        assert section["engine"]["fastpath"] is True


def test_each_workload_exercises_its_layer_and_bypasses_the_other(sections):
    def layer(workload: str, metric: str):
        return sections[workload]["per_layer"][metric]["value"]

    # quick mode has 1/10 of the packets over the same 64 flows, so the
    # memo hit ratio is lower than the full run's ~0.98
    assert layer("fabric_forward", "batch.memo_hit_ratio") >= 0.8
    assert layer("fabric_forward", "batch.mean_batch_size") == 1.0
    assert layer("fabric_forward", "maps.ops") == 0
    assert layer("fabric_stateful", "exec.route_flowcache") == 0
    assert layer("fabric_stateful", "maps.ops") > 0
    assert layer("fabric_stateful", "device.passthrough_hops") == 10 * sections[
        "fabric_stateful"
    ]["packets"]
    assert layer("reconfig_live", "device.transition_hop_ratio") >= 0.05
    assert layer("reconfig_live", "reconfig.virtual_s_max") < 1.0
    assert layer("fabric_sharded", "scale.populated_shards") == 2
    assert layer("fabric_sharded", "scale.handoffs") > 0
    # the datapath runs in the workers there, so it is not probed
    assert layer("fabric_sharded", "device.hops") is None
    assert sections["fabric_sharded"]["report_sha"] == sections["fabric_stateful"]["report_sha"]


def test_traced_self_times_sum_to_the_root_span(sections):
    for name, section in sections.items():
        assert sum(row["share"] for row in section["layer_table"]) == pytest.approx(1.0, abs=0.05)
        hops = section["hops"]
        if section["per_layer"]["device.hops"]["value"] is not None:
            assert section["per_layer"]["device.hops"]["value"] == hops, name
            assert section["per_layer"]["engine.events"]["value"] >= hops


def test_report_sha_follows_the_seed(sections):
    again = quick("fabric_forward", trace=False)
    other = quick("fabric_forward", seed=8, trace=False)
    assert again["report_sha"] == sections["fabric_forward"]["report_sha"]
    assert other["report_sha"] != again["report_sha"]
    assert again["per_layer"] is None


def test_absent_probe_target_degrades_to_null(monkeypatch):
    gone = [
        layers.Probe("repro.simulator.fastpath:FlowCacheRemoved.process", "exec.flowcache"),
        layers.Probe("repro.no_such_module:thing", "maps.get"),
    ]
    kept = [p for p in layers.DATAPATH_PROBES if p.span_names[0] not in ("exec.flowcache", "maps.get")]
    monkeypatch.setattr(layers, "DATAPATH_PROBES", kept + gone)
    section = quick("fabric_stateful")
    assert section["correct"]
    assert sorted(section["absent_probes"]) == sorted(p.target for p in gone)
    assert section["per_layer"]["maps.ops"]["value"] is None
    assert section["per_layer"]["maps.ns_per_op"]["value"] is None
    assert section["per_layer"]["exec.self_ns_per_prog_hop"]["value"] is None
    assert section["per_layer"]["device.hops"]["value"] == section["hops"]
    line = json.loads(run.contract_line(section))
    assert line["metrics"]["maps.ops"] == {"value": 0, "unit": "count"}


def test_probes_are_removed_even_when_the_run_raises(monkeypatch):
    probes = layers.probes_for(True)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(measure.layers, "span_metrics", boom)
    with pytest.raises(RuntimeError, match="boom"):
        quick("fabric_forward")
    assert measure.installed_probes(probes) == []


@pytest.fixture
def restore_affinity():
    """``run.main`` pins the process to one CPU; undo it afterwards."""
    before = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, before)


def test_sabotaged_reference_fails_the_run(monkeypatch, capsys, restore_affinity):
    real = measure.reference_report

    def perturbed(workload, seed, packets):
        arm = real(workload, seed, packets)
        arm.report["metrics"]["delivered"] -= 1
        return arm

    monkeypatch.setattr(measure, "reference_report", perturbed)
    code = run.main(["--workload", "fabric_forward", "--quick"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] > 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_command_line_contract(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", "reconfig_live",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--quick", "--json", str(out)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(measure.END_TO_END)
    result = json.loads(out.read_text(encoding="utf-8"))
    for key in ("git_sha", "git_dirty", "python", "cpu_count", "affinity", "pinned_cpu", "seed",
                "wall_s"):
        assert key in result["manifest"]
    section = result["workloads"]["reconfig_live"]
    assert section["params"]["updates"] == 24 and section["report_sha"]

"""CLI tests."""

import pytest

from repro.cli import main

PROGRAM = """
program demo {
  header ethernet { dst:48; src:48; ethertype:16; }
  header ipv4 { src:32; dst:32; proto:8; ttl:8; }
  parser { start ethernet; on ethernet.ethertype == 0x0800 extract ipv4; }
  map counts { key: ipv4.src; value: u64; max_entries: 1024; }
  action drop() { mark_drop(); }
  action nop() { no_op(); }
  table acl { key: ipv4.src ternary; actions: drop, nop; size: 64; default: nop; }
  func tally() {
    let c: u64 = map_get(counts, ipv4.src);
    map_put(counts, ipv4.src, c + 1);
  }
  apply { acl; tally(); }
}
"""

PATCH = """
delta widen {
  resize table acl 256;
  resize map counts 4096;
}
"""

BAD_PROGRAM = "program broken { header h { x:8 } }"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "demo.fbpf"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def patch_file(tmp_path):
    path = tmp_path / "widen.delta"
    path.write_text(PATCH)
    return str(path)


class TestCertify:
    def test_certify_ok(self, program_file, capsys):
        assert main(["certify", program_file]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out
        assert "tally" in out and "acl" in out

    def test_certify_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.fbpf"
        path.write_text(BAD_PROGRAM)
        assert main(["certify", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["certify", "/nonexistent.fbpf"]) == 2


class TestCompile:
    def test_compile_default(self, program_file, capsys):
        assert main(["compile", program_file]) == 0
        out = capsys.readouterr().out
        assert "acl" in out and "sw1" in out
        assert "estimated latency" in out

    def test_compile_energy_objective(self, program_file, capsys):
        assert main(["compile", program_file, "--objective", "energy"]) == 0
        out = capsys.readouterr().out
        assert "nic1" in out  # energy placement consolidates on the NIC

    def test_compile_rmt_shows_stage_plan(self, program_file, capsys):
        assert main(["compile", program_file, "--arch", "rmt_static"]) == 0
        out = capsys.readouterr().out
        assert "stage plan" in out


class TestDelta:
    def test_delta_applies(self, program_file, patch_file, capsys):
        assert main(["delta", program_file, patch_file]) == 0
        out = capsys.readouterr().out
        assert "version 1 -> 2" in out
        assert "modified" in out and "acl" in out


class TestExport:
    def test_export_roundtrips(self, program_file, capsys):
        assert main(["export", program_file]) == 0
        out = capsys.readouterr().out
        from repro.lang.parser import parse_program

        reparsed = parse_program(out)
        assert reparsed.has_table("acl")

    def test_export_with_patch(self, program_file, patch_file, capsys):
        assert main(["export", program_file, "--patch", patch_file]) == 0
        out = capsys.readouterr().out
        assert "size: 256;" in out  # the resize applied


class TestSimulate:
    def test_simulate_clean(self, program_file, capsys):
        assert main(["simulate", program_file, "--rate", "200", "--duration", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "sent      : 100" in out
        assert "lost      : 0" in out

    def test_simulate_json(self, program_file, capsys):
        import json

        assert main(["simulate", program_file, "--rate", "200", "--duration", "0.5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["sent"] == 100
        assert payload["metrics"]["lost_by_infrastructure"] == 0

    def test_simulate_with_patch(self, program_file, patch_file, capsys):
        assert (
            main([
                "simulate", program_file, "--rate", "200", "--duration", "1.0",
                "--patch", patch_file, "--at", "0.3",
            ])
            == 0
        )
        out = capsys.readouterr().out
        assert "scheduled delta" in out
        assert "versions on sw1" in out


class TestObservabilityVerbs:
    def test_trace_renders_span_tree(self, program_file, patch_file, capsys):
        assert main(["trace", program_file, "--rate", "200", "--duration", "0.5",
                     "--patch", patch_file, "--at", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "[install] install" in out
        assert "[update] update" in out
        assert "[window] window@sw1" in out
        assert "[packet] pkt@sw1" in out

    def test_trace_events_and_json(self, program_file, capsys):
        import json

        assert main(["trace", program_file, "--rate", "200", "--duration", "0.5",
                     "--events"]) == 0
        assert "events:" in capsys.readouterr().out
        assert main(["trace", program_file, "--rate", "200", "--duration", "0.5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"][0]["kind"] == "install"

    def test_trace_sink_writes_jsonl(self, program_file, tmp_path, capsys):
        import json

        sink = tmp_path / "spans.jsonl"
        assert main(["trace", program_file, "--rate", "200", "--duration", "0.5",
                     "--sink", str(sink)]) == 0
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert any(span["kind"] == "packet" for span in lines)

    def test_metrics_prometheus_and_json(self, program_file, capsys):
        import json

        assert main(["metrics", program_file, "--rate", "200", "--duration", "0.5"]) == 0
        text = capsys.readouterr().out
        assert 'flexnet_device_packets_total{device="sw1",version="1"} 100' in text
        assert "# TYPE flexnet_device_packets_total counter" in text
        assert main(["metrics", program_file, "--rate", "200", "--duration", "0.5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flexnet_device_packets_total"]["type"] == "counter"

    def test_metrics_export_is_pinned(self, program_file, patch_file, capsys):
        """The whole metric registry of an observed run with a live
        update, pinned to the byte: a family added, dropped or relabelled
        moves the sha."""
        import hashlib

        assert main(["metrics", program_file, "--patch", patch_file, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ed5d00631f27469169d01e376bed28adf9a034d84f5c01450d168bd8f4f39650"
        )

    def test_vet_export_is_pinned(self, capsys):
        """FlexVet's classification of the bundled corpus, pinned to the
        byte: a map, stage or affinity group classified differently, or
        a field added to or dropped from the report, moves the sha."""
        import hashlib

        assert main(["vet", "--builtin", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "08faabe3788b4451bf43ed90e18c3ba249bbbdf99b50541ceaac23e896d6e215"
        )

    def test_profile_table(self, program_file, patch_file, capsys):
        assert main(["profile", program_file, "--rate", "200", "--duration", "0.5",
                     "--patch", patch_file, "--at", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "compile" in out and "transition" in out

    def test_chaos_trace_renders_windows(self, capsys):
        assert main(["chaos", "--rate", "300", "--duration", "3", "--at", "1.5",
                     "--crash", "none", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "[window] window@sw1" in out
        assert "* commit" in out


class TestChaos:
    CONTROLLER = ["chaos", "--controller", "--crash", "sw2@1.6", "--spread",
                  "--rate", "300", "--duration", "3", "--at", "1.5", "--json"]

    def test_controller_rejects_a_device_only_flag(self, capsys):
        assert main(self.CONTROLLER + ["--no-recovery"]) == 2
        assert "--no-recovery does not apply with --controller" in capsys.readouterr().err

    def test_device_mode_rejects_a_controller_only_flag(self, capsys):
        assert main(["chaos", "--partition"]) == 2
        assert "--partition needs --controller" in capsys.readouterr().err

    def test_controller_arms_the_device_fault_flags(self, capsys):
        import json

        assert main(self.CONTROLLER) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "crash sw2 at t=1.6s, restart after 1s" in payload["fault_plan"]
        # --spread moved the NAT app onto nic1, so the update opens a
        # window there as well as on sw1.
        assert sorted(entry["device"] for entry in payload["journal"]) == ["nic1", "sw1"]
        assert len(payload["ha"]["failovers"]) == 1


class TestBench:
    def test_bench_interpreted_only(self, capsys):
        assert main(["bench", "--packets", "60"]) == 0
        out = capsys.readouterr().out
        assert "interpreted" in out
        assert "compiled" not in out

    def test_bench_fastpath_diffs_clean(self, program_file, capsys):
        assert main(["bench", program_file, "--fastpath", "--packets", "60"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out
        assert "divergences : 0" in out

    def test_bench_fastpath_json(self, capsys):
        import json

        assert main(["bench", "--fastpath", "--packets", "60", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["divergences"] == 0
        assert payload["compiled_pps"] > 0

    def test_bench_batch_diffs_clean(self, capsys):
        """``--fastpath`` is one compiled row and its check: the "with
        memo" row went with the flow memo."""
        assert main(["bench", "--fastpath", "--packets", "120"]) == 0
        out = capsys.readouterr().out
        assert "compiled" in out and "with memo" not in out
        assert "divergences : 0" in out

    def test_bench_batch_json(self, capsys):
        import json

        assert main(["bench", "--fastpath", "--packets", "120", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == [
            "compiled_pps", "divergences", "interpreted_pps", "packets", "program", "speedup",
        ]
        assert payload["divergences"] == 0 and payload["packets"] == 120

    def test_bench_exits_1_when_the_memo_arm_diverges(self, capsys, monkeypatch):
        """The generated function's copies of the lookup (hash index and
        remembered scan), broken so that they forget every rule: the
        differential check must say so."""
        import functools

        from repro.simulator import fastpath

        forget = ["rules.miss_count += 1", "call = rules.definition.default_action"]
        monkeypatch.setattr(fastpath, "_LOOKUP", dict.fromkeys((True, False), forget))
        # The source memo is keyed by program shape, not by the generator:
        # an empty one for this test generates with the broken lookup and
        # is dropped with it, so no later test runs its code.
        monkeypatch.setattr(fastpath, "_code", functools.lru_cache(fastpath._code.__wrapped__))
        assert main(["bench", "--fastpath", "--packets", "120"]) == 1
        assert "diverged" in capsys.readouterr().out

    def test_bench_pps_survives_zero_elapsed(self, capsys, monkeypatch):
        # Regression: on a fast machine a tiny corpus can finish inside
        # timer resolution; the pps denominator is clamped so the rates
        # stay finite instead of dividing by zero.
        import json
        import math
        import time

        monkeypatch.setattr(time, "perf_counter", lambda: 42.0)
        assert main(["bench", "--fastpath", "--packets", "20", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["interpreted_pps"])
        assert math.isfinite(payload["compiled_pps"])
        assert payload["interpreted_pps"] > 0


class TestVet:
    def test_vet_program_file(self, program_file, capsys):
        assert main(["vet", program_file]) == 0
        out = capsys.readouterr().out
        assert "counts" in out and "per_flow" in out

    def test_vet_builtin_corpus(self, capsys):
        assert main(["vet", "--builtin"]) == 0
        out = capsys.readouterr().out
        assert "[firewall]" in out and "cross_flow" in out
        assert "[base]" in out

    def test_vet_json(self, program_file, capsys):
        import json

        assert main(["vet", program_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["affinity_groups"][0]["partition_fields"] == ["ipv4.src"]

    def test_vet_no_args_is_usage_error(self, capsys):
        assert main(["vet"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_vet_has_no_source_audit_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["vet", "--self"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --self" in capsys.readouterr().err


class TestScale:
    def test_scale_inline_differential(self, capsys):
        assert main(["scale", "--backend", "inline", "--shards", "2",
                     "--pods", "2", "--packets", "120", "--drain", "0.05",
                     "--differential"]) == 0
        out = capsys.readouterr().out
        assert "flexscale [inline] 2 shard(s)" in out
        assert "byte-identical" in out

    def test_scale_json_report(self, capsys):
        import json

        assert main(["scale", "--backend", "inline", "--shards", "2",
                     "--pods", "2", "--packets", "120", "--drain", "0.05",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traffic"]["metrics"]["sent"] == 120
        assert payload["sharding"]["backend"] == "inline"
        assert len(payload["sharding"]["per_shard"]) == 2

    def test_scale_process_backend(self, capsys):
        assert main(["scale", "--backend", "process", "--shards", "2",
                     "--pods", "2", "--packets", "120", "--drain", "0.05",
                     "--differential"]) == 0
        out = capsys.readouterr().out
        assert "flexscale [process] 2 shard(s)" in out
        assert "byte-identical" in out

    CHAOS = ["scale", "--shards", "2", "--packets", "150", "--worker-crash", "0@2",
             "--differential", "--json"]

    def test_scale_chaos_differential(self, capsys):
        import json

        assert main(self.CHAOS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mend"]["restarts"] == 1
        assert payload["differential"]["divergences"] == []

    def test_scale_differential_names_the_first_divergence(self, capsys, monkeypatch):
        from repro.scale import ScaleReport

        traffic_dict = ScaleReport.traffic_dict

        def one_more_delivered(report):
            traffic = traffic_dict(report)
            traffic["metrics"]["delivered"] += 1
            return traffic

        monkeypatch.setattr(ScaleReport, "traffic_dict", one_more_delivered)
        assert main(self.CHAOS) == 1
        assert "metrics.delivered: expected 150, got 151" in capsys.readouterr().out

    def test_scale_rejects_a_malformed_worker_crash(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scale", "--worker-crash", "zero"])
        assert excinfo.value.code == 2
        assert "expected SHARD@WINDOW" in capsys.readouterr().err

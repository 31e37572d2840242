"""The `repro.analysis.check` entry point, Report model, corpus, and CLI."""

import json

import pytest

from repro import analysis
from repro.analysis.corpus import bundled_programs
from repro.analysis.report import Finding, Report, Severity
from repro.apps import base_infrastructure, dctcp_delta, syn_defense_delta
from repro.cli import main
from repro.core.flexnet import FlexNet
from repro.errors import AnalysisError
from repro.lang.delta import parse_delta
from repro.lang.printer import print_program
from repro.scale.workload import e20_net

from tests.conftest import assert_live_facts_fresh, five_hop_net

SHRINK = """
delta shrink {
  resize map flow_counts 64;
}
"""


class TestReport:
    def finding(self, severity=Severity.ERROR):
        return Finding(
            code="X-TEST", severity=severity, message="msg", pass_name="lint",
            element="e", fixit="do the thing",
        )

    def test_ok_and_render(self):
        report = Report(program_name="p", program_version=1,
                        findings=(self.finding(Severity.WARNING),),
                        passes_run=("dataflow", "lint"))
        assert report.ok
        assert "OK" in report.render() and "1 warning(s)" in report.render()

    def test_errors_block(self):
        report = Report(program_name="p", program_version=1,
                        findings=(self.finding(),), passes_run=("lint",))
        assert not report.ok
        assert "REJECTED" in report.render()

    def test_json_round_trip(self):
        report = Report(program_name="p", program_version=2,
                        findings=(self.finding(),), passes_run=("lint",))
        payload = json.loads(report.to_json())
        assert payload["program"] == "p"
        assert payload["findings"][0]["code"] == "X-TEST"
        assert payload["findings"][0]["severity"] == "error"
        assert payload["findings"][0]["fixit"] == "do the thing"

    def test_sorted_findings_by_severity(self):
        report = Report(
            program_name="p", program_version=1,
            findings=(self.finding(Severity.INFO), self.finding(Severity.ERROR)),
            passes_run=(),
        )
        assert report.sorted_findings()[0].severity is Severity.ERROR


class TestCheckEntryPoint:
    def test_clean_program(self):
        report = analysis.check(base_infrastructure())
        assert report.ok and report.findings == ()
        assert "dataflow" in report.passes_run and "lint" in report.passes_run

    def test_delta_triggers_race_pass(self):
        report = analysis.check(base_infrastructure(), delta=parse_delta(SHRINK))
        assert "race" in report.passes_run
        assert not report.ok
        assert {f.code for f in report.errors} == {"RACE-MAP-RESIZE"}

    def test_two_phase_mitigates(self):
        report = analysis.check(
            base_infrastructure(), delta=parse_delta(SHRINK), two_phase=True
        )
        assert report.ok

    def test_bundled_corpus_is_finding_free(self):
        # The acceptance bar: zero errors (and zero warnings) across
        # every program the repo bundles.
        for label, program in bundled_programs():
            report = analysis.check(program)
            assert report.findings == (), f"{label}: {report.render()}"


class TestFlexNetIntegration:
    def test_admit_rejects_error_findings(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        with pytest.raises(AnalysisError, match="rejected by FlexCheck race analysis"):
            net.update(parse_delta(SHRINK), strict=True)

    def test_update_escalates_instead_of_failing(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        outcome = net.update(parse_delta(SHRINK))
        assert outcome.forced_two_phase
        assert any(f.code == "RACE-MAP-RESIZE" for f in outcome.race_findings)

    def test_safe_delta_not_escalated(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        outcome = net.update(syn_defense_delta())
        assert not outcome.forced_two_phase

    def test_net_check_reports_on_live_program(self):
        net = FlexNet.standard()
        net.install(base_infrastructure())
        report = net.check(delta=parse_delta(SHRINK))
        assert not report.ok

    @pytest.mark.parametrize("build", [five_hop_net, e20_net])
    def test_one_analysis_per_program_version(self, build, walk_counts):
        # The install and the update each certify and analyze their
        # version once; the update's race pass reads the live program's
        # dataflow from the record the install (or the previous update)
        # left on the controller.
        net = build()
        assert (walk_counts["certify"], walk_counts["analyze"]) == (1, 1)
        assert_live_facts_fresh(net.controller)
        for delta in (dctcp_delta(), parse_delta(SHRINK)):  # safe, then escalating
            walk_counts.clear()
            outcome = net.update(delta)
            assert (walk_counts["certify"], walk_counts["analyze"]) == (1, 1)
            assert walk_counts["validate"] <= 2
            assert_live_facts_fresh(net.controller)
            net.loop.run_until(outcome.report.finished_at)
        assert outcome.forced_two_phase

    def test_blocking_lint_rejects_update_before_any_device_is_touched(self, monkeypatch):
        # Every bundled lint is a WARNING; the facade's gate on
        # ``report.errors`` is what would stop a blocking one.
        blocker = Finding(code="LINT-BLOCKER", severity=Severity.ERROR,
                          message="blocking", pass_name="lint")
        net = five_hop_net()
        live = net.program
        monkeypatch.setattr(analysis, "check_lints", lambda program, dataflow: [blocker])
        with pytest.raises(AnalysisError, match="rejected by FlexCheck: LINT-BLOCKER"):
            net.update(syn_defense_delta())
        assert net.program is live and net.loop.pending() == 0
        assert all(
            device.stats.reconfigurations == 0 for device in net.controller.devices.values()
        )


class TestCliCheck:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "infra.fbpf"
        path.write_text(print_program(base_infrastructure()))
        return str(path)

    @pytest.fixture
    def patch_file(self, tmp_path):
        path = tmp_path / "shrink.delta"
        path.write_text(SHRINK)
        return str(path)

    def test_check_ok(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_racy_patch_fails(self, program_file, patch_file, capsys):
        assert main(["check", program_file, "--patch", patch_file]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out and "RACE-MAP-RESIZE" in out

    def test_check_json(self, program_file, patch_file, capsys):
        assert main(["check", program_file, "--patch", patch_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "infra"
        assert any(f["code"] == "RACE-MAP-RESIZE" for f in payload["findings"])

    def test_check_builtin(self, capsys):
        assert main(["check", "--builtin"]) == 0
        out = capsys.readouterr().out
        assert "[base]" in out and "ddos:syn_defense" in out

    def test_check_with_arch(self, program_file, capsys):
        assert main(["check", program_file, "--arch", "drmt"]) == 0
        assert "overcommit" in capsys.readouterr().out

    def test_check_no_program_no_builtin(self, capsys):
        assert main(["check"]) == 2
        assert "error" in capsys.readouterr().err

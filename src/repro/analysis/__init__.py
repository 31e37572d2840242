"""FlexCheck: static data-flow & reconfiguration-safety analysis.

The paper (§3.1) requires FlexBPF programs to be "analyzable to certify
bounded execution [and] well-behavedness" before runtime insertion.
:mod:`repro.lang.analyzer` certifies the *bounds* (ops, state); this
package certifies the *behaviour*: data flow, reconfiguration safety,
tenant isolation, and resource feasibility. One entry point:

    >>> from repro import analysis
    >>> report = analysis.check(program)                  # lints + dataflow
    >>> report = analysis.check(program, delta=my_delta)  # + race detection
    >>> report = analysis.check(program, target=targets)  # + overcommit
    >>> report.ok, report.to_json()

The control path analyses each program version once, into a
:class:`ProgramFacts` record that travels from admission to commit.

``check`` never raises on findings — it returns a :class:`Report`; the
admission pipeline (:meth:`repro.core.flexnet.FlexNet.admit`) turns
``report.errors`` into :class:`~repro.errors.AnalysisError`, and the
controller uses the race pass to escalate unsafe transitions onto the
two-phase consistent path instead of rejecting them outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.dataflow import AccessSet, DataflowInfo, analyze
from repro.analysis.interference import check_tenants
from repro.analysis.lints import check_lints
from repro.analysis.overcommit import check_overcommit
from repro.analysis.races import check_reconfig
from repro.analysis.report import Finding, Report, Severity
from repro.analysis.selfcheck import AuditFinding, AuditReport, run_selfcheck
from repro.analysis.vet import StateClass, VetReport, vet
from repro.lang import ir
from repro.lang.analyzer import Certificate, ElementProfile, certify
from repro.lang.composition import TenantSpec
from repro.lang.delta import ChangeSet, Delta, apply_delta
from repro.targets.base import Target

__all__ = [
    "AccessSet",
    "AuditFinding",
    "AuditReport",
    "DataflowInfo",
    "Finding",
    "ProgramFacts",
    "Report",
    "Severity",
    "StateClass",
    "VetReport",
    "analyze",
    "check",
    "check_lints",
    "check_overcommit",
    "check_reconfig",
    "check_tenants",
    "run_selfcheck",
    "vet",
]


@dataclass(frozen=True)
class ProgramFacts:
    """The admission record of one program version: the validated
    program, its :class:`~repro.lang.analyzer.Certificate` and its
    :class:`DataflowInfo`, each computed once. Built at the admission
    door and handed down to the race pass, placement and the
    orchestrator; the controller keeps the live version's record, so
    the next delta's race pass finds its old program already analysed.
    """

    program: ir.Program
    certificate: Certificate
    dataflow: DataflowInfo

    @classmethod
    def of(
        cls, program: "ir.Program | ProgramFacts", previous: "ProgramFacts | None" = None
    ) -> "ProgramFacts":
        """Validate, certify and analyze ``program`` (a record passes
        through untouched). Raises what validation and certification
        raise.

        ``previous`` is the record of an earlier version, usually the
        live one. Every action, table, function and map that
        ``program`` keeps from it unchanged — the same IR node, naming
        headers, maps and actions that are the same objects in both
        (:meth:`~repro.lang.ir.Program.unchanged_since`) — keeps its
        type-check verdict, its :class:`~repro.lang.analyzer.
        ElementProfile` and its :class:`AccessSet`; every other element
        goes through the same per-element code as when there is nothing
        to carry. What is a property of the whole program is worked out
        on every version: unique names, parser and apply-block checks,
        the packet-op and map-entry bounds, recirculation,
        well-behavedness, and what the apply block reaches and reads.
        """
        if isinstance(program, ProgramFacts):
            return program
        profiles: dict[str, ElementProfile] = {}
        accesses: dict[str, AccessSet] = {}
        if previous is None:
            program = program.validate()
        else:
            program = program.validate(previous.program)
            for name in program.unchanged_since(previous.program):
                profiles[name] = previous.certificate.profiles[name]
                if name in previous.dataflow.elements:  # maps have no access set
                    accesses[name] = previous.dataflow.elements[name]
        return cls(program, certify(program, profiles), analyze(program, accesses))


def _as_targets(target) -> list[Target]:
    """Accept a Target, a sequence of Targets, or a NetworkSlice."""
    if target is None:
        return []
    if isinstance(target, Target):
        return [target]
    devices = getattr(target, "devices", None)
    if devices is not None:  # NetworkSlice duck type
        return [spec.target for spec in devices]
    return list(target)


def check(
    program: ir.Program,
    delta: Delta | None = None,
    target: Target | Sequence[Target] | object | None = None,
    *,
    tenants: Sequence[tuple[TenantSpec, ir.Program]] = (),
    two_phase: bool = False,
    facts: ProgramFacts | None = None,
) -> Report:
    """Run every applicable FlexCheck pass and return a :class:`Report`.

    Parameters
    ----------
    program:
        The (validated) live program to analyze.
    delta:
        Optional :class:`~repro.lang.delta.Delta` proposed against
        ``program``; enables the reconfiguration-race pass. The delta is
        applied to a scratch copy — ``program`` is never mutated.
    target:
        Optional :class:`~repro.targets.base.Target`, sequence of
        targets, or :class:`~repro.compiler.placement.NetworkSlice`;
        enables the overcommit pass.
    tenants:
        Optional ``(TenantSpec, extension_program)`` pairs; enables the
        tenant-interference pass against ``program`` as the base.
    two_phase:
        The proposed transition is already scheduled through the
        two-phase consistent path, downgrading race ERRORs to INFO.
    facts:
        ``program``'s :class:`ProgramFacts` when the caller already
        holds it (the admission pipeline does): nothing is validated,
        analyzed or certified again.
    """
    if facts is None:
        program = program.validate()
        dataflow = analyze(program)
    else:
        program, dataflow = facts.program, facts.dataflow
    findings: list[Finding] = []
    passes = ["dataflow", "lint"]

    findings.extend(check_lints(program, dataflow))

    if delta is not None:
        passes.append("race")
        new_program, changes = apply_delta(program, delta)
        findings.extend(
            check_reconfig(
                program,
                new_program,
                changes,
                two_phase=two_phase,
                old_dataflow=dataflow,
            )
        )

    if tenants:
        passes.append("tenant")
        findings.extend(check_tenants(program, tenants))

    targets = _as_targets(target)
    if targets:
        passes.append("overcommit")
        certificate = facts.certificate if facts is not None else certify(program)
        findings.extend(check_overcommit(certificate, targets))

    return Report(
        program_name=program.name,
        program_version=program.version,
        findings=tuple(findings),
        passes_run=tuple(passes),
    )


def check_changeset(
    old: ProgramFacts,
    new: ProgramFacts,
    changes: ChangeSet,
    *,
    two_phase: bool = False,
) -> Report:
    """Race-only analysis for callers that already applied their delta
    and hold both versions' facts (the controller's transition path)."""
    findings = tuple(
        check_reconfig(
            old.program,
            new.program,
            changes,
            two_phase=two_phase,
            old_dataflow=old.dataflow,
            new_dataflow=new.dataflow,
        )
    )
    return Report(
        program_name=new.program.name,
        program_version=new.program.version,
        findings=findings,
        passes_run=("race",),
    )

"""FlexCheck findings and reports.

Every FlexCheck pass emits :class:`Finding` objects with a stable code
(``RACE-...``, ``TENANT-...``, ``RES-...``, ``LINT-...``), a severity,
and — where the analysis can suggest one — a concrete fix-it hint. A
:class:`Report` aggregates findings for one analysis run; the admission
pipeline rejects on :attr:`Report.errors`, the CLI prints all of them,
and :meth:`Report.to_json` emits the machine-readable form benchmarks
and CI assert against.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is, in descending order of urgency.

    * ``ERROR`` — the program/delta is unsafe as analyzed; admission
      must reject it (or, for reconfiguration races, force it through
      the two-phase consistent path).
    * ``WARNING`` — legal but suspicious; surfaced to the operator.
    * ``INFO`` — an observation, e.g. a race that a stronger consistency
      schedule already mitigates.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a FlexCheck pass."""

    code: str
    severity: Severity
    message: str
    #: The pass that produced the finding ("dataflow", "lint", "race",
    #: "tenant", "overcommit").
    pass_name: str
    #: Program element the finding anchors to, when there is one.
    element: str | None = None
    #: Concrete suggested remediation, when the analysis can name one.
    fixit: str | None = None

    def to_dict(self) -> dict:
        data = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "pass": self.pass_name,
        }
        if self.element is not None:
            data["element"] = self.element
        if self.fixit is not None:
            data["fixit"] = self.fixit
        return data

    def __str__(self) -> str:
        where = f" [{self.element}]" if self.element else ""
        hint = f"\n      fix: {self.fixit}" if self.fixit else ""
        return f"{self.severity.value:7s} {self.code}{where}: {self.message}{hint}"


@dataclass(frozen=True)
class Report:
    """The aggregated result of one ``repro.analysis.check`` run."""

    program_name: str
    program_version: int
    findings: tuple[Finding, ...] = ()
    #: Which passes actually ran (races/overcommit only run when a delta
    #: or target is supplied).
    passes_run: tuple[str, ...] = field(default=())

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no finding blocks admission."""
        return not self.errors

    def sorted_findings(self) -> tuple[Finding, ...]:
        return tuple(
            sorted(self.findings, key=lambda f: (f.severity.rank, f.code, f.element or ""))
        )

    def to_dict(self) -> dict:
        return {
            "program": self.program_name,
            "version": self.program_version,
            "passes": list(self.passes_run),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        """FlexScope :class:`~repro.observe.report.Reportable` alias of
        :meth:`render`."""
        return self.render()

    def render(self) -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        status = "OK" if self.ok else "REJECTED"
        lines = [
            f"flexcheck {self.program_name!r} (version {self.program_version}): {status} "
            f"— {len(self.errors)} error(s), {len(self.warnings)} warning(s) "
            f"[passes: {', '.join(self.passes_run)}]"
        ]
        lines.extend(f"  {finding}" for finding in self.sorted_findings())
        return "\n".join(lines)

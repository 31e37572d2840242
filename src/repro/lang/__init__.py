"""FlexBPF: the FlexNet programming language (§3.1-§3.2 of the paper).

Public surface:

* :func:`repro.lang.parser.parse_program` — parse FlexBPF source.
* :class:`repro.lang.builder.ProgramBuilder` — programmatic construction.
* :func:`repro.lang.analyzer.certify` — bounded-execution certification.
* :func:`repro.lang.parser.parse_delta` / :func:`repro.lang.delta.apply_delta`
  — the incremental change DSL.
* :class:`repro.lang.composition.Composer` — tenant datapath composition.
"""

from repro import _lazy_exports

__all__ = [
    "Analyzer",
    "Certificate",
    "ChangeSet",
    "Composer",
    "Delta",
    "Permission",
    "Program",
    "ProgramBuilder",
    "TenantSpec",
    "apply_delta",
    "certify",
    "parse_delta",
    "parse_program",
    "print_program",
]

__getattr__ = _lazy_exports(
    __name__,
    {
        "analyzer": ("Analyzer", "Certificate", "certify"),
        "builder": ("ProgramBuilder",),
        "composition": ("Composer", "Permission", "TenantSpec"),
        "delta": ("ChangeSet", "Delta", "apply_delta"),
        "ir": ("Program",),
        "parser": ("parse_delta", "parse_program"),
        "printer": ("print_program",),
    },
)

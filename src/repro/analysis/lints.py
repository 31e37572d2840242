"""Dead-code / unused-state lints with fix-it hints.

All lints are WARNING severity: they never block admission (an unused
map is wasteful, not unsafe) but each carries a concrete fix-it so
``repro check`` output is directly actionable. Codes:

* ``LINT-UNUSED-MAP``      — a map no applied element reads or writes.
* ``LINT-WRITE-ONLY-MAP``  — a map that is written but never read.
* ``LINT-DEAD-ELEMENT``    — a table/function unreachable from apply.
* ``LINT-UNUSED-ACTION``   — an action no table lists.
* ``LINT-UNPARSED-KEY``    — a table/map keyed on a header the parser
  never extracts; on parsed-packet targets those entries can never
  match (the paper's "unreachable table entries").
* ``LINT-OVERSIZED-TABLE`` — an exact-match table sized beyond its key
  space (size > 2**key_bits); the excess entries are unreachable.
"""

from __future__ import annotations

from repro.analysis.dataflow import DataflowInfo
from repro.analysis.report import Finding, Severity
from repro.lang import ir


def _warn(code: str, element: str, message: str, fixit: str) -> Finding:
    return Finding(
        code=code,
        severity=Severity.WARNING,
        message=message,
        pass_name="lint",
        element=element,
        fixit=fixit,
    )


def _parsed_headers(program: ir.Program) -> frozenset[str] | None:
    """Headers the parser extracts, or None when there is no parser
    (headerless/metadata-only programs are not linted for parse reach)."""
    if program.parser is None:
        return None
    return frozenset(program.parser.headers_extracted)


def check_lints(program: ir.Program, dataflow: DataflowInfo) -> list[Finding]:
    findings: list[Finding] = []
    program_access = dataflow.program_access
    parsed = _parsed_headers(program)

    # -- map usage ---------------------------------------------------------
    for map_def in program.maps:
        read = map_def.name in program_access.map_reads
        written = map_def.name in program_access.map_writes
        if not read and not written:
            findings.append(
                _warn(
                    "LINT-UNUSED-MAP",
                    map_def.name,
                    f"map {map_def.name!r} ({map_def.max_entries} entries) is never "
                    "read or written by any applied element",
                    f"remove it: delta.RemoveElements(('{map_def.name}',))",
                )
            )
        elif written and not read:
            findings.append(
                _warn(
                    "LINT-WRITE-ONLY-MAP",
                    map_def.name,
                    f"map {map_def.name!r} is written but never read — state that "
                    "no lookup can observe",
                    "read it via map_get(...) somewhere, export it through "
                    "emit_digest, or remove the writes",
                )
            )

    # -- dead elements -----------------------------------------------------
    for table in program.tables:
        if table.name not in dataflow.applied:
            findings.append(
                _warn(
                    "LINT-DEAD-ELEMENT",
                    table.name,
                    f"table {table.name!r} is not reachable from the apply block",
                    f"add ApplyTable({table.name!r}) to apply, or remove the table",
                )
            )
    for function in program.functions:
        if function.name not in dataflow.applied:
            findings.append(
                _warn(
                    "LINT-DEAD-ELEMENT",
                    function.name,
                    f"function {function.name!r} is not reachable from the apply block",
                    f"add ApplyFunction({function.name!r}) to apply, or remove it",
                )
            )

    # -- unused actions ----------------------------------------------------
    listed: set[str] = set()
    for table in program.tables:
        listed.update(table.invocable)
    for action in program.actions:
        if action.name not in listed:
            findings.append(
                _warn(
                    "LINT-UNUSED-ACTION",
                    action.name,
                    f"action {action.name!r} is not listed by any table",
                    f"list it in a table's actions or remove it: "
                    f"delta.RemoveElements(('{action.name}',))",
                )
            )

    # -- unreachable entries: keys over unparsed headers -------------------
    if parsed is not None:
        for table in program.tables:
            bad = sorted({k.field.header for k in table.keys} - parsed)
            if bad and table.name in dataflow.applied:
                findings.append(
                    _warn(
                        "LINT-UNPARSED-KEY",
                        table.name,
                        f"table {table.name!r} matches on header(s) {bad} that the "
                        "parser never extracts; its entries can never match",
                        f"add a ParserTransition extracting {bad[0]!r}, or key the "
                        "table on a parsed header",
                    )
                )
        for map_def in program.maps:
            bad = sorted({ref.header for ref in map_def.key_fields} - parsed)
            if bad and (
                dataflow.readers_of_map(map_def.name) or dataflow.writers_of_map(map_def.name)
            ):
                findings.append(
                    _warn(
                        "LINT-UNPARSED-KEY",
                        map_def.name,
                        f"map {map_def.name!r} is keyed on header(s) {bad} that the "
                        "parser never extracts; every lookup sees zero-valued keys",
                        f"add a ParserTransition extracting {bad[0]!r}, or re-key "
                        "the map",
                    )
                )

    # -- oversized exact tables --------------------------------------------
    for table in program.tables:
        if table.is_ternary or table.is_lpm or not table.keys:
            continue
        key_bits = program.table_key_bits(table)
        if key_bits < 63 and table.size > (1 << key_bits):
            findings.append(
                _warn(
                    "LINT-OVERSIZED-TABLE",
                    table.name,
                    f"exact table {table.name!r} declares {table.size} entries but its "
                    f"{key_bits}-bit key space only has {1 << key_bits} distinct keys; "
                    "the surplus entries are unreachable",
                    f"delta.SetTableSize({table.name!r}, {1 << key_bits})",
                )
            )

    return findings

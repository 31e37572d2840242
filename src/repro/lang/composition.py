"""Datapath composition: layering tenant extensions over the base (§3.2).

The paper's deployment scenario: the operator maintains a trusted
"infrastructure" program; tenants inject "extension" programs that are
admitted after access-control validation and isolated from each other
(VLAN-based isolation). This module implements:

* **Namespacing** — tenant elements are renamed ``<tenant>__<name>``
  so independent extensions never collide; all intra-program references
  (map ops, table actions, apply steps) are rewritten consistently.
* **VLAN isolation** — each extension's apply block is guarded by
  ``meta.vlan_id == <tenant vlan>`` so a tenant's logic only ever sees
  its own traffic.
* **Access control** — a :class:`Permission` limits which base-program
  elements a tenant may reference, which primitives it may invoke, and
  how much state it may declare; violations raise
  :class:`~repro.errors.AccessControlError` at admission time.
* **Shared-code detection** — structurally identical functions across
  tenants are reported as dedup candidates (the optimization opportunity
  the paper calls out).
* **Conflict detection** — two extensions writing the same header field
  of shared headers is flagged; the composer refuses unless an explicit
  priority order resolves it. What a program writes to shared headers
  is :func:`shared_field_writes`, a projection of its bodies'
  footprints; FlexCloud's coalescer asks the same function.

:func:`validate_extension` alone still walks statements: it reports the
*first* violation in body order, which a set cannot.
"""

from __future__ import annotations

import fnmatch
from collections.abc import Set
from dataclasses import dataclass, field, replace

from repro.errors import AccessControlError, CompositionError
from repro.lang import ir


@dataclass(frozen=True)
class Permission:
    """What a tenant extension is allowed to do."""

    #: Glob patterns of base-program maps the tenant may read.
    readable_base_maps: tuple[str, ...] = ()
    #: Primitives the tenant may invoke (default: forwarding-safe subset).
    allowed_primitives: frozenset[str] = frozenset(
        {"mark_drop", "set_port", "no_op", "emit_digest", "set_queue"}
    )
    #: Cap on total declared map entries across the extension.
    max_map_entries: int = 100_000
    #: Cap on total declared table entries.
    max_table_entries: int = 100_000
    #: May the extension parse new header types?
    may_extend_parser: bool = False
    #: Glob patterns of shared header fields (``"ipv4.ttl"``-style) the
    #: tenant may write. ``None`` means legacy-unrestricted (any field);
    #: an empty tuple means the tenant may write no base field at all.
    writable_fields: tuple[str, ...] | None = None


@dataclass(frozen=True)
class TenantSpec:
    """Identity and isolation parameters of one tenant."""

    name: str
    vlan_id: int
    permission: Permission = field(default_factory=Permission)


@dataclass(frozen=True)
class SharedCode:
    """A dedup candidate: structurally identical functions in >= 2 tenants."""

    canonical: str
    duplicates: tuple[str, ...]


@dataclass(frozen=True)
class FieldConflict:
    """Two extensions write the same shared header field."""

    field_ref: ir.FieldRef
    writers: tuple[str, ...]


@dataclass(frozen=True)
class CompositionReport:
    composed: ir.Program
    tenants: tuple[str, ...]
    shared_code: tuple[SharedCode, ...]
    conflicts: tuple[FieldConflict, ...]


def shared_field_writes(
    program: ir.Program, local_headers: Set[str] = frozenset()
) -> frozenset[ir.FieldRef]:
    """Header fields some action or function of ``program`` assigns,
    leaving out the fields of ``local_headers`` (headers only this
    program sees, which nobody else can conflict on)."""
    return frozenset(
        ref
        for node in (*program.actions, *program.functions)
        for ref in node.access.field_writes
        if ref.header not in local_headers
    )


def _dedupe_functions(
    functions: list[ir.FunctionDef],
    apply_steps: list[ir.ApplyStep],
    shared: tuple[SharedCode, ...],
    base_function_names: set[str],
) -> tuple[list[ir.FunctionDef], list[ir.ApplyStep]]:
    """Drop duplicate function bodies and rewrite apply references to the
    canonical copy."""
    alias: dict[str, str] = {}
    for group in shared:
        for duplicate in group.duplicates:
            alias[duplicate] = group.canonical
    kept = [f for f in functions if f.name not in alias]

    def rewrite(step: ir.ApplyStep) -> ir.ApplyStep:
        if isinstance(step, ir.ApplyFunction) and step.function in alias:
            return ir.ApplyFunction(function=alias[step.function])
        if isinstance(step, ir.ApplyIf):
            return ir.ApplyIf(
                condition=step.condition,
                then_steps=tuple(rewrite(s) for s in step.then_steps),
                else_steps=tuple(rewrite(s) for s in step.else_steps),
            )
        return step

    return kept, [rewrite(step) for step in apply_steps]


# ---------------------------------------------------------------------------
# Renaming machinery
# ---------------------------------------------------------------------------


def _ns(tenant: str, name: str) -> str:
    return f"{tenant}__{name}"


class _Renamer:
    """Rewrites element references inside an extension to the namespaced
    names; base-program names pass through untouched."""

    def __init__(self, tenant: str, local_names: set[str]):
        self._tenant = tenant
        self._local = local_names

    def name(self, name: str) -> str:
        return _ns(self._tenant, name) if name in self._local else name

    def expr(self, expression: ir.Expr) -> ir.Expr:
        if isinstance(expression, ir.MapGet):
            return ir.MapGet(
                map_name=self.name(expression.map_name),
                key=tuple(self.expr(k) for k in expression.key),
            )
        if isinstance(expression, ir.BinOp):
            return ir.BinOp(
                kind=expression.kind, left=self.expr(expression.left), right=self.expr(expression.right)
            )
        if isinstance(expression, ir.UnOp):
            return ir.UnOp(op=expression.op, operand=self.expr(expression.operand))
        if isinstance(expression, ir.HashExpr):
            return ir.HashExpr(
                args=tuple(self.expr(a) for a in expression.args), modulus=expression.modulus
            )
        return expression

    def stmt(self, statement: ir.Stmt) -> ir.Stmt:
        if isinstance(statement, ir.Let):
            return replace(statement, value=self.expr(statement.value))
        if isinstance(statement, ir.Assign):
            return replace(statement, value=self.expr(statement.value))
        if isinstance(statement, ir.MapPut):
            return ir.MapPut(
                map_name=self.name(statement.map_name),
                key=tuple(self.expr(k) for k in statement.key),
                value=self.expr(statement.value),
            )
        if isinstance(statement, ir.MapDelete):
            return ir.MapDelete(
                map_name=self.name(statement.map_name),
                key=tuple(self.expr(k) for k in statement.key),
            )
        if isinstance(statement, ir.If):
            return ir.If(
                condition=self.expr(statement.condition),
                then_body=tuple(self.stmt(s) for s in statement.then_body),
                else_body=tuple(self.stmt(s) for s in statement.else_body),
            )
        if isinstance(statement, ir.Repeat):
            return ir.Repeat(count=statement.count, body=tuple(self.stmt(s) for s in statement.body))
        if isinstance(statement, ir.PrimitiveCall):
            return ir.PrimitiveCall(
                name=statement.name, args=tuple(self.expr(a) for a in statement.args)
            )
        raise CompositionError(f"cannot rename statement {statement!r}")  # pragma: no cover

    def apply_step(self, step: ir.ApplyStep) -> ir.ApplyStep:
        if isinstance(step, ir.ApplyTable):
            return ir.ApplyTable(table=self.name(step.table))
        if isinstance(step, ir.ApplyFunction):
            return ir.ApplyFunction(function=self.name(step.function))
        return ir.ApplyIf(
            condition=self.expr(step.condition),
            then_steps=tuple(self.apply_step(s) for s in step.then_steps),
            else_steps=tuple(self.apply_step(s) for s in step.else_steps),
        )


# ---------------------------------------------------------------------------
# Access control validation
# ---------------------------------------------------------------------------


def validate_extension(extension: ir.Program, tenant: TenantSpec, base: ir.Program) -> None:
    """Check an extension against its tenant's permission; raise
    :class:`AccessControlError` on the first violation."""
    permission = tenant.permission

    total_map_entries = sum(m.max_entries for m in extension.maps)
    if total_map_entries > permission.max_map_entries:
        raise AccessControlError(
            f"tenant {tenant.name!r} declares {total_map_entries} map entries; "
            f"quota is {permission.max_map_entries}"
        )
    total_table_entries = sum(t.size for t in extension.tables)
    if total_table_entries > permission.max_table_entries:
        raise AccessControlError(
            f"tenant {tenant.name!r} declares {total_table_entries} table entries; "
            f"quota is {permission.max_table_entries}"
        )
    if extension.parser is not None and not permission.may_extend_parser:
        base_headers = {h.name for h in base.headers}
        new_headers = set(extension.parser.headers_extracted) - base_headers
        if new_headers:
            raise AccessControlError(
                f"tenant {tenant.name!r} parses new headers {sorted(new_headers)} "
                "without parser permission"
            )

    local_maps = {m.name for m in extension.maps}
    base_maps = {m.name for m in base.maps}
    base_headers = {h.name for h in base.headers}

    def check_field_write(target: ir.FieldRef, context: str) -> None:
        if permission.writable_fields is None:
            return  # legacy unrestricted
        if target.header not in base_headers:
            return  # tenant-local header: always writable
        if not any(
            fnmatch.fnmatchcase(str(target), pattern)
            for pattern in permission.writable_fields
        ):
            raise AccessControlError(
                f"tenant {tenant.name!r} {context} writes base field {target} "
                f"without a writable_fields grant"
            )

    def check_body(body: tuple[ir.Stmt, ...], context: str) -> None:
        for statement in body:
            if isinstance(statement, ir.Assign) and isinstance(statement.target, ir.FieldRef):
                check_field_write(statement.target, context)
            if isinstance(statement, ir.PrimitiveCall):
                if statement.name not in permission.allowed_primitives:
                    raise AccessControlError(
                        f"tenant {tenant.name!r} {context} uses forbidden primitive "
                        f"{statement.name!r}"
                    )
            elif isinstance(statement, (ir.MapPut, ir.MapDelete)):
                if statement.map_name not in local_maps:
                    raise AccessControlError(
                        f"tenant {tenant.name!r} {context} writes non-local map "
                        f"{statement.map_name!r}"
                    )
            elif isinstance(statement, ir.If):
                check_body(statement.then_body, context)
                check_body(statement.else_body, context)
            elif isinstance(statement, ir.Repeat):
                check_body(statement.body, context)
            # Reads under a nested body passed in the recursion above.
            for read in sorted(ir.access_of_body((statement,)).map_reads):
                if read in local_maps:
                    continue
                if read in base_maps and any(
                    fnmatch.fnmatchcase(read, pattern)
                    for pattern in permission.readable_base_maps
                ):
                    continue
                raise AccessControlError(
                    f"tenant {tenant.name!r} {context} reads map {read!r} without permission"
                )

    for action in extension.actions:
        check_body(action.body, f"action {action.name!r}")
    for function in extension.functions:
        check_body(function.body, f"function {function.name!r}")


# ---------------------------------------------------------------------------
# Composer
# ---------------------------------------------------------------------------


class Composer:
    """Builds the composed network program from base + admitted extensions."""

    def __init__(self, base: ir.Program):
        self._base = base.validate()
        self._extensions: dict[str, tuple[TenantSpec, ir.Program]] = {}

    @property
    def base(self) -> ir.Program:
        return self._base

    @property
    def tenant_names(self) -> list[str]:
        return sorted(self._extensions)

    def admit(self, tenant: TenantSpec, extension: ir.Program) -> None:
        """Validate and record one tenant extension (not yet composed).

        Validation happens against the *joint* namespace (extension plus
        the base program's headers and maps), because extensions may —
        with permission — read base maps and match on base headers.
        """
        if tenant.name in self._extensions:
            raise CompositionError(f"tenant {tenant.name!r} already admitted")
        self._check_header_compatibility(extension, tenant)
        extension_headers = {h.name for h in extension.headers}
        extension_maps = {m.name for m in extension.maps}
        joint = replace(
            extension,
            headers=extension.headers
            + tuple(h for h in self._base.headers if h.name not in extension_headers),
            maps=extension.maps
            + tuple(m for m in self._base.maps if m.name not in extension_maps),
        )
        joint.validate()
        validate_extension(extension, tenant, self._base)
        self._extensions[tenant.name] = (tenant, extension)

    def evict(self, tenant_name: str) -> None:
        if tenant_name not in self._extensions:
            raise CompositionError(f"tenant {tenant_name!r} not admitted")
        del self._extensions[tenant_name]

    def _check_header_compatibility(self, extension: ir.Program, tenant: TenantSpec) -> None:
        known = {h.name: (h, "the base program") for h in self._base.headers}
        for other_name, (_, other_ext) in self._extensions.items():
            for header in other_ext.headers:
                known.setdefault(header.name, (header, f"tenant {other_name!r}"))
        for header in extension.headers:
            existing = known.get(header.name)
            if existing is not None and existing[0].fields != header.fields:
                raise CompositionError(
                    f"tenant {tenant.name!r} redefines header {header.name!r} "
                    f"(declared by {existing[1]}) with a different layout"
                )

    def compose(self, dedupe_shared_code: bool = False) -> CompositionReport:
        """Produce the single composed program for the network.

        The composed apply block is the base apply followed by each
        tenant's apply guarded by its VLAN. Unresolvable shared-field
        write conflicts raise :class:`CompositionError`.

        With ``dedupe_shared_code`` the §3.2 optimization is applied:
        structurally identical *stateless* tenant functions collapse to
        one canonical copy (stateful functions reference per-tenant
        namespaced maps and can never be shared).
        """
        headers = list(self._base.headers)
        maps = list(self._base.maps)
        actions = list(self._base.actions)
        tables = list(self._base.tables)
        functions = list(self._base.functions)
        apply_steps = list(self._base.apply)
        parser = self._base.parser

        header_names = {h.name for h in headers}
        field_writers: dict[ir.FieldRef, set[str]] = {
            ref: {"infrastructure"} for ref in shared_field_writes(self._base)
        }

        for tenant_name in sorted(self._extensions):
            tenant, extension = self._extensions[tenant_name]
            local_names = set(extension.element_names) | {a.name for a in extension.actions}
            renamer = _Renamer(tenant.name, local_names)

            for header in extension.headers:
                if header.name not in header_names:
                    headers.append(header)
                    header_names.add(header.name)
            if extension.parser is not None and parser is not None:
                known = set(parser.headers_extracted)
                extra = tuple(
                    t for t in extension.parser.transitions if t.next_header not in known
                )
                parser = replace(parser, transitions=parser.transitions + extra)

            for map_def in extension.maps:
                maps.append(replace(map_def, name=_ns(tenant.name, map_def.name)))
            for action in extension.actions:
                actions.append(
                    ir.ActionDef(
                        name=_ns(tenant.name, action.name),
                        params=action.params,
                        body=tuple(renamer.stmt(s) for s in action.body),
                    )
                )
            for table in extension.tables:
                default = table.default_action
                if default is not None:
                    default = ir.ActionCall(
                        action=renamer.name(default.action), args=default.args
                    )
                tables.append(
                    ir.TableDef(
                        name=_ns(tenant.name, table.name),
                        keys=table.keys,
                        actions=tuple(renamer.name(a) for a in table.actions),
                        size=table.size,
                        default_action=default,
                    )
                )
            for function in extension.functions:
                functions.append(
                    ir.FunctionDef(
                        name=_ns(tenant.name, function.name),
                        body=tuple(renamer.stmt(s) for s in function.body),
                    )
                )

            guarded = ir.ApplyIf(
                condition=ir.BinOp(
                    kind=ir.BinOpKind.EQ,
                    left=ir.MetaRef(key="vlan_id"),
                    right=ir.Const(value=tenant.vlan_id),
                ),
                then_steps=tuple(renamer.apply_step(s) for s in extension.apply),
            )
            apply_steps.append(guarded)

            tenant_local = {h.name for h in extension.headers} - {
                h.name for h in self._base.headers
            }
            for ref in shared_field_writes(extension, tenant_local):
                field_writers.setdefault(ref, set()).add(tenant.name)

        conflicts = tuple(
            FieldConflict(field_ref=ref, writers=tuple(sorted(writers)))
            for ref, writers in sorted(field_writers.items(), key=lambda kv: str(kv[0]))
            if len(writers - {"infrastructure"}) >= 2
        )
        if conflicts:
            names = ", ".join(str(c.field_ref) for c in conflicts)
            raise CompositionError(
                f"unresolvable shared-field write conflicts between tenants: {names}"
            )

        shared = self._detect_shared_code()
        if dedupe_shared_code and shared:
            functions, apply_steps = _dedupe_functions(
                functions, apply_steps, shared, {f.name for f in self._base.functions}
            )

        composed = ir.Program(
            name=f"{self._base.name}+{len(self._extensions)}ext",
            headers=tuple(headers),
            parser=parser,
            maps=tuple(maps),
            actions=tuple(actions),
            tables=tuple(tables),
            functions=tuple(functions),
            apply=tuple(apply_steps),
            version=self._base.version,
            owner=self._base.owner,
        ).validate()

        return CompositionReport(
            composed=composed,
            tenants=tuple(sorted(self._extensions)),
            shared_code=shared,
            conflicts=(),
        )

    def _detect_shared_code(self) -> tuple[SharedCode, ...]:
        """Group structurally identical *stateless* tenant functions
        (same body ignoring the namespace prefix) as dedup candidates.
        Functions touching maps are excluded: after namespacing, their
        map references differ per tenant and sharing them would merge
        tenant state."""
        by_shape: dict[str, list[str]] = {}
        for tenant_name, (_, extension) in sorted(self._extensions.items()):
            for function in extension.functions:
                if function.access.maps:
                    continue
                shape = repr(function.body)
                by_shape.setdefault(shape, []).append(_ns(tenant_name, function.name))
        return tuple(
            SharedCode(canonical=names[0], duplicates=tuple(names[1:]))
            for names in by_shape.values()
            if len(names) >= 2
        )

"""Dynamic telemetry queries (§1.1, the DynamiQ contrast).

DynamiQ "designs a monitoring system where query operators are flexibly
mapped at runtime to compile-time allocated resources" — i.e., the
resource pool is fixed in advance. FlexNet needs no pre-allocation:
each operator query becomes a runtime delta sized to that query, and
retiring a query returns its exact footprint.

:class:`QueryManager` is the controller-side loop: operators ``add`` /
``remove`` count-min queries over arbitrary key fields at runtime;
estimates are read through P4Runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.control.controller import FlexNetController
from repro.errors import ControlPlaneError
from repro.lang import builder as b
from repro.lang import ir
from repro.lang.delta import AddFunction, AddMap, Delta, InsertApply
from repro.lang.types import BitsType
from repro.util import stable_digest, stable_hash


@dataclass(frozen=True)
class QuerySpec:
    """One operator query: counts per distinct value of ``key_field``."""

    name: str
    key_field: str  # e.g. "ipv4.dst" or "tcp.dport"
    rows: int = 2
    width: int = 2048

    @property
    def uri(self) -> str:
        return f"flexnet://infrastructure/query-{self.name}"

    def row_map(self, row: int) -> str:
        return f"q_{self.name}_r{row}"

    def salt(self, row: int) -> int:
        # The query name must perturb each row's hash, but builtin
        # hash() of a string is process-salted — two runs of the same
        # query would sketch into different buckets.
        return stable_digest(self.name, row, 0xBEEF) % (1 << 32)


def query_delta(spec: QuerySpec) -> Delta:
    """Build the runtime delta for one query: per-row hashed counters
    plus the update function."""
    ops: list = []
    body: list[ir.Stmt] = []
    for row in range(spec.rows):
        ops.append(
            AddMap(
                ir.MapDef(
                    name=spec.row_map(row),
                    key_fields=(b.field(spec.key_field),),
                    value_type=BitsType(64),
                    max_entries=spec.width,
                )
            )
        )
        index = b.hash_of(spec.key_field, spec.salt(row), modulus=spec.width)
        body.append(b.let(f"i{row}", "u32", index))
        body.append(
            b.map_put(
                spec.row_map(row),
                f"i{row}",
                b.binop("+", b.map_get(spec.row_map(row), f"i{row}"), 1),
            )
        )
    ops.append(AddFunction(ir.FunctionDef(name=f"q_{spec.name}", body=tuple(body))))
    ops.append(InsertApply(element=f"q_{spec.name}"))
    return Delta(name=f"query_{spec.name}", ops=tuple(ops))


@dataclass
class QueryManager:
    """Runtime add/remove of monitoring queries against one controller."""

    controller: FlexNetController
    queries: dict[str, QuerySpec] = field(default_factory=dict)

    def add(self, spec: QuerySpec) -> None:
        if spec.name in self.queries:
            raise ControlPlaneError(f"query {spec.name!r} already active")
        self.controller.deploy_app(spec.uri, query_delta(spec))
        self.queries[spec.name] = spec

    def remove(self, name: str) -> None:
        spec = self.queries.pop(name, None)
        if spec is None:
            raise ControlPlaneError(f"no active query {name!r}")
        self.controller.remove_app(spec.uri)

    @property
    def active(self) -> list[str]:
        return sorted(self.queries)

    # -- reads -----------------------------------------------------------------

    def _client_for(self, spec: QuerySpec):
        record = self.controller.app(spec.uri)
        devices = record.devices
        if not devices:
            raise ControlPlaneError(f"query {spec.name!r} has no footprint")
        return self.controller.hub.client(devices[0])

    def estimate(self, name: str, key: int) -> int:
        """Count-min estimate for ``key`` under query ``name``."""
        spec = self.queries.get(name)
        if spec is None:
            raise ControlPlaneError(f"no active query {name!r}")
        client = self._client_for(spec)
        best: int | None = None
        for row in range(spec.rows):
            index = stable_hash((key, spec.salt(row))) % spec.width
            value = client.read_map_entry(spec.row_map(row), (index,))
            best = value if best is None else min(best, value)
        return best or 0

    def heavy_hitters(self, name: str, candidates: list[int], threshold: int) -> list[int]:
        return [key for key in candidates if self.estimate(name, key) >= threshold]

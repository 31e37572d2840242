"""Resource vectors for heterogeneous device architectures.

Every FlexNet target advertises its capacity as a :class:`ResourceVector`
— a mapping from named resource kinds (``sram_kb``, ``tcam_kb``,
``stages``, ``processors`` ...) to non-negative quantities. Program
elements carry *demand* vectors in the same space, and placement is
feasible when demand fits within remaining capacity under the target's
fungibility rules (see :mod:`repro.compiler.fungibility`).

The vector is deliberately a small value type with explicit arithmetic
rather than a numpy array: resource kinds differ per architecture, and
keeping names attached makes infeasibility diagnostics readable.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.errors import ResourceError
from repro.util import stable_digest


class ResourceVector(Mapping[str, float]):
    """An immutable mapping of resource-kind -> quantity.

    Supports element-wise ``+`` / ``-``, scalar ``*``, and the
    comparison helpers used by placement (:meth:`fits_within`).
    Missing kinds are treated as zero, so vectors over different kind
    sets combine naturally. A result lists the left operand's kinds,
    then the right operand's new ones, whatever the hash seed.
    """

    __slots__ = ("_amounts",)

    def __init__(self, amounts: Mapping[str, float] | None = None, **kwargs: float):
        merged: dict[str, float] = {}
        for source in (amounts or {}), kwargs:
            for kind, quantity in source.items():
                if quantity < 0:
                    raise ResourceError(f"negative quantity for resource {kind!r}: {quantity}")
                if quantity:
                    merged[kind] = merged.get(kind, 0.0) + float(quantity)
        self._amounts: dict[str, float] = merged

    @classmethod
    def _of(cls, amounts: dict[str, float]) -> "ResourceVector":
        """Wrap ``amounts`` unchecked: the result of arithmetic on
        validated vectors, whose quantities are positive floats already
        (a sum of positive floats is neither negative nor zero)."""
        vector = cls.__new__(cls)
        vector._amounts = amounts
        return vector

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, kind: str) -> float:
        return self._amounts.get(kind, 0.0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._amounts)

    def __len__(self) -> int:
        return len(self._amounts)

    def __contains__(self, kind: object) -> bool:
        return kind in self._amounts

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        amounts = self._amounts.copy()
        get = amounts.get
        for kind, quantity in other._amounts.items():
            amounts[kind] = get(kind, 0.0) + quantity
        return ResourceVector._of(amounts)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Subtract, raising :class:`ResourceError` if any kind goes
        negative (a kind only the left side has cannot)."""
        amounts = self._amounts.copy()
        for kind, quantity in other._amounts.items():
            available = amounts.get(kind, 0.0)
            remaining = available - quantity
            if remaining < -1e-9:
                raise ResourceError(
                    f"resource {kind!r} overcommitted: {available} available, {quantity} requested"
                )
            if remaining > 0.0:
                amounts[kind] = remaining
            else:
                amounts.pop(kind, None)
        return ResourceVector._of(amounts)

    def __mul__(self, factor: float) -> "ResourceVector":
        if factor < 0:
            raise ResourceError(f"cannot scale a resource vector by {factor}")
        return ResourceVector({k: v * factor for k, v in self._amounts.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        mine, theirs = self._amounts, other._amounts
        return all(abs(q - theirs.get(k, 0.0)) < 1e-9 for k, q in mine.items()) and all(
            k in mine or q < 1e-9 for k, q in theirs.items()
        )

    def __hash__(self) -> int:
        # Builtin hash() is process-salted; resource vectors end up in
        # placement digests that must agree across runs. float() so that
        # integer and float amounts of equal value digest identically.
        return stable_digest(
            tuple(sorted((k, round(float(v), 9)) for k, v in self._amounts.items() if v))
        )

    # -- placement helpers ---------------------------------------------------

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True if every kind of this demand fits in ``capacity``."""
        available = capacity._amounts
        for kind, quantity in self._amounts.items():
            if quantity > available.get(kind, 0.0) + 1e-9:
                return False
        return True

    def deficit_against(self, capacity: "ResourceVector") -> dict[str, float]:
        """Per-kind shortfall of ``capacity`` against this demand (empty if it fits)."""
        available = capacity._amounts
        return {
            kind: quantity - available.get(kind, 0.0)
            for kind, quantity in self._amounts.items()
            if quantity > available.get(kind, 0.0) + 1e-9
        }

    def utilization_of(self, capacity: "ResourceVector") -> float:
        """Max per-kind fraction of ``capacity`` this vector consumes.

        Kinds absent from ``capacity`` count as infinitely utilized, which
        placement treats as infeasible.
        """
        available = capacity._amounts
        fractions = []
        for kind, quantity in self._amounts.items():
            room = available.get(kind, 0.0)
            if room <= 0:
                return float("inf")
            fractions.append(quantity / room)
        return max(fractions, default=0.0)

    def is_zero(self) -> bool:
        return all(v < 1e-9 for v in self._amounts.values())

    def scaled_to_kinds(self, kinds: frozenset[str]) -> "ResourceVector":
        """Project this vector onto a subset of kinds."""
        return ResourceVector({k: v for k, v in self._amounts.items() if k in kinds})

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._amounts.items()))
        return f"ResourceVector({body})"


#: The empty vector, used as the identity for accumulation.
ZERO = ResourceVector()


def total(vectors: list[ResourceVector]) -> ResourceVector:
    """Sum a list of vectors (empty list -> zero vector)."""
    acc = ZERO
    for vector in vectors:
        acc = acc + vector
    return acc

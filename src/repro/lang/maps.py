"""Runtime state for FlexBPF key/value maps.

A :class:`MapState` is the *logical* representation of one map's
contents — the representation in which state travels during migration
(§3.1: "Program migration carries its state in this logical
representation"). Devices hold :class:`MapState` objects behind their
chosen physical encoding; encodings affect capacity/performance
modelling, not the logical contents.

Eviction: when a map is full, inserts follow the policy the Spectrum
stateful-table mechanism uses — reject by default, or LRU-evict when
the map is declared ephemeral.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import FlexNetError
from repro.lang.ir import MapDef, Persistence

Key = tuple[int, ...]


class MapFullError(FlexNetError):
    """Raised when inserting into a full durable map."""


@dataclass(frozen=True)
class MapSnapshot:
    """An immutable, logical snapshot of one map — the unit of state
    migration and replication."""

    map_name: str
    entries: tuple[tuple[Key, int], ...]
    version: int

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict[Key, int]:
        return dict(self.entries)


class MapState:
    """Mutable per-device contents of one logical map."""

    def __init__(self, definition: MapDef):
        self.definition = definition
        self._entries: OrderedDict[Key, int] = OrderedDict()
        self._version = 0
        #: Monotonic count of mutations, used by migration protocols to
        #: detect concurrent writes during a copy phase.
        self.mutation_count = 0
        #: off the frozen definition, for :meth:`put`
        self._max_value = definition.value_type.max_value
        self._max_entries = definition.max_entries

    @property
    def name(self) -> str:
        return self.definition.name

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return tuple(key) in self._entries

    def items(self) -> Iterator[tuple[Key, int]]:
        return iter(list(self._entries.items()))

    def get(self, key: Key, default: int = 0) -> int:
        """Read a value; absent keys read as ``default`` (0), matching
        eBPF map semantics where lookups return zero-initialized state."""
        return self._entries.get(tuple(key), default)

    def put(self, key: Key, value: int) -> None:
        key = tuple(key)
        entries = self._entries
        if key not in entries and len(entries) >= self._max_entries:
            if self.definition.persistence is Persistence.EPHEMERAL:
                entries.popitem(last=False)  # LRU eviction
            else:
                raise MapFullError(
                    f"map {self.name!r} is full ({self._max_entries} entries)"
                )
        entries[key] = value & self._max_value  # hardware wraparound
        entries.move_to_end(key)
        self.mutation_count += 1

    def delete(self, key: Key) -> bool:
        removed = self._entries.pop(tuple(key), None) is not None
        if removed:
            self.mutation_count += 1
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self.mutation_count += 1

    # -- migration support ---------------------------------------------------

    def snapshot(self) -> MapSnapshot:
        self._version += 1
        return MapSnapshot(
            map_name=self.name,
            entries=tuple(self._entries.items()),
            version=self._version,
        )

    def restore(self, snapshot: MapSnapshot) -> None:
        if snapshot.map_name != self.name:
            raise FlexNetError(
                f"snapshot of map {snapshot.map_name!r} cannot restore into {self.name!r}"
            )
        self._entries = OrderedDict(snapshot.entries)
        self.mutation_count += 1

    def merge(self, snapshot: MapSnapshot, combine: str = "last_writer") -> int:
        """Merge a snapshot into live state.

        ``combine='last_writer'`` overwrites existing keys;
        ``combine='sum'`` adds values (correct for counter-style maps such
        as sketches, where both halves observed disjoint packets). A full
        durable map keeps what fits: returns how many entries it had no
        room for.
        """
        dropped = 0
        for key, value in snapshot.entries:
            if combine == "sum":
                value += self.get(key)
            try:
                self.put(key, value)
            except MapFullError:
                dropped += 1
        return dropped


class MapSet:
    """All map states for one installed program on one device."""

    def __init__(self, definitions: tuple[MapDef, ...]):
        self._states = {definition.name: MapState(definition) for definition in definitions}

    def __contains__(self, name: str) -> bool:
        return name in self._states

    def __iter__(self) -> Iterator[MapState]:
        return iter(self._states.values())

    def state(self, name: str) -> MapState:
        if name not in self._states:
            raise FlexNetError(f"no such map {name!r}")
        return self._states[name]

    def names(self) -> list[str]:
        return sorted(self._states)

    def snapshot_all(self, durable_only: bool = False) -> list[MapSnapshot]:
        return [
            state.snapshot()
            for state in self._states.values()
            if not durable_only or state.definition.persistence is Persistence.DURABLE
        ]

    def adopt(self, other: "MapSet") -> None:
        """Carry state over from a previous program version: any map with
        the same name and compatible definition keeps its contents across
        a runtime reconfiguration (the paper's hitless-update semantics)."""
        for name, old_state in other._states.items():
            if name in self._states:
                new_state = self._states[name]
                same_keys = (
                    new_state.definition.key_fields == old_state.definition.key_fields
                )
                if same_keys:
                    for key, value in old_state.items():
                        if len(new_state._entries) >= new_state.definition.max_entries:
                            break
                        new_state.put(key, value)

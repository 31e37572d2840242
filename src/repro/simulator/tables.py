"""Runtime match/action table rules.

A program defines a table's *shape* (keys, actions, size); the control
plane populates its *rules* at runtime through the P4Runtime-level API
(:mod:`repro.control.p4runtime`). This module models the rule store one
device keeps per table: typed match specs (exact / LPM / ternary /
range), priorities, and longest-prefix semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FlexNetError
from repro.lang.ir import ActionCall, MatchKind, TableDef
from repro.limits import TABLE_MEMO_CAPACITY


class TableError(FlexNetError):
    """Raised on malformed rules or capacity overflow."""


@dataclass(frozen=True)
class ExactMatch:
    value: int

    def matches(self, value: int) -> bool:
        return value == self.value

    def compile(self):
        expected = self.value
        return lambda value: value == expected

    @property
    def specificity(self) -> int:
        return 1 << 20


@dataclass(frozen=True)
class LpmMatch:
    prefix: int
    prefix_len: int
    width: int = 32

    def matches(self, value: int) -> bool:
        if self.prefix_len == 0:
            return True
        shift = self.width - self.prefix_len
        return (value >> shift) == (self.prefix >> shift)

    def compile(self):
        if self.prefix_len == 0:
            return lambda value: True
        shift = self.width - self.prefix_len
        target = self.prefix >> shift
        return lambda value: (value >> shift) == target

    @property
    def specificity(self) -> int:
        return self.prefix_len


@dataclass(frozen=True)
class TernaryMatch:
    value: int
    mask: int

    def matches(self, value: int) -> bool:
        return (value & self.mask) == (self.value & self.mask)

    def compile(self):
        mask = self.mask
        target = self.value & mask
        return lambda value: (value & mask) == target

    @property
    def specificity(self) -> int:
        return bin(self.mask).count("1")


@dataclass(frozen=True)
class RangeMatch:
    low: int
    high: int

    def matches(self, value: int) -> bool:
        return self.low <= value <= self.high

    def compile(self):
        low, high = self.low, self.high
        return lambda value: low <= value <= high

    @property
    def specificity(self) -> int:
        return max(0, 64 - max(self.high - self.low, 0).bit_length())


MatchSpec = ExactMatch | LpmMatch | TernaryMatch | RangeMatch


@dataclass(frozen=True)
class Rule:
    """One table entry: per-key match specs, action, priority."""

    matches: tuple[MatchSpec, ...]
    action: ActionCall
    priority: int = 0

    def matches_key(self, key_values: tuple[int, ...]) -> bool:
        if len(key_values) != len(self.matches):
            raise TableError(
                f"rule has {len(self.matches)} match specs; "
                f"matched against {len(key_values)} key values"
            )
        return all(spec.matches(value) for spec, value in zip(self.matches, key_values))

    def compile_predicate(self):
        """A dispatch-free predicate over a full key tuple, for the
        indexed lookup path (semantically identical to matches_key)."""
        compiled = tuple(spec.compile() for spec in self.matches)
        if len(compiled) == 1:
            only = compiled[0]
            return lambda key_values: only(key_values[0])

        def predicate(key_values):
            for spec, value in zip(compiled, key_values):
                if not spec(value):
                    return False
            return True

        return predicate

    @property
    def specificity(self) -> int:
        return sum(spec.specificity for spec in self.matches)


class TableRules:
    """The installed rules of one table on one device.

    Lookup is indexed (FlexPath): tables whose keys are all exact-match
    resolve through a hash index; LPM/ternary/range tables scan rules
    pre-sorted by ``(priority, specificity, insertion order)`` and take
    the first match — both orders reproduce the linear-scan semantics
    exactly — and remember what each key decided, so a flow pays the
    scan once. A decision is a function of the key and the rules alone:
    any rule mutation drops the indexes and the decisions with them,
    and the per-rule counters are bumped per lookup, remembered or not.
    """

    def __init__(self, definition: TableDef):
        self.definition = definition
        self._rules: list[Rule] = []
        #: per-rule hit counters, aligned with self._rules (P4Runtime
        #: exposes these as direct counters).
        self.hit_counts: list[int] = []
        self.miss_count = 0
        #: optional table meter (configured via P4Runtime); every rule
        #: hit is coloured through it.
        self.meter = None
        self._all_exact = bool(definition.keys) and all(
            key.match_kind is MatchKind.EXACT for key in definition.keys
        )
        #: exact-key hash index: key tuple -> (action, rule index).
        self._exact_index: dict[tuple[int, ...], tuple[ActionCall, int]] | None = None
        #: (compiled predicate, (action, rule index)) pre-sorted for
        #: first-match-wins.
        self._ordered: list | None = None
        #: what a non-exact table has decided since its rules last
        #: changed: key tuple -> (action, rule index), or None for a
        #: miss. Oldest out past ``TABLE_MEMO_CAPACITY`` keys.
        self._decided: dict[tuple[int, ...], tuple[ActionCall, int] | None] = {}

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> list[Rule]:
        return list(self._rules)

    def _invalidate(self) -> None:
        self._exact_index = None
        self._ordered = None
        self._decided.clear()

    def insert(self, rule: Rule) -> None:
        if len(rule.matches) != len(self.definition.keys):
            raise TableError(
                f"table {self.definition.name!r} has {len(self.definition.keys)} keys; "
                f"rule provides {len(rule.matches)}"
            )
        if rule.action.action not in self.definition.actions:
            raise TableError(
                f"table {self.definition.name!r} does not allow action {rule.action.action!r}"
            )
        for spec, key in zip(rule.matches, self.definition.keys):
            expected = {
                MatchKind.EXACT: ExactMatch,
                MatchKind.LPM: LpmMatch,
                MatchKind.TERNARY: TernaryMatch,
                MatchKind.RANGE: RangeMatch,
            }[key.match_kind]
            if not isinstance(spec, expected):
                raise TableError(
                    f"table {self.definition.name!r} key {key.field} expects "
                    f"{key.match_kind.value} match, got {type(spec).__name__}"
                )
        if len(self._rules) >= self.definition.size:
            raise TableError(
                f"table {self.definition.name!r} is full ({self.definition.size} rules)"
            )
        self._rules.append(rule)
        self.hit_counts.append(0)
        self._invalidate()

    def remove(self, rule: Rule) -> bool:
        try:
            index = self._rules.index(rule)
        except ValueError:
            return False
        del self._rules[index]
        del self.hit_counts[index]
        self._invalidate()
        return True

    def clear(self) -> None:
        self._rules.clear()
        self.hit_counts.clear()
        self._invalidate()

    def adopt_from(self, previous: "TableRules") -> None:
        """Carry runtime state over from a same-shape predecessor across
        a hitless reconfiguration: compatible rules keep their per-rule
        hit counters, and the table keeps its miss count and meter (a
        rate limiter configured via P4Runtime must survive unrelated
        deltas)."""
        if previous.definition.keys != self.definition.keys:
            return
        for rule, hits in zip(previous._rules, previous.hit_counts):
            if rule.action.action not in self.definition.actions:
                continue
            if len(self._rules) >= self.definition.size:
                break
            self.insert(rule)
            self.hit_counts[-1] = hits
        self.miss_count += previous.miss_count
        if previous.meter is not None:
            self.meter = previous.meter

    # -- lookup ------------------------------------------------------------

    def _build_exact_index(self) -> dict[tuple[int, ...], tuple[ActionCall, int]]:
        """Hash index for all-exact tables: per key, keep the winner the
        linear scan would pick (highest priority, earliest insertion)."""
        index: dict[tuple[int, ...], tuple[ActionCall, int]] = {}
        priorities: dict[tuple[int, ...], int] = {}
        for position, rule in enumerate(self._rules):
            key = tuple(spec.value for spec in rule.matches)
            if key not in index or rule.priority > priorities[key]:
                index[key] = (rule.action, position)
                priorities[key] = rule.priority
        self._exact_index = index
        return index

    def _build_ordered(self) -> list:
        """Rules sorted so the first match wins: descending (priority,
        specificity), ascending insertion order — the same winner the
        max-rank linear scan selects. Each entry carries a compiled,
        dispatch-free predicate."""
        ranked = sorted(
            ((rule, position) for position, rule in enumerate(self._rules)),
            key=lambda pair: (-pair[0].priority, -pair[0].specificity, pair[1]),
        )
        ordered = [
            (rule.compile_predicate(), (rule.action, position)) for rule, position in ranked
        ]
        self._ordered = ordered
        return ordered

    def _decide(self, key_values: tuple[int, ...]) -> tuple[ActionCall, int] | None:
        """A key a non-exact table has not seen since its rules last
        changed: scan for the first match and remember the outcome."""
        ordered = self._ordered
        if ordered is None:
            ordered = self._build_ordered()
        hit = None
        for predicate, candidate in ordered:
            if predicate(key_values):
                hit = candidate
                break
        decided = self._decided
        if len(decided) >= TABLE_MEMO_CAPACITY:
            del decided[next(iter(decided))]
        decided[key_values] = hit
        return hit

    def lookup(self, key_values: tuple[int, ...]) -> ActionCall | None:
        """Find the matching rule with highest (priority, specificity);
        returns the table's default action on miss (None if absent)."""
        if len(key_values) != len(self.definition.keys):
            raise TableError(
                f"table {self.definition.name!r} has {len(self.definition.keys)} keys; "
                f"lookup provides {len(key_values)} values"
            )
        if self._all_exact:
            index = self._exact_index
            if index is None:
                index = self._build_exact_index()
            hit = index.get(key_values)
        else:
            hit = self._decided.get(key_values, False)
            if hit is False:
                hit = self._decide(key_values)
        if hit is None:
            self.miss_count += 1
            return self.definition.default_action
        action, position = hit
        self.hit_counts[position] += 1
        return action


def exact(value: int) -> ExactMatch:
    return ExactMatch(value=value)


def lpm(prefix: int, prefix_len: int, width: int = 32) -> LpmMatch:
    return LpmMatch(prefix=prefix, prefix_len=prefix_len, width=width)


def ternary(value: int, mask: int) -> TernaryMatch:
    return TernaryMatch(value=value, mask=mask)


def rng(low: int, high: int) -> RangeMatch:
    return RangeMatch(low=low, high=high)

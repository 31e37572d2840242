"""The unified report protocol.

Before FlexScope, every subsystem invented its own report shape:
``TrafficReport``, ``ChaosReport``, ``TransitionOutcome``,
``RunMetrics``, and the analysis ``Report`` each had a bespoke
formatter buried in the CLI. :class:`Reportable` is the one contract
they all implement now — ``summary()`` for humans, ``to_dict()`` for
machines — and :func:`emit` is the single CLI rendering path behind
every verb's ``--json`` flag.

:func:`divergences` is the one equivalence oracle: every identity claim
(compiled ≡ interpreted, sharded ≡ single-process, chaos ≡ fault-free,
coalesced ≡ serial) builds one observation per arm and asks it where
the two differ.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@runtime_checkable
class Reportable(Protocol):
    """Anything the toolchain can report on.

    ``summary()`` returns the human-readable multi-line text a CLI verb
    prints by default; ``to_dict()`` returns the JSON-serializable form
    behind ``--json``. Implementations must keep ``to_dict()``
    deterministic for seeded runs (sorted keys, rounded floats).
    """

    def summary(self) -> str:
        """Human-readable multi-line rendering."""
        ...  # pragma: no cover - protocol

    def to_dict(self) -> dict:
        """Machine-readable (JSON-serializable) rendering."""
        ...  # pragma: no cover - protocol


def emit(report: Reportable, as_json: bool = False, stream=None) -> None:
    """The shared CLI output path: one report, one flag, one formatter."""
    stream = stream if stream is not None else sys.stdout
    if as_json:
        stream.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        stream.write(report.summary() + "\n")


@dataclass(frozen=True)
class Divergence:
    """One place two observations differ: ``path`` leads from the root
    to it (``packets[40].verdict``, ``maps.flow_counts``,
    ``metrics.delivered``)."""

    path: str
    expected: object
    actual: object

    def __str__(self) -> str:
        return f"{self.path or '(root)'}: expected {self.expected!r}, got {self.actual!r}"


class _Note(str):
    """What a divergence shows where there is no value to show."""

    def __repr__(self) -> str:
        return str(self)


_MISSING = _Note("(missing)")
_LIMIT = 20  # divergences past the first few name nothing new


def divergences(expected, actual) -> list[Divergence]:
    """Where ``actual`` differs from ``expected``, in walk order — so
    ``[0]`` is the first difference — and at most ``_LIMIT`` of them;
    an empty list means the two are equivalent.

    Two containers are walked only when their types are the same; a
    list against a tuple is one divergence. Dicts are walked in
    ``expected``'s key order, then the keys only ``actual`` has; a key
    matches only a key of the same type and ``repr``, and a missing key
    is a divergence. Lists and tuples are walked by index; a length
    mismatch is a divergence at the sequence's own path. Leaves are
    equal when their types are the same and their values equal, floats
    by ``repr``: ``1`` / ``1.0``, ``True`` / ``1`` and ``0.0`` /
    ``-0.0`` all diverge, as their canonical JSON does."""
    return list(itertools.islice(_walk(expected, actual, ""), _LIMIT))


def _walk(expected, actual, path: str):
    if type(expected) is not type(actual):
        yield Divergence(path, expected, actual)
    elif isinstance(expected, dict):
        unmatched = {_key_id(key): key for key in actual}
        for key, value in expected.items():
            where = _key_path(path, key)
            other = unmatched.pop(_key_id(key), _MISSING)
            if other is _MISSING:
                yield Divergence(where, value, _MISSING)
            else:
                yield from _walk(value, actual[other], where)
        for key in unmatched.values():
            yield Divergence(_key_path(path, key), _MISSING, actual[key])
    elif isinstance(expected, (list, tuple)):
        for index, (left, right) in enumerate(zip(expected, actual)):
            yield from _walk(left, right, f"{path}[{index}]")
        if len(expected) != len(actual):
            yield Divergence(
                path, _Note(f"{len(expected)} items"), _Note(f"{len(actual)} items")
            )
    elif not _same_leaf(expected, actual):
        yield Divergence(path, expected, actual)


def _key_id(key) -> tuple:
    """What a dict key must share with its match: ``1``, ``True`` and
    ``1.0`` are one key to a dict, three to canonical JSON."""
    return type(key), repr(key)


def _same_leaf(expected, actual) -> bool:
    """Same value, as two leaves of one type; a float by ``repr``, so
    ``0.0`` / ``-0.0`` differ and ``nan`` equals itself, as in
    canonical JSON."""
    return repr(expected) == repr(actual) if type(expected) is float else expected == actual


def _key_path(path: str, key) -> str:
    if isinstance(key, str) and key.isidentifier():
        return f"{path}.{key}" if path else key
    return f"{path}[{key!r}]"

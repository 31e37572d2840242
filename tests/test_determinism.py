"""Same seed, same bytes: the contract every identity claim rests on.

Compiled ≡ interpreted, sharded ≡ one process and chaos ≡ fault-free
each compare two runs of one seeded scenario, which is only meaningful
if one run is reproducible in a fresh process. This gate checks that on
the artifacts themselves: each command below runs in two interpreters
at once, under ``PYTHONHASHSEED=0`` and ``=1``, and the two outputs are
compared through the one oracle, :func:`repro.observe.report.
divergences`. A salted ``hash()`` or a walk over a set's order shows as
a difference between the two seeds; an unseeded generator or a wall
clock read into a result shows as a difference between the two
processes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.observe.report import divergences
from tests.compiler.test_placement import DEFICIT_SCRIPT

SOURCE = str(Path(repro.__file__).resolve().parents[1])


def under_two_hash_seeds(*args: str) -> tuple[object, list]:
    """Run ``python *args`` in two concurrent interpreters, under
    ``PYTHONHASHSEED=0`` and ``=1``, with ``repro``'s source directory
    as ``PYTHONPATH``. Both must exit 0. Returns the first run's stdout,
    parsed as JSON where it is JSON, and the divergences of the second
    run's from it: ``[]`` means the output does not depend on the seed."""
    runs = [
        subprocess.Popen(
            [sys.executable, *args],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": SOURCE},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    done = [run.communicate(timeout=300) for run in runs]
    for run, (_, err) in zip(runs, done):
        assert run.returncode == 0, err
    first, second = (_parsed(out) for out, _ in done)
    return first, divergences(first, second)


def _parsed(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return out


CLI = (
    ("check", "--builtin", "--json"),
    ("vet", "--builtin", "--json"),
    ("scale", "--shards", "2", "--packets", "800", "--differential", "--json"),
    ("chaos", "--json"),
    ("chaos", "--controller", "--json"),
    ("cloud", "--json"),
)


@pytest.mark.parametrize("argv", CLI, ids=" ".join)
def test_a_cli_artifact_does_not_depend_on_the_hash_seed(argv):
    output, diffs = under_two_hash_seeds("-m", "repro.cli", *argv)
    assert isinstance(output, (dict, list))
    assert diffs == []


def test_a_placement_failure_does_not_depend_on_the_hash_seed():
    output, diffs = under_two_hash_seeds("-c", DEFICIT_SCRIPT)
    assert "deficit" in output
    assert diffs == []


def test_the_gate_sees_a_salted_hash():
    """The two arms really run under different seeds: a helper whose
    arms inherited one seed would pass every artifact above."""
    _, diffs = under_two_hash_seeds("-c", "print(hash('flexnet'))")
    assert diffs != []

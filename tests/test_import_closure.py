"""A process loads only the modules it runs.

Every package ``__init__`` resolves its exports on first read (PEP 562),
so importing a package loads none of its submodules, and a run loads
the ones it calls into. Each case runs in a fresh interpreter, because
the test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SOURCE = str(Path(repro.__file__).resolve().parents[1])


def _fresh(code: str):
    """Run ``code`` in a new interpreter that sees only ``src/`` and
    return what its last line printed, JSON-parsed."""
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SOURCE},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_importing_repro_loads_no_submodule():
    loaded = _fresh(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    assert loaded == []


#: Modules a single-process run never calls into: sharding's process
#: machinery, FlexHA and its consensus, chaos scenarios, the printer,
#: FlexCloud and the command line.
NOT_RUN = (
    "multiprocessing",
    "repro.scale.mend",
    "repro.control.consensus",
    "repro.control.ha",
    "repro.faults.chaos",
    "repro.lang.printer",
    "repro.cloud",
    "repro.cli",
)


def test_a_fabric_run_loads_none_of_the_modules_it_does_not_run():
    result = _fresh(
        "import json, sys\n"
        "from repro import apps\n"
        "from repro.scale import e20_net, e20_workload\n"
        "net = e20_net()\n"
        "report = net.run_traffic(packets=e20_workload(200), extra_time_s=1.0)\n"
        f"print(json.dumps([report.metrics.delivered, [m for m in {NOT_RUN!r} if m in sys.modules]]))"
    )
    delivered, loaded = result
    assert delivered > 0
    assert loaded == []


EXPORTS = """
import importlib, json, pkgutil, sys
import repro
packages = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]
# What a package defines itself (``repro.__version__``,
# ``repro.analysis.check``) is there before any export is read.
own = {package.__name__: set(vars(package)) for package in packages}
problems = []
for package in packages:
    if package.__name__ == "repro.analysis":
        importlib.import_module("repro.analysis.vet")  # the submodule first
    for name in package.__all__:
        value = getattr(package, name)
        if vars(package).get(name) is not value:
            problems.append(f"{package.__name__}.{name} is not kept in the package")
    star = {}
    exec(f"from {package.__name__} import *", star)
    for name in package.__all__:
        if star.get(name) is not getattr(package, name):
            problems.append(f"from {package.__name__} import * misses {name}")
    if hasattr(package, "no_such_export"):
        problems.append(f"{package.__name__} answers an unknown name")
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("repro.")]
count = 0
for package in packages:
    for name in set(package.__all__) - own[package.__name__]:
        value = getattr(package, name)
        count += 1
        defined_in = getattr(value, "__module__", None) if hasattr(value, "__qualname__") else None
        if defined_in is not None and vars(sys.modules[defined_in]).get(name) is not value:
            problems.append(f"{package.__name__}.{name} is not {defined_in}.{name}")
        if not any(m is not package and vars(m).get(name) is value for m in modules):
            problems.append(f"{package.__name__}.{name} is held by no submodule")
print(json.dumps([len(packages), count, problems]))
"""


def test_every_export_is_the_object_its_submodule_holds():
    packages, exports, problems = _fresh(EXPORTS)
    assert problems == []
    assert packages == 15
    assert exports > 200


#: The exports named like the submodule that defines them.
CLASHES = (
    ("repro.analysis", "vet"),
    ("repro.targets", "fpga"),
    ("repro.targets", "host"),
    ("repro.targets", "smartnic"),
)


@pytest.mark.parametrize("first", ["submodule", "export"])
def test_an_export_named_like_its_submodule_is_the_export(first):
    code = ["import importlib, json"]
    for package, name in CLASHES:
        module = f"{package}.{name}"
        if first == "submodule":
            code.append(f"import {module}")
        else:
            code.append(f"from {package} import {name}")
            code.append(f"import {module}")
    code.append(
        "print(json.dumps([type(getattr(importlib.import_module(p), n)).__name__ "
        f"for p, n in {CLASHES!r}]))"
    )
    assert _fresh("\n".join(code)) == ["function"] * len(CLASHES)

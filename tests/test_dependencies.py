"""``repro`` has no runtime dependency: it imports only the standard library.

``pyproject.toml`` declares ``dependencies = []``, so a clean
``pip install -e .`` must be able to import every module. A fresh
interpreter imports ``repro``, ``repro.cli`` and every module
``pkgutil.walk_packages`` finds under ``repro``, and reports the
top-level names those imports added to ``sys.modules``. A test may use
a third-party package as an oracle (networkx checks the topology
view's path search); the package itself may not.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SOURCE = str(Path(repro.__file__).resolve().parents[1])

IMPORT_EVERYTHING = """
import sys
startup = set(sys.modules)
import importlib, json, pkgutil
import repro, repro.cli
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - startup})))
"""


def test_every_module_imports_only_the_standard_library():
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING],
        env={**os.environ, "PYTHONPATH": SOURCE},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    added = json.loads(run.stdout)
    assert "repro" in added
    foreign = [
        name
        for name in added
        if name != "repro"
        and name not in sys.stdlib_module_names
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert foreign == []

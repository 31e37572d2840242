"""A run holds only what is in flight: a run must not grow its peak
memory, nor slow down per packet, with the number of packets it sends.
Three runs are gated, each with the ``PER_PACKET_PATH`` checker where
the driver has one:

- ``constant``: the default ``run_traffic`` (a generated constant-rate
  flow) on the standard slice;
- ``e20``: ``e20_workload`` traffic (a Poisson multi-flow series)
  through ``run_traffic`` on the standard slice;
- ``e20-scale``: the same traffic through ``scale(backend="inline")``
  on a two-pod fabric, which the planner splits into two shards.

Each run is a fresh interpreter that reads its own peak resident set
after the run. That is ``VmHWM``, the peak of the process's own memory
map, rather than ``ru_maxrss``: Linux carries the peak of the forking
process (this test runner, ~80 MB) into ``ru_maxrss`` across the
``exec``, which would hide any run smaller than that. ``tracemalloc``
would slow the run about eightfold, so it is not used. Host speed drifts
by ±20% over seconds on a shared machine, so the two sizes alternate
three times and their median walls per packet are compared. Slow:
~5 min for the three (``python -m pytest -m slow``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SOURCE = str(Path(repro.__file__).resolve().parents[1])

RUN = """
import gc, json, sys, time
from repro import FlexNet
from repro.apps import base_infrastructure
from repro.runtime.consistency import ConsistencyLevel
from repro.scale import e20_workload, pod_fabric

packets, arm, rate = int(sys.argv[1]), sys.argv[2], 2000.0
level = ConsistencyLevel.PER_PACKET_PATH
net = pod_fabric(2) if arm == "e20-scale" else FlexNet.standard()
net.install(base_infrastructure())
workload = e20_workload(packets, rate_pps=rate, seed=7) if arm != "constant" else None
gc.collect()
collections = gc.get_stats()[2]["collections"]
started = time.perf_counter()
if arm == "constant":
    report = net.run_traffic(rate_pps=rate, duration_s=packets / rate, consistency_level=level)
elif arm == "e20":
    report = net.run_traffic(packets=workload, consistency_level=level)
else:
    report = net.scale(backend="inline", packets=workload)
wall_s = time.perf_counter() - started
with open("/proc/self/status") as status:
    peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
checker = getattr(report, "consistency", None)
print(json.dumps({
    "delivered": report.metrics.delivered,
    "holds": checker is None or checker.report().holds,
    "peak_kib": peak_kib,
    "wall_s": wall_s,
    "gen2": gc.get_stats()[2]["collections"] - collections,
}))
"""

SMALL, LARGE = 20_000, 200_000
#: peak growth allowed per extra packet sent (the parent held ~1.5 kB).
MAX_BYTES_PER_PACKET = 100
#: median wall per packet at the larger size, as a multiple of the smaller's.
MAX_WALL_RATIO = 1.10


def run(packets: int, arm: str) -> dict:
    path = os.pathsep.join(filter(None, (SOURCE, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(packets), arm],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout)
    assert result["delivered"] == packets and result["holds"], result
    return result


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("arm", ["constant", "e20", "e20-scale"])
def test_peak_memory_and_wall_per_packet_do_not_grow_with_the_run(arm):
    runs = {SMALL: [], LARGE: []}
    for _ in range(3):
        for packets in runs:
            runs[packets].append(run(packets, arm))
    growth = (
        (max(r["peak_kib"] for r in runs[LARGE]) - min(r["peak_kib"] for r in runs[SMALL]))
        * 1024
        / (LARGE - SMALL)
    )
    assert growth <= MAX_BYTES_PER_PACKET, (growth, runs)
    per_packet = {
        packets: statistics.median(r["wall_s"] / packets for r in results)
        for packets, results in runs.items()
    }
    assert per_packet[LARGE] <= MAX_WALL_RATIO * per_packet[SMALL], (per_packet, runs)

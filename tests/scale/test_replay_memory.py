"""A sending worker's replay log holds bytes, not packets.

FlexMend senders retain every frame they send for the whole run
(a re-forked receiver needs its stream from seq 1), so whatever a frame
holds stays alive until the run ends. A frame is one pickled payload, so
the sending worker's peak may grow with the handoffs it sends by about
their encoded size (~0.2 kB each), not by the live packet (~1.5 kB).

Two process-backend runs of the E20 fabric, at 2k and 20k packets, each
in a fresh interpreter (the forked workers' peaks would otherwise start
from this test runner's). Each worker reads its own ``VmHWM`` from
``/proc/self/status`` when it packages its result (a ``ShardEngine.result``
spy, pickled back with the result). Slow (``python -m pytest -m slow``).
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

RUN = """
import json, sys
from repro.apps import base_infrastructure
from repro.scale import e20_workload, pod_fabric, run_sharded
from repro.scale.shard import ShardEngine

result = ShardEngine.result

def spying_result(engine):
    out = result(engine)
    with open("/proc/self/status") as status:
        out.peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return out

ShardEngine.result = spying_result
net = pod_fabric(2)
net.install(base_infrastructure())
workload = e20_workload(int(sys.argv[1]), rate_pps=20_000.0, seed=7)
report = run_sharded(net, workload, 2, backend="process", seed=7, drain_s=0.05)
print(json.dumps({
    "delivered": report.metrics.delivered,
    "shards": [[s.handoffs_out, s.peak_kib] for s in report.shard_results],
}))
"""

SMALL, LARGE = 2_000, 20_000
#: the sending worker's peak growth allowed per extra handed-off packet.
MAX_BYTES_PER_HANDOFF = 500


def run(packets: int) -> tuple[int, int]:
    """``(handoffs out, peak KiB)`` of the run's one sending worker."""
    path = os.pathsep.join(filter(None, (SOURCE, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", RUN, str(packets)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout)
    assert result["delivered"] == packets, result
    (sender,) = [shard for shard in result["shards"] if shard[0]]
    return sender[0], sender[1]


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_the_sender_peak_grows_by_frame_bytes_per_handoff():
    (small_out, small_kib), (large_out, large_kib) = run(SMALL), run(LARGE)
    assert (small_out, large_out) == (SMALL, LARGE)  # every packet crosses the one edge
    growth = (large_kib - small_kib) * 1024 / (large_out - small_out)
    assert growth <= MAX_BYTES_PER_HANDOFF, (growth, small_kib, large_kib)

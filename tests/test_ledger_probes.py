"""Every ledger probe still finds what it wraps.

``perf/layers.py`` names each probe's target as ``module:Owner.attr``;
``perf/spans.py`` resolves it by importing the module and reading the
attribute from the owner's own namespace, and a target it cannot
resolve turns that probe's ledger rows ``null`` without failing the
run. Moving an import or a definition must not do that silently, so the
set of probes that do not resolve is pinned here to the two whose
targets were deleted on purpose.
"""

from __future__ import annotations

from perf import layers, spans

#: The span names of the probes whose targets were deleted: the batch
#: entry point ``ProgramInstance.process_batch`` and the per-device
#: flow memo.
UNRESOLVED = {("exec.batch",), ("exec.flowcache",)}


def test_every_ledger_probe_target_resolves_but_the_deleted_ones():
    unresolved = set()
    for probe in layers.CONTROL_PROBES + layers.DATAPATH_PROBES:
        try:
            _, _, original = spans._resolve(probe.target)
        except (ImportError, AttributeError, KeyError):
            unresolved.add(probe.span_names)
            continue
        assert callable(original), probe.target
    assert unresolved == UNRESOLVED

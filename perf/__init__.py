"""FlexLedger: the repo's end-to-end + per-layer benchmark.

Times the run a user performs (``FlexNet.run_traffic`` / ``scale`` /
``update`` over a fabric) and, in a separate traced run, attributes
that time to the repo's layers. See ``perf/README.md``.
"""

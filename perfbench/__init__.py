"""End-to-end and per-layer benchmark of the selflabel pipeline.

Run it as ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` explains the
workloads and metrics.
"""

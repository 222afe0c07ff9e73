"""Campaign benchmark: end-to-end metrics and per-layer timing of repro-tass.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""

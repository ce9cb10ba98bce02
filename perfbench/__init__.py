"""dartlab benchmark: host cost per simulated event, end to end and per layer.

Run ``python3 perfbench/run.py --help`` from the repository root; the
metric, workload and layer map is in ``perfbench/README.md``.
"""

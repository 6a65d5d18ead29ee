"""End-to-end benchmark of trace loading, experiment sweeps and live serving.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md``.
"""

"""End-to-end and per-module benchmark for the fockprop CLI.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root. See README.md in
this directory for the workloads, the metrics and how they relate.
"""

"""The repository benchmark: differential suites and Figure-4 page loads.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads and every metric.
"""

"""Experiment-level benchmark for the Maya reproduction.

``python3 expbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
regenerates a paper figure through its public entry point
(:mod:`repro.experiments`) over and over, and prints one JSON result line.
See ``expbench/README.md`` for the workloads, metrics and layer table.
"""

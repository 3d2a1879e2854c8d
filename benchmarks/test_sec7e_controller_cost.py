"""Section VII-E: Maya's own runtime costs (microbenchmarks).

Unlike the figure-level benchmarks, these use pytest-benchmark's timing
machinery directly: the controller step and mask sampling are the two
operations Maya executes every 20 ms.
"""

import time

import numpy as np
from conftest import BENCH_SEED, report

from repro.experiments import sec7e_controller_cost
from repro.machine import spawn


def test_sec7e_summary(benchmark, scale, sys1_factory):
    result = benchmark.pedantic(
        lambda: sec7e_controller_cost.run(
            scale=scale, seed=BENCH_SEED, factory=sys1_factory,
            timing_iterations=5000,
        ),
        rounds=1, iterations=1,
    )
    report("Section VII-E: controller/mask runtime costs", result.table())
    assert result.controller_states == 11
    assert result.storage_bytes < 1024


def _mean_latency_s(benchmark, operation, repeats=2000):
    """Mean seconds per call: pytest-benchmark's statistic, or a direct
    timing loop under ``--benchmark-disable`` (which records no stats)."""
    benchmark(operation)
    if benchmark.stats is not None:
        return benchmark.stats["mean"]
    start = time.perf_counter()
    for _ in range(repeats):
        operation()
    return (time.perf_counter() - start) / repeats


def test_sec7e_controller_step_latency(benchmark, sys1_factory):
    design = sys1_factory.maya_design("gaussian_sinusoid")
    instance = design.instantiate(spawn(BENCH_SEED, "bench-step"))
    rng = np.random.default_rng(0)
    low, high = design.mask_range_w

    def step():
        instance.controller.step(
            float(rng.uniform(low, high)), float(rng.uniform(low, high))
        )

    # Python-level budget: well under the 20 ms control interval.
    assert _mean_latency_s(benchmark, step) < 0.002


def test_sec7e_mask_sample_latency(benchmark, sys1_factory):
    design = sys1_factory.maya_design("gaussian_sinusoid")
    instance = design.instantiate(spawn(BENCH_SEED, "bench-mask"))
    assert _mean_latency_s(benchmark, instance.mask.next_target) < 0.001

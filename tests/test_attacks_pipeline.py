"""Tests for repro.attacks.pipeline (scenario plumbing + small attacks)."""

import numpy as np
import pytest

from repro.attacks import (
    AttackScenario,
    run_attack,
    sample_runs,
    simulate_runs,
    train_and_evaluate,
)
from repro.attacks.mlp import MLPConfig
from repro.attacks.pipeline import _split_runs
from repro.machine import SYS1, spawn


def tiny_scenario(defense="baseline", **overrides):
    params = dict(
        name="tiny",
        spec=SYS1,
        class_workloads=("volrend", "water_nsquared"),
        defense=defense,
        runs_per_class=6,
        duration_s=6.0,
        segment_duration_s=4.0,
        segment_stride_s=2.0,
        mlp=MLPConfig(hidden_sizes=(32,), max_epochs=15),
        seed=11,
    )
    params.update(overrides)
    return AttackScenario(**params)


class TestScenarioValidation:
    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            tiny_scenario(class_workloads=("volrend",))

    def test_bad_sensor(self):
        with pytest.raises(ValueError):
            tiny_scenario(sensor="thermal")

    def test_split_must_leave_test_share(self):
        with pytest.raises(ValueError):
            tiny_scenario(train_frac=0.9, val_frac=0.2)

    def test_outlet_interval_fixed_at_50ms(self):
        scenario = tiny_scenario(sensor="outlet")
        assert scenario.effective_interval_s == pytest.approx(0.05)

    def test_feature_config_segment_len(self):
        scenario = tiny_scenario()
        assert scenario.feature_config().segment_len == 200  # 4 s / 20 ms


class TestSplitRuns:
    def test_partition_is_disjoint_and_complete(self):
        train, val, test = _split_runs(20, 0.6, 0.2, spawn(1, "split"))
        combined = np.concatenate([train, val, test])
        assert sorted(combined) == list(range(20))

    def test_every_bucket_nonempty_for_small_n(self):
        for n in (4, 5, 6, 10):
            train, val, test = _split_runs(n, 0.6, 0.2, spawn(1, "split", n))
            assert train.size >= 1 and val.size >= 0 and test.size >= 1

    def test_deterministic(self):
        a = _split_runs(12, 0.6, 0.2, spawn(2, "s"))
        b = _split_runs(12, 0.6, 0.2, spawn(2, "s"))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestPipeline:
    @pytest.fixture(scope="class")
    def runs(self, sys1_factory):
        return simulate_runs(tiny_scenario(), sys1_factory)

    def test_simulate_runs_shape(self, runs):
        assert len(runs) == 2
        assert len(runs[0]) == 6
        assert runs[0][0].duration_s == pytest.approx(6.0)

    def test_traces_labelled_with_workload(self, runs):
        assert runs[0][0].workload == "volrend"
        assert runs[1][0].workload == "water_nsquared"

    def test_runs_differ_within_class(self, runs):
        a, b = runs[0][0], runs[0][1]
        assert not np.array_equal(a.power_w[:1000], b.power_w[:1000])

    def test_sample_runs_rapl(self, runs):
        sampled = sample_runs(tiny_scenario(), runs)
        assert len(sampled) == 2
        assert sampled[0][0].size == 300  # 6 s / 20 ms

    def test_sample_runs_outlet_rate(self, runs):
        sampled = sample_runs(tiny_scenario(sensor="outlet"), runs)
        assert sampled[0][0].size == 120  # 6 s / 50 ms

    def test_train_and_evaluate_outcome(self, runs, sys1_factory):
        scenario = tiny_scenario()
        outcome = train_and_evaluate(scenario, sample_runs(scenario, runs))
        assert outcome.n_train > 0 and outcome.n_test > 0
        assert 0.0 <= outcome.average_accuracy <= 1.0
        assert outcome.result.matrix.shape == (2, 2)

    def test_baseline_attack_succeeds(self, runs, sys1_factory):
        """Two very different apps, no defense: near-perfect detection."""
        scenario = tiny_scenario()
        outcome = train_and_evaluate(scenario, sample_runs(scenario, runs))
        assert outcome.average_accuracy > 0.9

    def test_run_attack_end_to_end(self, sys1_factory):
        outcome = run_attack(tiny_scenario(), sys1_factory)
        assert outcome.average_accuracy > 0.9


class TestExecutionLayer:
    def test_cached_rerun_reproduces_attack_outcome(self, sys1_factory, tmp_path):
        """Acceptance: a cached re-run yields the identical AttackOutcome."""
        from repro.exec import TraceCache

        scenario = tiny_scenario(
            runs_per_class=4, duration_s=4.0,
            segment_duration_s=2.0, segment_stride_s=1.0,
        )
        cache = TraceCache(root=tmp_path)
        first = run_attack(scenario, sys1_factory, cache=cache)
        assert cache.hits == 0
        second = run_attack(scenario, sys1_factory, cache=cache)
        assert cache.hits >= 1
        assert cache.hits == 2 * scenario.runs_per_class  # every session replayed
        assert np.array_equal(first.result.matrix, second.result.matrix)
        assert first.average_accuracy == second.average_accuracy
        assert (first.n_train, first.n_val, first.n_test) == (
            second.n_train, second.n_val, second.n_test
        )

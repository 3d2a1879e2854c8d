"""Interface + fast-result tests for cheap experiment modules.

The expensive ML-attack experiments (Figs. 6, 8, 9, 12) are exercised end to
end by the benchmark harness; here we run the cheap ones at smoke scale and
assert their paper-facing claims.
"""

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.config import get_scale
from repro.experiments.common import make_factory
from repro.machine import SYS1


@pytest.fixture(scope="module")
def smoke_factory(sys1_factory):
    return sys1_factory


class TestFig03:
    @pytest.fixture(scope="class")
    def result(self, sys1_factory):
        return EXPERIMENTS["fig03"].run(scale="smoke", seed=2, factory=sys1_factory)

    def test_formal_controller_tracks_better(self, result):
        assert result.formal_mean_error_w < result.naive_mean_error_w

    def test_naive_output_retains_app_shape(self, result):
        # Figure 3b: the naive trace "has many features of the original".
        assert result.naive_app_correlation > 0.3
        assert result.formal_app_correlation < 0.3

    def test_rows_renderable(self, result):
        rows = result.rows()
        assert len(rows) == 2 and all("mean_error_w" in r for r in rows)


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return EXPERIMENTS["fig04"].run(scale="smoke", seed=2)

    def test_all_five_mask_rows_match_table2(self, result):
        assert result.all_match_paper(), result.table()

    def test_series_span_requested_window(self, result):
        for row in result.rows.values():
            assert row.series.size == 1000  # 20 s at 50 Hz

    def test_table_rendering(self, result):
        text = result.table()
        assert "gaussian_sinusoid" in text


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self, sys1_factory):
        return EXPERIMENTS["fig13"].run(scale="smoke", seed=2, factory=sys1_factory)

    def test_tracking_within_paper_bound(self, result):
        assert result.relative_tracking_error < 0.10

    def test_mask_and_measured_distributions_match(self, result):
        for app, overlap in result.overlap.items():
            assert overlap > 0.6, app
        for app in result.mask_boxes:
            assert result.measured_boxes[app].median == pytest.approx(
                result.mask_boxes[app].median, abs=1.0
            )


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self, sys1_factory):
        return EXPERIMENTS["fig15"].run(scale="smoke", seed=2, factory=sys1_factory)

    def test_baseline_separates_instructions(self, result):
        assert result.separation["baseline"] > 2.0
        assert result.classifier_accuracy["baseline"] > 0.9

    def test_maya_gs_hides_instructions(self, result):
        assert result.separation["maya_gs"] < 0.5
        # Nearest-mean classification collapses to ~chance (1/3).
        assert result.classifier_accuracy["maya_gs"] < 0.6


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self, sys1_factory):
        return EXPERIMENTS["fig14"].run(scale="smoke", seed=2, factory=sys1_factory)

    def test_every_defense_slows_execution(self, result):
        for defense in result.time_ratio:
            assert result.mean_time_ratio(defense) > 1.1

    def test_maya_gs_is_cheapest_defense(self, result):
        gs = result.mean_time_ratio("maya_gs")
        others = [
            result.mean_time_ratio(d) for d in result.time_ratio if d != "maya_gs"
        ]
        assert gs <= min(others) + 0.15

    def test_gs_energy_closest_to_baseline(self, result):
        gs = abs(result.mean_energy_ratio("maya_gs") - 1.0)
        others = [
            abs(result.mean_energy_ratio(d) - 1.0)
            for d in result.time_ratio if d != "maya_gs"
        ]
        assert gs <= min(others) + 0.4

    def test_baseline_reference_recorded(self, result):
        assert set(result.baseline_power_w) == set(result.power_ratio["maya_gs"])

    def test_serial_and_batch_backends_agree(self, result, sys1_factory, monkeypatch):
        """The run-to-completion sessions give one result on either loop."""
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        for backend in ("serial", "batch"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            assert EXPERIMENTS["fig14"].run(
                scale="smoke", seed=2, factory=sys1_factory
            ) == result, backend


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self, sys1_factory):
        return EXPERIMENTS["fig11"].run(scale="smoke", seed=2, factory=sys1_factory)

    def test_phases_visible_without_maya_gs(self, result):
        for name in ("noisy_baseline", "maya_constant"):
            row = result.per_defense[name]
            assert row.excess_recall > 0.5, name

    def test_maya_gs_detections_are_artificial(self, result):
        row = result.per_defense["maya_gs"]
        # Many detections with chance-level correspondence to true phases.
        assert row.detected_times_s.size >= 6
        assert row.chance_hit > 0.3

    def test_maya_gs_hides_completion(self, result):
        assert not result.per_defense["maya_gs"].completion_detected

    def test_some_leaky_design_reveals_completion(self, result):
        leaky = [
            result.per_defense[name].completion_detected
            for name in ("noisy_baseline", "random_inputs", "maya_constant")
        ]
        assert any(leaky)


class TestSec7e:
    @pytest.fixture(scope="class")
    def result(self, sys1_factory):
        return EXPERIMENTS["sec7e"].run(
            scale="smoke", seed=2, factory=sys1_factory, timing_iterations=2000
        )

    def test_controller_dimension_matches_paper(self, result):
        assert result.controller_states == 11

    def test_storage_under_1kb(self, result):
        assert result.storage_bytes < 1024

    def test_step_cost_order_of_magnitude(self, result):
        # A few hundred MACs; our Python runtime completes in < 1 ms.
        assert 100 < result.operations_per_step < 1000
        assert result.controller_step_us < 1000.0

    def test_mask_sampling_fast(self, result):
        assert result.mask_sample_us < 1000.0

"""Tests for repro.defenses (the Table V designs)."""

import numpy as np
import pytest

from repro.core.runtime import make_machine, run_session
from repro.defenses import (
    DESIGN_NAMES,
    Baseline,
    DefenseFactory,
    MayaDefense,
    NoisyBaseline,
    RandomInputs,
)
from repro.machine import SYS1, SYS2, spawn
from repro.workloads import parsec_program


def machine(app="bodytrack", run_id=0):
    return make_machine(SYS1, parsec_program(app), seed=21, run_id=run_id)


class TestBaseline:
    def test_always_max_performance(self):
        defense = Baseline()
        defense.prepare(machine(), spawn(1, "b"))
        settings = defense.initial_settings()
        assert settings.freq_ghz == SYS1.freq_max_ghz
        assert settings.idle_frac == 0.0
        assert settings.balloon_level == 0.0
        assert defense.decide(20.0) == settings

    def test_no_target(self):
        defense = Baseline()
        defense.prepare(machine(), spawn(1, "b"))
        assert np.isnan(defense.current_target_w)


class TestNoisyBaseline:
    def test_settings_fixed_within_run(self):
        defense = NoisyBaseline()
        defense.prepare(machine(), spawn(1, "n"))
        first = defense.initial_settings()
        assert all(defense.decide(20.0) == first for _ in range(20))

    def test_settings_vary_across_runs(self):
        draws = set()
        for run in range(10):
            defense = NoisyBaseline()
            defense.prepare(machine(run_id=run), spawn(1, "n", run))
            draws.add(defense.initial_settings())
        assert len(draws) > 3


class TestRandomInputs:
    def test_settings_change_during_run(self):
        defense = RandomInputs()
        defense.prepare(machine(), spawn(1, "r"))
        seen = {defense.initial_settings()}
        for _ in range(400):
            seen.add(defense.decide(20.0))
        assert len(seen) > 10

    def test_hold_durations_respected(self):
        defense = RandomInputs(hold_intervals=(5, 5))
        defense.prepare(machine(), spawn(1, "r"))
        settings = [defense.initial_settings()]
        for _ in range(50):
            settings.append(defense.decide(20.0))
        # With a fixed hold of 5 intervals, values change exactly every 5.
        changes = [i for i in range(1, 51) if settings[i] != settings[i - 1]]
        assert all(c % 5 == 0 for c in changes)


class TestMayaDefense:
    def test_name_reflects_mask(self, sys1_design, sys1_constant_design):
        assert MayaDefense(sys1_design).name == "maya_gs"
        assert MayaDefense(sys1_constant_design).name == "maya_constant"

    def test_platform_mismatch_rejected(self, sys1_design):
        defense = MayaDefense(sys1_design)
        wrong = make_machine(SYS2, parsec_program("bodytrack"), seed=21, run_id=0)
        with pytest.raises(ValueError, match="design built for"):
            defense.prepare(wrong, spawn(1, "m"))

    def test_exposes_mask_target(self, sys1_design):
        defense = MayaDefense(sys1_design)
        defense.prepare(machine(), spawn(1, "m"))
        defense.initial_settings()
        defense.decide(18.0)
        low, high = sys1_design.mask_range_w
        assert low <= defense.current_target_w <= high

    def test_fresh_mask_stream_per_run(self, sys1_design):
        targets = []
        for run in range(2):
            defense = MayaDefense(sys1_design)
            defense.prepare(machine(run_id=run), spawn(1, "m", run))
            defense.initial_settings()
            targets.append([defense.decide(18.0) and defense.current_target_w
                            for _ in range(30)])
        assert targets[0] != targets[1]


class TestDefenseFactory:
    def test_all_designs_instantiable(self, sys1_factory):
        for name in DESIGN_NAMES:
            defense = sys1_factory.create(name)
            assert defense.name == name

    def test_unknown_design_rejected(self, sys1_factory):
        with pytest.raises(KeyError):
            sys1_factory.create("maya_fourier")

    @pytest.mark.parametrize(
        "name, family",
        [("maya_uniform", "uniform"), ("maya_gaussian", "gaussian"),
         ("maya_sinusoid", "sinusoid")],
    )
    def test_every_mask_family_has_a_maya_design(self, sys1_factory, name, family):
        defense = sys1_factory.create(name)
        assert isinstance(defense, MayaDefense)
        assert defense.name == name
        assert defense.design.config.mask_family == family

    @pytest.mark.parametrize(
        "name", ["maya_gaussian_sinusoid", "maya_gs_", "gaussian", "maya"]
    )
    def test_only_reported_maya_names_accepted(self, sys1_factory, name):
        with pytest.raises(KeyError) as raised:
            sys1_factory.create(name)
        message = str(raised.value)
        for known in ("maya_gs", "maya_constant", "maya_uniform",
                      "maya_gaussian", "maya_sinusoid"):
            assert repr(known) in message

    def test_designs_cached(self, sys1_factory):
        a = sys1_factory.create("maya_gs")
        b = sys1_factory.create("maya_gs")
        assert a.design is b.design

    def test_fresh_instances_per_run(self, sys1_factory):
        assert sys1_factory.create("maya_gs") is not sys1_factory.create("maya_gs")


class TestDefensePowerBehaviour:
    """Coarse sanity: the designs actually change the power profile."""

    @pytest.mark.parametrize("design", ["noisy_baseline", "random_inputs"])
    def test_defended_power_below_baseline(self, sys1_factory, design):
        """On average over runs (individual random draws can go hotter)."""
        def mean_power(name):
            powers = []
            for run in range(5):
                trace = run_session(
                    machine("water_nsquared", run_id=(name, run)),
                    sys1_factory.create(name),
                    seed=21, run_id=(name, run), duration_s=8.0,
                )
                powers.append(trace.average_power_w)
            return np.mean(powers)

        assert mean_power(design) < mean_power("baseline")

    def test_maya_constant_flattens_power(self, sys1_factory):
        trace = run_session(machine("bodytrack"), sys1_factory.create("maya_constant"),
                            seed=21, run_id="flat", duration_s=10.0)
        # Skip the settling transient, then power must hug the constant.
        steady = trace.measured_w[50:]
        assert steady.std() < 1.5

"""The simulated machine: executes a workload under actuator settings.

:class:`SimulatedMachine` advances a :class:`~repro.workloads.phases.PhaseProgram`
in wall-clock ticks (default 1 ms).  During an advance the actuator settings
are constant, so the power of each phase segment is computed vectorized.
The machine tracks application *work*, not time: actuation that slows the
machine stretches execution, which is where the paper's performance
overheads come from.

The machine itself knows nothing about defenses, masks or attackers — the
control loop lives in :mod:`repro.core.runtime`.
"""

from __future__ import annotations

import math

import numpy as np

from ..workloads.phases import PhaseProgram
from .actuators import ActuatorBank, ActuatorSettings
from .platform import PlatformSpec
from .power import PowerModel
from .thermal import ThermalModel
from . import rng as rng_mod

__all__ = ["SimulatedMachine"]


class SimulatedMachine:
    """Discrete-time simulation of one platform running one workload."""

    def __init__(
        self,
        spec: PlatformSpec,
        workload: PhaseProgram,
        seed: int = 0,
        run_id: object = 0,
        tick_s: float = 0.001,
        record_temperature: bool = False,
        workload_jitter: float = 0.08,
    ) -> None:
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self.spec = spec
        if workload_jitter > 0:
            # Run-to-run variation: no two executions of the same program
            # are identical (timing, loop rates, activity all drift a few
            # percent), exactly as on a real machine.
            workload = workload.jittered(
                rng_mod.spawn(seed, "workload-jitter", workload.name, run_id),
                workload_jitter,
            )
        self.workload = workload
        self.tick_s = tick_s
        self.bank = ActuatorBank(spec)
        self.power_model = PowerModel(
            spec, rng_mod.spawn(seed, "power", spec.name, workload.name, run_id)
        )
        self.thermal = ThermalModel() if record_temperature else None
        self.record_temperature = record_temperature

        self.time_s = 0.0
        self.work_done = 0.0
        self._phase_index = 0
        self._work_into_phase = 0.0
        self.completed_at_s = float("nan")

    @property
    def completed(self) -> bool:
        return self._phase_index >= len(self.workload.phases)

    def reset(self) -> None:
        """Rewind the workload without re-seeding the noise streams."""
        self.time_s = 0.0
        self.work_done = 0.0
        self._phase_index = 0
        self._work_into_phase = 0.0
        self.completed_at_s = float("nan")
        if self.thermal is not None:
            self.thermal.reset()

    def activity_profile(
        self,
        n_ticks: int,
        settings: ActuatorSettings,
        activity_out: np.ndarray,
        core_fraction_out: np.ndarray,
    ) -> None:
        """Advance the workload ``n_ticks`` and fill its per-tick profile.

        This is the phase-cursor half of :meth:`advance`: it updates the
        machine's work/time accounting and writes the window's switching
        activity and core occupancy into the provided ``n_ticks``-length
        buffers, without evaluating the power model.  The batched backend
        (:mod:`repro.exec.batch`) calls it once per session per interval
        and then evaluates the physics for the whole fleet at once.
        """
        if n_ticks <= 0:
            raise ValueError("duration shorter than one tick")

        filled = 0
        while filled < n_ticks:
            ticks_left = n_ticks - filled
            if self.completed:
                # Application finished: only static power, noise, and any
                # balloon the defense keeps running.
                activity_out[filled:n_ticks] = 0.0
                core_fraction_out[filled:n_ticks] = 0.0
                self.time_s += ticks_left * self.tick_s
                break

            phase = self.workload.phases[self._phase_index]
            work_per_tick = self.work_per_tick(phase, settings)
            work_remaining = phase.work_units - self._work_into_phase
            ticks_in_phase = math.ceil(work_remaining / work_per_tick - 1e-12)
            seg_ticks = min(ticks_left, max(ticks_in_phase, 1))

            # Work-time grid for this segment (loop phases oscillate in
            # work time so slowdowns stretch their apparent period).
            work_times = self._work_into_phase + work_per_tick * (
                np.arange(seg_ticks) + 1.0
            )
            seg_end = filled + seg_ticks
            activity_out[filled:seg_end] = phase.activity_at(work_times)
            core_fraction_out[filled:seg_end] = phase.core_fraction

            advanced_work = work_per_tick * seg_ticks
            self._work_into_phase += advanced_work
            self.work_done += advanced_work
            self.time_s += seg_ticks * self.tick_s
            filled = seg_end

            if self._work_into_phase >= phase.work_units - 1e-9:
                self._work_into_phase = 0.0
                self._phase_index += 1
                if self.completed and not np.isfinite(self.completed_at_s):
                    self.completed_at_s = self.time_s

    def work_per_tick(self, phase, settings: ActuatorSettings) -> float:
        """Work units ``phase`` completes per tick under ``settings``."""
        rate = phase.progress_rate(
            settings.freq_ghz / self.spec.freq_max_ghz,
            settings.idle_frac,
            settings.balloon_level,
        )
        # Defensive clamp: a custom Phase whose progress_rate returns a
        # zero, negative, or non-finite rate (e.g. idle_frac at its
        # ceiling without the base class's own floor) would otherwise
        # divide work_remaining by zero.
        if not (rate > 0.0) or not math.isfinite(rate):
            rate = 1e-6
        return rate * self.tick_s

    def advance(
        self, duration_s: float, settings: ActuatorSettings
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run the machine for ``duration_s`` with constant settings.

        Returns ``(power_w, temperature_c)`` per tick; the temperature array
        is empty unless the machine records temperature.  The whole window
        is evaluated in a single :meth:`PowerModel.window_power` call over
        the per-tick activity/occupancy profile: the AR(1) shock stream and
        the row-wise filter split identically at segment boundaries, so the
        result is bit-identical to the historical per-segment evaluation.
        """
        n_ticks = int(round(duration_s / self.tick_s))
        activity = np.empty(n_ticks if n_ticks > 0 else 0)
        core_fraction = np.empty_like(activity)
        self.activity_profile(n_ticks, settings, activity, core_fraction)
        power_w = self.power_model.window_power(
            activity,
            core_fraction=core_fraction,
            freq_ghz=settings.freq_ghz,
            idle_frac=settings.idle_frac,
            balloon_level=settings.balloon_level,
        )
        if self.thermal is not None:
            temperature_c = self.thermal.advance(power_w, self.tick_s)
        else:
            temperature_c = np.empty(0)
        return power_w, temperature_c

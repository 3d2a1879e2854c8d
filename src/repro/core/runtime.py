"""The control-loop session runner.

This is the outer loop of Figure 2: every interval the machine runs with the
current actuator settings, the sensor reports the window's power, and the
defense decides the settings for the next interval.  The loop produces a
:class:`~repro.machine.trace.Trace` that every experiment consumes.
"""

from __future__ import annotations

import numpy as np

from ..defenses.base import Defense
from ..machine import RaplSensor, SimulatedMachine, Trace, spawn
from ..workloads.phases import PhaseProgram

__all__ = ["run_session", "make_machine"]


def make_machine(
    spec,
    workload: PhaseProgram,
    seed: int,
    run_id: object,
    tick_s: float = 0.001,
    record_temperature: bool = False,
    workload_jitter: float = 0.08,
) -> SimulatedMachine:
    """Convenience constructor with the reproduction's seeding scheme."""
    return SimulatedMachine(
        spec,
        workload,
        seed=seed,
        run_id=run_id,
        tick_s=tick_s,
        record_temperature=record_temperature,
        workload_jitter=workload_jitter,
    )


def run_session(
    machine: SimulatedMachine,
    defense: Defense,
    seed: int = 0,
    run_id: object = 0,
    interval_s: float = 0.020,
    duration_s: float | None = None,
    max_duration_s: float = 600.0,
    tail_s: float = 2.0,
) -> Trace:
    """Execute one workload run under a defense and record the trace.

    * With ``duration_s`` set, the session runs for exactly that long — the
      workload may finish early (the machine then sits idle apart from the
      defense's own activity) or be cut off, as when an attacker records a
      fixed-length window.
    * With ``duration_s=None``, the session runs until the workload
      completes (plus ``tail_s`` of cool-down), capped at
      ``max_duration_s`` — the mode used to measure execution time.
    """
    spec = machine.spec
    defense_rng = spawn(seed, "defense", defense.name, machine.workload.name, run_id)
    defense.prepare(machine, defense_rng)
    sensor = RaplSensor(
        spec, spawn(seed, "defense-sensor", machine.workload.name, run_id)
    )

    if duration_s is not None:
        n_intervals = int(round(duration_s / interval_s))
        if n_intervals < 1:
            raise ValueError("duration_s shorter than one interval")
    else:
        n_intervals = None

    max_intervals = int(round(max_duration_s / interval_s))
    if max_intervals < 1:
        raise ValueError("max_duration_s shorter than one interval")
    interval_cap = max_intervals if n_intervals is None else min(n_intervals, max_intervals)

    # With a fixed duration every interval contributes exactly
    # ``ticks_per_interval`` samples, so the tick-level buffers can be
    # preallocated outright; completion-mode sessions (unknown length)
    # keep collecting per-interval chunks.
    ticks_per_interval = int(round(interval_s / machine.tick_s))
    if n_intervals is not None:
        power_buffer = np.empty(interval_cap * ticks_per_interval, dtype=np.float64)
        temp_buffer = (
            np.empty(interval_cap * ticks_per_interval, dtype=np.float64)
            if machine.record_temperature
            else None
        )
    else:
        power_buffer = None
        temp_buffer = None
    power_chunks: list[np.ndarray] = []
    temp_chunks: list[np.ndarray] = []
    # Per-interval logs are fixed-width, so they live in preallocated
    # (doubling) buffers instead of Python lists of per-interval arrays.
    capacity = interval_cap if n_intervals is not None else min(interval_cap, 2048)
    capacity = max(capacity, 1)
    measured = np.empty(capacity, dtype=np.float64)
    targets = np.empty(capacity, dtype=np.float64)
    settings_log = np.empty((capacity, 3), dtype=np.float64)

    settings = defense.initial_settings()
    interval_index = 0
    completion_deadline: int | None = None

    while True:
        if interval_index >= interval_cap:
            break
        if n_intervals is None:
            if machine.completed and completion_deadline is None:
                completion_deadline = interval_index + int(round(tail_s / interval_s))
            if completion_deadline is not None and interval_index >= completion_deadline:
                break

        if interval_index >= capacity:
            capacity = min(capacity * 2, interval_cap)
            measured = _grown(measured, capacity)
            targets = _grown(targets, capacity)
            settings_log = _grown(settings_log, capacity)

        power_w, temperature_c = machine.advance(interval_s, settings)
        measurement_w = sensor.measure_window(power_w, machine.tick_s)

        if power_buffer is not None:
            tick_start = interval_index * ticks_per_interval
            power_buffer[tick_start:tick_start + power_w.size] = power_w
            if temp_buffer is not None and temperature_c.size:
                temp_buffer[tick_start:tick_start + temperature_c.size] = temperature_c
        else:
            power_chunks.append(power_w)
            if temperature_c.size:
                temp_chunks.append(temperature_c)
        measured[interval_index] = measurement_w
        targets[interval_index] = defense.current_target_w
        settings_log[interval_index, 0] = settings.freq_ghz
        settings_log[interval_index, 1] = settings.idle_frac
        settings_log[interval_index, 2] = settings.balloon_level

        settings = defense.decide(measurement_w)
        interval_index += 1

    if power_buffer is not None:
        power_w = power_buffer[: interval_index * ticks_per_interval]
        temperature_c = (
            temp_buffer[: interval_index * ticks_per_interval]
            if temp_buffer is not None
            else np.empty(0)
        )
    else:
        power_w = np.concatenate(power_chunks)
        temperature_c = np.concatenate(temp_chunks) if temp_chunks else np.empty(0)
    return Trace(
        workload=machine.workload.name,
        platform=spec.name,
        defense=defense.name,
        tick_s=machine.tick_s,
        interval_s=interval_s,
        power_w=power_w,
        measured_w=measured[:interval_index].copy(),
        target_w=targets[:interval_index].copy(),
        settings=settings_log[:interval_index].copy(),
        completed_at_s=machine.completed_at_s,
        temperature_c=temperature_c,
    )


def _grown(buffer: np.ndarray, capacity: int) -> np.ndarray:
    """The buffer copied into a fresh array of ``capacity`` rows."""
    grown = np.empty((capacity,) + buffer.shape[1:], dtype=buffer.dtype)
    grown[: buffer.shape[0]] = buffer
    return grown

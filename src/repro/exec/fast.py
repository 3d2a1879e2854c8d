"""The ``precision="fast"`` execution tier: fully vectorized session fleets.

The exact batched backend (:mod:`repro.exec.batch`) holds two things back
to preserve bit-identity with the serial runner: mask transcendentals stay
scalar, and completion-mode / temperature-recording jobs fall back to the
serial loop outright.  The fast tier removes those caps:

* **Whole-session evaluation for static defenses.**  ``Baseline`` and
  ``NoisyBaseline`` apply one constant actuation triple for the entire
  session (``Defense.constant_settings``), so the session is a pure
  function of that triple.  The phase-cursor bookkeeping is replayed with
  scalar Python floats in the serial runner's *window grid* — every
  ``work_per_tick``/``_work_into_phase`` accumulation happens in the same
  order on the same values, so segmentation decisions and
  ``completed_at_s`` are bit-identical — while the per-tick work-time
  grids, activity oscillations (one ``np.sin`` per phase span), the power
  model and the RAPL reduction evaluate over whole-session ``(B, ticks)``
  blocks.
* **Vectorized dynamic fleets.**  Sessions under runtime defenses still
  advance interval-by-interval (the control loop is sequential by
  nature), but masks evaluate through one batched ``np.sin``
  (:func:`repro.masks.next_targets_fast`).  The controller is the exact
  tier's fleet step (:meth:`repro.control.ControllerFleet.step`).
* **Masked per-row termination.**  Completion-mode and
  temperature-recording jobs batch too: finished sessions coast (their
  extra RNG consumption lands beyond the recorded slice of independent
  per-session streams, so it is unobservable) while the fleet advances
  until every row has reached its own recording deadline — computed
  exactly as the serial loop computes it.

**Equivalence contract.**  Fast traces are *not* bit-identical to the
exact tier.  Every loosened site — the vectorized ``np.sin`` kernels
(shape-dependent rounding) — is enumerated with a static worst-case bound in
``certs/numeric/``, and :mod:`repro.exec.equivalence` re-measures the
realized per-field error against those bounds at runtime, failing loudly
on any excess.  Everything else (RNG streams, AR(1) filtering, RAPL
quantization, thermal filtering, segmentation) replays the serial
arithmetic exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ..defenses.base import decide_batch_fast
from ..defenses.designs import DefenseFactory
from ..machine import BatchedRaplSensor, RaplSensor, Trace, batch_window_power
from ..telemetry import profile
from .jobs import SessionJob

__all__ = ["run_jobs_fast"]

#: Intervals simulated per whole-session chunk: bounds the ``(B, ticks)``
#: working set (~20 MB per array at B=32, 160 ticks/interval) while keeping
#: the vector lengths long enough to amortize every numpy dispatch.
CONST_CHUNK_INTERVALS = 512


def run_jobs_fast(
    jobs: "list[SessionJob]", factory: DefenseFactory | None = None
) -> "list[Trace]":
    """Simulate one fast-tier batch group, in job order.

    Partitions the fleet by defense kind: sessions under constant-settings
    defenses take the whole-session path, the rest the per-interval
    lock-step path.  Both sub-fleets share the group's grid parameters
    (guaranteed by :func:`~repro.exec.batch.batch_key`), so the returned
    traces share array shapes — the property the trace store's packed
    group entries (one stacked ``.npz`` per group) depend on.
    """
    from .batch import build_fleet, open_channels

    jobs = list(jobs)
    if not jobs:
        return []
    with profile.span("fleet.build", sessions=len(jobs)):
        machines, defenses, sensors = build_fleet(jobs, factory)
        channels = open_channels(jobs, machines, defenses, engine="fast")

    constant_rows = [
        index for index, defense in enumerate(defenses) if defense.constant_settings
    ]
    dynamic_rows = [
        index for index, defense in enumerate(defenses) if not defense.constant_settings
    ]
    traces: list = [None] * len(jobs)
    for rows, runner in ((constant_rows, _run_constant), (dynamic_rows, _run_lockstep_fast)):
        if not rows:
            continue
        sub_traces = runner(
            [jobs[row] for row in rows],
            [machines[row] for row in rows],
            [defenses[row] for row in rows],
            [sensors[row] for row in rows],
            [channels[row] for row in rows] if channels is not None else None,
        )
        for row, trace in zip(rows, sub_traces):
            traces[row] = trace
    if channels is not None:
        for channel in channels:
            channel.close()
    return traces


def _grid(job: SessionJob) -> tuple:
    """(ticks/interval, recorded-interval cap, completion tail intervals)."""
    interval_s = float(job.interval_s)
    ticks_per_interval = int(round(interval_s / job.tick_s))
    max_intervals = int(round(float(job.max_duration_s) / interval_s))
    if job.duration_s is not None:
        n_intervals = int(round(float(job.duration_s) / interval_s))
        if n_intervals < 1:
            raise ValueError("duration_s shorter than one interval")
        cap = min(n_intervals, max_intervals)
    else:
        n_intervals = None
        cap = max_intervals
    tail_intervals = int(round(float(job.tail_s) / interval_s))
    return ticks_per_interval, cap, n_intervals, tail_intervals


class _SessionCursor:
    """Scalar replay of ``SimulatedMachine.activity_profile`` bookkeeping.

    Advances the machine's phase cursors on the serial runner's window grid
    with its exact float operations — same expressions, same order — but
    *defers* the per-tick work-time grids and activity evaluation,
    recording ``(phase, bases, work_per_tick, seg_ticks)`` span descriptors
    for :func:`_materialize`.  Runs of whole windows that one phase fully
    survives are fast-forwarded through ``np.add.accumulate``, which is a
    strict sequential left fold — the per-window ``+= work_per_tick *
    window_ticks`` chain lands on bit-identical values — so segmentation
    decisions, ``time_s`` and ``completed_at_s`` all match the serial
    runner exactly.  (Sole exception: ``time_s`` *after* workload
    completion advances in one bulk add; a completed machine's coasting
    clock is unobservable — ``completed_at_s`` is already frozen and
    traces never record ``time_s``.)
    """

    def __init__(self, machine, settings) -> None:
        self.machine = machine
        self.settings = settings
        #: 1-based global tick count at workload completion (None = running).
        self.completion_tick: int | None = None
        self._global_tick = 0
        self._rate_phase_index = -1
        self._work_per_tick = 0.0

    def advance_windows(self, n_windows: int, window_ticks: int, spans: list) -> None:
        machine = self.machine
        tick_s = machine.tick_s
        phases = machine.workload.phases
        n_phases = len(phases)
        windows_left = n_windows
        offset = 0  # ticks already consumed in the current window
        while windows_left > 0:
            if machine._phase_index >= n_phases:
                coast_ticks = windows_left * window_ticks - offset
                spans.append((None, None, 0.0, coast_ticks))
                machine.time_s += coast_ticks * tick_s
                self._global_tick += coast_ticks
                return
            if self._rate_phase_index != machine._phase_index:
                # The serial loop recomputes the rate every window; it is a
                # pure function of the phase and the constant settings, so
                # caching it per phase entry reuses the identical value.
                self._work_per_tick = machine.work_per_tick(
                    phases[machine._phase_index], self.settings
                )
                self._rate_phase_index = machine._phase_index
            phase = phases[machine._phase_index]
            work_per_tick = self._work_per_tick
            work_units = phase.work_units
            work_remaining = work_units - machine._work_into_phase
            ticks_in_phase = math.ceil(work_remaining / work_per_tick - 1e-12)

            if offset == 0 and windows_left > 1 and ticks_in_phase > window_ticks:
                # Fast-forward the run of whole windows this phase fully
                # survives.  ``wips[j]`` is the fold of j per-window
                # ``+= work_per_tick * window_ticks`` updates — the exact
                # values the serial per-window loop would store.
                increments = np.empty(windows_left + 1)
                increments[0] = machine._work_into_phase
                increments[1:] = work_per_tick * window_ticks
                wips = np.add.accumulate(increments)
                needed = np.ceil((work_units - wips[:-1]) / work_per_tick - 1e-12)
                survives = (needed > window_ticks) & (wips[1:] < work_units - 1e-9)
                n_run = int(np.argmin(survives)) if not survives.all() else windows_left
                if n_run > 0:
                    spans.append((phase, wips[:n_run], work_per_tick, window_ticks))
                    machine._work_into_phase = float(wips[n_run])
                    folded = np.empty(n_run + 1)
                    folded[0] = machine.work_done
                    folded[1:] = work_per_tick * window_ticks
                    machine.work_done = float(np.add.accumulate(folded)[-1])
                    folded[0] = machine.time_s
                    folded[1:] = window_ticks * tick_s
                    machine.time_s = float(np.add.accumulate(folded)[-1])
                    self._global_tick += n_run * window_ticks
                    windows_left -= n_run
                    continue

            ticks_left = window_ticks - offset
            seg_ticks = min(ticks_left, max(ticks_in_phase, 1))
            spans.append(
                (phase, (machine._work_into_phase,), work_per_tick, seg_ticks)
            )
            advanced_work = work_per_tick * seg_ticks
            machine._work_into_phase += advanced_work
            machine.work_done += advanced_work
            machine.time_s += seg_ticks * tick_s
            self._global_tick += seg_ticks
            offset += seg_ticks
            if offset == window_ticks:
                offset = 0
                windows_left -= 1
            if machine._work_into_phase >= work_units - 1e-9:
                machine._work_into_phase = 0.0
                machine._phase_index += 1
                if machine._phase_index >= n_phases and not math.isfinite(
                    machine.completed_at_s
                ):
                    machine.completed_at_s = machine.time_s
                    self.completion_tick = self._global_tick


def _materialize(spans: list, activity_out: np.ndarray, core_out: np.ndarray) -> None:
    """Evaluate deferred span descriptors into per-tick profiles.

    Each span holds equal-length segments of one phase at one
    ``work_per_tick`` (a fast-forwarded window run, or a single partial
    window): the per-tick ``k`` indices and ``wip + wpt*k`` work times
    reproduce the serial per-window expressions elementwise, so only the
    phase's ``np.sin`` kernel sees a longer vector (the certified
    transcendental loosening).
    """
    position = 0
    for phase, bases, work_per_tick, seg_ticks in spans:
        if phase is None:
            activity_out[position:position + seg_ticks] = 0.0
            core_out[position:position + seg_ticks] = 0.0
            position += seg_ticks
            continue
        bases = np.asarray(bases, dtype=np.float64)
        total = bases.size * seg_ticks
        offsets = np.repeat(bases, seg_ticks)
        # k replays (np.arange(seg_ticks) + 1.0) per segment; the tick
        # indices are exact in float64, so work_times is bit-identical
        # to the serial `wip + wpt * (arange + 1.0)`.
        k = np.tile(np.arange(seg_ticks, dtype=np.float64) + 1.0, bases.size)
        work_times = offsets + work_per_tick * k
        activity_out[position:position + total] = phase.activity_at(work_times)
        core_out[position:position + total] = phase.core_fraction
        position += total


def _deadline_from_completion(
    completion_tick: "int | None", ticks_per_interval: int, tail_intervals: int
) -> "int | None":
    """The serial loop's recording deadline implied by a completion tick.

    The serial runner observes ``machine.completed`` at the *top* of the
    interval after the one during which completion occurred, and records
    ``tail_s`` worth of intervals from there.
    """
    if completion_tick is None:
        return None
    completed_interval = (completion_tick - 1) // ticks_per_interval
    return completed_interval + 1 + tail_intervals


def _run_constant(jobs, machines, defenses, sensors, channels) -> list:
    """Whole-session fast path for constant-settings defenses.

    The defense's single actuation triple is known up front, so the whole
    session evaluates in :data:`CONST_CHUNK_INTERVALS`-interval chunks:
    scalar window-grid bookkeeping per session (bit-identical to serial),
    then one fleet ``batch_window_power`` and one reshaped RAPL reduction
    per chunk.  AR(1)/thermal state and RNG streams carry across chunks
    exactly as across serial windows.
    """
    template = jobs[0]
    tick_s = float(template.tick_s)
    interval_s = float(template.interval_s)
    ticks_per_interval, cap, n_intervals, tail_intervals = _grid(template)
    n_sessions = len(jobs)

    settings = [defense.initial_settings() for defense in defenses]
    cursors = [
        _SessionCursor(machine, applied)
        for machine, applied in zip(machines, settings)
    ]
    models = [machine.power_model for machine in machines]

    power_chunks: list = []
    temp_chunks: list = []
    measured_chunks: list = []
    deadlines: list = [None] * n_sessions
    intervals_done = 0
    while True:
        if n_intervals is None:
            for row, cursor in enumerate(cursors):
                if deadlines[row] is None:
                    deadlines[row] = _deadline_from_completion(
                        cursor.completion_tick, ticks_per_interval, tail_intervals
                    )
            if all(d is not None for d in deadlines):
                needed = min(max(deadlines), cap)
            else:
                needed = cap
        else:
            needed = cap
        remaining = needed - intervals_done
        if remaining <= 0:
            break
        n_int = min(CONST_CHUNK_INTERVALS, remaining)
        n_ticks = n_int * ticks_per_interval

        activity = np.empty((n_sessions, n_ticks))
        core_fraction = np.empty((n_sessions, n_ticks))
        with profile.span("kernel.fast_forward", intervals=n_int):
            for row, cursor in enumerate(cursors):
                spans: list = []
                cursor.advance_windows(n_int, ticks_per_interval, spans)
                _materialize(spans, activity[row], core_fraction[row])

        with profile.span("kernel.power", intervals=n_int):
            window_w = batch_window_power(models, activity, core_fraction, settings)
        power_chunks.append(window_w)
        if template.record_temperature:
            temp_chunks.append(
                np.stack([
                    machine.thermal.advance(window_w[row], tick_s)
                    for row, machine in enumerate(machines)
                ])
            )

        # Whole-chunk RAPL reduction: the reshaped per-interval sums and
        # the bulk per-row noise draws replay the serial per-window calls
        # exactly (reshape-sum and sequential-draw identities).
        duration = ticks_per_interval * tick_s
        quantum_j = RaplSensor.ENERGY_QUANTUM_J
        with profile.span("kernel.measure", intervals=n_int):
            energy_j = (
                window_w.reshape(n_sessions, n_int, ticks_per_interval).sum(axis=2)
                * tick_s
            )
            energy_j = np.round(energy_j / quantum_j) * quantum_j
            noise_w = np.stack([
                sensor._rng.normal(0.0, sensor.noise_w, size=n_int)
                for sensor in sensors
            ])
            measured_chunks.append(energy_j / duration + noise_w)
        intervals_done += n_int

    power_w = np.concatenate(power_chunks, axis=1)
    measured_w = np.concatenate(measured_chunks, axis=1)
    temperature_c = np.concatenate(temp_chunks, axis=1) if temp_chunks else None

    traces = []
    for row, (job, machine, defense) in enumerate(zip(jobs, machines, defenses)):
        n_rec = intervals_done if deadlines[row] is None else min(deadlines[row], cap)
        n_rec = min(n_rec, intervals_done)
        target_row = np.full(n_rec, defense.current_target_w)
        applied = settings[row]
        settings_row = np.empty((n_rec, 3))
        settings_row[:, 0] = applied.freq_ghz
        settings_row[:, 1] = applied.idle_frac
        settings_row[:, 2] = applied.balloon_level
        if channels is not None:
            for interval_index in range(n_rec):
                channels[row].interval(
                    interval_index,
                    target_row[interval_index],
                    measured_w[row, interval_index],
                    applied,
                    defense,
                )
        traces.append(
            Trace(
                workload=machine.workload.name,
                platform=machine.spec.name,
                defense=defense.name,
                tick_s=machine.tick_s,
                interval_s=interval_s,
                power_w=power_w[row, : n_rec * ticks_per_interval].copy(),
                measured_w=measured_w[row, :n_rec].copy(),
                target_w=target_row,
                settings=settings_row,
                completed_at_s=machine.completed_at_s,
                temperature_c=(
                    temperature_c[row, : n_rec * ticks_per_interval].copy()
                    if temperature_c is not None
                    else np.empty(0)
                ),
            )
        )
    return traces


def _run_lockstep_fast(jobs, machines, defenses, sensors, channels) -> list:
    """Per-interval fast path for runtime defenses.

    The lock-step twin of the exact batched loop with the fast decide
    (vectorized masks + fleet matmul), extended to completion-mode and
    temperature-recording fleets: every row advances until the *slowest*
    row's recording deadline, with finished rows coasting unrecorded.
    """
    template = jobs[0]
    tick_s = float(template.tick_s)
    interval_s = float(template.interval_s)
    ticks_per_interval, cap, n_intervals, tail_intervals = _grid(template)
    n_sessions = len(jobs)
    models = [machine.power_model for machine in machines]
    batched_sensor = BatchedRaplSensor(sensors)

    capacity = cap if n_intervals is not None else max(min(cap, 2048), 1)
    power_w = np.empty((n_sessions, capacity * ticks_per_interval))
    measured_w = np.empty((n_sessions, capacity))
    target_w = np.empty((n_sessions, capacity))
    settings_log = np.empty((n_sessions, capacity, 3))
    temperature_c = (
        np.empty((n_sessions, capacity * ticks_per_interval))
        if template.record_temperature
        else None
    )

    settings = [defense.initial_settings() for defense in defenses]
    deadlines: list = [None] * n_sessions
    activity = np.empty((n_sessions, ticks_per_interval))
    core_fraction = np.empty((n_sessions, ticks_per_interval))
    interval_index = 0
    while interval_index < cap:
        if n_intervals is None:
            for row, machine in enumerate(machines):
                if deadlines[row] is None and machine.completed:
                    deadlines[row] = interval_index + tail_intervals
            if all(d is not None and interval_index >= d for d in deadlines):
                break
        if interval_index >= capacity:
            capacity = min(capacity * 2, cap)
            power_w = _grown_rows(power_w, capacity * ticks_per_interval)
            measured_w = _grown_rows(measured_w, capacity)
            target_w = _grown_rows(target_w, capacity)
            settings_log = _grown_rows(settings_log, capacity)
            if temperature_c is not None:
                temperature_c = _grown_rows(temperature_c, capacity * ticks_per_interval)

        with profile.span("kernel.fast_forward", interval=interval_index):
            for row, machine in enumerate(machines):
                machine.activity_profile(
                    ticks_per_interval, settings[row], activity[row], core_fraction[row]
                )
        with profile.span("kernel.power", interval=interval_index):
            window_w = batch_window_power(models, activity, core_fraction, settings)
        tick_start = interval_index * ticks_per_interval
        power_w[:, tick_start:tick_start + ticks_per_interval] = window_w
        if temperature_c is not None:
            for row, machine in enumerate(machines):
                temperature_c[row, tick_start:tick_start + ticks_per_interval] = (
                    machine.thermal.advance(window_w[row], tick_s)
                )
        with profile.span("kernel.measure", interval=interval_index):
            measurements_w = batched_sensor.measure_windows(window_w, tick_s)
        measured_w[:, interval_index] = measurements_w
        target_w[:, interval_index] = [defense.current_target_w for defense in defenses]
        settings_log[:, interval_index] = [
            (applied.freq_ghz, applied.idle_frac, applied.balloon_level)
            for applied in settings
        ]

        applied_settings = settings
        with profile.span("kernel.decide", interval=interval_index):
            settings = decide_batch_fast(defenses, measurements_w)
        if channels is not None:
            for row, channel in enumerate(channels):
                recording = deadlines[row] is None or interval_index < deadlines[row]
                if recording:
                    channel.interval(
                        interval_index,
                        target_w[row, interval_index],
                        measured_w[row, interval_index],
                        applied_settings[row],
                        defenses[row],
                    )
        interval_index += 1

    traces = []
    for row, (machine, defense) in enumerate(zip(machines, defenses)):
        n_rec = (
            interval_index
            if deadlines[row] is None
            else min(deadlines[row], interval_index)
        )
        traces.append(
            Trace(
                workload=machine.workload.name,
                platform=machine.spec.name,
                defense=defense.name,
                tick_s=machine.tick_s,
                interval_s=interval_s,
                power_w=power_w[row, : n_rec * ticks_per_interval].copy(),
                measured_w=measured_w[row, :n_rec].copy(),
                target_w=target_w[row, :n_rec].copy(),
                settings=settings_log[row, :n_rec].copy(),
                completed_at_s=machine.completed_at_s,
                temperature_c=(
                    temperature_c[row, : n_rec * ticks_per_interval].copy()
                    if temperature_c is not None
                    else np.empty(0)
                ),
            )
        )
    return traces


def _grown_rows(buffer: np.ndarray, columns: int) -> np.ndarray:
    """``buffer`` copied into a fresh array with ``columns`` second-axis slots."""
    grown = np.empty((buffer.shape[0], columns) + buffer.shape[2:], dtype=buffer.dtype)
    grown[:, : buffer.shape[1]] = buffer
    return grown

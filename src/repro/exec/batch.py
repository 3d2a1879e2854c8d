"""Vectorized batched simulation backend: whole fleets advance lock-step.

The serial runner (:func:`repro.core.runtime.run_session`) pays the full
Python control-loop cost once per 20 ms interval per session.  For the
fixed-duration fleets every experiment collects (attack training runs,
detection sweeps, PLATYPUS grids) the sessions are mutually independent and
share the same interval grid, so each interval's work — the phase walk,
the tick-level physics and the Maya wake-up — runs as ``(B, ...)`` array
kernels over the whole fleet:

* each session keeps its own :class:`~repro.machine.SimulatedMachine`
  (phase cursors, jittered workload, RNG streams) and its own defense
  instance, exactly as in the serial runner;
* every interval, :class:`BatchedMachine` evaluates the activity of every
  row whose window stays inside one phase as one ``(B, ticks)`` block
  (rows crossing a boundary walk it per row), then evaluates the power
  model once for the whole fleet
  (:func:`repro.machine.power.batch_window_power`), filtering all AR(1)
  noise rows with a single row-wise ``lfilter`` call;
* the windowed RAPL measurement reduces the ``(B, ticks)`` block row-wise
  (:class:`~repro.machine.sensors.BatchedRaplSensor`), and the defenses
  decide the next settings through :func:`repro.defenses.decide_batch`:
  per-session mask draws, then one
  :class:`~repro.control.ControllerFleet` step per Maya design (the
  Equation-1 update with a fixed summation order, the freeze test, and a
  ``(B, 3, L)`` nearest-level snap).

**Bit-identity contract.**  Every per-session random draw happens on that
session's own spawn-keyed stream, in the same within-session order as the
serial runner; a generator fills one size-n request identically to n
sequential draws, row-wise ``lfilter`` carries each row's state exactly
like per-window calls, and all batched arithmetic replays the serial
expression order elementwise.  :meth:`Trace.equals` is the oracle — the
engine's tests compare every batched trace bit-for-bit against the serial
runner, so cached traces, attack outcomes, and figures are unchanged.

Jobs that cannot run lock-step — completion-mode sessions (``duration_s
is None``, the loop length depends on per-session progress) and
temperature-recording sessions — fall back to the serial runner; see
:func:`batch_key`.

**Shape contract.**  Because a lock-step group shares one ``batch_key``
(same duration, tick and interval grid), every trace it returns has
identical ``power_w``/``measured_w``/``target_w``/``settings`` shapes.
The trace store relies on this: :meth:`TraceCache.put_many
<repro.exec.cache.TraceCache.put_many>` stacks a group's traces into a
single packed ``.npz`` entry, which is only possible when the shapes
line up row-for-row.
"""

from __future__ import annotations

import math

import numpy as np

from ..defenses.base import decide_batch
from ..defenses.designs import DefenseFactory
from ..machine import (
    BatchedRaplSensor,
    RaplSensor,
    SimulatedMachine,
    Trace,
    batch_window_power,
    spawn,
)
from ..workloads.phases import Phase, activity_block
from .jobs import SessionJob

__all__ = [
    "BatchedMachine",
    "batch_key",
    "build_fleet",
    "execute_jobs_batched",
]

def batch_key(job: SessionJob) -> "tuple | None":
    """Grouping key of jobs that may share one lock-step batch.

    Sessions advance lock-step only when they share the same platform and
    the same tick/interval/duration grid.  Completion-mode jobs
    (``duration_s is None``) and temperature-recording jobs return ``None``
    and fall back to the serial runner: their per-session loop lengths and
    thermal state are not lock-step computable without relaxing
    bit-identity.
    """
    if job.duration_s is None or job.record_temperature:
        return None
    return (
        job.spec,
        float(job.duration_s),
        float(job.interval_s),
        float(job.tick_s),
        float(job.max_duration_s),
    )


class BatchedMachine:
    """B simulated machines advanced lock-step as structure-of-arrays.

    Wraps the sessions' own :class:`SimulatedMachine` instances.  Each
    interval, a row whose window stays inside its current phase advances
    its cursors inline and joins one ``(B, ticks)`` work-time block
    evaluated by :func:`~repro.workloads.phases.activity_block`; a row that
    crosses a phase boundary or completes takes the serial code path
    (:meth:`SimulatedMachine.activity_profile`).  The tick-level physics is
    then evaluated for the whole fleet at once.
    """

    def __init__(self, machines: "list[SimulatedMachine]") -> None:
        if not machines:
            raise ValueError("need at least one machine")
        spec = machines[0].spec
        tick_s = machines[0].tick_s
        for machine in machines:
            if machine.spec != spec or machine.tick_s != tick_s:
                raise ValueError("batched machines must share spec and tick")
            if machine.record_temperature:
                raise ValueError("temperature-recording sessions cannot batch")
        self.machines = list(machines)
        self.spec = spec
        self.tick_s = tick_s

    def __len__(self) -> int:
        return len(self.machines)

    def advance(self, duration_s: float, settings: "list") -> np.ndarray:
        """Advance every machine ``duration_s`` and return ``(B, ticks)`` power."""
        n_ticks = int(round(duration_s / self.tick_s))
        if n_ticks <= 0:
            raise ValueError("duration shorter than one tick")
        n_sessions = len(self.machines)
        activity = np.empty((n_sessions, n_ticks))
        core_fraction = np.empty((n_sessions, n_ticks))
        window_s = n_ticks * self.tick_s
        # Rows whose whole window is one segment of their current phase.
        rows, phases, starts, steps = [], [], [], []
        for row, (machine, applied) in enumerate(zip(self.machines, settings)):
            if not machine.completed:
                phase = machine.workload.phases[machine._phase_index]
                work_per_tick = machine.work_per_tick(phase, applied)
                work_into_phase = machine._work_into_phase
                work_remaining = phase.work_units - work_into_phase
                advanced_work = work_per_tick * n_ticks
                if (
                    type(phase).activity_at is Phase.activity_at
                    and math.ceil(work_remaining / work_per_tick - 1e-12) >= n_ticks
                    and work_into_phase + advanced_work < phase.work_units - 1e-9
                ):
                    # One segment that ends inside the phase: the cursor
                    # bookkeeping of activity_profile, minus the boundary.
                    machine._work_into_phase = work_into_phase + advanced_work
                    machine.work_done += advanced_work
                    machine.time_s += window_s
                    rows.append(row)
                    phases.append(phase)
                    starts.append(work_into_phase)
                    steps.append(work_per_tick)
                    continue
            machine.activity_profile(n_ticks, applied, activity[row], core_fraction[row])
        if rows:
            work_time = np.array(starts)[:, None] + np.array(steps)[:, None] * (
                np.arange(n_ticks) + 1.0
            )
            activity[rows] = activity_block(phases, work_time)
            core_fraction[rows] = np.array([phase.core_fraction for phase in phases])[:, None]
        return batch_window_power(
            [machine.power_model for machine in self.machines],
            activity,
            core_fraction,
            settings,
        )


def build_fleet(
    jobs: "list[SessionJob]", factory: DefenseFactory | None = None
) -> "tuple[list[SimulatedMachine], list, list[RaplSensor]]":
    """Machines, defenses and sensors for ``jobs``, seeded as the serial runner.

    The spawn keys replay ``run_session``'s seeding scheme verbatim, so
    every per-session stream is the one the serial runner would use.
    """
    machines: list[SimulatedMachine] = []
    defenses: list = []
    sensors: list[RaplSensor] = []
    for job in jobs:
        job_factory = job.resolve_factory(factory)
        machine = job.build_machine()
        defense = job_factory.create(job.defense)
        defense_rng = spawn(
            job.seed, "defense", defense.name, machine.workload.name, job.run_id
        )
        defense.prepare(machine, defense_rng)
        sensors.append(
            RaplSensor(
                job.spec,
                spawn(job.seed, "defense-sensor", machine.workload.name, job.run_id),
            )
        )
        machines.append(machine)
        defenses.append(defense)
    return machines, defenses, sensors


def execute_jobs_batched(
    jobs: "list[SessionJob]", factory: DefenseFactory | None = None
) -> "list[Trace]":
    """Simulate compatible jobs lock-step, in job order.

    All jobs must share one :func:`batch_key`; the caller (the engine's
    batch grouping) guarantees this.  Each trace is bit-identical to
    ``job.execute()``.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    keys = {batch_key(job) for job in jobs}
    if None in keys or len(keys) != 1:
        raise ValueError("jobs of one batch must share a batch_key")

    machines, defenses, sensors = build_fleet(jobs, factory)

    template = jobs[0]
    return _run_lockstep(
        machines,
        defenses,
        sensors,
        interval_s=float(template.interval_s),
        duration_s=float(template.duration_s),
        max_duration_s=float(template.max_duration_s),
    )


def _run_lockstep(
    machines: "list[SimulatedMachine]",
    defenses: "list",
    sensors: "list[RaplSensor]",
    interval_s: float,
    duration_s: float,
    max_duration_s: float,
) -> "list[Trace]":
    """The lock-step twin of :func:`repro.core.runtime.run_session`."""
    n_sessions = len(machines)
    n_intervals = int(round(duration_s / interval_s))
    if n_intervals < 1:
        raise ValueError("duration_s shorter than one interval")
    max_intervals = int(round(max_duration_s / interval_s))
    if max_intervals < 1:
        raise ValueError("max_duration_s shorter than one interval")
    interval_cap = min(n_intervals, max_intervals)

    batched_machine = BatchedMachine(machines)
    batched_sensor = BatchedRaplSensor(sensors)
    tick_s = batched_machine.tick_s
    ticks_per_interval = int(round(interval_s / tick_s))

    power_w = np.empty((n_sessions, interval_cap * ticks_per_interval))
    measured_w = np.empty((n_sessions, interval_cap))
    target_w = np.empty((n_sessions, interval_cap))
    settings_log = np.empty((n_sessions, interval_cap, 3))

    settings = [defense.initial_settings() for defense in defenses]
    for interval_index in range(interval_cap):
        window_w = batched_machine.advance(interval_s, settings)
        measurements_w = batched_sensor.measure_windows(window_w, tick_s)

        tick_start = interval_index * ticks_per_interval
        power_w[:, tick_start:tick_start + ticks_per_interval] = window_w
        measured_w[:, interval_index] = measurements_w
        target_w[:, interval_index] = [defense.current_target_w for defense in defenses]
        settings_log[:, interval_index] = [
            (applied.freq_ghz, applied.idle_frac, applied.balloon_level)
            for applied in settings
        ]

        settings = decide_batch(defenses, measurements_w)

    return [
        Trace(
            workload=machine.workload.name,
            platform=machine.spec.name,
            defense=defense.name,
            tick_s=machine.tick_s,
            interval_s=interval_s,
            power_w=power_w[row].copy(),
            measured_w=measured_w[row].copy(),
            target_w=target_w[row].copy(),
            settings=settings_log[row].copy(),
            completed_at_s=machine.completed_at_s,
            temperature_c=np.empty(0),
        )
        for row, (machine, defense) in enumerate(zip(machines, defenses))
    ]

"""Vectorized batched simulation backend: whole fleets advance lock-step.

The serial runner (:func:`repro.core.runtime.run_session`) pays the full
Python control-loop cost once per 20 ms interval per session.  The sessions
every experiment collects (fixed-length attack training runs, detection
sweeps, PLATYPUS grids, run-to-completion overhead measurements) are
mutually independent and share an interval grid, so each interval's work —
the phase walk, the tick-level physics and the Maya wake-up — runs as
``(B, ...)`` array kernels over the fleet of live sessions:

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

**Per-row termination.**  Every row carries the serial loop's end
conditions: its interval cap and, for a completion-mode session
(``duration_s is None``), a deadline ``tail_s`` after its workload
completes.  A row that ends leaves the fleet at the top of the next
interval, so a completion group costs what its live rows cost, not what
its slowest row costs.  Only temperature-recording sessions fall back to
the serial runner (their thermal state is not batched); see
:func:`batch_key`.

**Shape contract.**  A fixed-duration group shares one ``batch_key``
(same duration, tick and interval grid), so every trace it returns has
identical ``power_w``/``measured_w``/``target_w``/``settings`` shapes.
The trace store relies on this: :meth:`TraceCache.put_many
<repro.exec.cache.TraceCache.put_many>` stacks such a group's traces into
a single packed ``.npz`` entry, which is only possible when the shapes
line up row-for-row.  A completion group's traces end at different
intervals and are stored as per-session entries.
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
    the same tick/interval grid.  Fixed-duration jobs also share their
    duration and cap, so a group's traces have one shape.  Completion-mode
    jobs (``duration_s is None``) key on the grid alone: their cap
    (``max_duration_s``) and ``tail_s`` are per-row end conditions of
    :func:`_run_lockstep`, and a completion job never shares a key with a
    fixed-duration one.  Temperature-recording jobs return ``None`` and
    fall back to the serial runner: their thermal state is not batched.
    """
    if job.record_temperature:
        return None
    if job.duration_s is None:
        return (job.spec, None, float(job.interval_s), float(job.tick_s))
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
    limits = [_interval_limits(job) for job in jobs]

    machines, defenses, sensors = build_fleet(jobs, factory)
    return _run_lockstep(
        machines, defenses, sensors, float(jobs[0].interval_s), limits
    )


def _interval_limits(job: SessionJob) -> "tuple[int, int | None]":
    """``(interval cap, tail intervals)``: a job's end conditions in intervals.

    The same arithmetic as :func:`repro.core.runtime.run_session`; the tail
    is ``None`` for a fixed-duration job, which ends at its cap alone.
    """
    interval_s = float(job.interval_s)
    n_intervals = None
    if job.duration_s is not None:
        n_intervals = int(round(job.duration_s / interval_s))
        if n_intervals < 1:
            raise ValueError("duration_s shorter than one interval")
    max_intervals = int(round(job.max_duration_s / interval_s))
    if max_intervals < 1:
        raise ValueError("max_duration_s shorter than one interval")
    if n_intervals is None:
        return max_intervals, int(round(job.tail_s / interval_s))
    return min(n_intervals, max_intervals), None


#: Intervals of per-row log buffered before it is flushed to the row's
#: chunks.  Bounds the fleet buffer of a completion group, whose caps can
#: run to tens of thousands of intervals, to ``B * 256`` intervals.
_BLOCK_INTERVALS = 256


def _run_lockstep(
    machines: "list[SimulatedMachine]",
    defenses: "list",
    sensors: "list[RaplSensor]",
    interval_s: float,
    limits: "list[tuple[int, int | None]]",
) -> "list[Trace]":
    """The lock-step twin of :func:`repro.core.runtime.run_session`.

    ``limits`` holds each row's :func:`_interval_limits`.  At the top of
    every interval each live row checks its end conditions as the serial
    loop does — its own cap, and for a completion row the deadline
    ``tail`` intervals after the machine first reports ``completed`` — and
    rows that end leave the fleet: the batched machine and sensor are
    rebuilt over the live rows, and only live defenses decide.  All state
    lives on per-session objects, so the rows that stay are unaffected.

    The live rows' logs fill a fleet block of at most
    :data:`_BLOCK_INTERVALS` intervals, flushed to per-row chunks whenever
    the block is full or the live set changes; a row's chunks are joined
    into its trace arrays as it leaves.
    """
    n_sessions = len(machines)
    tick_s = machines[0].tick_s
    ticks_per_interval = int(round(interval_s / tick_s))
    block = min(max(cap for cap, _ in limits), _BLOCK_INTERVALS)
    power_block = np.empty((n_sessions, block * ticks_per_interval))
    measured_block = np.empty((n_sessions, block))
    target_block = np.empty((n_sessions, block))
    settings_block = np.empty((n_sessions, block, 3))
    chunks: "list[list | None]" = [[] for _ in range(n_sessions)]
    logs: "list[list | None]" = [None] * n_sessions
    deadlines: "list[int | None]" = [None] * n_sessions

    live = list(range(n_sessions))
    batched_machine = BatchedMachine(machines)
    batched_sensor = BatchedRaplSensor(sensors)
    live_defenses = list(defenses)
    settings = [defense.initial_settings() for defense in defenses]
    interval_index = 0
    filled = 0
    while True:
        ended = set()
        for row in live:
            cap, tail = limits[row]
            if interval_index >= cap:
                ended.add(row)
            elif tail is not None:
                if deadlines[row] is None and machines[row].completed:
                    deadlines[row] = interval_index + tail
                if deadlines[row] is not None and interval_index >= deadlines[row]:
                    ended.add(row)
        if ended or filled == block:
            n_ticks = filled * ticks_per_interval
            for position, row in enumerate(live):
                chunks[row].append((
                    power_block[position, :n_ticks].copy(),
                    measured_block[position, :filled].copy(),
                    target_block[position, :filled].copy(),
                    settings_block[position, :filled].copy(),
                ))
                if row in ended:
                    # Join a row's chunks as it leaves, so the memory they
                    # free serves the chunks of the rows still running.
                    logs[row] = [
                        parts[0] if len(parts) == 1 else np.concatenate(parts)
                        for parts in zip(*chunks[row])
                    ]
                    chunks[row] = None
            filled = 0
        if ended:
            settings = [
                applied for row, applied in zip(live, settings) if row not in ended
            ]
            live = [row for row in live if row not in ended]
            if not live:
                break
            batched_machine = BatchedMachine([machines[row] for row in live])
            batched_sensor = BatchedRaplSensor([sensors[row] for row in live])
            live_defenses = [defenses[row] for row in live]

        window_w = batched_machine.advance(interval_s, settings)
        measurements_w = batched_sensor.measure_windows(window_w, tick_s)

        n_live = len(live)
        tick_start = filled * ticks_per_interval
        power_block[:n_live, tick_start:tick_start + ticks_per_interval] = window_w
        measured_block[:n_live, filled] = measurements_w
        target_block[:n_live, filled] = [
            defense.current_target_w for defense in live_defenses
        ]
        settings_block[:n_live, filled] = [
            (applied.freq_ghz, applied.idle_frac, applied.balloon_level)
            for applied in settings
        ]

        settings = decide_batch(live_defenses, measurements_w)
        filled += 1
        interval_index += 1

    return [
        Trace(
            workload=machine.workload.name,
            platform=machine.spec.name,
            defense=defense.name,
            tick_s=machine.tick_s,
            interval_s=interval_s,
            power_w=power_w,
            measured_w=measured_w,
            target_w=target_w,
            settings=settings_log,
            completed_at_s=machine.completed_at_s,
            temperature_c=np.empty(0),
        )
        for machine, defense, (power_w, measured_w, target_w, settings_log) in zip(
            machines, defenses, logs
        )
    ]

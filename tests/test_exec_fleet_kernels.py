"""Fleet kernels of the exact tier: each must equal its per-session form bit for bit.

The lock-step backend steps the Equation-1 controller, snaps actuator
levels and walks workload phases as ``(B, ...)`` array kernels.  Each test
below pins one kernel to the scalar code it replaces, on inputs chosen to
hit its edge cases (ties, rails, NaN, phase boundaries, completion).
"""

import math

import numpy as np
import pytest

from repro.control import ControllerFleet, MatrixController, fixed_order_matvec
from repro.exec import BatchedMachine, SessionJob, execute_jobs_batched
from repro.machine import (
    SYS1,
    SYS2,
    SYS3,
    ActuatorBank,
    ActuatorSettings,
    QuantizedActuator,
    SimulatedMachine,
    spawn,
)
from repro.masks import make_mask
from repro.workloads.phases import Phase, PhaseProgram, activity_block


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


class TestFixedOrderMatvec:
    @pytest.mark.parametrize("batch", [1, 2, 7, 32])
    @pytest.mark.parametrize("n", [1, 3, 10, 13])
    def test_equals_left_to_right_loop(self, batch, n):
        rng = spawn(3, "matvec", batch, n)
        matrix = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-8, 8, size=(4, n))
        x = rng.normal(size=(batch, n)) * 10.0 ** rng.integers(-8, 8, size=(batch, n))
        expected = np.empty((batch, 4))
        for row in range(batch):
            for out in range(4):
                acc = float(matrix[out, 0]) * float(x[row, 0])
                for k in range(1, n):
                    acc = acc + float(matrix[out, k]) * float(x[row, k])
                expected[row, out] = acc
        fleet = fixed_order_matvec(matrix, x)
        assert bits(fleet) == bits(expected)
        # One session alone gets the same bits as its row in the fleet.
        for row in range(batch):
            assert bits(fixed_order_matvec(matrix, x[row])) == bits(expected[row])


def _old_quantize(levels: np.ndarray, value: float) -> float:
    """The pre-bisect snap: np.clip then argmin over |levels - value|."""
    value = float(np.clip(value, levels[0], levels[-1]))
    return float(levels[int(np.argmin(np.abs(levels - value)))])


def _edge_values(levels: np.ndarray) -> list:
    midpoints = ((levels[:-1] + levels[1:]) / 2.0).tolist()
    nudged = [math.nextafter(m, math.inf) for m in midpoints] + [
        math.nextafter(m, -math.inf) for m in midpoints
    ]
    return (
        levels.tolist() + midpoints + nudged
        + [levels[0] - 1.0, levels[-1] + 1.0, -1e300, 1e300, -math.inf, math.inf]
        + [float("nan"), 0.0, -0.0, 5e-324, -5e-324]
    )


ACTUATORS = [
    *ActuatorBank(SYS1).actuators,
    *ActuatorBank(SYS2).actuators,
    *ActuatorBank(SYS3).actuators,
    QuantizedActuator("signed", np.array([-0.3, 0.0, 0.1, 0.7, 2.5])),
    QuantizedActuator("single", np.array([1.5])),
]


class TestScalarSnap:
    @pytest.mark.parametrize("actuator", ACTUATORS, ids=lambda a: a.name)
    def test_matches_clip_argmin_on_edges(self, actuator):
        for value in _edge_values(actuator.levels):
            expected = _old_quantize(actuator.levels, value)
            got = actuator.quantize(value)
            assert bits([got]) == bits([expected]), value

    @pytest.mark.parametrize("actuator", ACTUATORS, ids=lambda a: a.name)
    def test_matches_clip_argmin_on_random_values(self, actuator):
        rng = spawn(5, "snap", actuator.name)
        lo, hi = actuator.min_level, actuator.max_level
        for value in rng.uniform(lo - 0.5, hi + 0.5, size=2000).tolist():
            assert actuator.quantize(value) == _old_quantize(actuator.levels, value)

    def test_mask_clip_matches_np_clip(self):
        mask = make_mask("gaussian_sinusoid", (0.0, 30.0), spawn(1, "clip"))
        mask_signed = make_mask("gaussian_sinusoid", (-0.0, 1.0), spawn(1, "clip"))
        for generator in (mask, mask_signed):
            lo, hi = generator.low_w, generator.high_w
            for value in [lo, hi, -0.0, 0.0, -1.0, 31.0, float("nan"), 12.5, math.inf]:
                expected = float(np.clip(value, lo, hi))
                assert bits([generator._clip(value)]) == bits([expected]), value
                assert bits([generator._clip(np.float64(value))]) == bits([expected])


class TestArrayQuantize:
    @pytest.mark.parametrize("spec", [SYS1, SYS2, SYS3], ids=["sys1", "sys2", "sys3"])
    def test_fleet_snap_equals_per_actuator_snap(self, spec):
        bank = ActuatorBank(spec)
        rng = spawn(8, "fleet-snap", spec.name)
        edge = []
        for act in bank.actuators:
            span = act.max_level - act.min_level
            edge.append([(v - act.min_level) / span for v in _edge_values(act.levels)])
        width = max(len(column) for column in edge)
        edges = np.array([
            [column[i % len(column)] for column in edge] for i in range(width)
        ])
        fractions = np.vstack([
            np.clip(rng.uniform(-0.1, 1.1, size=(500, 3)), 0.0, 1.0),
            np.clip(edges, 0.0, 1.0),
            [[-0.0, 0.0, 1.0], [float("nan")] * 3, [1.0, -0.0, float("nan")]],
        ])
        indices = bank.quantize_indices(fractions)
        normalized = bank.normalized_levels(indices)
        settings = bank.settings_at(indices)
        for row, fraction in enumerate(fractions.tolist()):
            index = bank.quantize_index(fraction)
            assert tuple(indices[row].tolist()) == index
            expected = ActuatorSettings(*(
                act.denormalize(value) for act, value in zip(bank.actuators, fraction)
            ))
            assert settings[row] == expected == bank.quantize_normalized(fraction)
            assert bits(normalized[row]) == bits(bank.normalize(expected))
            assert bits(bank.normalized_levels(index)) == bits(normalized[row])


class TestControllerFleet:
    def test_fleet_rows_equal_controllers_stepped_alone(self, sys1_design):
        rng = spawn(4, "fleet-step")
        n_rows, n_steps = 9, 150
        alone = [MatrixController(sys1_design.controller, ActuatorBank(SYS1)) for _ in range(n_rows)]
        grouped = [MatrixController(sys1_design.controller, ActuatorBank(SYS1)) for _ in range(n_rows)]
        fleet = ControllerFleet.of(grouped)
        # Unreachable targets drive rails and anti-windup freezes too.
        targets = rng.uniform(-5.0, 60.0, size=(n_steps, n_rows))
        measured = rng.uniform(5.0, 40.0, size=(n_steps, n_rows))
        for step in range(n_steps):
            expected = [
                controller.step(float(target), float(power))
                for controller, target, power in zip(alone, targets[step], measured[step])
            ]
            assert ControllerFleet.of(grouped) is fleet
            assert fleet.step(targets[step], measured[step]) == expected
            for single, member in zip(alone, grouped):
                assert bits(member.state_vector) == bits(single.state_vector)
                assert member.diagnostics() == single.diagnostics()
        assert any(c.diagnostics()["antiwindup_steps"] for c in alone)
        assert any(c.diagnostics()["saturation_steps"] for c in alone)

    def test_regrouping_carries_state(self, sys1_design):
        controllers = [MatrixController(sys1_design.controller, ActuatorBank(SYS1)) for _ in range(3)]
        first = ControllerFleet.of(controllers)
        first.step(np.array([20.0, 25.0, 30.0]), np.array([18.0, 18.0, 18.0]))
        states = [c.state_vector.copy() for c in controllers]
        second = ControllerFleet.of(controllers[::-1])
        assert second is not first
        for controller, state in zip(controllers, states):
            assert bits(controller.state_vector) == bits(state)

    def test_mixed_designs_rejected(self, sys1_design, sys1_constant_design):
        with pytest.raises(ValueError, match="shared design"):
            ControllerFleet([
                MatrixController(sys1_design.controller, ActuatorBank(SYS1)),
                MatrixController(sys1_constant_design.controller, ActuatorBank(SYS1)),
            ])


def _maya_job(factory, defense, workload, seed, run):
    return SessionJob.for_factory(
        factory,
        workload=workload,
        defense=defense,
        seed=seed,
        run_id=("fleet-composition", defense, workload, run),
        duration_s=1.0,
    )


class TestBatchComposition:
    def test_trace_independent_of_batch_mates_and_order(self, sys1_factory):
        target = _maya_job(sys1_factory, "maya_gs", "volrend", 17, 0)
        designs = ("maya_gs", "maya_constant", "baseline", "noisy_baseline", "random_inputs")
        mates = [
            _maya_job(
                sys1_factory,
                designs[run % len(designs)],
                ("volrend", "water_nsquared")[run % 2],
                seed=run,
                run=run + 1,
            )
            for run in range(31)
        ]
        [alone] = execute_jobs_batched([target], factory=sys1_factory)
        batch = [target] + mates
        mixed = execute_jobs_batched(batch, factory=sys1_factory)
        order = spawn(2, "permute").permutation(len(batch)).tolist()
        permuted = execute_jobs_batched([batch[i] for i in order], factory=sys1_factory)
        serial = target.execute(factory=sys1_factory)
        assert alone.equals(serial)
        assert mixed[0].equals(serial)
        assert permuted[order.index(0)].equals(serial)
        for position, index in enumerate(order):
            assert permuted[position].equals(mixed[index])


def _program() -> PhaseProgram:
    """Short phases: 20 ms windows cross boundaries; the program completes."""
    return PhaseProgram(
        name="walk",
        phases=(
            Phase("loop", 0.045, 0.5, 0.75, osc_amplitude=0.6, osc_period_s=0.007),
            Phase("flat", 0.0131, 0.3, 0.5, memory_intensity=0.4),
            Phase("tail", 0.09, 0.8, 1.0, osc_amplitude=0.2, osc_period_s=0.013),
        ),
    )


class TestPhaseWalk:
    def test_block_path_equals_per_row_path(self, monkeypatch):
        settings = [
            ActuatorSettings(freq, idle, balloon)
            for freq in (SYS1.freq_min_ghz, 2.0, SYS1.freq_max_ghz)
            for idle, balloon in ((0.0, 0.0), (0.24, 0.5), (0.48, 1.0))
        ]

        def machines():
            return [
                SimulatedMachine(SYS1, _program(), seed=row, run_id=row)
                for row in range(len(settings))
            ]

        batched, serial = machines(), machines()
        fleet = BatchedMachine(batched)
        per_row_calls = []
        original = SimulatedMachine.activity_profile

        def counting(self, *args):
            per_row_calls.append(self)
            return original(self, *args)

        monkeypatch.setattr(SimulatedMachine, "activity_profile", counting)
        for _ in range(130):
            power = fleet.advance(0.020, settings)
            n_before = len(per_row_calls)
            for row, machine in enumerate(serial):
                expected, _ = machine.advance(0.020, settings[row])
                assert bits(power[row]) == bits(expected)
            del per_row_calls[n_before:]
            for a, b in zip(batched, serial):
                assert (a.time_s, a.work_done, a._phase_index, a._work_into_phase) == (
                    b.time_s, b.work_done, b._phase_index, b._work_into_phase
                )
                assert bits([a.completed_at_s]) == bits([b.completed_at_s])
        assert all(machine.completed for machine in batched)
        # Both paths ran: boundary/completion rows per row, the rest as a block.
        assert 0 < len(per_row_calls) < 130 * len(settings)

    def test_activity_block_equals_activity_at(self):
        phases = list(_program().phases) * 11
        rng = spawn(6, "block")
        work_time = rng.uniform(0.0, 0.1, size=(len(phases), 20))
        block = activity_block(phases, work_time)
        for row, phase in enumerate(phases):
            assert bits(block[row]) == bits(phase.activity_at(work_time[row]))


def test_block_sin_equals_per_row_sin_on_this_host():
    """The phase-walk block kernel relies on np.sin being length-independent."""
    rng = spawn(9, "sin")
    starts = rng.uniform(0.0, 40.0, size=(32, 1))
    steps = rng.uniform(1e-4, 2e-3, size=(32, 1))
    angles = 2.0 * np.pi * (starts + steps * (np.arange(20) + 1.0)) / 0.0123
    block = np.sin(angles)
    for row in range(angles.shape[0]):
        assert bits(block[row]) == bits(np.sin(angles[row]))
        for col in range(angles.shape[1]):
            value = float(angles[row, col])
            assert bits([block[row, col]]) == bits([np.sin(value)]) == bits([math.sin(value)])

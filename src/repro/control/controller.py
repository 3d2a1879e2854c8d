"""Runtime of the formal controller (the state machine of Equation 1).

:class:`MatrixController` is what Maya executes every 20 ms: read the power
deviation, update the controller state, emit actuator settings.  It wraps
the synthesized LQG servo with the practical details a deployment needs:

* commands are computed in normalized coordinates, then de-normalized and
  quantized to the actuators' discrete levels;
* the state estimator is updated with the *applied* (quantized, saturated)
  input, not the raw command, which is the standard anti-windup structure;
* the error integrator freezes while every input is pinned at the limit
  that would push power further in the demanded direction (conditional
  integration), so deep saturation cannot wind the state up.
"""

from __future__ import annotations

import numpy as np

from ..machine import ActuatorBank, ActuatorSettings
from .statespace import StateSpace
from .synthesis import DesignedController

__all__ = ["ControllerFleet", "MatrixController", "fixed_order_matvec"]


def fixed_order_matvec(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` over the last axis of ``x``, summed left to right.

    ``x`` is ``(..., n)`` and ``matrix`` ``(m, n)``; the result is
    ``(..., m)`` with ``out[i] = (((M[i,0]*x[0] + M[i,1]*x[1]) + M[i,2]*x[2])
    + ...)``.  The products are elementwise and ``np.add.accumulate`` is a
    sequential scan by definition, so one session's row comes out the same
    whether it is stepped alone or inside a fleet of any size.  BLAS
    (``@``), ``np.sum``/``add.reduce`` (pairwise, unrolled for n >= 8),
    ``math.fsum`` and compensated ``sum`` would each round differently.
    """
    return np.add.accumulate(x[..., None, :] * matrix, axis=-1)[..., -1]


class MatrixController:
    """Deployable controller instance for one machine.

    The mutable state lives in small arrays written in place: the estimator
    state ``_x_pred``, the applied centered input ``_u_applied``, the
    integrator ``_z`` (one element) and the diagnostic ``_counts``.  A
    :class:`ControllerFleet` rebinds them to rows of its fleet arrays, so
    the fleet step and this controller's own :meth:`step` read and write
    the same storage.
    """

    #: Default command center: maximum frequency, no idle injection, a low
    #: balloon duty.  The LQR cost penalizes deviations of the command from
    #: this point, so among the many input combinations that reach a power
    #: target the controller prefers the application-friendliest one —
    #: without this, it parks at the system-identification operating point
    #: and burns balloon power against idle injection.
    DEFAULT_COMMAND_CENTER = (1.0, 0.0, 0.3)

    def __init__(
        self,
        design: DesignedController,
        bank: ActuatorBank,
        command_center: tuple[float, float, float] | None = None,
    ) -> None:
        self.design = design
        self.bank = bank
        plant = design.plant
        self._u_op = plant.u_op
        self._u_center = np.asarray(
            command_center if command_center is not None else self.DEFAULT_COMMAND_CENTER,
            dtype=float,
        )
        self._y_scale = plant.y_scale_w
        self._input_signs = plant.input_power_signs()
        # Plain-int diagnostic counters (sat_hi, sat_lo, aw, saturation
        # steps, anti-windup steps), exposed through
        # Defense.diagnostics(); the controller itself never touches the
        # telemetry package (the out-of-band invariant, MAYA032).
        self._bind(
            np.zeros(design.plant_ss.n_states),
            np.zeros(design.plant_ss.n_inputs),
            np.zeros(1),
            np.zeros(5, dtype=np.int64),
            fleet=None,
        )

    def _bind(self, x_pred, u_applied, z, counts, fleet) -> None:
        self._x_pred = x_pred
        #: Centered command applied during the interval being measured.
        self._u_applied = u_applied
        self._z = z
        self._counts = counts
        self._fleet = fleet

    @property
    def interval_s(self) -> float:
        return self.design.plant.interval_s

    @property
    def state_vector(self) -> np.ndarray:
        """The Equation-1 state x(T): estimator states plus integrator."""
        return np.concatenate([self._x_pred, self._z])

    def reset(self) -> None:
        self._x_pred[:] = 0.0
        self._z[:] = 0.0
        self._u_applied[:] = 0.0
        self._counts[:] = 0

    def diagnostics(self) -> dict:
        """Last-step saturation/anti-windup state plus cumulative counts.

        ``sat_hi``/``sat_lo`` count raw command components clipped at the
        upper/lower rail by the last :meth:`step`; ``aw`` is 1 when that
        step froze the integrator (conditional integration engaged).
        """
        sat_hi, sat_lo, antiwindup, saturation_steps, antiwindup_steps = (
            self._counts.tolist()
        )
        return {
            "sat_hi": sat_hi,
            "sat_lo": sat_lo,
            "aw": antiwindup,
            "saturation_steps": saturation_steps,
            "antiwindup_steps": antiwindup_steps,
        }

    def step(self, target_w: float, measured_w: float) -> ActuatorSettings:
        """One control interval: deviation in, settings for the next out.

        Timing: ``measured_w`` is the power of the interval that just
        ended, during which the command from the *previous* step was
        active; the returned settings drive the *next* interval aimed at
        ``target_w``.
        """
        design = self.design
        plant_ss = design.plant_ss
        x_pred = self._x_pred
        u_applied = self._u_applied
        z = self._z
        error = (target_w - measured_w) / self._y_scale

        # Measurement update.  The estimator tracks the deviation of power
        # from the target, and the measured interval ran under the
        # previously applied (saturated, quantized) command — using that
        # true input is the anti-windup path.
        y_meas_dev = -error
        y_pred = (
            fixed_order_matvec(plant_ss.c, x_pred)[0]
            + fixed_order_matvec(plant_ss.d, u_applied)[0]
        )
        innovation = y_meas_dev - y_pred
        x_filt = x_pred + design.m_gain[:, 0] * innovation

        # Time update to the start of the next interval.
        x_pred[:] = fixed_order_matvec(plant_ss.a, x_filt) + fixed_order_matvec(
            plant_ss.b, u_applied
        )

        # Conditional integration: freeze when all inputs are already
        # pinned at the limit that moves power in the demanded direction.
        u_prev_norm = u_applied + self._u_op
        frozen = self._saturated_towards(error, u_prev_norm)
        if not frozen:
            z += error

        # Command for the next interval.  Feedback acts in deviations; the
        # command is centered on the performance-preferring point, and the
        # integrator absorbs the resulting constant offset.
        u_centered = -fixed_order_matvec(design.k_x, x_pred) - design.k_z[:, 0] * z
        u_norm = u_centered + self._u_center
        commands = u_norm.tolist()
        sat_hi = sum(command > 1.0 for command in commands)
        sat_lo = sum(command < 0.0 for command in commands)
        counts = self._counts
        counts[0] = sat_hi
        counts[1] = sat_lo
        counts[2] = frozen
        counts[3] += bool(sat_hi or sat_lo)
        counts[4] += frozen
        index = self.bank.quantize_index(
            [min(max(command, 0.0), 1.0) for command in commands]
        )
        # The estimator's model coordinates stay centered on the
        # identification operating point.
        u_applied[:] = self.bank.normalized_levels(index) - self._u_op
        return self.bank.settings_for(index)

    def _saturated_towards(self, error: float, u_norm: np.ndarray) -> bool:
        """True if every input is railed in the direction demanded by ``error``."""
        if abs(error) < 1e-12:
            return False
        demand = np.sign(error)  # +1 -> need more power
        railed = []
        for i, sign in enumerate(self._input_signs):
            direction = demand * (sign if sign != 0 else 1.0)
            if direction > 0:
                railed.append(u_norm[i] >= 1.0)
            else:
                railed.append(u_norm[i] <= 0.0)
        return all(railed)

    # -- reporting helpers (Section VII-E) ------------------------------

    def equation1_matrices(self) -> StateSpace:
        """The controller as the constant matrices of Equation 1."""
        return self.design.as_equation1()

    def storage_bytes(self) -> int:
        return self.equation1_matrices().storage_bytes()

    def operations_per_step(self) -> int:
        return self.equation1_matrices().operations_per_step()


class ControllerFleet:
    """Equation-1 state of a lock-step fleet of controllers sharing a design.

    Built once per fleet: the controllers' states are stacked into
    ``(B, n)``/``(B, m)``/``(B,)``/``(B, 5)`` arrays, and each controller is
    rebound to its row views, so :meth:`step` updates every session with
    whole-fleet array expressions written in place.  :meth:`step` replays
    :meth:`MatrixController.step` elementwise — the same
    :func:`fixed_order_matvec`, freeze test, clip and nearest-level snap —
    so each row is bit-identical to stepping that controller alone.
    """

    def __init__(self, controllers: "list[MatrixController]") -> None:
        head = controllers[0]
        for controller in controllers:
            if controller.design is not head.design:
                raise ValueError("a controller fleet requires a shared design")
            if controller.bank.spec != head.bank.spec:
                raise ValueError("a controller fleet requires a shared platform")
        self.controllers = list(controllers)
        self.x_pred = np.stack([controller._x_pred for controller in controllers])
        self.u_applied = np.stack([controller._u_applied for controller in controllers])
        self.z = np.concatenate([controller._z for controller in controllers])
        self.counts = np.stack([controller._counts for controller in controllers])
        for row, controller in enumerate(controllers):
            controller._bind(
                self.x_pred[row],
                self.u_applied[row],
                self.z[row:row + 1],
                self.counts[row],
                fleet=self,
            )
        signs = np.asarray(head._input_signs, dtype=float)
        #: Per-input direction factor of ``_saturated_towards`` (0 -> 1).
        self._input_signs = np.where(signs != 0, signs, 1.0)

    @classmethod
    def of(cls, controllers: "list[MatrixController]") -> "ControllerFleet":
        """The fleet these controllers are bound to, in this order, or a new one."""
        fleet = controllers[0]._fleet
        if (
            fleet is not None
            and len(fleet.controllers) == len(controllers)
            and all(
                member is controller and controller._fleet is fleet
                for member, controller in zip(fleet.controllers, controllers)
            )
        ):
            return fleet
        return cls(controllers)

    # maya: batch-twin(MatrixController.step)
    def step(self, target_w: np.ndarray, measured_w: np.ndarray) -> "list[ActuatorSettings]":
        """:meth:`MatrixController.step` for every row at once."""
        head = self.controllers[0]
        design = head.design
        plant_ss = design.plant_ss
        x_pred = self.x_pred
        u_applied = self.u_applied
        z = self.z
        error = (target_w - measured_w) / head._y_scale

        y_meas_dev = -error
        y_pred = (
            fixed_order_matvec(plant_ss.c, x_pred)[:, 0]
            + fixed_order_matvec(plant_ss.d, u_applied)[:, 0]
        )
        innovation = y_meas_dev - y_pred
        x_filt = x_pred + design.m_gain[:, 0] * innovation[:, None]

        x_pred[:] = fixed_order_matvec(plant_ss.a, x_filt) + fixed_order_matvec(
            plant_ss.b, u_applied
        )

        # _saturated_towards with the same comparisons, row-wise.
        u_prev_norm = u_applied + head._u_op
        direction = np.sign(error)[:, None] * self._input_signs
        railed = u_prev_norm <= 0.0
        upward = direction > 0
        railed[upward] = u_prev_norm[upward] >= 1.0
        frozen = railed.all(axis=1) & ~(np.abs(error) < 1e-12)
        integrating = ~frozen
        z[integrating] += error[integrating]

        u_centered = -fixed_order_matvec(design.k_x, x_pred) - design.k_z[:, 0] * z[:, None]
        u_norm = u_centered + head._u_center
        sat_hi = np.count_nonzero(u_norm > 1.0, axis=1)
        sat_lo = np.count_nonzero(u_norm < 0.0, axis=1)
        counts = self.counts
        counts[:, 0] = sat_hi
        counts[:, 1] = sat_lo
        counts[:, 2] = frozen
        counts[:, 3] += (sat_hi > 0) | (sat_lo > 0)
        counts[:, 4] += frozen
        bank = head.bank
        indices = bank.quantize_indices(np.clip(u_norm, 0.0, 1.0))
        u_applied[:] = bank.normalized_levels(indices) - head._u_op
        return bank.settings_at(indices)

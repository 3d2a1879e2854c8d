"""Maya: mask generator + formal controller (Figure 2).

:class:`MayaDesign` is the expensive, once-per-platform artifact: the
identified plant model and the synthesized controller matrices.  It is what
a vendor would ship in firmware.  :class:`MayaInstance` is the cheap runtime
object created per execution: a fresh controller state and a fresh mask
stream (each run *must* use new random numbers — Section IV-C notes Maya's
security rests on the attacker not being able to reproduce them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..control import (
    ControllerFleet,
    DesignedController,
    MatrixController,
    PlantModel,
    design_controller,
    identify_plant,
)
from ..machine import ActuatorBank, ActuatorSettings, PlatformSpec
from ..masks import MaskGenerator, make_mask
from .config import MayaConfig

__all__ = ["MayaDesign", "MayaInstance", "build_maya_design"]


@dataclass(frozen=True)
class MayaDesign:
    """Per-platform design artifact: plant model + controller matrices."""

    spec: PlatformSpec
    config: MayaConfig
    plant: PlantModel
    controller: DesignedController
    mask_range_w: tuple[float, float]

    def instantiate(self, rng: np.random.Generator) -> "MayaInstance":
        """Create a fresh runtime instance with its own randomness."""
        bank = ActuatorBank(self.spec)
        kwargs: dict = {}
        if self.config.mask_family == "constant" and self.config.constant_level_w is not None:
            kwargs["level_w"] = self.config.constant_level_w
        mask = make_mask(self.config.mask_family, self.mask_range_w, rng, **kwargs)
        return MayaInstance(
            controller=MatrixController(
                self.controller, bank, command_center=self.config.command_center
            ),
            mask=mask,
            bank=bank,
        )


class MayaInstance:
    """One deployment of Maya: wakes every interval, reads power, actuates."""

    def __init__(
        self,
        controller: MatrixController,
        mask: MaskGenerator,
        bank: ActuatorBank,
    ) -> None:
        self.controller = controller
        self.mask = mask
        self.bank = bank
        self.current_target_w = float("nan")

    def initial_settings(self) -> ActuatorSettings:
        """Settings for the very first interval: the command center."""
        return self.bank.quantize_normalized(
            np.clip(self.controller._u_center, 0.0, 1.0)
        )

    def decide(self, measured_w: float) -> ActuatorSettings:
        """One Maya wake-up: draw the next mask value, run the controller."""
        self.current_target_w = self.mask.next_target()
        return self.controller.step(self.current_target_w, measured_w)

    # maya: batch-twin(MayaInstance.decide)
    @staticmethod
    def decide_fleet(
        instances: "list[MayaInstance]", measured_w: "list[float]"
    ) -> "list[ActuatorSettings]":
        """One lock-step wake-up for a fleet of Maya instances.

        All mask targets are drawn first through the batched mask hook
        (:func:`repro.masks.next_targets`), then the Equation-1 update runs
        as one :meth:`ControllerFleet.step` per shared design.  Each
        instance consumes its own RNG stream exactly as :meth:`decide`
        would, and the fleet step replays :meth:`MatrixController.step`
        elementwise with a fixed summation order, so the settings are
        bit-identical to B serial calls.
        """
        from ..masks import next_targets

        targets_w = next_targets([instance.mask for instance in instances])
        groups: dict = {}
        for index, (instance, target_w) in enumerate(zip(instances, targets_w.tolist())):
            instance.current_target_w = target_w
            groups.setdefault(id(instance.controller.design), []).append(index)
        measured_w = np.asarray(measured_w, dtype=float)
        settings: list = [None] * len(instances)
        for indices in groups.values():
            members = [instances[index] for index in indices]
            fleet = ControllerFleet.of([member.controller for member in members])
            # Step on the recorded targets, as decide() steps on
            # current_target_w (MAYA043 follows the value through it).
            decided = fleet.step(
                np.array([member.current_target_w for member in members]),
                measured_w[indices],
            )
            for index, applied in zip(indices, decided):
                settings[index] = applied
        return settings


def build_maya_design(
    spec: PlatformSpec,
    config: MayaConfig | None = None,
    seed: int = 0,
) -> MayaDesign:
    """Run the full design flow of Section V-A for one platform.

    This performs system identification (running the four training
    applications under input excitation) and controller synthesis, and
    returns the deployable design.
    """
    if config is None:
        config = MayaConfig()
    plant = identify_plant(
        spec,
        seed=seed,
        na=config.arx_na,
        nb=config.arx_nb,
        n_intervals=config.sysid_intervals,
        interval_s=config.interval_s,
    )
    controller = design_controller(plant, config.synthesis)
    return MayaDesign(
        spec=spec,
        config=config,
        plant=plant,
        controller=controller,
        mask_range_w=config.resolve_mask_range(spec),
    )

"""Mask generators: the target-power functions of Section IV-C.

A mask generator emits one target power value per control interval.  All of
the paper's masks share the same re-randomization scheme: a parameter set is
drawn, used for ``N_hold`` samples, then re-drawn; ``N_hold`` itself varies
randomly between 6 and 120 samples (Section V-B).  :class:`SegmentedMask`
implements that machinery; concrete masks implement parameter drawing and
per-sample evaluation.

Every mask respects two constraints from the paper:

* the target never exceeds the platform's TDP (enforced through the
  ``power_range`` the mask is constructed with);
* sinusoidal masks keep their frequency at or below the Nyquist rate of the
  power-sampling loop.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MaskGenerator",
    "SegmentedMask",
    "NHOLD_RANGE",
    "next_targets",
]

#: Section V-B: parameters are held for 6..120 samples.
NHOLD_RANGE: tuple[int, int] = (6, 120)


class MaskGenerator(abc.ABC):
    """Produces the target power sequence r(T)."""

    def __init__(self, power_range: tuple[float, float], rng: np.random.Generator) -> None:
        low, high = float(power_range[0]), float(power_range[1])
        if not low < high:
            raise ValueError("power_range must satisfy low < high")
        self.low_w = low
        self.high_w = high
        self._rng = rng

    @property
    def span_w(self) -> float:
        return self.high_w - self.low_w

    @property
    def name(self) -> str:
        return type(self).__name__

    @abc.abstractmethod
    def next_target(self) -> float:
        """The target power (watts) for the next control interval."""

    def generate(self, n_samples: int) -> np.ndarray:
        """Convenience: materialize ``n_samples`` targets."""
        targets_w = np.empty(n_samples, dtype=np.float64)
        for index in range(n_samples):
            targets_w[index] = self.next_target()
        return targets_w

    def reset(self) -> None:
        """Start a fresh segment schedule (keeps the RNG stream)."""

    def _clip(self, value: float) -> float:
        # min/max in this order are np.clip on floats, NaN and -0.0 included.
        return min(max(float(value), self.low_w), self.high_w)


def next_targets(masks: "list[MaskGenerator]") -> np.ndarray:
    """One target per generator, evaluated lock-step across a fleet.

    This is the batched-backend entry point for mask evaluation: the
    per-session draws stay on each mask's own RNG stream (in fleet order),
    and the per-sample arithmetic stays scalar, exactly as
    :meth:`MaskGenerator.next_target` runs serially.  The fleet-sized
    float64 vector it returns feeds :meth:`repro.control.ControllerFleet.step`.
    """
    targets_w = np.empty(len(masks), dtype=np.float64)
    for index, mask in enumerate(masks):
        targets_w[index] = mask.next_target()
    return targets_w


class SegmentedMask(MaskGenerator):
    """Base for masks that re-draw their parameters every N_hold samples."""

    def __init__(
        self,
        power_range: tuple[float, float],
        rng: np.random.Generator,
        nhold_range: tuple[int, int] = NHOLD_RANGE,
    ) -> None:
        super().__init__(power_range, rng)
        if not 1 <= nhold_range[0] <= nhold_range[1]:
            raise ValueError("invalid nhold_range")
        self.nhold_range = nhold_range
        self._samples_left = 0
        self._sample_index = 0

    def reset(self) -> None:
        self._samples_left = 0
        self._sample_index = 0

    def next_target(self) -> float:
        if self._samples_left == 0:
            self._samples_left = int(
                self._rng.integers(self.nhold_range[0], self.nhold_range[1] + 1)
            )
            self._draw_parameters(self._rng)
        self._samples_left -= 1
        value = self._evaluate(self._sample_index, self._rng)
        self._sample_index += 1
        return self._clip(value)

    @abc.abstractmethod
    def _draw_parameters(self, rng: np.random.Generator) -> None:
        """Draw a fresh parameter set for the next segment."""

    @abc.abstractmethod
    def _evaluate(self, sample_index: int, rng: np.random.Generator) -> float:
        """Target value at the global sample index with current parameters."""

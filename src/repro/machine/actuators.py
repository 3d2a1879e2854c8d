"""Actuators available to the defense: DVFS, idle injection, balloon task.

These model the three knobs the paper's implementation drives (Section V):

* :class:`DvfsActuator` — the ``cpufreq`` interface; discrete frequency
  levels in 0.1 GHz steps.
* :class:`IdleInjector` — Intel's ``powerclamp`` driver; forces a percentage
  of processor cycles idle, 0-48% in 4% steps.
* :class:`BalloonTask` — the custom power-burning application; one thread
  per logical core running matrix-multiply loops with a tunable duty cycle,
  0-100% in 10% steps.

Each actuator exposes its discrete ``levels`` and quantizes continuous
commands to the nearest level, which is exactly what the privileged-software
implementation does when writing sysfs files.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .platform import PlatformSpec

__all__ = [
    "QuantizedActuator",
    "DvfsActuator",
    "IdleInjector",
    "BalloonTask",
    "ActuatorSettings",
    "ActuatorBank",
]


class QuantizedActuator:
    """An actuator with a finite, ordered set of selectable levels."""

    def __init__(self, name: str, levels: np.ndarray) -> None:
        levels = np.asarray(levels, dtype=float)
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a non-empty 1-D array")
        if not np.all(np.diff(levels) > 0):
            raise ValueError("levels must be strictly increasing")
        self.name = name
        self.levels = levels
        #: Python-float copy for the scalar snap (``bisect`` on a list).
        self._level_list = levels.tolist()

    @property
    def min_level(self) -> float:
        return float(self.levels[0])

    @property
    def max_level(self) -> float:
        return float(self.levels[-1])

    def quantize(self, value: float) -> float:
        """Clamp ``value`` into range and snap it to the nearest level."""
        return self._level_list[self.snap_index(value)]

    def snap_index(self, value: float) -> int:
        """Index of the level :meth:`quantize` snaps ``value`` to.

        Bit-equal to ``argmin(abs(levels - clip(value, min, max)))``:
        ``min``/``max`` in this argument order are ``np.clip`` on floats
        (signed zeros and NaN included), and only the two levels that
        bracket the clamped value can be nearest.  The lower one wins an
        exact tie (first index, as ``argmin``), and NaN snaps to level 0
        (``argmin`` of an all-NaN row; ``bisect`` never moves past NaN).
        """
        levels = self._level_list
        value = min(max(float(value), levels[0]), levels[-1])
        index = bisect_left(levels, value)
        if index == 0:
            return 0
        if abs(levels[index - 1] - value) <= abs(levels[index] - value):
            return index - 1
        return index

    def normalize(self, value: float) -> float:
        """Map a level to [0, 1] over the actuator's range."""
        span = self.max_level - self.min_level
        if abs(span) < 1e-12:
            return 0.0
        return (float(value) - self.min_level) / span

    def denormalize(self, fraction: float) -> float:
        """Inverse of :meth:`normalize` followed by quantization."""
        return self._level_list[self.denormalize_index(fraction)]

    def denormalize_index(self, fraction: float) -> int:
        """Index of the level :meth:`denormalize` returns."""
        span = self.max_level - self.min_level
        return self.snap_index(self.min_level + float(fraction) * span)

    def random_level(self, rng: np.random.Generator) -> float:
        """Pick a uniformly random level (used by the noisy baselines)."""
        return float(rng.choice(self.levels))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"levels=[{self.min_level}..{self.max_level}] x{self.levels.size})"
        )


class DvfsActuator(QuantizedActuator):
    """DVFS levels of a platform, via the ``cpufreq`` userspace governor."""

    def __init__(self, spec: PlatformSpec) -> None:
        super().__init__("dvfs_ghz", spec.freq_levels_ghz)


class IdleInjector(QuantizedActuator):
    """Forced-idle fraction via the ``intel_powerclamp`` driver."""

    def __init__(self, spec: PlatformSpec) -> None:
        count = int(round(spec.idle_max / spec.idle_step)) + 1
        super().__init__("idle_frac", np.round(spec.idle_step * np.arange(count), 6))


class BalloonTask(QuantizedActuator):
    """Duty-cycle level of the floating-point balloon application."""

    def __init__(self, spec: PlatformSpec) -> None:
        count = int(round(1.0 / spec.balloon_step)) + 1
        super().__init__("balloon_level", np.round(spec.balloon_step * np.arange(count), 6))


@dataclass(frozen=True)
class ActuatorSettings:
    """A complete actuation command: one value per input of Figure 2."""

    freq_ghz: float
    idle_frac: float
    balloon_level: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.freq_ghz, self.idle_frac, self.balloon_level])

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        if not 0.0 <= self.idle_frac <= 1.0:
            raise ValueError("idle_frac must be in [0, 1]")
        if not 0.0 <= self.balloon_level <= 1.0:
            raise ValueError("balloon_level must be in [0, 1]")


class ActuatorBank:
    """The three actuators of a platform, with vector quantization helpers.

    The formal controller computes continuous input commands; the bank maps
    them to realizable :class:`ActuatorSettings` the way the sysfs writes do.
    """

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self.dvfs = DvfsActuator(spec)
        self.idle = IdleInjector(spec)
        self.balloon = BalloonTask(spec)
        # Fleet snap tables, one row per actuator, padded to the longest
        # level set: +inf levels are never nearest to a finite value.
        width = max(act.levels.size for act in self.actuators)
        self._rows = np.arange(3)
        self._level_table = np.full((3, width), np.inf)
        self._normalized_table = np.zeros((3, width))
        for row, act in enumerate(self.actuators):
            self._level_table[row, :act.levels.size] = act.levels
            self._normalized_table[row, :act.levels.size] = [
                act.normalize(level) for level in act._level_list
            ]
        self._mins = np.array([act.min_level for act in self.actuators])
        self._maxs = np.array([act.max_level for act in self.actuators])
        self._spans = self._maxs - self._mins
        #: Settings per snapped level triple (immutable, so shared).
        self._settings_by_index: dict = {}

    @property
    def actuators(self) -> tuple[QuantizedActuator, ...]:
        return (self.dvfs, self.idle, self.balloon)

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(act.name for act in self.actuators)

    def quantize(self, freq_ghz: float, idle_frac: float, balloon_level: float) -> ActuatorSettings:
        return ActuatorSettings(
            freq_ghz=self.dvfs.quantize(freq_ghz),
            idle_frac=self.idle.quantize(idle_frac),
            balloon_level=self.balloon.quantize(balloon_level),
        )

    def quantize_normalized(self, fractions: np.ndarray) -> ActuatorSettings:
        """Quantize a normalized [0,1]^3 command vector to settings."""
        fractions = np.asarray(fractions, dtype=float)
        if fractions.shape != (3,):
            raise ValueError("expected a 3-element command vector")
        return self.settings_for(self.quantize_index(fractions.tolist()))

    def quantize_index(self, fractions: "list[float]") -> "tuple[int, int, int]":
        """Level indices :meth:`quantize_normalized` snaps a command to."""
        return (
            self.dvfs.denormalize_index(fractions[0]),
            self.idle.denormalize_index(fractions[1]),
            self.balloon.denormalize_index(fractions[2]),
        )

    def quantize_indices(self, fractions: np.ndarray) -> np.ndarray:
        """:meth:`quantize_index` for every row of ``(B, 3)`` commands.

        The same denormalize arithmetic and clamp, elementwise, then one
        ``(B, 3, L)`` ``argmin``: first index wins ties and NaN rows, as in
        the scalar snap.
        """
        values = np.clip(self._mins + fractions * self._spans, self._mins, self._maxs)
        return np.argmin(np.abs(self._level_table - values[..., None]), axis=-1)

    def normalized_levels(self, indices) -> np.ndarray:
        """:meth:`normalize` of snapped level indices, ``(3,)`` or ``(B, 3)``."""
        return self._normalized_table[self._rows, indices]

    def settings_for(self, index: "tuple[int, int, int]") -> ActuatorSettings:
        """The settings at one triple of level indices (shared, immutable)."""
        settings = self._settings_by_index.get(index)
        if settings is None:
            settings = self._settings_by_index[index] = ActuatorSettings(
                self.dvfs._level_list[index[0]],
                self.idle._level_list[index[1]],
                self.balloon._level_list[index[2]],
            )
        return settings

    def settings_at(self, indices: np.ndarray) -> "list[ActuatorSettings]":
        """One :meth:`settings_for` per row of ``(B, 3)`` level indices."""
        return [self.settings_for(index) for index in map(tuple, indices.tolist())]

    def normalize(self, settings: ActuatorSettings) -> np.ndarray:
        """Map settings to the normalized [0,1]^3 space the controller uses."""
        return np.array(
            [
                self.dvfs.normalize(settings.freq_ghz),
                self.idle.normalize(settings.idle_frac),
                self.balloon.normalize(settings.balloon_level),
            ]
        )

    def max_performance(self) -> ActuatorSettings:
        """The insecure Baseline operating point (Section VII-E)."""
        return ActuatorSettings(self.dvfs.max_level, 0.0, 0.0)

    def random_settings(self, rng: np.random.Generator) -> ActuatorSettings:
        """Uniformly random settings (Noisy Baseline / Random Inputs)."""
        return ActuatorSettings(
            freq_ghz=self.dvfs.random_level(rng),
            idle_frac=self.idle.random_level(rng),
            balloon_level=self.balloon.random_level(rng),
        )
